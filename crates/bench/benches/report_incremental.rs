//! Criterion bench: the incremental observe path against the O(n) oracle
//! recompute, at two scales, on a live fig20-shaped system: steady-state
//! `report()` (aggregates maintained, checker cached, no new events between
//! iterations — the cost a continuously self-sampling run pays per sample)
//! vs `report_oracle()` (full re-aggregation + from-scratch trace check per
//! call).
//!
//! Run with: `cargo bench -p nearpm-bench --bench report_incremental`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nearpm_bench::synthetic::drive_fig20_system;

fn report_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("report_incremental");
    group.sample_size(10);
    for &events in &[10_000usize, 40_000] {
        let mut sys = drive_fig20_system(16, events, |_, _| {});
        // Fold everything once so the timed iterations measure the
        // steady-state resample cost, not the first fold.
        let warm = sys.report();
        assert!(warm.ppo_violations.is_empty());
        group.bench_with_input(
            BenchmarkId::new("incremental_sample", events),
            &events,
            |b, _| b.iter(|| sys.report()),
        );
        group.bench_with_input(
            BenchmarkId::new("oracle_recompute", events),
            &events,
            |b, _| b.iter(|| sys.report_oracle()),
        );
    }
    group.finish();
}

criterion_group!(benches, report_paths);
criterion_main!(benches);
