//! Criterion bench of the PPO checker: `check_all` (a one-batch incremental
//! fold) vs the naive nested-scan oracle, on fig16-shaped synthetic traces.
//!
//! The naive oracle is only run at small sizes (its cost grows
//! quadratically); the fold is benched up to fig16 scale. The
//! `ppo_check_smoke` binary performs the head-to-head ≥100k-event comparison.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nearpm_bench::synthetic::{synthetic_undo_log_trace, SyntheticTraceSpec};
use nearpm_ppo::check_all;
use nearpm_ppo::invariants::oracle;

fn bench_ppo_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("ppo_check");
    group.sample_size(10);

    for &events in &[10_000usize, 50_000, 100_000] {
        let trace = synthetic_undo_log_trace(SyntheticTraceSpec::fig16(events));
        group.bench_with_input(BenchmarkId::new("fold", events), &trace, |b, t| {
            b.iter(|| check_all(t).len())
        });
    }

    // The oracle is quadratic; keep it to sizes where one sample is < ~1 s.
    for &events in &[2_000usize, 10_000] {
        let trace = synthetic_undo_log_trace(SyntheticTraceSpec::fig16(events));
        group.bench_with_input(BenchmarkId::new("naive_oracle", events), &trace, |b, t| {
            b.iter(|| oracle::check_all(t).len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ppo_check);
criterion_main!(benches);
