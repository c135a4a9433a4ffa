//! Criterion bench of the schedule/overlap analysis: the task graph's
//! incrementally maintained sums and timeline vs the retained rescanning
//! oracle that re-merges intervals per query.
//!
//! Both sides answer the same fig18-style analysis battery (makespan,
//! busy/overlap totals, per-region times, per-resource utilization). The
//! `schedule_smoke` binary performs the fig18-scale head-to-head with the
//! ≥10x assertion.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nearpm_bench::synthetic::{
    rescanning_schedule_analysis, synthetic_fig18_graph, timeline_schedule_analysis,
};

fn bench_schedule_compute(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_compute");
    group.sample_size(10);

    for &tasks in &[10_000usize, 50_000, 120_000] {
        let graph = synthetic_fig18_graph(tasks);
        group.bench_with_input(BenchmarkId::new("timeline", tasks), &graph, |b, g| {
            b.iter(|| timeline_schedule_analysis(g))
        });
    }

    // The rescanning oracle pays a full task-list scan per query; keep it to
    // sizes where a sample stays affordable.
    for &tasks in &[10_000usize, 50_000] {
        let graph = synthetic_fig18_graph(tasks);
        group.bench_with_input(
            BenchmarkId::new("rescanning_oracle", tasks),
            &graph,
            |b, g| b.iter(|| rescanning_schedule_analysis(g)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_schedule_compute);
criterion_main!(benches);
