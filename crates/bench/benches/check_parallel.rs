//! Criterion bench of parallel PPO checking: a one-batch `IncrementalChecker`
//! fold of a whole fig16-shaped synthetic trace at 1/2/4/8 workers.
//!
//! The fold shards each batch's pair sweeps across a scoped worker pool and
//! concatenates the results in job order, so every worker count yields the
//! identical violation list; worker count 1 is the serial fold on the
//! calling thread (what `check_all` runs).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nearpm_bench::synthetic::{synthetic_undo_log_trace, SyntheticTraceSpec};
use nearpm_ppo::IncrementalChecker;

fn bench_check_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("check_parallel");
    group.sample_size(10);

    for &events in &[50_000usize, 200_000] {
        let trace = synthetic_undo_log_trace(SyntheticTraceSpec::fig16(events));
        for &workers in &[1usize, 2, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("fold_w{workers}"), events),
                &trace,
                |b, t| {
                    b.iter(|| {
                        let mut fold = IncrementalChecker::new();
                        fold.set_workers(workers);
                        fold.check(t).len()
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_check_parallel);
criterion_main!(benches);
