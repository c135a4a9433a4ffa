//! Criterion bench of the functional copy paths (CPU cache vs NearPM unit),
//! complementing the analytic Figure 17 microbenchmark.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nearpm_core::{NearPmOp, NearPmSystem, OffloadBatch, Region, SystemConfig};

fn bench_copy(c: &mut Criterion) {
    let mut group = c.benchmark_group("copy_primitive");
    for &size in &[64u64, 1024, 4096, 16384] {
        group.bench_with_input(BenchmarkId::new("cpu_copy", size), &size, |b, &size| {
            b.iter(|| {
                let mut sys = NearPmSystem::new(SystemConfig::baseline().with_capacity(4 << 20));
                let pool = sys.create_pool("p", 1 << 20).unwrap();
                let src = sys.alloc(pool, size, 4096).unwrap();
                let dst = sys.alloc(pool, size, 4096).unwrap();
                sys.cpu_copy(0, src, dst, size, Region::CcDataMovement)
                    .unwrap();
                sys.report().makespan
            })
        });
        group.bench_with_input(BenchmarkId::new("nearpm_copy", size), &size, |b, &size| {
            b.iter(|| {
                let mut sys = NearPmSystem::new(SystemConfig::nearpm_sd().with_capacity(4 << 20));
                let pool = sys.create_pool("p", 1 << 20).unwrap();
                let src = sys.alloc(pool, size, 4096).unwrap();
                let dst = sys.alloc(pool, size, 4096).unwrap();
                sys.offload_into(
                    &mut OffloadBatch::new(),
                    0,
                    pool,
                    NearPmOp::ShadowCopy {
                        src,
                        dst,
                        len: size,
                    },
                    &[],
                )
                .unwrap();
                sys.report().makespan
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_copy);
criterion_main!(benches);
