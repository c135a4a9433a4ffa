//! Figure 20: multithreaded throughput of memcached and redis (NearPM MD)
//! normalized to an equal-thread CPU baseline, 1-16 threads, driven by the
//! shared multi-client closed-loop harness.
//!
//! Paper reference: NearPM stays above 1.0x but its advantage shrinks as the
//! thread count grows because the prototype has only four units per device.
//! The stall column reports the backpressure the request FIFOs exerted on
//! the hosts (total stall time across devices).
//!
//! After printing, the binary asserts the paper's claim and exits non-zero
//! if any mechanism, workload and thread count falls below 1.0x — the
//! regression the per-unit front-end pipelining fixed (a single-stage
//! dispatcher front-end drops to ~0.2-0.8x at 8-16 threads).

use nearpm_bench::header;
use nearpm_cc::Mechanism;
use nearpm_core::ExecMode;
use nearpm_workloads::{MultiClientHarness, Workload};

/// Operations *per thread* (raised from the pre-timeline 24 now that
/// checking and schedule analysis are ~linear).
const OPS_PER_THREAD: usize = 96;
/// The paper's fig20 claim: normalized throughput never drops below 1.0x.
const BAR: f64 = 1.0;

fn main() {
    let mut below_bar = Vec::new();
    for m in [
        Mechanism::Logging,
        Mechanism::Checkpointing,
        Mechanism::ShadowPaging,
    ] {
        header(
            &format!("Figure 20: multithreaded throughput, {}", m.label()),
            &[
                "workload",
                "threads",
                "norm_throughput_x",
                "fifo_hw",
                "stall_us",
                "p99_us",
            ],
        );
        for w in [Workload::Memcached, Workload::Redis] {
            for threads in [1usize, 2, 4, 8, 16] {
                let cmp = MultiClientHarness::new(w, m)
                    .with_clients(threads)
                    .with_ops_per_client(OPS_PER_THREAD)
                    .with_latency_tracking(true)
                    .compare(ExecMode::NearPmMd)
                    .expect("workload run failed");
                // Per-op service latency tail (closed loop: no queueing wait,
                // so this is the pure service-time p99).
                let p99 = cmp
                    .nearpm
                    .request_latency
                    .as_ref()
                    .map_or(0.0, |l| l.p99.as_us());
                let norm = cmp.speedup();
                println!(
                    "{}\t{}\t{:.3}\t{}\t{:.2}\t{:.3}",
                    w.name(),
                    threads,
                    norm,
                    cmp.nearpm.fifo_high_watermark,
                    cmp.nearpm.fifo_stall_time.as_us(),
                    p99
                );
                if norm < BAR {
                    below_bar.push(format!("{} {} {threads}T {norm:.3}x", m.label(), w.name()));
                }
            }
        }
    }
    println!("(paper: above 1.0x, decreasing with thread count)");
    assert!(
        below_bar.is_empty(),
        "fig20: normalized throughput below {BAR}x at {below_bar:?}"
    );
}
