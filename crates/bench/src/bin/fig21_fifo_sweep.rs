//! Figure 21 (beyond the paper): sensitivity of multithreaded throughput to
//! the request-FIFO depth — where does the control path become the
//! bottleneck?
//!
//! The prototype's front-end has a 32-entry request FIFO per device; the
//! backpressure model surfaces its high watermark and the time hosts spend
//! stalled at a full FIFO. This sweep runs the fig20-style 16-thread
//! memcached/redis configurations (the heaviest command streams we model)
//! with depth 4/8/16/32 and reports normalized throughput next to the
//! observed occupancy and stalls: shallow FIFOs serialize the hosts against
//! the front-end, deep FIFOs absorb the bursts until the units themselves
//! saturate.
//!
//! The `metaops` rows drive the synthetic short-device-program workload
//! (pure metadata ops: 64 B updates behind ~150 ns of compute over a small
//! working set), whose command rate per byte of device work is the highest
//! we model. The long unit programs of memcached/redis made the FIFO
//! pressure look like a side effect of DMA time; metadata ops reach the
//! same near-full natural occupancy (high watermark ≈ 16 at 16 threads)
//! with an order of magnitude less data movement, so the depth-4/8 knee in
//! the occupancy and stall columns is unambiguously the *control path*:
//! commands pile up behind in-flight commit resets (whose issue stages hold
//! their slots while the delayed sync completes), not behind the DMA
//! engines. Stall *time* stays small at every depth — a stalled post only
//! waits for the oldest front-end stage to retire — which is itself the
//! figure's finding: the prototype's depth of 32 has generous headroom.

use nearpm_bench::header;
use nearpm_cc::Mechanism;
use nearpm_core::ExecMode;
use nearpm_workloads::{MultiClientHarness, Workload};

/// Operations per client.
const OPS_PER_CLIENT: usize = 32;
/// Thread count of the sweep (the fig20 maximum, where FIFO pressure peaks).
const CLIENTS: usize = 16;
/// Swept request-FIFO depths; 32 is the prototype's value.
const DEPTHS: [usize; 4] = [4, 8, 16, 32];

fn main() {
    for m in [Mechanism::Logging, Mechanism::ShadowPaging] {
        header(
            &format!(
                "Figure 21: FIFO-depth sensitivity at {CLIENTS} threads, {}",
                m.label()
            ),
            &[
                "workload",
                "fifo_depth",
                "norm_throughput_x",
                "fifo_hw",
                "stall_us",
                "stalls",
                "p99_us",
            ],
        );
        for w in [Workload::Memcached, Workload::Redis, Workload::MetaOps] {
            // The CPU baseline has no request FIFO: one baseline serves the
            // whole depth sweep (and the cache keeps it warm across the
            // depth clones below).
            let harness = MultiClientHarness::new(w, m)
                .with_clients(CLIENTS)
                .with_ops_per_client(OPS_PER_CLIENT)
                .with_latency_tracking(true);
            let base = harness.baseline().expect("baseline run failed");
            for depth in DEPTHS {
                let md = harness
                    .clone()
                    .with_fifo_depth(depth)
                    .run_mode(ExecMode::NearPmMd)
                    .expect("NearPM MD run failed");
                // Per-op p99 includes any admission stall at a full FIFO, so
                // shallow depths surface in the tail as well as in stall_us.
                let p99 = md.request_latency.as_ref().map_or(0.0, |l| l.p99.as_us());
                println!(
                    "{}\t{}\t{:.3}\t{}\t{:.2}\t{}\t{:.3}",
                    w.name(),
                    depth,
                    md.speedup_over(&base),
                    md.fifo_high_watermark,
                    md.fifo_stall_time.as_us(),
                    md.fifo_stalls,
                    p99
                );
            }
        }
    }
    println!(
        "(shallow FIFOs stall the hosts; at the prototype depth the units bottleneck instead)"
    );
}
