//! fig18-scale schedule-analysis smoke test: timeline vs rescanning oracle.
//!
//! Builds a synthetic task graph with the shape of a fig18 parallelism run
//! (≥100k tasks), answers the same analysis battery with the graph's
//! incrementally maintained sums and timeline and with the retained
//! per-query rescanning oracle, verifies both produce the identical checksum
//! (same makespan, CPU/NDP busy, overlap, region, and utilization answers),
//! and asserts the timeline implementation is at least 10× faster. Exits
//! nonzero on any mismatch or if the speedup target is missed.
//!
//! Run with: `cargo run --release -p nearpm-bench --bin schedule_smoke`

use std::time::{Duration, Instant};

use nearpm_bench::synthetic::{
    rescanning_schedule_analysis, synthetic_fig18_graph, timeline_schedule_analysis,
};

const TARGET_TASKS: usize = 120_000;
const REQUIRED_SPEEDUP: f64 = 10.0;

fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

fn main() {
    println!("== schedule_compute smoke test (fig18 scale) ==");
    let (graph, gen_time) = time(|| synthetic_fig18_graph(TARGET_TASKS));
    println!("graph: {} tasks (generated in {gen_time:?})", graph.len());
    assert!(
        graph.len() >= 100_000,
        "graph too small for the acceptance bar"
    );

    // Timeline: several runs, keep the fastest (steady-state figure).
    let mut timeline_best = Duration::MAX;
    let mut timeline_sum = 0u64;
    for _ in 0..5 {
        let (sum, d) = time(|| timeline_schedule_analysis(&graph));
        timeline_best = timeline_best.min(d);
        timeline_sum = sum;
    }

    // Rescanning oracle: one run (it is the slow side by construction).
    let (oracle_sum, oracle_time) = time(|| rescanning_schedule_analysis(&graph));

    println!("timeline analysis:   {timeline_best:?} (best of 5)");
    println!("rescanning analysis: {oracle_time:?}");
    assert_eq!(
        timeline_sum, oracle_sum,
        "timeline and rescanning oracle disagree at fig18 scale"
    );

    let speedup = oracle_time.as_secs_f64() / timeline_best.as_secs_f64().max(1e-9);
    println!("speedup: {speedup:.1}x (required: ≥{REQUIRED_SPEEDUP:.0}x)");
    if speedup < REQUIRED_SPEEDUP {
        eprintln!("FAIL: speedup below target");
        std::process::exit(1);
    }
    println!("OK: identical analysis answers, ≥{REQUIRED_SPEEDUP:.0}x speedup");
}
