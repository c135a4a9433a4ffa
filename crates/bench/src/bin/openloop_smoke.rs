//! CI smoke gate for the open-loop traffic driver: the knee must be where
//! queueing theory says it is, and the latency histogram must agree with the
//! exact sorted-percentile oracle on every sampled window.
//!
//! Three check groups over the same machinery the fig22 figure prints (the
//! figure itself asserts each mechanism's monotone p99 and knee):
//!
//! 1. **Below the knee** (0.6 μ, the million-op leg): achieved throughput
//!    tracks offered load within 10 %, p99 stays bounded (≤ 20× p50 — no
//!    queueing collapse), and the run completes at ≥ 1M requests inside the
//!    gate budget using the compacting trace path (windows double as
//!    compaction points).
//! 2. **Histogram oracle**: on every sampled window of both legs, the
//!    log-bucketed histogram's p50/p99/p999/max must equal the exact
//!    sorted-latency oracle's answer (bucket-edge equality, not a tolerance
//!    band).
//! 3. **Above the knee** (4 μ): throughput saturates near μ, delivery
//!    collapses, and the per-window p99 rises monotonically — the backlog
//!    grows without bound, exactly what a closed loop can never show.
//! 4. **Peak memory**: after both legs the process high-water mark
//!    (`VmHWM`) must stay under [`PEAK_RSS_CEILING_MIB`], so checker state
//!    that grows with the event count instead of the touched footprint
//!    fails the gate.
//!
//! Exits non-zero on any violation.

use nearpm_bench::calibrate_service_rate;
use nearpm_cc::Mechanism;
use nearpm_workloads::{run_open_loop, ArrivalProcess, OpenLoopOptions, OpenLoopReport, Workload};

/// Requests of the million-op below-knee leg.
const OPS: usize = 1_000_000;
/// Workload of the scale legs: metadata ops have the highest command rate
/// per unit of simulated work we model, so a million requests stay cheap.
const WORKLOAD: Workload = Workload::MetaOps;
/// Server threads of the scale legs.
const THREADS: usize = 4;
/// Closed-loop operations of the μ calibration run.
const CALIBRATION_OPS: usize = 4096;
const SEED: u64 = 1;
/// Ceiling on the process's peak resident memory after both legs. It sits
/// above the measured peak (about 300 MiB) and below the about 820 MiB the
/// same run reaches when the simulator keeps every task timing, busy
/// interval and FIFO residency for the whole run, so a return to simulator
/// or checker state that grows with the run instead of with what lies above
/// the watermark fails.
const PEAK_RSS_CEILING_MIB: f64 = 512.0;

/// Host memory high-water mark of this process, in MiB (`VmHWM` from
/// `/proc/self/status`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse::<f64>()
        .ok()?;
    Some(kib / 1024.0)
}

/// Checks the histogram-vs-exact-oracle differential on every window.
fn windows_match_oracle(report: &OpenLoopReport, leg: &str, failures: &mut usize) {
    let mut bad = 0usize;
    for (i, w) in report.windows.iter().enumerate() {
        match w.matches_exact_oracle() {
            Some(true) => {}
            verdict => {
                eprintln!("  {leg} window {i}: histogram/oracle differential {verdict:?}");
                bad += 1;
            }
        }
    }
    let ok = bad == 0;
    println!(
        "  {leg}: {} windows vs exact oracle {}",
        report.windows.len(),
        if ok { "ok" } else { "DIVERGED" }
    );
    if !ok {
        *failures += 1;
    }
}

fn main() {
    let mut failures = 0usize;
    println!("openloop smoke: {OPS} requests below the knee, {WORKLOAD:?} × {THREADS} threads");

    let mu = calibrate_service_rate(WORKLOAD, Mechanism::Logging, CALIBRATION_OPS, THREADS, SEED);
    println!("  calibrated service rate μ = {mu:.0} op/s");

    // Leg 1: below the knee at million-op scale, compacting trace path.
    let below = run_open_loop(
        &OpenLoopOptions::new(
            WORKLOAD,
            Mechanism::Logging,
            ArrivalProcess::poisson(0.6 * mu),
            OPS,
        )
        .with_threads(THREADS)
        .with_seed(SEED)
        .with_windows(16)
        .with_exact_oracle(true)
        .with_trace_compaction(true),
    )
    .expect("below-knee run failed");
    let delivery = below.delivery_ratio();
    let ok = (0.9..=1.1).contains(&delivery);
    println!(
        "  below knee (0.6×μ): delivery {delivery:.3} {}",
        if ok {
            "ok"
        } else {
            "NOT TRACKING OFFERED LOAD"
        }
    );
    if !ok {
        failures += 1;
    }
    let (p50, p99) = (below.hist.percentile(0.5).as_us(), below.p99().as_us());
    let ok = p99 <= 20.0 * p50 && below.hist.count() == OPS as u64;
    println!(
        "  below knee: p50 {p50:.3} µs, p99 {p99:.3} µs, {} requests {}",
        below.hist.count(),
        if ok { "ok" } else { "UNBOUNDED TAIL" }
    );
    if !ok {
        failures += 1;
    }
    windows_match_oracle(&below, "below knee", &mut failures);

    // Leg 2: above the knee — saturation and the monotone p99 blow-up.
    let above_ops = OPS / 8;
    let above = run_open_loop(
        &OpenLoopOptions::new(
            WORKLOAD,
            Mechanism::Logging,
            ArrivalProcess::poisson(4.0 * mu),
            above_ops,
        )
        .with_threads(THREADS)
        .with_seed(SEED)
        .with_windows(8)
        .with_exact_oracle(true)
        .with_trace_compaction(true),
    )
    .expect("above-knee run failed");
    let ok = above.achieved_ops_per_s <= 1.3 * mu && above.delivery_ratio() < 0.7;
    println!(
        "  above knee (4×μ): achieved {:.0} op/s vs μ {mu:.0}, delivery {:.3} {}",
        above.achieved_ops_per_s,
        above.delivery_ratio(),
        if ok { "ok" } else { "NOT SATURATING" }
    );
    if !ok {
        failures += 1;
    }
    let window_p99s: Vec<f64> = above.windows.iter().map(|w| w.hist.p99().as_us()).collect();
    let rising = window_p99s.windows(2).all(|w| w[1] >= w[0])
        && window_p99s.last().copied().unwrap_or(0.0)
            >= 2.0 * window_p99s.first().copied().unwrap_or(f64::INFINITY);
    println!(
        "  above knee: window p99 {:.3} → {:.3} µs across {} windows {}",
        window_p99s.first().copied().unwrap_or(0.0),
        window_p99s.last().copied().unwrap_or(0.0),
        window_p99s.len(),
        if rising { "ok" } else { "NOT RISING" }
    );
    if !rising {
        failures += 1;
    }
    windows_match_oracle(&above, "above knee", &mut failures);

    let peak = peak_rss_mib();
    let ok = peak.is_some_and(|mib| mib <= PEAK_RSS_CEILING_MIB);
    println!(
        "  peak RSS {} MiB (ceiling {PEAK_RSS_CEILING_MIB:.0} MiB) {}",
        peak.map_or("unknown".to_string(), |mib| format!("{mib:.0}")),
        if ok { "ok" } else { "OVER THE CEILING" }
    );
    if !ok {
        failures += 1;
    }

    if failures > 0 {
        eprintln!("openloop smoke FAILED: {failures} violations");
        std::process::exit(1);
    }
    println!("openloop smoke passed: knee where queueing predicts, histogram equals the oracle");
}
