//! Figure 22 (beyond the paper): open-loop offered-load sweep — the
//! throughput knee and the p99 blow-up, per crash-consistency mechanism.
//!
//! Every other figure is closed-loop: N clients issue the next request only
//! when the previous one retires, so offered load can never exceed service
//! rate and queueing collapse is invisible by construction. This sweep
//! drives the same workloads as **open-loop traffic**: request arrivals come
//! from a seeded Poisson process at a configured rate, each request is
//! admitted at its arrival time, and latency is measured from arrival to
//! commit retire — including any wait in the host backlog and any stall at a
//! full device FIFO.
//!
//! For each mechanism the sweep first calibrates the closed-loop service
//! rate μ, then offers `FIG22_LOAD_FRACTIONS × μ`. Below the knee the
//! achieved throughput tracks the offered load (delivery ≈ 1) and p99 sits
//! at the service-time tail; past the knee throughput saturates near μ while
//! p99 and the host backlog grow without bound. The knee line reports the
//! highest offered load the server still delivered at ≥ 95 %.
//!
//! A second section fixes the offered load at 0.75 μ and swaps the arrival
//! process — Poisson vs bursty on/off vs sinusoidal diurnal at the **same
//! long-run mean rate** — showing how burstiness alone moves the tail.
//!
//! After printing, the binary asserts every mechanism's curve shape and
//! exits non-zero if one breaks: p99 is monotone non-decreasing in offered
//! load (modulo histogram quantization), and throughput saturates — the
//! lowest load is delivered, the highest is not, and its achieved rate
//! stays near μ.

use nearpm_bench::{
    fig22_sweep, header, open_loop_point, p99_monotone, FIG22_THREADS, FIG22_WORKLOAD,
};
use nearpm_cc::Mechanism;
use nearpm_workloads::{run_open_loop, ArrivalProcess, OpenLoopOptions};

/// Requests per offered-load point.
const OPS_PER_POINT: usize = 192;
/// Seed of the sweep (workload content and arrivals derive independent
/// streams from it).
const SEED: u64 = 1;
/// Fractional p99 dip tolerated between consecutive load points, for the
/// histogram's bucket quantization (see [`p99_monotone`]).
const P99_SLACK: f64 = 0.02;

fn main() {
    let mut sweeps = Vec::new();
    for m in Mechanism::all_extended() {
        let (mu, points) = fig22_sweep(m, OPS_PER_POINT, SEED);
        header(
            &format!(
                "Figure 22: open-loop offered-load sweep, {} (μ = {:.0} op/s)",
                m.label(),
                mu
            ),
            &[
                "load_frac",
                "offered_kops",
                "achieved_kops",
                "delivery",
                "p50_us",
                "p99_us",
                "backlog_hw",
                "wait_us",
                "fifo_stalls",
            ],
        );
        for p in &points {
            println!(
                "{:.2}\t{:.1}\t{:.1}\t{:.3}\t{:.3}\t{:.3}\t{}\t{:.3}\t{}",
                p.fraction,
                p.offered_ops_per_s / 1e3,
                p.achieved_ops_per_s / 1e3,
                p.delivery_ratio,
                p.p50_us,
                p.p99_us,
                p.max_backlog,
                p.mean_wait_us,
                p.fifo_stalls
            );
        }
        let knee = points
            .iter()
            .filter(|p| p.delivery_ratio >= 0.95)
            .map(|p| p.fraction)
            .fold(0.0f64, f64::max);
        println!("(knee: delivery ≥ 0.95 holds through {knee:.2}×μ; beyond it p99 blows up)");
        sweeps.push((m, mu, points));
    }

    // Same mean offered load, three arrival processes: burstiness alone
    // moves the tail even when the long-run rate is identical.
    let mu = nearpm_bench::calibrate_service_rate(
        FIG22_WORKLOAD,
        Mechanism::Logging,
        OPS_PER_POINT,
        FIG22_THREADS,
        SEED,
    );
    let rate = 0.75 * mu;
    header(
        &format!(
            "Figure 22b: arrival-process shape at 0.75×μ, {} (same mean rate)",
            Mechanism::Logging.label()
        ),
        &[
            "process",
            "delivery",
            "p50_us",
            "p99_us",
            "backlog_hw",
            "wait_us",
        ],
    );
    // Diurnal is parameterized by its trough rate; divide by the sinusoid's
    // mean multiplier `(1 + peak) / 2` so all three processes offer the same
    // long-run rate.
    let diurnal_peak = 3.0;
    let diurnal_trough = rate / ((1.0 + diurnal_peak) / 2.0);
    for process in [
        ArrivalProcess::poisson(rate),
        ArrivalProcess::bursty(rate, 8.0, 16.0),
        ArrivalProcess::diurnal(diurnal_trough, diurnal_peak, 1.0e-4),
    ] {
        let opts = OpenLoopOptions::new(FIG22_WORKLOAD, Mechanism::Logging, process, OPS_PER_POINT)
            .with_threads(FIG22_THREADS)
            .with_seed(SEED);
        let report = run_open_loop(&opts).expect("open-loop run failed");
        let p = open_loop_point(report.offered_ops_per_s / mu, &report);
        println!(
            "{}\t{:.3}\t{:.3}\t{:.3}\t{}\t{:.3}",
            process.label(),
            p.delivery_ratio,
            p.p50_us,
            p.p99_us,
            p.max_backlog,
            p.mean_wait_us
        );
    }
    println!("(open loop: throughput tracks offered load until μ, then p99 diverges)");

    for (m, mu, points) in &sweeps {
        assert!(
            p99_monotone(points, P99_SLACK),
            "fig22 {}: p99 is not monotone in offered load",
            m.label()
        );
        let (low, high) = (&points[0], &points[points.len() - 1]);
        assert!(
            low.delivery_ratio >= 0.9
                && high.delivery_ratio < 0.8
                && high.achieved_ops_per_s <= 1.3 * mu,
            "fig22 {}: no knee (delivery {:.3} → {:.3}, achieved {:.0} op/s vs μ {mu:.0})",
            m.label(),
            low.delivery_ratio,
            high.delivery_ratio,
            high.achieved_ops_per_s
        );
    }
}
