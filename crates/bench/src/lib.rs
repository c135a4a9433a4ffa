//! # nearpm-bench — figure and table regeneration harness
//!
//! One binary per figure/table of the paper's evaluation (Section 8). Each
//! binary drives the workloads in `nearpm-workloads` under the relevant
//! configurations and prints the same rows/series the paper reports, plus the
//! paper's reference numbers for comparison. Absolute values differ (the
//! substrate is a simulator, not the authors' FPGA testbed), but the shape —
//! who wins, by roughly what factor — is the reproduction target.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod synthetic;

use nearpm_cc::Mechanism;
use nearpm_core::{ExecMode, RunReport};
use nearpm_workloads::{
    run_open_loop, ArrivalProcess, MultiClientHarness, OpenLoopOptions, OpenLoopReport, RunOptions,
    Runner, Workload,
};

/// Default number of operations per workload run. Raised toward paper scale
/// now that trace checking and schedule analysis are ~linear; every figure
/// still regenerates in seconds. Override per run with `--ops N`.
pub const DEFAULT_OPS: usize = 256;

/// Parses `--ops N` (or `--ops=N`) from the process arguments, falling back
/// to `default`. Figure binaries use this so sweeps can be re-run at paper
/// scale (or quickly, in CI smoke mode) without recompiling.
pub fn ops_from_args(default: usize) -> usize {
    parse_ops(std::env::args().skip(1), default)
}

/// Parses `--ops N` / `--ops=N` from an argument stream.
///
/// Zero is rejected like any other invalid value (with a warning and the
/// default): a zero-op run has a zero makespan, which used to make fig20's
/// `makespan/makespan` ratio silently report 0.0 instead of a measurement.
pub fn parse_ops<I: Iterator<Item = String>>(mut args: I, default: usize) -> usize {
    while let Some(a) = args.next() {
        let value = if a == "--ops" {
            match args.next() {
                Some(v) => v,
                None => {
                    eprintln!("--ops expects a positive integer; using {default}");
                    continue;
                }
            }
        } else if let Some(v) = a.strip_prefix("--ops=") {
            v.to_string()
        } else {
            continue;
        };
        match value.parse::<usize>() {
            Ok(n) if n > 0 => return n,
            _ => eprintln!("--ops expects a positive integer, got {value:?}; using {default}"),
        }
    }
    default
}

/// Runs one workload/mechanism/mode combination.
pub fn run_one(w: Workload, m: Mechanism, mode: ExecMode, ops: usize, seed: u64) -> RunReport {
    Runner::new(w, RunOptions::new(mode, m, ops).with_seed(seed))
        .run()
        .expect("workload run failed")
}

/// Pretty-prints a table header.
pub fn header(title: &str, columns: &[&str]) {
    println!("\n== {title} ==");
    println!("{}", columns.join("\t"));
}

/// Geometric mean of the positive values (non-positive ones are skipped;
/// 0 if none remain) — the speedup aggregation across workloads.
pub fn gmean(values: &[f64]) -> f64 {
    let positive: Vec<f64> = values.iter().copied().filter(|v| *v > 0.0).collect();
    if positive.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = positive.iter().map(|v| v.ln()).sum();
    (log_sum / positive.len() as f64).exp()
}

/// All (mechanism, per-mechanism paper averages) used in several figures.
pub fn mechanisms() -> [Mechanism; 3] {
    Mechanism::all()
}

/// All workloads in figure order.
pub fn workloads() -> [Workload; 9] {
    Workload::all()
}

/// Client counts of the fig19 units×clients sweep (and its smoke gate). One
/// closed-loop client cannot contend the units; the heavier points are what
/// let the unit count matter.
pub const FIG19_CLIENTS: [usize; 3] = [1, 4, 8];

/// Unit counts of the fig19 sweep, in the paper's order.
pub const FIG19_UNITS: [usize; 3] = [1, 2, 4];

/// One unit-count row of the fig19 units×clients sweep.
#[derive(Debug, Clone)]
pub struct Fig19Point {
    /// NearPM units per device of this row.
    pub units: usize,
    /// Per-client-count average speedup (gmean over all workloads), indexed
    /// like [`FIG19_CLIENTS`].
    pub per_clients: Vec<f64>,
    /// Combined average over workloads × client counts (the figure's
    /// headline curve, and what the smoke gate requires to grow strictly).
    pub combined: f64,
    /// Lowest per-unit utilization seen across the row's NearPM MD runs.
    pub util_min: f64,
    /// Highest per-unit utilization seen across the row's NearPM MD runs.
    pub util_max: f64,
    /// Total PPO violations across the row's NearPM MD runs (must be 0).
    pub violations: usize,
}

/// The fig19 units×clients sweep (logging, NearPM MD vs an equal-client CPU
/// baseline): one [`Fig19Point`] per entry of [`FIG19_UNITS`]. Shared by the
/// `fig19_units_sweep` figure binary and the `fig19_smoke` CI gate so the
/// gate can never desynchronize from the published figure.
pub fn fig19_sweep(ops_per_client: usize) -> Vec<Fig19Point> {
    // The equal-client baseline is independent of the unit count: one
    // baseline per (workload, clients) point serves the whole unit sweep.
    let baselines: Vec<Vec<RunReport>> = workloads()
        .iter()
        .map(|&w| {
            FIG19_CLIENTS
                .iter()
                .map(|&c| {
                    MultiClientHarness::new(w, Mechanism::Logging)
                        .with_clients(c)
                        .with_ops_per_client(ops_per_client)
                        .baseline()
                        .expect("baseline run failed")
                })
                .collect()
        })
        .collect();
    FIG19_UNITS
        .iter()
        .map(|&units| {
            let mut per_clients: Vec<Vec<f64>> = vec![Vec::new(); FIG19_CLIENTS.len()];
            let mut util_min = f64::INFINITY;
            let mut util_max = 0.0f64;
            let mut violations = 0usize;
            for (wi, &w) in workloads().iter().enumerate() {
                for (ci, &clients) in FIG19_CLIENTS.iter().enumerate() {
                    // Each MD device runs a second decode stage: with 8
                    // clients hammering 4 units, a single decode lane is the
                    // front-end bottleneck that flattened the sweep's tail.
                    let md = MultiClientHarness::new(w, Mechanism::Logging)
                        .with_clients(clients)
                        .with_ops_per_client(ops_per_client)
                        .with_units(units)
                        .with_decode_lanes(2)
                        .run_mode(ExecMode::NearPmMd)
                        .expect("NearPM MD run failed");
                    for &(_, util) in &md.ndp_unit_utilization {
                        util_min = util_min.min(util);
                        util_max = util_max.max(util);
                    }
                    violations += md.ppo_violations.len();
                    per_clients[ci].push(md.speedup_over(&baselines[wi][ci]));
                }
            }
            let all: Vec<f64> = per_clients.iter().flatten().copied().collect();
            Fig19Point {
                units,
                per_clients: per_clients.iter().map(|s| gmean(s)).collect(),
                combined: gmean(&all),
                util_min,
                util_max,
                violations,
            }
        })
        .collect()
}

/// Average single-client NearPM MD speedup over the CPU baseline (gmean over
/// all workloads) at `units` units — the seed-reproduction anchor of the
/// fig19 smoke gate.
pub fn fig19_single_client_avg(ops: usize, units: usize) -> f64 {
    let speedups: Vec<f64> = workloads()
        .iter()
        .map(|&w| {
            let h = MultiClientHarness::new(w, Mechanism::Logging).with_ops_per_client(ops);
            let base = h.baseline().expect("baseline run failed");
            let md = h
                .with_units(units)
                .run_mode(ExecMode::NearPmMd)
                .expect("NearPM MD run failed");
            md.speedup_over(&base)
        })
        .collect();
    gmean(&speedups)
}

/// Offered-load fractions (× the calibrated service rate μ) of the fig22
/// open-loop sweep. Spans well below the knee (0.25) to deep saturation
/// (4.0) so both the flat throughput-tracks-offered region and the p99
/// blow-up are on the curve.
pub const FIG22_LOAD_FRACTIONS: [f64; 7] = [0.25, 0.5, 0.75, 1.0, 1.5, 2.5, 4.0];

/// Workload of the fig22 open-loop sweep (the same YCSB-driven memcached
/// the paper's multithreaded figures lead with).
pub const FIG22_WORKLOAD: Workload = Workload::Memcached;

/// Server threads of the fig22 open-loop sweep.
pub const FIG22_THREADS: usize = 4;

/// One offered-load point of the fig22 open-loop sweep.
#[derive(Debug, Clone)]
pub struct OpenLoopPoint {
    /// Offered load as a fraction of the calibrated service rate μ.
    pub fraction: f64,
    /// Offered load (mean arrival rate, operations per second).
    pub offered_ops_per_s: f64,
    /// Achieved throughput (operations over the makespan).
    pub achieved_ops_per_s: f64,
    /// `achieved / offered` (≈ 1 below the knee, < 1 above it).
    pub delivery_ratio: f64,
    /// Median per-request latency (arrival → commit retire), microseconds.
    pub p50_us: f64,
    /// p99 per-request latency, microseconds.
    pub p99_us: f64,
    /// Host-backlog high watermark (arrived but not yet in service).
    pub max_backlog: usize,
    /// Mean arrival → service-start wait, microseconds.
    pub mean_wait_us: f64,
    /// Device request-FIFO full stalls over the run.
    pub fifo_stalls: u64,
}

/// Closed-loop service rate μ (operations per second) of one
/// workload/mechanism pair at `threads` threads — the calibration point the
/// open-loop sweep expresses its offered loads against.
pub fn calibrate_service_rate(
    w: Workload,
    m: Mechanism,
    ops: usize,
    threads: usize,
    seed: u64,
) -> f64 {
    let report = Runner::new(
        w,
        RunOptions::new(ExecMode::NearPmMd, m, ops)
            .with_threads(threads)
            .with_seed(seed),
    )
    .run()
    .expect("calibration run failed");
    ops as f64 / report.makespan.as_secs()
}

/// The fig22 offered-load sweep for one mechanism: calibrate μ closed-loop,
/// then drive Poisson open-loop traffic at every [`FIG22_LOAD_FRACTIONS`]
/// multiple of μ with `ops` requests per point. Returns `(μ, points)`.
/// Shared by the `fig22_open_loop` figure binary and the `openloop_smoke`
/// CI gate so the gate can never desynchronize from the figure.
pub fn fig22_sweep(m: Mechanism, ops: usize, seed: u64) -> (f64, Vec<OpenLoopPoint>) {
    let mu = calibrate_service_rate(FIG22_WORKLOAD, m, ops.max(64), FIG22_THREADS, seed);
    let points = FIG22_LOAD_FRACTIONS
        .iter()
        .map(|&fraction| {
            let opts = OpenLoopOptions::new(
                FIG22_WORKLOAD,
                m,
                ArrivalProcess::poisson(fraction * mu),
                ops,
            )
            .with_threads(FIG22_THREADS)
            .with_seed(seed);
            let report = run_open_loop(&opts).expect("open-loop run failed");
            open_loop_point(fraction, &report)
        })
        .collect();
    (mu, points)
}

/// Flattens one [`OpenLoopReport`] into the fig22 row shape.
pub fn open_loop_point(fraction: f64, report: &OpenLoopReport) -> OpenLoopPoint {
    OpenLoopPoint {
        fraction,
        offered_ops_per_s: report.offered_ops_per_s,
        achieved_ops_per_s: report.achieved_ops_per_s,
        delivery_ratio: report.delivery_ratio(),
        p50_us: report.hist.percentile(0.5).as_us(),
        p99_us: report.hist.p99().as_us(),
        max_backlog: report.max_backlog,
        mean_wait_us: report.mean_admission_wait.as_us(),
        fifo_stalls: report.report.fifo_stalls,
    }
}

/// Whether the sweep's p99 curve is monotone non-decreasing in offered
/// load, modulo `slack` (fractional tolerance for the histogram's ≤ 0.78 %
/// bucket quantization — below the knee consecutive points measure the same
/// service-time tail and may land one bucket apart in either direction).
pub fn p99_monotone(points: &[OpenLoopPoint], slack: f64) -> bool {
    points
        .windows(2)
        .all(|w| w[1].p99_us >= w[0].p99_us * (1.0 - slack))
}

#[cfg(test)]
mod tests {
    use super::{gmean, parse_ops};

    fn args(list: &[&str]) -> impl Iterator<Item = String> {
        list.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn parse_ops_accepts_both_forms() {
        assert_eq!(parse_ops(args(&["--ops", "128"]), 48), 128);
        assert_eq!(parse_ops(args(&["--ops=96"]), 48), 96);
        assert_eq!(parse_ops(args(&["--seed", "1", "--ops", "7"]), 48), 7);
        assert_eq!(parse_ops(args(&[]), 48), 48);
    }

    #[test]
    fn parse_ops_rejects_zero_and_garbage() {
        assert_eq!(parse_ops(args(&["--ops", "0"]), 48), 48);
        assert_eq!(parse_ops(args(&["--ops=0"]), 48), 48);
        assert_eq!(parse_ops(args(&["--ops", "banana"]), 48), 48);
        assert_eq!(parse_ops(args(&["--ops=-3"]), 48), 48);
        assert_eq!(parse_ops(args(&["--ops"]), 48), 48);
    }

    #[test]
    fn gmean_skips_non_positive_samples() {
        assert!((gmean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-9);
        assert!((gmean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        // Non-positive samples are skipped; nothing left means 0.
        assert!((gmean(&[0.0, 4.0, 4.0]) - 4.0).abs() < 1e-9);
        assert!((gmean(&[-1.0, 4.0]) - 4.0).abs() < 1e-9);
        assert_eq!(gmean(&[]), 0.0);
        assert_eq!(gmean(&[0.0, -2.0]), 0.0);
    }
}
