//! Open-loop traffic driver: arrival processes, admission, and per-request
//! tail latency.
//!
//! Every other harness in the workspace is closed-loop — N clients, a fixed
//! number of operations each, the next request issued only when the previous
//! one retired. Closed loops can never exhibit queueing collapse: offered
//! load is capped by service rate by construction. This module layers an
//! **open-loop** driver over the same [`Runner`] machinery: request arrival
//! times come from a seeded stochastic process ([`ArrivalProcess`]), each
//! request is admitted at its arrival time via a zero-duration pinned marker
//! on the serving CPU thread
//! ([`NearPmSystem::admit_request_at`](nearpm_core::NearPmSystem::admit_request_at)),
//! and the request's latency is measured **from arrival to commit retire**
//! — any wait in the modeled host backlog (the server still busy with
//! earlier requests) and any stall at a full device FIFO count against it.
//!
//! Per-request latencies feed the log-bucketed [`LatencyHistogram`] (≤ 1 %
//! relative error, O(1) record) plus an optional exact sample retained per
//! window for differential tests ([`LatencyWindow::matches_exact_oracle`]). The
//! `fig22_open_loop` bench sweeps offered load per CC mechanism over this
//! driver to produce the throughput-vs-offered-load and p99-vs-offered-load
//! knee curves.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use nearpm_cc::Mechanism;
use nearpm_core::{ExecMode, NearPmSystem, Result, RunReport};
use nearpm_sim::{exact_percentile, LatencyHistogram, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::runner::{RunOptions, Runner, Workload};

/// Picoseconds per second (the simulator's clock base).
const PS_PER_S: f64 = 1e12;

/// Salt xor-ed into the run seed for the arrival stream, so arrivals and
/// workload content draw from independent deterministic streams.
const ARRIVAL_SEED_SALT: u64 = 0x6F1D_8A3C_5E77_21B9;

/// A seeded request arrival process.
///
/// All three processes are parameterized by their **long-run mean rate**
/// ([`ArrivalProcess::mean_rate_ops_per_s`]), which is what the offered-load
/// sweep plots on its x axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: i.i.d. exponential gaps at `rate_ops_per_s`.
    Poisson {
        /// Mean arrival rate (operations per second).
        rate_ops_per_s: f64,
    },
    /// On/off bursts: during a burst, arrivals are Poisson at
    /// `peak_factor × rate`; burst lengths are geometric with mean
    /// `mean_burst` requests; off gaps are exponential, sized so the
    /// long-run mean rate is exactly `rate_ops_per_s`.
    Bursty {
        /// Long-run mean arrival rate (operations per second).
        rate_ops_per_s: f64,
        /// In-burst rate multiplier (≥ 1; 1 degenerates to Poisson).
        peak_factor: f64,
        /// Mean burst length in requests (≥ 1).
        mean_burst: f64,
    },
    /// Multi-phase diurnal load: a nonhomogeneous Poisson process whose
    /// intensity swings sinusoidally between `rate` and
    /// `peak_factor × rate` with period `period_s`, sampled exactly by
    /// thinning against the peak intensity.
    Diurnal {
        /// Trough arrival rate (operations per second).
        rate_ops_per_s: f64,
        /// Peak-to-trough intensity ratio (≥ 1).
        peak_factor: f64,
        /// Period of one load cycle in (simulated) seconds.
        period_s: f64,
    },
}

impl ArrivalProcess {
    /// Poisson arrivals at `rate` operations per second.
    pub fn poisson(rate_ops_per_s: f64) -> Self {
        ArrivalProcess::Poisson { rate_ops_per_s }
    }

    /// Bursty on/off arrivals with long-run mean `rate_ops_per_s`.
    pub fn bursty(rate_ops_per_s: f64, peak_factor: f64, mean_burst: f64) -> Self {
        ArrivalProcess::Bursty {
            rate_ops_per_s,
            peak_factor: peak_factor.max(1.0),
            mean_burst: mean_burst.max(1.0),
        }
    }

    /// Sinusoidal diurnal arrivals between `rate` and `peak_factor × rate`.
    pub fn diurnal(rate_ops_per_s: f64, peak_factor: f64, period_s: f64) -> Self {
        ArrivalProcess::Diurnal {
            rate_ops_per_s,
            peak_factor: peak_factor.max(1.0),
            period_s,
        }
    }

    /// The long-run mean arrival rate of the process.
    pub fn mean_rate_ops_per_s(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_ops_per_s } => rate_ops_per_s,
            // Constructed so the on/off cycle averages exactly `rate`.
            ArrivalProcess::Bursty { rate_ops_per_s, .. } => rate_ops_per_s,
            // Intensity averages the sinusoid's midpoint.
            ArrivalProcess::Diurnal {
                rate_ops_per_s,
                peak_factor,
                ..
            } => rate_ops_per_s * (1.0 + (peak_factor - 1.0) / 2.0),
        }
    }

    /// Short name used in figure labels and JSON records.
    pub fn label(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::Bursty { .. } => "bursty",
            ArrivalProcess::Diurnal { .. } => "diurnal",
        }
    }
}

/// Deterministic arrival-time generator: a seeded stream of monotone
/// non-decreasing [`SimTime`]s drawn from an [`ArrivalProcess`]. Identical
/// `(process, seed)` pairs replay the identical stream.
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    process: ArrivalProcess,
    rng: StdRng,
    now_ps: u64,
    /// Requests left in the current burst (bursty process only).
    burst_left: u64,
}

impl ArrivalGen {
    /// Creates a generator for `process` seeded with `seed`.
    pub fn new(process: ArrivalProcess, seed: u64) -> Self {
        ArrivalGen {
            process,
            rng: StdRng::seed_from_u64(seed),
            now_ps: 0,
            burst_left: 0,
        }
    }

    /// An exponential gap with the given rate, in picoseconds.
    fn exp_gap_ps(&mut self, rate_per_s: f64) -> u64 {
        let u: f64 = self.rng.gen();
        // u ∈ [0, 1) so 1 − u ∈ (0, 1] and the log is finite.
        let gap_s = -(1.0 - u).ln() / rate_per_s;
        (gap_s * PS_PER_S).round() as u64
    }

    /// A geometric burst length with the given mean (≥ 1).
    fn burst_len(&mut self, mean: f64) -> u64 {
        let p = (1.0 / mean).min(1.0);
        if p >= 1.0 {
            return 1;
        }
        let u: f64 = self.rng.gen();
        (((1.0 - u).ln() / (1.0 - p).ln()).floor() as u64).saturating_add(1)
    }

    /// The next arrival instant. Monotone non-decreasing.
    pub fn next_arrival(&mut self) -> SimTime {
        match self.process {
            ArrivalProcess::Poisson { rate_ops_per_s } => {
                self.now_ps += self.exp_gap_ps(rate_ops_per_s);
            }
            ArrivalProcess::Bursty {
                rate_ops_per_s,
                peak_factor,
                mean_burst,
            } => {
                if self.burst_left == 0 {
                    // Off period, then a fresh burst. The off gap's mean is
                    // what makes the cycle average the configured rate:
                    // L requests take L/(rate·peak) inside the burst, so the
                    // gap contributes the remaining (L/rate)(1 − 1/peak).
                    let off_mean_s = mean_burst / rate_ops_per_s * (1.0 - 1.0 / peak_factor);
                    if off_mean_s > 0.0 {
                        self.now_ps += self.exp_gap_ps(1.0 / off_mean_s);
                    }
                    self.burst_left = self.burst_len(mean_burst);
                }
                self.burst_left -= 1;
                self.now_ps += self.exp_gap_ps(rate_ops_per_s * peak_factor);
            }
            ArrivalProcess::Diurnal {
                rate_ops_per_s,
                peak_factor,
                period_s,
            } => {
                // Thinning: propose at the peak intensity, accept with
                // probability λ(t)/λ_max — exact for any λ(t) ≤ λ_max.
                let lambda_max = rate_ops_per_s * peak_factor;
                loop {
                    self.now_ps += self.exp_gap_ps(lambda_max);
                    let t_s = self.now_ps as f64 / PS_PER_S;
                    let phase = 0.5 * (1.0 + (std::f64::consts::TAU * t_s / period_s).sin());
                    let lambda_t = rate_ops_per_s * (1.0 + (peak_factor - 1.0) * phase);
                    let u: f64 = self.rng.gen();
                    if u * lambda_max <= lambda_t {
                        break;
                    }
                }
            }
        }
        SimTime::from_ps(self.now_ps)
    }
}

/// Options of one open-loop run.
#[derive(Debug, Clone)]
pub struct OpenLoopOptions {
    /// Workload whose operations the requests execute.
    pub workload: Workload,
    /// Crash-consistency mechanism.
    pub mechanism: Mechanism,
    /// Execution mode (NearPM MD by default).
    pub mode: ExecMode,
    /// The arrival process.
    pub process: ArrivalProcess,
    /// Number of requests to generate.
    pub operations: usize,
    /// Server CPU threads; each request is dispatched to the thread whose
    /// CPU frees earliest (ties to the lowest index).
    pub threads: usize,
    /// RNG seed (workload content and arrivals draw independent streams).
    pub seed: u64,
    /// Request-FIFO depth per device (`None` keeps the prototype's 32).
    pub fifo_depth: Option<usize>,
    /// Number of equal-request-count latency windows in the report series.
    pub windows: usize,
    /// Retain the exact per-request latencies of every window (sorted
    /// oracle for histogram differentials; costs O(ops) memory).
    pub keep_exact: bool,
    /// Stream-compact the PPO trace at every window boundary (the
    /// million-op path; incompatible with whole-trace oracles).
    pub compact_trace: bool,
}

impl OpenLoopOptions {
    /// Options for `operations` requests of `workload` under `mechanism`
    /// from `process`: NearPM MD, 4 server threads, seed 1, 8 windows.
    pub fn new(
        workload: Workload,
        mechanism: Mechanism,
        process: ArrivalProcess,
        operations: usize,
    ) -> Self {
        OpenLoopOptions {
            workload,
            mechanism,
            mode: ExecMode::NearPmMd,
            process,
            operations: operations.max(1),
            threads: 4,
            seed: 1,
            fifo_depth: None,
            windows: 8,
            keep_exact: false,
            compact_trace: false,
        }
    }

    /// Overrides the execution mode.
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Overrides the server thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the request-FIFO depth of every device.
    pub fn with_fifo_depth(mut self, depth: usize) -> Self {
        self.fifo_depth = Some(depth.max(1));
        self
    }

    /// Overrides the window count of the latency series.
    pub fn with_windows(mut self, windows: usize) -> Self {
        self.windows = windows.max(1);
        self
    }

    /// Retains exact per-window latencies for oracle differentials.
    pub fn with_exact_oracle(mut self, keep: bool) -> Self {
        self.keep_exact = keep;
        self
    }

    /// Enables streaming trace compaction at window boundaries.
    pub fn with_trace_compaction(mut self, compact: bool) -> Self {
        self.compact_trace = compact;
        self
    }
}

/// One window of the open-loop latency series (an equal-request-count slice
/// of the run).
#[derive(Debug, Clone)]
pub struct LatencyWindow {
    /// Arrival time of the window's first request.
    pub from: SimTime,
    /// Arrival time of the next window's first request (exclusive; the
    /// run's makespan for the last window).
    pub to: SimTime,
    /// Log-bucketed latency histogram of the window's requests.
    pub hist: LatencyHistogram,
    /// Exact (unsorted) per-request latencies, kept when the run was
    /// configured with [`OpenLoopOptions::with_exact_oracle`].
    pub exact: Option<Vec<SimDuration>>,
    /// Requests admitted into any device FIFO during `[from, to)`.
    pub fifo_admissions: usize,
    /// Highest device-FIFO occupancy during `[from, to)`.
    pub fifo_occupancy: usize,
    /// Incremental [`RunReport`] sampled when the window closed.
    pub report: RunReport,
}

impl LatencyWindow {
    /// Differential check of the window histogram against the exact sorted
    /// oracle: for each reported quantile, the histogram must return the
    /// inclusive upper edge of the bucket holding the exact percentile
    /// (capped at the exact max) — equality, not a tolerance band — and the
    /// counts and max must agree exactly. `None` when the run did not keep
    /// exact samples.
    pub fn matches_exact_oracle(&self) -> Option<bool> {
        let exact = self.exact.as_ref()?;
        if exact.is_empty() {
            return Some(self.hist.is_empty());
        }
        let mut sorted = exact.clone();
        sorted.sort_unstable();
        let max = *sorted.last().unwrap();
        let quantiles_ok = [0.5, 0.99, 0.999].iter().all(|&q| {
            let ex = exact_percentile(&sorted, q);
            let expect = LatencyHistogram::bucket_upper(LatencyHistogram::bucket_of(ex))
                .min(self.hist.max());
            self.hist.percentile(q) == expect
        });
        Some(quantiles_ok && self.hist.count() == sorted.len() as u64 && self.hist.max() == max)
    }
}

/// Result of one open-loop run.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// The arrival process driven.
    pub process: ArrivalProcess,
    /// Long-run mean offered load of the process (operations per second).
    pub offered_ops_per_s: f64,
    /// Achieved throughput: operations over the run's makespan.
    pub achieved_ops_per_s: f64,
    /// Requests executed.
    pub operations: usize,
    /// Final system report (its `request_latency` summary is read off the
    /// same histogram as [`OpenLoopReport::hist`]).
    pub report: RunReport,
    /// Whole-run per-request latency histogram.
    pub hist: LatencyHistogram,
    /// Equal-request-count latency windows.
    pub windows: Vec<LatencyWindow>,
    /// Highest number of requests that had arrived but not yet begun
    /// service at any arrival instant — the modeled host backlog's high
    /// watermark.
    pub max_backlog: usize,
    /// Mean wait from arrival to service start (the host-backlog share of
    /// the mean latency).
    pub mean_admission_wait: SimDuration,
    /// Arrival time of the last request.
    pub last_arrival: SimTime,
}

impl OpenLoopReport {
    /// Whole-run p99 latency.
    pub fn p99(&self) -> SimDuration {
        self.hist.p99()
    }

    /// Achieved throughput as a fraction of offered load (≈ 1 below the
    /// knee, < 1 above it).
    pub fn delivery_ratio(&self) -> f64 {
        if self.offered_ops_per_s > 0.0 {
            self.achieved_ops_per_s / self.offered_ops_per_s
        } else {
            f64::NAN
        }
    }
}

/// Per-window accumulation state of the driver.
struct WindowAccum {
    first_arrival: Option<SimTime>,
    hist: LatencyHistogram,
    exact: Option<Vec<SimDuration>>,
    report: Option<RunReport>,
    /// `(to, fifo_admissions, fifo_occupancy)` once answered.
    fifo: Option<(SimTime, usize, usize)>,
}

/// Answers the FIFO counters of the windows from `*answered` on, oldest
/// first, whose end lies at or below `settled`, and returns where the first
/// unanswered window starts (`None` when every window is answered). A
/// window ends at the next window's first arrival, or at `run_end` for the
/// last one (`None` while the run goes on).
///
/// A window ending at or below the system's watermark is final: every
/// request submitted later lands on the control path at or after the
/// watermark (`NearPmSystem::watermark`), so it neither arrives in the
/// window nor occupies a FIFO slot during it.
fn answer_windows(
    sys: &NearPmSystem,
    windows: &mut [WindowAccum],
    answered: &mut usize,
    settled: SimTime,
    run_end: Option<SimTime>,
) -> Option<SimTime> {
    while let Some(from) = windows.get(*answered).and_then(|w| w.first_arrival) {
        let next = windows.get(*answered + 1).map(|w| w.first_arrival);
        let Some(to) = next.map_or(run_end, |first| first) else {
            return Some(from);
        };
        let to = to.max(from);
        if to > settled {
            return Some(from);
        }
        windows[*answered].fifo = Some((
            to,
            sys.fifo_admissions_in(from, to),
            sys.fifo_occupancy_in(from, to),
        ));
        *answered += 1;
    }
    None
}

/// Runs `options.operations` requests of the workload as open-loop traffic
/// and reports per-request tail latency.
///
/// Per request: draw the arrival time, pick the server thread whose CPU
/// frees earliest, pin a zero-duration admission marker at the arrival
/// instant
/// ([`NearPmSystem::admit_request_at`](nearpm_core::NearPmSystem::admit_request_at))
/// so service — including any FIFO-full stall of the host control path —
/// cannot begin earlier, execute the operation through the shared
/// [`Runner`] op flow, and record `retire − arrival` into the histogram.
/// All accounting is incremental (span extrema over the request's own
/// tasks, O(log n) FIFO window queries) — no full-trace rescans, so
/// million-op runs stay in the gate budget with trace compaction on.
///
/// Each window's FIFO counters are read at the first window close at which
/// the system's watermark has passed the window's end, and the last
/// windows' after the run; both modes take this one path. A compacting run
/// then drops the FIFO history only answered windows read, so with the
/// system's own eviction at every report its simulator state stays bounded
/// by what lies above the watermark.
pub fn run_open_loop(options: &OpenLoopOptions) -> Result<OpenLoopReport> {
    run_open_loop_observed(options, |_, _| {}).map(|(report, _sys)| report)
}

/// [`run_open_loop`] with an observation hook called after every completed
/// request (`observe(&mut sys, requests_done)`), returning the system too
/// (for tests that inspect its trace afterwards).
pub fn run_open_loop_observed(
    options: &OpenLoopOptions,
    mut observe: impl FnMut(&mut NearPmSystem, usize),
) -> Result<(OpenLoopReport, NearPmSystem)> {
    let o = options;
    let mut run_opts = RunOptions::new(o.mode, o.mechanism, o.operations)
        .with_threads(o.threads)
        .with_seed(o.seed)
        .with_latency_tracking(true)
        .with_trace_compaction(o.compact_trace);
    if let Some(depth) = o.fifo_depth {
        run_opts = run_opts.with_fifo_depth(depth);
    }
    let runner = Runner::new(o.workload, run_opts);
    let mut sys = runner.build_system()?;
    let mut threads = runner.setup_threads(&mut sys)?;
    let mut arrivals = ArrivalGen::new(o.process, o.seed ^ ARRIVAL_SEED_SALT);

    let n = o.operations;
    let wcount = o.windows.max(1).min(n);
    let mut windows: Vec<WindowAccum> = (0..wcount)
        .map(|_| WindowAccum {
            first_arrival: None,
            hist: LatencyHistogram::new(),
            exact: o.keep_exact.then(Vec::new),
            report: None,
            fifo: None,
        })
        .collect();
    let mut answered = 0usize;

    // Modeled host backlog: dispatch (service-start) instants of admitted
    // requests, min-first. An entry still present when a later request
    // arrives had not begun service by that arrival.
    let mut backlog: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
    let mut max_backlog = 0usize;
    let mut total_wait = SimDuration::ZERO;
    let mut last_arrival = SimTime::ZERO;
    let mut current_window = 0usize;

    for req in 0..n {
        let arrival = arrivals.next_arrival();
        last_arrival = arrival;
        while let Some(&Reverse(d)) = backlog.peek() {
            if d <= arrival.as_ps() {
                backlog.pop();
            } else {
                break;
            }
        }

        let w = req * wcount / n;
        if windows[w].first_arrival.is_none() {
            windows[w].first_arrival = Some(arrival);
        }
        if w != current_window {
            // Window closed: snapshot the incremental report (this is also
            // the compaction point when trace compaction is on), then answer
            // the FIFO counters of every window the watermark has passed.
            // A compacting run then drops the FIFO history that only
            // answered windows read.
            windows[current_window].report = Some(sys.report());
            current_window = w;
            let unanswered =
                answer_windows(&sys, &mut windows, &mut answered, sys.watermark(), None);
            if o.compact_trace {
                sys.retire_fifo_history_before(unanswered.unwrap_or(SimTime::MAX));
            }
        }

        // Earliest-available server, ties to the lowest index.
        let t = (0..o.threads)
            .min_by_key(|&t| sys.cpu_available(t).as_ps())
            .unwrap_or(0);
        let span_from = sys.task_count();
        sys.admit_request_at(t, arrival);
        runner.run_one_op(&mut sys, &mut threads[t], t)?;

        let retire = sys.graph().max_finish_since(span_from);
        let latency = retire.since(arrival);
        sys.record_request_latency(latency);
        // Service start: the first real task after the admission marker.
        let dispatch = if sys.task_count() > span_from + 1 {
            sys.graph().min_start_since(span_from + 1)
        } else {
            arrival
        };
        total_wait += dispatch.since(arrival);
        backlog.push(Reverse(dispatch.as_ps()));
        max_backlog = max_backlog.max(backlog.len());

        windows[w].hist.record(latency);
        if let Some(exact) = windows[w].exact.as_mut() {
            exact.push(latency);
        }
        observe(&mut sys, req + 1);
    }

    runner.finish_epochs(&mut sys, &mut threads);
    windows[current_window].report = Some(sys.report());
    let report = sys.report();
    let hist = sys.latency_histogram().clone();
    let makespan_end = SimTime::from_ps(report.makespan.as_ps());

    // The run is over, so every remaining window is final; the last one
    // ends at the makespan.
    answer_windows(
        &sys,
        &mut windows,
        &mut answered,
        SimTime::MAX,
        Some(makespan_end),
    );
    let windows = windows
        .into_iter()
        .map(|acc| {
            let (to, fifo_admissions, fifo_occupancy) = acc.fifo.expect("every window answered");
            LatencyWindow {
                from: acc.first_arrival.expect("every window admitted a request"),
                to,
                fifo_admissions,
                fifo_occupancy,
                hist: acc.hist,
                exact: acc.exact,
                report: acc.report.expect("every window closed"),
            }
        })
        .collect();

    let achieved_ops_per_s = if report.makespan.as_secs() > 0.0 {
        n as f64 / report.makespan.as_secs()
    } else {
        0.0
    };
    let report = OpenLoopReport {
        process: o.process,
        offered_ops_per_s: o.process.mean_rate_ops_per_s(),
        achieved_ops_per_s,
        operations: n,
        report,
        hist,
        windows,
        max_backlog,
        mean_admission_wait: SimDuration::from_ps(total_wait.as_ps() / n as u64),
        last_arrival,
    };
    Ok((report, sys))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn processes() -> [ArrivalProcess; 3] {
        [
            ArrivalProcess::poisson(1.0e6),
            ArrivalProcess::bursty(1.0e6, 4.0, 8.0),
            // Period chosen so a few thousand arrivals span many cycles
            // (the mean-rate bound is a time average over whole periods).
            ArrivalProcess::diurnal(1.0e6, 3.0, 1.0e-4),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Identical (process, seed) pairs replay the identical monotone
        /// stream; a different seed diverges.
        #[test]
        fn arrival_streams_replay_identical(seed in 0u64..1_000, pick in 0usize..3) {
            let process = processes()[pick];
            let mut a = ArrivalGen::new(process, seed);
            let mut b = ArrivalGen::new(process, seed);
            let sa: Vec<u64> = (0..500).map(|_| a.next_arrival().as_ps()).collect();
            let sb: Vec<u64> = (0..500).map(|_| b.next_arrival().as_ps()).collect();
            prop_assert_eq!(&sa, &sb);
            prop_assert!(sa.windows(2).all(|w| w[0] <= w[1]), "arrivals must be monotone");
            let mut c = ArrivalGen::new(process, seed ^ 0xDEAD_BEEF);
            let sc: Vec<u64> = (0..500).map(|_| c.next_arrival().as_ps()).collect();
            prop_assert_ne!(sa, sc);
        }

        /// Every process's empirical rate over a long stream lands within
        /// ±15 % of its configured long-run mean.
        #[test]
        fn mean_rate_matches_configuration(seed in 0u64..1_000, pick in 0usize..3) {
            let process = processes()[pick];
            let mut g = ArrivalGen::new(process, seed);
            let n = 4_000u64;
            let mut last = SimTime::ZERO;
            for _ in 0..n {
                last = g.next_arrival();
            }
            let measured = n as f64 / (last.as_ps() as f64 / 1e12);
            let expected = process.mean_rate_ops_per_s();
            let ratio = measured / expected;
            prop_assert!(
                (0.85..1.15).contains(&ratio),
                "{}: measured {measured:.0} vs expected {expected:.0}",
                process.label()
            );
        }

        /// The bursty process actually bursts: off gaps (≥ 4× the in-burst
        /// mean gap) appear at roughly one per mean-burst-length requests.
        #[test]
        fn burst_lengths_hit_their_mean(seed in 0u64..1_000) {
            let (rate, peak, mean_burst) = (1.0e6, 4.0, 8.0);
            let mut g = ArrivalGen::new(ArrivalProcess::bursty(rate, peak, mean_burst), seed);
            let n = 4_000usize;
            let mut gaps = Vec::with_capacity(n);
            let mut prev = 0u64;
            for _ in 0..n {
                let t = g.next_arrival().as_ps();
                gaps.push(t - prev);
                prev = t;
            }
            let in_burst_mean_ps = 1e12 / (rate * peak);
            let long = gaps.iter().filter(|&&gap| gap as f64 > 4.0 * in_burst_mean_ps).count();
            let expected_offs = n as f64 / mean_burst;
            prop_assert!(
                (long as f64) > expected_offs * 0.5 && (long as f64) < expected_offs * 2.0,
                "{long} long gaps vs ~{expected_offs:.0} expected off periods"
            );
        }
    }

    fn small_options(rate: f64) -> OpenLoopOptions {
        OpenLoopOptions::new(
            Workload::MetaOps,
            Mechanism::Logging,
            ArrivalProcess::poisson(rate),
            96,
        )
        .with_threads(2)
        .with_windows(4)
        .with_seed(11)
    }

    /// Closed-loop service rate of the same workload/mechanism/thread
    /// setup, used to place loads below/above the knee.
    fn service_rate() -> f64 {
        let report = Runner::new(
            Workload::MetaOps,
            RunOptions::new(ExecMode::NearPmMd, Mechanism::Logging, 96)
                .with_threads(2)
                .with_seed(11),
        )
        .run()
        .unwrap();
        96.0 / report.makespan.as_secs()
    }

    #[test]
    fn below_knee_tracks_offered_load_and_above_knee_saturates() {
        let mu = service_rate();
        let low = run_open_loop(&small_options(0.2 * mu)).unwrap();
        assert!(
            low.delivery_ratio() > 0.9,
            "below knee: delivered {:.2} of offered",
            low.delivery_ratio()
        );
        let high = run_open_loop(&small_options(8.0 * mu)).unwrap();
        // Far above the knee the server is the bottleneck: throughput
        // saturates near the closed-loop service rate...
        assert!(
            high.achieved_ops_per_s < 1.5 * mu,
            "above knee: achieved {:.0} vs μ {:.0}",
            high.achieved_ops_per_s,
            mu
        );
        assert!(high.delivery_ratio() < 0.5);
        // ...and queueing shows up in the tail and the host backlog.
        assert!(high.p99() > low.p99());
        assert!(high.max_backlog > low.max_backlog);
        assert!(high.mean_admission_wait > low.mean_admission_wait);
        // Latency summaries flow through the system report too.
        let summary = high.report.request_latency.as_ref().unwrap();
        assert_eq!(summary.count, 96);
        assert_eq!(summary.p99, high.hist.p99());
    }

    #[test]
    fn window_histograms_match_exact_oracle() {
        let opts = small_options(2.0e5).with_exact_oracle(true);
        let report = run_open_loop(&opts).unwrap();
        assert_eq!(report.windows.len(), 4);
        let mut total = 0u64;
        for (i, w) in report.windows.iter().enumerate() {
            assert_eq!(
                w.matches_exact_oracle(),
                Some(true),
                "window {i} histogram diverged from the exact oracle"
            );
            assert!(w.from <= w.to);
            total += w.hist.count();
        }
        assert_eq!(total, 96);
        assert_eq!(report.hist.count(), 96);
    }

    #[test]
    fn open_loop_is_deterministic_and_compaction_invariant() {
        let opts = small_options(5.0e5);
        let a = run_open_loop(&opts).unwrap();
        let b = run_open_loop(&opts).unwrap();
        assert_eq!(a.report.makespan, b.report.makespan);
        assert_eq!(a.hist, b.hist);
        assert_eq!(a.max_backlog, b.max_backlog);
        // The compacting path (windows become compaction points) must not
        // change the simulated run at all.
        let compacted = run_open_loop(&opts.clone().with_trace_compaction(true)).unwrap();
        assert_eq!(compacted.report.makespan, a.report.makespan);
        assert_eq!(compacted.hist, a.hist);
        assert_eq!(compacted.report.fifo_stalls, a.report.fifo_stalls);
    }

    #[test]
    fn all_four_mechanisms_drive_open_loop() {
        for m in Mechanism::all_extended() {
            let opts =
                OpenLoopOptions::new(Workload::Hashmap, m, ArrivalProcess::poisson(1.0e5), 24)
                    .with_threads(2)
                    .with_windows(2);
            let report = run_open_loop(&opts).unwrap();
            assert_eq!(report.operations, 24);
            assert!(report.report.ppo_violations.is_empty(), "{m:?}");
            assert!(report.hist.count() == 24, "{m:?}");
        }
    }
}
