//! A compacting open loop equals a non-compacting one and holds bounded
//! simulator state.
//!
//! Each report of a compacting run evicts the simulator state no later
//! step can read: task timings below the oldest task the system holds, busy
//! intervals and FIFO-window entries that ended before the watermark, and
//! FIFO history that only answered windows read. None of that may change a
//! simulated number. So this test runs the same open loop with and without
//! compaction across all four mechanisms × {NearPM SD, NearPM MD} × {1, 4}
//! threads, below and above the knee, and compares the final report and
//! every window's report, FIFO counters and histogram.
//!
//! It also samples, after every request, what the compacting run holds:
//! resident task timings, arrival-ordered busy intervals, CPU/NDP union
//! intervals and FIFO history. Each must stay under a constant that does
//! not depend on the request count. The FIFO history is checked below the
//! knee only: above it each request is served long after it arrives, so
//! the FIFO activity recorded so far runs ahead of the arrivals by the
//! growing backlog, and windows (cut by arrival time) that have not opened
//! yet will read it. One configuration runs four times as many requests
//! (at the same requests per window) under the same constants, while its
//! non-compacting twin holds far more.

use nearpm::cc::Mechanism;
use nearpm::core::{ExecMode, NearPmSystem};
use nearpm::workloads::{
    run_open_loop_observed, ArrivalProcess, OpenLoopOptions, OpenLoopReport, Workload,
};

const SEED: u64 = 3;
const REQUESTS_PER_WINDOW: usize = 24;
const WINDOWS: usize = 8;
/// Offered loads: below the knee of every configuration here, and above it.
const BELOW_KNEE: f64 = 1.0e5;
const ABOVE_KNEE: f64 = 4.0e6;

/// Upper bounds on what a compacting run holds at any point. Between two
/// reports the state grows by one window's requests (24 here), so each
/// bound is about two windows' worth and independent of the run length. The
/// largest values any configuration here reaches are 1,092 timings, 442
/// busy intervals, 140 union intervals and, below the knee, 173 FIFO
/// history entries.
const MAX_TIMINGS: usize = 1_500;
const MAX_BUSY_INTERVALS: usize = 600;
const MAX_UNION_INTERVALS: usize = 250;
const MAX_FIFO_HISTORY: usize = 300;

/// What a system holds of the four bounded structures.
#[derive(Debug, Default, Clone, Copy)]
struct Resident {
    timings: usize,
    busy: usize,
    union: usize,
    fifo: usize,
}

impl Resident {
    fn of(sys: &NearPmSystem) -> Self {
        let g = sys.graph();
        let tl = g.timeline();
        Resident {
            timings: g.resident_timings(),
            busy: g.resident_busy_intervals(),
            union: tl.cpu().intervals().len() + tl.ndp().intervals().len(),
            fifo: sys.fifo_history_len(),
        }
    }

    fn max(self, other: Self) -> Self {
        Resident {
            timings: self.timings.max(other.timings),
            busy: self.busy.max(other.busy),
            union: self.union.max(other.union),
            fifo: self.fifo.max(other.fifo),
        }
    }
}

fn options(
    m: Mechanism,
    mode: ExecMode,
    threads: usize,
    rate: f64,
    windows: usize,
) -> OpenLoopOptions {
    OpenLoopOptions::new(
        Workload::Memcached,
        m,
        ArrivalProcess::poisson(rate),
        REQUESTS_PER_WINDOW * windows,
    )
    .with_mode(mode)
    .with_threads(threads)
    .with_windows(windows)
    .with_seed(SEED)
}

/// Runs `options` with and without compaction, asserts the two runs report
/// the same, and returns the compacting run's largest resident state over
/// the run and the non-compacting run's state at its end.
fn run_both(options: &OpenLoopOptions, ctx: &str) -> (Resident, Resident) {
    let (full, full_sys) = run_open_loop_observed(options, |_, _| {}).unwrap();
    let mut held = Resident::default();
    let (compact, _) =
        run_open_loop_observed(&options.clone().with_trace_compaction(true), |sys, _| {
            held = held.max(Resident::of(sys));
        })
        .unwrap();
    assert_same(&full, &compact, ctx);
    assert!(full.report.ppo_violations.is_empty(), "{ctx}");
    (held, Resident::of(&full_sys))
}

fn assert_same(full: &OpenLoopReport, compact: &OpenLoopReport, ctx: &str) {
    assert_eq!(full.report, compact.report, "{ctx}: final report");
    assert_eq!(full.hist, compact.hist, "{ctx}: histogram");
    assert_eq!(full.max_backlog, compact.max_backlog, "{ctx}");
    assert_eq!(
        full.mean_admission_wait, compact.mean_admission_wait,
        "{ctx}"
    );
    assert_eq!(full.windows.len(), compact.windows.len(), "{ctx}");
    for (i, (a, b)) in full.windows.iter().zip(&compact.windows).enumerate() {
        assert_eq!((a.from, a.to), (b.from, b.to), "{ctx}: window {i} bounds");
        assert_eq!(a.report, b.report, "{ctx}: window {i} report");
        assert_eq!(a.hist, b.hist, "{ctx}: window {i} histogram");
        assert_eq!(
            (a.fifo_admissions, a.fifo_occupancy),
            (b.fifo_admissions, b.fifo_occupancy),
            "{ctx}: window {i} FIFO counters"
        );
    }
}

/// Asserts the bounds; the FIFO history's only when `below_knee`.
fn assert_bounded(held: Resident, below_knee: bool, ctx: &str) {
    assert!(held.timings <= MAX_TIMINGS, "{ctx}: {held:?}");
    assert!(held.busy <= MAX_BUSY_INTERVALS, "{ctx}: {held:?}");
    assert!(held.union <= MAX_UNION_INTERVALS, "{ctx}: {held:?}");
    assert!(
        !below_knee || held.fifo <= MAX_FIFO_HISTORY,
        "{ctx}: {held:?}"
    );
}

#[test]
fn compacting_open_loop_matches_and_stays_bounded() {
    for mode in [ExecMode::NearPmSd, ExecMode::NearPmMd] {
        for threads in [1, 4] {
            for m in Mechanism::all_extended() {
                for rate in [BELOW_KNEE, ABOVE_KNEE] {
                    let ctx = format!("{mode:?}, {threads} threads, {m:?}, {rate} op/s");
                    let (held, _) = run_both(&options(m, mode, threads, rate, WINDOWS), &ctx);
                    assert_bounded(held, rate == BELOW_KNEE, &ctx);
                }
            }
        }
    }
}

/// A FIFO one entry deep stalls the hosts: the compacting run must keep
/// the timings of the front-end tasks later admissions wait for (held in
/// each device's FIFO window and in the threads' pending stalls).
#[test]
fn compacting_open_loop_matches_with_a_stalling_fifo() {
    for mode in [ExecMode::NearPmSd, ExecMode::NearPmMd] {
        for m in Mechanism::all_extended() {
            let ctx = format!("{mode:?}, FIFO depth 1, {m:?}");
            let options = options(m, mode, 4, ABOVE_KNEE, WINDOWS).with_fifo_depth(1);
            let (held, _) = run_both(&options, &ctx);
            assert_bounded(held, false, &ctx);
            let stalls = run_open_loop_observed(&options, |_, _| {})
                .unwrap()
                .0
                .report
                .fifo_stalls;
            assert!(stalls > 0, "{ctx}: no request stalled");
        }
    }
}

#[test]
fn compacted_state_does_not_grow_with_the_request_count() {
    let long = options(
        Mechanism::Logging,
        ExecMode::NearPmMd,
        4,
        BELOW_KNEE,
        4 * WINDOWS,
    );
    let (held, full) = run_both(&long, "four times the requests");
    assert_bounded(held, true, "four times the requests");
    // The bounds are far below what the run adds: the non-compacting twin
    // keeps every timing, busy interval, union interval and FIFO entry.
    assert!(full.timings > 4 * MAX_TIMINGS, "{full:?}");
    assert!(full.busy > 4 * MAX_BUSY_INTERVALS, "{full:?}");
    assert!(full.union > 4 * MAX_UNION_INTERVALS, "{full:?}");
    assert!(full.fifo > 4 * MAX_FIFO_HISTORY, "{full:?}");
}
