//! In-run time-series figure (beyond the paper): per-window NDP
//! utilization, request-FIFO occupancy, and PPO-violation counts over the
//! lifetime of a fig20-shaped 16-thread run.
//!
//! This is the figure class the old O(n)-per-report path priced out: a run
//! that samples itself W times used to pay W full re-aggregations plus W
//! full trace re-walks — quadratic in the run length. With the incremental
//! observe path, the in-run samples are O(new events) each, and the
//! windowed series is read off the graph's incrementally merged timeline
//! (O(log n) per window) plus the devices' FIFO residency histories.
//!
//! Output: the mid-run sample series (makespan / trace events / cumulative
//! violations — all monotone by construction, asserted here), then the
//! windowed series over the schedule horizon. Exits nonzero if any monotone
//! invariant breaks or the run reports a violation.
//!
//! Run with: `cargo run --release -p nearpm-bench --bin fig_timeline`

use nearpm_bench::header;
use nearpm_cc::Mechanism;
use nearpm_core::ExecMode;
use nearpm_ppo::PpoViolation;
use nearpm_sim::SimTime;
use nearpm_workloads::{RunOptions, Runner, Workload};

const OPS_PER_CLIENT: usize = 32;
const CLIENTS: usize = 16;
const WINDOWS: u64 = 32;
const IN_RUN_SAMPLES: usize = 8;

/// Timestamp a violation anchors to on the time axis, if it has one.
fn violation_ts(v: &PpoViolation) -> Option<u64> {
    match v {
        PpoViolation::SharedOrderViolation { cpu_ts, ndp_ts, .. } => Some(*cpu_ts.max(ndp_ts)),
        PpoViolation::UnpersistedBeforeSync { sync_ts, .. } => Some(*sync_ts),
        PpoViolation::RecoveryReadUnpersisted { .. } | PpoViolation::MissingOffload { .. } => None,
    }
}

fn main() {
    let ops = OPS_PER_CLIENT * CLIENTS;
    let runner = Runner::new(
        Workload::Memcached,
        RunOptions::new(ExecMode::NearPmMd, Mechanism::Logging, ops).with_threads(CLIENTS),
    );
    let sample_every = ops / IN_RUN_SAMPLES;
    let (samples, report, sys) = runner
        .run_sampled(sample_every)
        .expect("fig20-shaped run failed");

    header(
        &format!("fig_timeline: in-run samples (memcached/logging, {CLIENTS} threads)"),
        &["sample", "ops", "makespan_us", "trace_events", "violations"],
    );
    let mut prev_makespan = 0.0f64;
    let mut prev_events = 0usize;
    for (i, s) in samples.iter().enumerate() {
        println!(
            "{}\t{}\t{:.2}\t{}\t{}",
            i,
            (i + 1) * sample_every,
            s.makespan.as_us(),
            s.trace_events,
            s.ppo_violations.len()
        );
        assert!(
            s.makespan.as_us() >= prev_makespan && s.trace_events >= prev_events,
            "in-run sample series must be monotone"
        );
        prev_makespan = s.makespan.as_us();
        prev_events = s.trace_events;
    }
    assert!(
        report.ppo_violations.is_empty(),
        "the run must verify clean: {:?}",
        report.ppo_violations
    );

    let timeline = sys.graph().timeline();
    let horizon = timeline.horizon();
    let horizon_ps = horizon.as_ps().max(WINDOWS);
    header(
        &format!(
            "fig_timeline: windowed series over the {:.1} us horizon",
            horizon.as_us()
        ),
        &[
            "window",
            "from_us",
            "to_us",
            "ndp_util",
            "fifo_occ_max",
            "violations",
            "cum_ndp_busy_us",
            "cum_violations",
        ],
    );
    let mut cum_busy_ps = 0u64;
    let mut cum_violations = 0usize;
    for w in 0..WINDOWS {
        let from = SimTime::from_ps(horizon_ps * w / WINDOWS);
        let to = SimTime::from_ps(horizon_ps * (w + 1) / WINDOWS);
        let busy = timeline.ndp().covered_in(from, to);
        let util = busy.as_ps() as f64 / to.since(from).as_ps().max(1) as f64;
        let fifo = sys.fifo_occupancy_in(from, to);
        let violations = report
            .ppo_violations
            .iter()
            .filter(|v| violation_ts(v).is_some_and(|ts| ts >= from.as_ps() && ts < to.as_ps()))
            .count();
        cum_busy_ps += busy.as_ps();
        cum_violations += violations;
        println!(
            "{}\t{:.2}\t{:.2}\t{:.3}\t{}\t{}\t{:.2}\t{}",
            w,
            from.as_us(),
            to.as_us(),
            util,
            fifo,
            violations,
            cum_busy_ps as f64 / 1e6,
            cum_violations
        );
        // Falsifiable window invariant: a window can never hold more busy
        // time than its own width (a `covered_in` regression would trip it).
        assert!(
            busy.as_ps() <= to.since(from).as_ps(),
            "window {w} reports more NDP busy time than its width"
        );
    }
    // Sanity: the windowed decomposition must resum to the timeline total.
    assert_eq!(
        cum_busy_ps,
        timeline.ndp().total().as_ps(),
        "windowed NDP busy must resum to the timeline total"
    );
    println!(
        "(per-window NDP utilization + FIFO occupancy + violations; cumulative columns monotone; \
         windowed busy resums to {:.2} us exactly)",
        cum_busy_ps as f64 / 1e6
    );
}
