//! Multi-sample observe-path smoke test: incremental `report()` vs the O(n)
//! oracle recompute path, on a live run of configurable size.
//!
//! Drives the fig20-shaped 16-thread system (`drive_fig20_system`) until its
//! PPO trace holds ≥`--events` events (default 120k; CI also runs the
//! million-event gate with `--events 1000000` and the ten-million-event gate
//! with `--events 10000000`), sampling the run along the way. At every
//! sampling point it takes the report **both** ways:
//!
//! * `NearPmSystem::report()` — the incremental path: the graph's
//!   aggregates/timeline are already maintained, the cached checker folds
//!   only the events since the previous sample;
//! * `NearPmSystem::report_oracle()` — the retained recompute path: full
//!   re-aggregation of the task list plus a from-scratch trace check.
//!
//! Every pair of reports must be equal (field for field, including the
//! violation lists and the incrementally maintained `relaxed_persists`
//! column), and the summed incremental sampling time must beat the summed
//! recompute time by the scaled requirement — without incrementality a
//! periodically self-sampling run is quadratic in its length, which is
//! exactly what this gate guards against. Because each sample checks a
//! strict prefix of the final run against an oracle that rescans that
//! prefix from scratch, a large invocation doubles as the prefix-replay
//! test for the whole observe path. After the run, the final trace is
//! folded from scratch in one batch: its violation list and relaxed-persist
//! count must equal the report's, and the count must equal the naive
//! oracle's.
//!
//! A second leg then drives the **same** deterministic run with streaming
//! trace compaction on, sampling at the same cadence: its final report must
//! be byte-equal to the first leg's, while its resident trace stays bounded
//! far below the full event count — the memory half of the
//! ten-million-event tier.
//!
//! Exits nonzero on any mismatch or a missed speedup.
//!
//! Run with: `cargo run --release -p nearpm-bench --bin report_smoke`
//! or e.g.:  `cargo run --release -p nearpm-bench --bin report_smoke -- --events 1000000`

use std::time::{Duration, Instant};

use nearpm_bench::synthetic::{drive_fig20_system, drive_fig20_system_configured};
use nearpm_ppo::invariants::oracle;
use nearpm_ppo::IncrementalChecker;

const THREADS: usize = 16;
const DEFAULT_TARGET_EVENTS: usize = 120_000;
/// Continuous self-monitoring cadence at the default size: one sample every
/// ~940 events. The incremental side's total cost is ~independent of the
/// cadence (every event is folded exactly once no matter how often the run
/// samples); the oracle recompute pays the full O(n) per sample, so its cost
/// scales with it — at larger `--events` the cadence is stretched (see
/// `sample_count`) to keep the oracle side's quadratic total affordable.
const BASE_SAMPLES: usize = 128;
/// Speedup demanded at the full 128-sample cadence. The incremental side
/// folds every event exactly once regardless of how often the run samples,
/// while the oracle side pays a full recompute per sample — so the
/// achievable ratio scales with the sample count and the requirement is
/// scaled down proportionally at stretched cadences (floored at 2x, which
/// still catches an accidental O(n)-per-sample regression on the
/// incremental path).
const BASE_REQUIRED_SPEEDUP: f64 = 10.0;
/// The compaction leg's peak post-compaction resident trace must stay below
/// this fraction of the full event count. Compaction retires every event
/// the checker has folded, so the measured peak is 0 at every tier. The 1/4
/// bar is generous headroom that still fails hard if retirement silently
/// stops (the peak would then be ~events/samples).
const RESIDENT_CEILING_FRACTION: f64 = 0.25;

/// Parses the command line: `--events N` or nothing.
fn target_events() -> usize {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => DEFAULT_TARGET_EVENTS,
        [flag, value] if flag == "--events" => value.parse().unwrap_or_else(|e| {
            eprintln!("bad --events value {value:?}: {e}");
            std::process::exit(2);
        }),
        _ => {
            eprintln!("usage: report_smoke [--events N]");
            std::process::exit(2);
        }
    }
}

/// Number of mid-run sampling points for a run of `events` events: the full
/// 128-sample cadence up to the default size, then scaled down so the oracle
/// side's total work (`samples × O(events)`) stays roughly constant — the
/// million-event gate takes 24 samples. Past 2M events even that floor makes
/// the oracle side dominate wall time (24 full rescans of a 10M-event run is
/// ~10x the run itself), so the floor drops to 6: still enough points to
/// exercise prefix equality, monotonicity, and the compaction watermark.
fn sample_count(events: usize) -> usize {
    let floor = if events > 2_000_000 { 6 } else { 24 };
    (BASE_SAMPLES * DEFAULT_TARGET_EVENTS / events.max(1)).clamp(floor, BASE_SAMPLES)
}

fn main() {
    let target_events = target_events();
    let samples = sample_count(target_events);
    let required_speedup = (BASE_REQUIRED_SPEEDUP * samples as f64 / BASE_SAMPLES as f64).max(2.0);
    println!("== incremental report smoke test (fig20 shape, {target_events} events, {samples} samples) ==");
    let build_start = Instant::now();
    let mut incremental_time = Duration::ZERO;
    let mut oracle_time = Duration::ZERO;
    let mut samples_taken = 0usize;
    let mut next_sample_at = target_events / samples;
    let mut last_makespan = 0.0f64;

    let mut sys = drive_fig20_system(THREADS, target_events, |sys, _txn| {
        if sys.trace_events() < next_sample_at {
            return;
        }
        next_sample_at += target_events / samples;

        let t0 = Instant::now();
        let sample = sys.report();
        incremental_time += t0.elapsed();

        let t1 = Instant::now();
        let oracle = sys.report_oracle();
        oracle_time += t1.elapsed();

        assert_eq!(
            sample, oracle,
            "incremental sample diverged from the oracle recompute at sample {samples_taken}"
        );
        assert!(
            sample.ppo_violations.is_empty(),
            "the fig20-shaped run must verify clean"
        );
        assert!(
            sample.makespan.as_us() >= last_makespan,
            "mid-run makespan series must be monotone"
        );
        last_makespan = sample.makespan.as_us();
        samples_taken += 1;
    });
    let build_time = build_start.elapsed();
    println!(
        "run: {} events, {} tasks, {samples_taken} samples (built in {build_time:?})",
        sys.trace_events(),
        sys.task_count(),
    );
    assert!(sys.trace_events() >= target_events);
    assert!(samples_taken >= samples / 2, "sampling cadence broken");

    // Final end-of-run report, also both ways (keeping the trace for the
    // one-batch fold differential below).
    let t1 = Instant::now();
    let final_oracle = sys.report_oracle();
    oracle_time += t1.elapsed();
    let t0 = Instant::now();
    let (final_report, trace) = sys.report_with_trace();
    incremental_time += t0.elapsed();
    assert_eq!(final_report, final_oracle, "final report diverged");
    drop(sys); // the compaction leg below builds its own 10M-event system

    // A from-scratch one-batch fold of the full final trace must reproduce
    // the report's violation list and relaxed-persist count byte for byte.
    let t2 = Instant::now();
    let mut fold = IncrementalChecker::new();
    let violations = fold.check(&trace);
    let fold_check = t2.elapsed();
    assert_eq!(
        violations, final_report.ppo_violations,
        "one-batch fold diverged from the report"
    );
    assert_eq!(
        fold.relaxed_persist_count(&trace),
        final_report.relaxed_persists,
        "one-batch fold relaxed_persists diverged from the report"
    );
    println!("one-batch fold: {fold_check:?}");
    drop(fold);
    let t3 = Instant::now();
    let oracle_relaxed = oracle::relaxed_persist_count(&trace);
    let relaxed_check = t3.elapsed();
    println!("oracle relaxed_persist_count: {relaxed_check:?}");
    assert_eq!(
        final_report.relaxed_persists, oracle_relaxed,
        "incremental relaxed_persists diverged from the naive oracle's count"
    );
    let total_events = trace.len();
    drop(trace);

    // Compaction leg: the same deterministic run with streaming trace
    // compaction on. Same sampling cadence (each sample is a compaction point), final report byte-equal,
    // resident trace bounded far below the full event count.
    let compact_start = Instant::now();
    let mut next_sample_at = target_events / samples;
    // Peak post-compaction residency across the run: what is left resident
    // at each sampling point after compaction (0 while retirement keeps up
    // with the fold).
    let mut peak_resident = 0usize;
    let mut sys = drive_fig20_system_configured(
        THREADS,
        target_events,
        |c| c.with_trace_compaction(true),
        |sys, _txn| {
            if sys.trace_events() < next_sample_at {
                return;
            }
            next_sample_at += target_events / samples;
            let sample = sys.report();
            peak_resident = peak_resident.max(sys.resident_trace_events());
            assert!(
                sample.ppo_violations.is_empty(),
                "the compacting run must verify clean"
            );
        },
    );
    let compact_report = sys.report();
    let compact_time = compact_start.elapsed();
    let (resident, retired) = (sys.resident_trace_events(), sys.retired_trace_events());
    peak_resident = peak_resident.max(resident);
    assert_eq!(
        compact_report, final_report,
        "compacting run's final report diverged from the retaining run's"
    );
    assert_eq!(resident + retired, total_events, "compaction lost events");
    assert!(retired > 0, "compaction retired nothing");
    let resident_ceiling = ((total_events as f64) * RESIDENT_CEILING_FRACTION).max(1024.0) as usize;
    println!(
        "compaction leg: peak {peak_resident} resident at a sampling point \
         (ceiling {resident_ceiling}), final {resident} resident / {retired} retired \
         of {total_events} events, built in {compact_time:?}"
    );
    assert!(
        peak_resident <= resident_ceiling,
        "peak resident trace {peak_resident} exceeds the ceiling {resident_ceiling}"
    );

    println!("incremental sampling: {incremental_time:?} total over {samples_taken} samples");
    println!("oracle recompute:     {oracle_time:?} total");
    let speedup = oracle_time.as_secs_f64() / incremental_time.as_secs_f64().max(1e-9);
    println!("speedup: {speedup:.1}x (required: ≥{required_speedup:.1}x)");

    if speedup < required_speedup {
        eprintln!("FAIL: speedup below target");
        std::process::exit(1);
    }
    println!("OK: identical reports at every sampling point, ≥{required_speedup:.1}x speedup");
}
