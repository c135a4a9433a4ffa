//! Differential tests: the incremental fold vs the naive oracles.
//!
//! Generates randomized traces — adversarial ones, with overlapping
//! intervals, colliding timestamps, missing offloads, zero-length intervals,
//! multiple failures, and all event kinds — and asserts that the fold
//! reports *exactly* the same violation lists (same contents, same order)
//! as the original nested-scan oracles: whole trace at once, re-checked
//! with no new events, and at every prefix of a batched replay.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::event::{Agent, EventKind, Interval, ProcId, Sharing, SyncId, Trace};
use crate::incremental::IncrementalChecker;
use crate::invariants::{self, oracle, PpoViolation};

/// Shape parameters of one random trace.
struct TraceShape {
    events: usize,
    devices: usize,
    /// Number of distinct base addresses; a small pool forces overlaps.
    bases: u64,
    procs: u64,
    /// Probability that a procedure gets an offload event recorded.
    offload_prob: f64,
    failure_prob: f64,
}

fn random_interval(rng: &mut StdRng, shape: &TraceShape) -> Interval {
    let base = rng.gen_range(0..shape.bases) * 0x100;
    let jitter = rng.gen_range(0u64..32);
    // Occasionally zero-length, to exercise the filters.
    let len = if rng.gen_range(0u64..10) == 0 {
        0
    } else {
        rng.gen_range(1u64..160)
    };
    Interval::new(base + jitter, len)
}

fn random_trace(rng: &mut StdRng, shape: &TraceShape) -> Trace {
    let mut t = Trace::new(shape.devices);
    let procs: Vec<ProcId> = (0..shape.procs).map(|_| t.new_proc()).collect();
    let syncs: Vec<SyncId> = (0..3).map(|_| t.new_sync()).collect();

    // Some procedures get an offload record, some deliberately do not
    // (MissingOffload coverage).
    for p in &procs {
        if rng.gen::<f64>() < shape.offload_prob {
            let ts = rng.gen_range(0u64..10_000);
            t.record(
                Agent::Cpu,
                EventKind::Offload,
                Interval::new(0, 0),
                Sharing::Shared,
                Some(*p),
                None,
                ts,
            );
        }
    }

    let mut failed = false;
    for _ in 0..shape.events {
        let agent = if rng.gen::<f64>() < 0.4 {
            Agent::Cpu
        } else {
            Agent::Ndp(rng.gen_range(0..shape.devices))
        };
        let kind = match rng.gen_range(0u32..100) {
            0..=29 => EventKind::Write,
            30..=54 => EventKind::Persist,
            55..=74 => EventKind::Read,
            75..=84 => EventKind::Sync,
            85..=94 => {
                if failed {
                    EventKind::RecoveryRead
                } else {
                    EventKind::Read
                }
            }
            _ => {
                if !failed && rng.gen::<f64>() < shape.failure_prob {
                    failed = true;
                    EventKind::Failure
                } else {
                    EventKind::Persist
                }
            }
        };
        let interval = random_interval(rng, shape);
        let sharing = if rng.gen::<f64>() < 0.5 {
            Sharing::Shared
        } else {
            Sharing::NdpManaged
        };
        let proc = if rng.gen::<f64>() < 0.7 {
            Some(procs[rng.gen_range(0..procs.len())])
        } else {
            None
        };
        let sync = if kind == EventKind::Sync {
            Some(syncs[rng.gen_range(0..syncs.len())])
        } else {
            None
        };
        // Coarse timestamps so that <=/< boundary cases actually occur.
        let ts = rng.gen_range(0u64..2_000) * 10;
        t.record(agent, kind, interval, sharing, proc, sync, ts);
    }
    t
}

/// The violations of `all` in one invariant class, in order: ordering
/// (Invariants 1/2 including `MissingOffload`), sync (Invariant 3), or
/// recovery (Invariant 4) — the per-class lists the naive oracle emits.
fn of_class(all: &[PpoViolation], class: fn(&PpoViolation) -> bool) -> Vec<PpoViolation> {
    all.iter().filter(|v| class(v)).cloned().collect()
}

fn is_ordering(v: &PpoViolation) -> bool {
    matches!(
        v,
        PpoViolation::SharedOrderViolation { .. } | PpoViolation::MissingOffload { .. }
    )
}

fn is_sync(v: &PpoViolation) -> bool {
    matches!(v, PpoViolation::UnpersistedBeforeSync { .. })
}

fn is_recovery(v: &PpoViolation) -> bool {
    matches!(v, PpoViolation::RecoveryReadUnpersisted { .. })
}

fn assert_checkers_agree(t: &Trace, seed: u64) {
    let all = invariants::check_all(t);
    assert_eq!(
        of_class(&all, is_ordering),
        oracle::check_cpu_ndp_ordering(t),
        "cpu/ndp ordering diverged (seed {seed})"
    );
    assert_eq!(
        of_class(&all, is_sync),
        oracle::check_sync_persistence(t),
        "sync persistence diverged (seed {seed})"
    );
    assert_eq!(
        of_class(&all, is_recovery),
        oracle::check_recovery_reads(t),
        "recovery reads diverged (seed {seed})"
    );
    let naive = oracle::check_all(t);
    assert_eq!(all, naive, "check_all diverged (seed {seed})");
    // The one-batch fold must produce the *identical* violation list (same
    // contents, same order) and relaxed-persist count — whole trace at once
    // and on the no-new-events fast path.
    let naive_relaxed = oracle::relaxed_persist_count(t);
    let mut checker = IncrementalChecker::new();
    assert_eq!(checker.check(t), naive, "fold diverged (seed {seed})");
    assert_eq!(
        checker.check(t),
        naive,
        "re-checked fold diverged (seed {seed})"
    );
    assert_eq!(
        checker.relaxed_persist_count(t),
        naive_relaxed,
        "relaxed persist count diverged (seed {seed})"
    );
}

#[test]
fn random_traces_do_exercise_violations() {
    // Guard against the differential suite silently comparing empty lists:
    // across the seeds, a healthy share of traces must contain violations of
    // each class.
    let (mut ordering, mut sync_v, mut recovery) = (0usize, 0usize, 0usize);
    for seed in 0..150u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = TraceShape {
            events: rng.gen_range(1usize..120),
            devices: rng.gen_range(1usize..4),
            bases: rng.gen_range(2u64..10),
            procs: rng.gen_range(1u64..5),
            offload_prob: 0.7,
            failure_prob: 0.5,
        };
        let t = random_trace(&mut rng, &shape);
        let all = invariants::check_all(&t);
        ordering += of_class(&all, is_ordering).len();
        sync_v += of_class(&all, is_sync).len();
        recovery += of_class(&all, is_recovery).len();
    }
    assert!(
        ordering > 50,
        "ordering violations never generated: {ordering}"
    );
    assert!(sync_v > 50, "sync violations never generated: {sync_v}");
    assert!(
        recovery > 10,
        "recovery violations never generated: {recovery}"
    );
}

#[test]
fn indexed_checkers_match_oracles_on_random_traces() {
    for seed in 0..150u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = TraceShape {
            events: rng.gen_range(1usize..120),
            devices: rng.gen_range(1usize..4),
            bases: rng.gen_range(2u64..10),
            procs: rng.gen_range(1u64..5),
            offload_prob: 0.7,
            failure_prob: 0.5,
        };
        let t = random_trace(&mut rng, &shape);
        assert_checkers_agree(&t, seed);
    }
}

#[test]
fn indexed_checkers_match_oracles_on_dense_overlap_traces() {
    // One base address: every interval overlaps every other, the worst case
    // for ordering between equal starts and for duplicate violations.
    for seed in 1_000..1_040u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = TraceShape {
            events: 80,
            devices: 2,
            bases: 1,
            procs: 2,
            offload_prob: 0.5,
            failure_prob: 0.8,
        };
        let t = random_trace(&mut rng, &shape);
        assert_checkers_agree(&t, seed);
    }
}

#[test]
fn incrementally_extended_index_matches_full_rebuild_at_every_prefix() {
    // Replay random traces into a second trace in random-sized batches,
    // checking with the incremental checker after every batch and
    // comparing against a from-scratch check of the same prefix. This
    // exercises failure events arriving in later batches than the writes
    // they bound, level collapses in the logarithmic index, and the
    // no-new-events fast path.
    for seed in 3_000..3_030u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = TraceShape {
            events: rng.gen_range(20usize..150),
            devices: rng.gen_range(1usize..3),
            bases: rng.gen_range(2u64..8),
            procs: rng.gen_range(1u64..5),
            offload_prob: 0.7,
            failure_prob: 0.6,
        };
        let t = random_trace(&mut rng, &shape);
        let mut replay = Trace::new(shape.devices);
        let mut checker = IncrementalChecker::new();
        let mut i = 0;
        while i < t.len() {
            let batch = rng.gen_range(1usize..12).min(t.len() - i);
            for e in &t.events()[i..i + batch] {
                replay.record(
                    e.agent,
                    e.kind,
                    e.interval,
                    e.sharing,
                    e.proc,
                    e.sync,
                    e.timestamp_ps,
                );
            }
            i += batch;
            let full = invariants::check_all(&replay);
            // The violation-level checker must equal a from-scratch check at
            // *every* prefix: late offloads un-parking MissingOffload
            // verdicts, late CPU accesses violating old NDP events, late
            // persists clearing old sync violations, and failure events
            // arriving after the writes/reads they judge all land here.
            assert_eq!(
                checker.check(&replay),
                full,
                "incremental-checker prefix of {i} events diverged (seed {seed})"
            );
            assert_eq!(
                full,
                oracle::check_all(&replay),
                "oracle prefix (seed {seed})"
            );
            // The incrementally maintained relaxed-persist count must match
            // the naive rescan at every prefix (late CPU accesses lowering
            // the threshold retroactively count old persists here).
            assert_eq!(
                checker.relaxed_persist_count(&replay),
                oracle::relaxed_persist_count(&replay),
                "relaxed-count prefix of {i} events diverged (seed {seed})"
            );
        }
        assert_eq!(checker.consumed(), t.len());
    }
}

#[test]
fn fold_matches_the_oracle_at_random_batch_splits_with_late_offloads() {
    // The fold must equal the naive oracle at every batch split. Odd seeds
    // append the offload records *after* the main event stream so
    // MissingOffload verdicts park across many batches and un-park late
    // (the adversarial case for the parked state the fold mutates in
    // place).
    for seed in 5_000..5_024u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = TraceShape {
            events: rng.gen_range(40usize..160),
            devices: rng.gen_range(1usize..3),
            bases: rng.gen_range(2u64..8),
            procs: rng.gen_range(1u64..5),
            offload_prob: if seed % 2 == 1 { 0.0 } else { 0.7 },
            failure_prob: 0.6,
        };
        let mut t = random_trace(&mut rng, &shape);
        if seed % 2 == 1 {
            // Late offloads: record them after every write/persist/sync they
            // retroactively legitimize.
            let procs: Vec<ProcId> = t.events().iter().filter_map(|e| e.proc).collect();
            let mut seen = Vec::new();
            for p in procs {
                if !seen.contains(&p) && rng.gen::<f64>() < 0.7 {
                    seen.push(p);
                    t.record(
                        Agent::Cpu,
                        EventKind::Offload,
                        Interval::new(0, 0),
                        Sharing::Shared,
                        Some(p),
                        None,
                        rng.gen_range(0u64..10_000),
                    );
                }
            }
        }

        let mut checker = IncrementalChecker::new();
        let mut replay = Trace::new(shape.devices);
        let feed = |replay: &mut Trace,
                    checker: &mut IncrementalChecker,
                    rng: &mut StdRng,
                    source: &Trace| {
            let mut i = 0;
            while i < source.len() {
                let batch = rng.gen_range(1usize..12).min(source.len() - i);
                for e in &source.events()[i..i + batch] {
                    replay.record(
                        e.agent,
                        e.kind,
                        e.interval,
                        e.sharing,
                        e.proc,
                        e.sync,
                        e.timestamp_ps,
                    );
                }
                i += batch;
                assert_eq!(
                    checker.check(replay),
                    oracle::check_all(replay),
                    "fold diverged from the oracle at prefix {i} (seed {seed})"
                );
            }
        };
        feed(&mut replay, &mut checker, &mut rng, &t);

        // Reset the trace and regrow it with a different stream: the checker
        // must detect the generation bump and rebuild.
        replay.clear();
        let t2 = random_trace(
            &mut StdRng::seed_from_u64(seed ^ 0xACE),
            &TraceShape {
                events: shape.events / 2 + 10,
                ..shape
            },
        );
        feed(&mut replay, &mut checker, &mut rng, &t2);
        assert_eq!(checker.consumed(), replay.len());
    }
}

/// A trace whose procedures each record their NDP accesses and then, mostly,
/// their offload as one contiguous group (a late offload: a batch split
/// inside the group parks the accesses). At every split, every later NDP
/// access that names a procedure therefore belongs to one whose offload is
/// also later — precondition (ii) of [`IncrementalChecker::retire_below`].
/// Timestamps trend upward with the position and jitter around it, with
/// occasional far-late stamps, so events are often stamped earlier than
/// ones recorded before them.
fn grouped_trace(rng: &mut StdRng, events: usize, devices: usize, bases: u64) -> Trace {
    let shape = TraceShape {
        events,
        devices,
        bases,
        procs: 0,
        offload_prob: 0.0,
        failure_prob: 0.0,
    };
    let jitter = rng.gen_range(1u64..40);
    let stamp = |rng: &mut StdRng, position: usize| {
        let late = if rng.gen_range(0..20) == 0 {
            rng.gen_range(0u64..200)
        } else {
            0
        };
        (position as u64 + rng.gen_range(0..jitter) + late) * 10
    };
    let sharing = |rng: &mut StdRng| {
        if rng.gen_bool(0.6) {
            Sharing::Shared
        } else {
            Sharing::NdpManaged
        }
    };
    let mut t = Trace::new(devices);
    let syncs: Vec<SyncId> = (0..3).map(|_| t.new_sync()).collect();
    let mut groups: Vec<(ProcId, Agent)> = Vec::new();
    let mut failed = false;
    while t.len() < events {
        let agent = Agent::Ndp(rng.gen_range(0..devices));
        match rng.gen_range(0u32..100) {
            0..=34 => {
                let kind = [EventKind::Write, EventKind::Read, EventKind::Persist]
                    [rng.gen_range(0..3usize)];
                let (interval, sharing, ts) = (
                    random_interval(rng, &shape),
                    sharing(rng),
                    stamp(rng, t.len()),
                );
                t.record(Agent::Cpu, kind, interval, sharing, None, None, ts);
            }
            35..=69 => {
                let p = t.new_proc();
                groups.push((p, agent));
                for _ in 0..rng.gen_range(1..5) {
                    let kind = [
                        EventKind::Write,
                        EventKind::Write,
                        EventKind::Persist,
                        EventKind::Read,
                    ][rng.gen_range(0..4usize)];
                    let (interval, sharing, ts) = (
                        random_interval(rng, &shape),
                        sharing(rng),
                        stamp(rng, t.len()),
                    );
                    t.record(agent, kind, interval, sharing, Some(p), None, ts);
                }
                if rng.gen_bool(0.85) {
                    let ts = stamp(rng, t.len());
                    t.record(
                        Agent::Cpu,
                        EventKind::Offload,
                        Interval::new(0, 0),
                        Sharing::Shared,
                        Some(p),
                        None,
                        ts,
                    );
                }
            }
            70..=79 => {
                // A late persist (or write) with no procedure.
                let kind = if rng.gen_bool(0.8) {
                    EventKind::Persist
                } else {
                    EventKind::Write
                };
                let (interval, sharing, ts) = (
                    random_interval(rng, &shape),
                    sharing(rng),
                    stamp(rng, t.len()),
                );
                t.record(agent, kind, interval, sharing, None, None, ts);
            }
            80..=91 => {
                // Proc-scoped syncs name a recent group on its own agent.
                let (agent, proc) = match groups.len() {
                    n if n > 0 && rng.gen_bool(0.6) => {
                        let (p, a) = groups[n - 1 - rng.gen_range(0..n.min(4))];
                        (a, Some(p))
                    }
                    _ => (agent, None),
                };
                let sync = syncs[rng.gen_range(0..syncs.len())];
                let ts = stamp(rng, t.len());
                t.record(
                    agent,
                    EventKind::Sync,
                    Interval::new(0, 0),
                    Sharing::NdpManaged,
                    proc,
                    Some(sync),
                    ts,
                );
            }
            _ => {
                let (agent, kind) = if failed {
                    (agent, EventKind::RecoveryRead)
                } else if rng.gen_bool(0.3) {
                    failed = true;
                    (Agent::Cpu, EventKind::Failure)
                } else {
                    (Agent::Cpu, EventKind::Read)
                };
                let (interval, sharing, ts) = (
                    random_interval(rng, &shape),
                    sharing(rng),
                    stamp(rng, t.len()),
                );
                t.record(agent, kind, interval, sharing, None, None, ts);
            }
        }
    }
    t
}

#[test]
fn forced_retention_matches_the_oracle_at_every_prefix() {
    // Replays grouped traces in random batches and, after every batch,
    // retires below W_k — the minimum timestamp of every event not yet
    // replayed — so precondition (i) holds by construction. The fold must
    // equal the naive oracle and its relaxed count at every prefix, and
    // with no access parked it must keep only entries stamped above W_k and
    // offload entries from the lowest live procedure on.
    let (mut ordering, mut sync_v, mut recovery) = (0usize, 0usize, 0usize);
    let (mut parked_prefixes, mut dropped, mut trimmed) = (0usize, 0usize, 0usize);
    for seed in 7_000..7_060u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let devices = rng.gen_range(1usize..3);
        let events = rng.gen_range(40usize..220);
        let bases = rng.gen_range(2u64..8);
        let t = grouped_trace(&mut rng, events, devices, bases);
        let mut later = vec![u64::MAX; t.len() + 1];
        for (k, e) in t.events().iter().enumerate().rev() {
            later[k] = later[k + 1].min(e.timestamp_ps);
        }
        let mut replay = Trace::new(devices);
        let mut checker = IncrementalChecker::new();
        let mut naive = Vec::new();
        let mut i = 0;
        while i < t.len() {
            let batch = rng.gen_range(1usize..12).min(t.len() - i);
            for e in &t.events()[i..i + batch] {
                replay.record(
                    e.agent,
                    e.kind,
                    e.interval,
                    e.sharing,
                    e.proc,
                    e.sync,
                    e.timestamp_ps,
                );
            }
            i += batch;
            naive = oracle::check_all(&replay);
            assert_eq!(
                checker.check(&replay),
                naive,
                "retained fold diverged at prefix {i} (seed {seed})"
            );
            assert_eq!(
                checker.relaxed_persist_count(&replay),
                oracle::relaxed_persist_count(&replay),
                "retained relaxed count diverged at prefix {i} (seed {seed})"
            );
            let w = later[i];
            let before = checker.retained_stamps().len();
            let ((_, offloads_before), _) = checker.offload_window();
            checker.retire_below(w);
            let kept = checker.retained_stamps();
            dropped += before - kept.len();
            if naive
                .iter()
                .any(|v| matches!(v, PpoViolation::MissingOffload { .. }))
            {
                parked_prefixes += 1;
            } else {
                assert!(
                    kept.iter().all(|&ts| ts > w),
                    "entry at or below W = {w} kept at prefix {i} (seed {seed})"
                );
                // With nothing parked every live procedure has its offload
                // in the table, so the table starts exactly at the lowest
                // one, or is empty when no procedure is live.
                let ((first, entries), live) = checker.offload_window();
                if live == u64::MAX {
                    assert_eq!(entries, 0, "offload table kept at prefix {i} (seed {seed})");
                } else {
                    assert_eq!(
                        first,
                        Some(live),
                        "offload table at prefix {i} (seed {seed})"
                    );
                }
                trimmed += usize::from(entries < offloads_before);
            }
        }
        assert_eq!(checker.check(&replay), naive, "re-check (seed {seed})");
        ordering += of_class(&naive, is_ordering).len();
        sync_v += of_class(&naive, is_sync).len();
        recovery += of_class(&naive, is_recovery).len();
    }
    // The leg must exercise what it guards: violations of every class,
    // accesses parked across a retirement, and entries actually dropped.
    assert!(ordering > 50, "ordering violations: {ordering}");
    assert!(sync_v > 20, "sync violations: {sync_v}");
    assert!(recovery > 5, "recovery violations: {recovery}");
    assert!(
        parked_prefixes > 50,
        "prefixes with a parked access: {parked_prefixes}"
    );
    assert!(dropped > 1_000, "entries retired: {dropped}");
    assert!(
        trimmed > 50,
        "prefixes that trimmed the offload table: {trimmed}"
    );
}

#[test]
fn cached_index_detects_trace_reset() {
    let mut rng = StdRng::seed_from_u64(7);
    let shape = TraceShape {
        events: 60,
        devices: 2,
        bases: 4,
        procs: 3,
        offload_prob: 0.7,
        failure_prob: 0.8,
    };
    let t = random_trace(&mut rng, &shape);
    let mut replay = t.clone();
    let mut checker = IncrementalChecker::new();
    assert_eq!(checker.check(&replay), oracle::check_all(&t));
    let consumed_before_reset = checker.consumed();
    // Reset the trace and regrow it *past* its previous length with
    // different events before the next check: the generation bump must make
    // the checker rebuild — a length check alone would keep the stale prefix.
    replay.clear();
    assert!(replay.is_empty());
    let t2 = random_trace(
        &mut StdRng::seed_from_u64(8),
        &TraceShape {
            events: shape.events * 2,
            ..shape
        },
    );
    assert!(t2.len() > consumed_before_reset);
    for e in t2.events() {
        replay.record(
            e.agent,
            e.kind,
            e.interval,
            e.sharing,
            e.proc,
            e.sync,
            e.timestamp_ps,
        );
    }
    assert_eq!(checker.check(&replay), oracle::check_all(&replay));
    assert_eq!(
        checker.relaxed_persist_count(&replay),
        oracle::relaxed_persist_count(&replay)
    );
    // An empty cleared trace also resets the checker.
    replay.clear();
    assert!(checker.check(&replay).is_empty());
    assert_eq!(checker.consumed(), 0);
}

#[test]
fn indexed_checkers_match_oracles_on_empty_and_tiny_traces() {
    let t = Trace::new(1);
    assert_checkers_agree(&t, u64::MAX);
    for seed in 2_000..2_020u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = TraceShape {
            events: rng.gen_range(1usize..4),
            devices: 1,
            bases: 2,
            procs: 1,
            offload_prob: 0.5,
            failure_prob: 0.5,
        };
        let t = random_trace(&mut rng, &shape);
        assert_checkers_agree(&t, seed);
    }
}
