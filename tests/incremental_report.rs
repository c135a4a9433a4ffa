//! End-to-end differential tests of the incremental observe path.
//!
//! At every step of a run, the incremental `report()` — graph
//! aggregates maintained as tasks are added, timeline merged on the fly,
//! violation-level cached checking — must produce a [`RunReport`] equal
//! **field for field** to `report_oracle()`, the retained O(n) recompute
//! path (full schedule re-aggregation + from-scratch trace check). Covered
//! here: all four crash-consistency mechanisms (undo logging, redo logging,
//! checkpointing, shadow paging) across execution modes, multi-sample
//! interleavings (a sampled run's final report is identical to an unsampled
//! one's), crash/recovery (a failure event arriving after the writes it
//! bounds), and a mid-run trace reset rebuilding the cached checker.

use nearpm::cc::{Checkpoint, Mechanism, RedoLog, ShadowPaging, UndoLog};
use nearpm::core::{ExecMode, NearPmSystem, SystemConfig, TraceBuilder};
use nearpm::ppo;
use nearpm::sim::Region;
use nearpm::workloads::{RunOptions, Runner, Workload};

/// Asserts the incremental report equals the oracle recompute, field for
/// field (the oracle is taken first; it reads no caches).
fn assert_matches_oracle(sys: &mut NearPmSystem, ctx: &str) {
    let oracle = sys.report_oracle();
    let sample = sys.report();
    assert_eq!(
        sample, oracle,
        "incremental vs oracle report diverged: {ctx}"
    );
}

fn setup(mode: ExecMode) -> (NearPmSystem, nearpm::core::PoolId, nearpm::core::VirtAddr) {
    let mut sys = NearPmSystem::new(SystemConfig::for_mode(mode).with_capacity(32 << 20));
    let pool = sys.create_pool("obs", 16 << 20).unwrap();
    let obj = sys.alloc(pool, 16384, 4096).unwrap();
    sys.cpu_write_persist(0, obj, &vec![0x5A; 16384], Region::AppPersist)
        .unwrap();
    (sys, pool, obj)
}

/// Prefix replay over all four CC mechanisms: after **every** transaction
/// (and at the empty prefix) the snapshot equals the recompute.
#[test]
fn all_four_mechanisms_report_incrementally_equal_to_oracle() {
    for mode in [
        ExecMode::CpuBaseline,
        ExecMode::NearPmSd,
        ExecMode::NearPmMd,
    ] {
        // Undo logging.
        let (mut sys, pool, obj) = setup(mode);
        assert_matches_oracle(&mut sys, "empty prefix");
        let mut undo = UndoLog::new(&mut sys, pool, 0, 8).unwrap();
        for i in 0..6u64 {
            undo.begin(&mut sys).unwrap();
            let site = obj.offset((i % 3) * 4096);
            undo.log_range(&mut sys, site, 512).unwrap();
            sys.cpu_compute(0, 250.0).unwrap();
            undo.update(&mut sys, site, &[i as u8; 512]).unwrap();
            undo.commit(&mut sys).unwrap();
            assert_matches_oracle(&mut sys, &format!("{mode:?} undo txn {i}"));
        }

        // Redo logging.
        let (mut sys, pool, obj) = setup(mode);
        let mut redo = RedoLog::new(&mut sys, pool, 0, 8).unwrap();
        for i in 0..6u64 {
            redo.begin(&mut sys).unwrap();
            redo.stage(&mut sys, obj.offset((i % 3) * 4096), &[i as u8; 128])
                .unwrap();
            redo.commit(&mut sys).unwrap();
            assert_matches_oracle(&mut sys, &format!("{mode:?} redo txn {i}"));
        }

        // Checkpointing.
        let (mut sys, pool, obj) = setup(mode);
        let mut ckpt = Checkpoint::new(&mut sys, pool, 0, 8).unwrap();
        for i in 0..6u64 {
            let site = obj.offset((i % 3) * 4096);
            ckpt.touch_many(&mut sys, &[site]).unwrap();
            ckpt.update(&mut sys, site, &[i as u8; 256]).unwrap();
            if i % 2 == 1 {
                ckpt.advance_epoch(&mut sys).unwrap();
            }
            assert_matches_oracle(&mut sys, &format!("{mode:?} ckpt op {i}"));
        }

        // Shadow paging.
        let (mut sys, pool, _obj) = setup(mode);
        let mut shadow = ShadowPaging::new(&mut sys, pool, 0, 4, 8).unwrap();
        for i in 0..6u64 {
            shadow
                .update_many(
                    &mut sys,
                    &[((i % 4) as usize, (i % 8) * 64, vec![i as u8; 64])],
                )
                .unwrap();
            assert_matches_oracle(&mut sys, &format!("{mode:?} shadow op {i}"));
        }
    }
}

/// A run that samples itself produces the same final report as one that
/// never does — sampling is pure observation — and the in-run series is
/// monotone.
#[test]
fn sampled_run_matches_unsampled_run_field_for_field() {
    for m in Mechanism::all() {
        let runner = Runner::new(
            Workload::Hashmap,
            RunOptions::new(ExecMode::NearPmMd, m, 24)
                .with_threads(2)
                .with_seed(9),
        );
        let (samples, sampled_final, _sys) = runner.run_sampled(5).unwrap();
        let plain = runner.run().unwrap();
        assert_eq!(sampled_final, plain, "{m:?}: sampling perturbed the run");
        assert!(samples.len() >= 4);
        for w in samples.windows(2) {
            assert!(
                w[1].makespan >= w[0].makespan && w[1].trace_events >= w[0].trace_events,
                "{m:?}: in-run sample series must be monotone"
            );
        }
        assert!(sampled_final.ppo_violations.is_empty());
    }
}

/// Streaming trace compaction is pure memory management: a run that evicts
/// retired events at every sample must produce the same in-run series and
/// the same final report, field for field, as a run that retains its whole
/// trace — while actually holding fewer events resident.
#[test]
fn compacting_run_report_is_byte_equal_to_retaining_runs() {
    for m in Mechanism::all() {
        let options = RunOptions::new(ExecMode::NearPmMd, m, 24)
            .with_threads(2)
            .with_seed(9);
        let retaining = Runner::new(Workload::Hashmap, options.clone());
        let compacting = Runner::new(Workload::Hashmap, options.with_trace_compaction(true));
        let (plain_samples, plain_final, _) = retaining.run_sampled(5).unwrap();
        let (samples, fin, sys) = compacting.run_sampled(5).unwrap();
        assert_eq!(fin, plain_final, "{m:?}: compaction changed the report");
        assert_eq!(samples, plain_samples, "{m:?}: compaction changed a sample");
        assert!(
            sys.retired_trace_events() > 0,
            "{m:?}: compaction never evicted anything"
        );
        assert!(
            sys.resident_trace_events() < sys.trace_events(),
            "{m:?}: resident trace not below the full event count"
        );
        assert_eq!(
            sys.resident_trace_events() + sys.retired_trace_events(),
            sys.trace_events(),
            "{m:?}: compaction lost events"
        );
    }
}

/// Crash and recovery: the failure event and the recovery reads arrive long
/// after the writes they judge; incremental and oracle reports must agree
/// before the crash, right after it, during recovery, and on the next
/// transaction after recovery.
#[test]
fn crash_recovery_reports_match_oracle() {
    for mode in [ExecMode::NearPmSd, ExecMode::NearPmMd] {
        let (mut sys, pool, obj) = setup(mode);
        let mut undo = UndoLog::new(&mut sys, pool, 0, 8).unwrap();
        undo.begin(&mut sys).unwrap();
        undo.log_range(&mut sys, obj, 256).unwrap();
        undo.update(&mut sys, obj, &[0xEE; 256]).unwrap();
        assert_matches_oracle(&mut sys, &format!("{mode:?} pre-crash"));
        sys.crash();
        assert_matches_oracle(&mut sys, &format!("{mode:?} post-crash"));
        let rolled = undo.recover(&mut sys).unwrap();
        assert!(rolled >= 1);
        assert_matches_oracle(&mut sys, &format!("{mode:?} post-recovery"));
        undo.begin(&mut sys).unwrap();
        undo.log_range(&mut sys, obj, 128).unwrap();
        undo.update(&mut sys, obj, &[0x11; 128]).unwrap();
        undo.commit(&mut sys).unwrap();
        assert_matches_oracle(&mut sys, &format!("{mode:?} post-recovery txn"));
    }
}

/// A mid-run trace reset invalidates the cached checker; subsequent checks
/// match a from-scratch check of the regrown trace.
#[test]
fn trace_reset_interleaved_with_checks_rebuilds_cleanly() {
    use nearpm::ppo::{Agent, EventKind, Interval, Sharing};
    use nearpm::sim::{LatencyModel, Resource, TaskGraph};
    let model = LatencyModel::default();
    let mut graph = TaskGraph::new();
    let mut tb = TraceBuilder::new(1);
    for round in 0..3 {
        for i in 0..20u64 {
            let t = graph.add(
                "w",
                Resource::Cpu(0),
                model.cpu_compute(50.0),
                Region::Application,
                &[],
            );
            let p = tb.new_proc();
            tb.record(
                &graph,
                Agent::Cpu,
                EventKind::Offload,
                Interval::new(0, 0),
                Sharing::Shared,
                Some(p),
                None,
                Some(t),
            );
            tb.record(
                &graph,
                Agent::Ndp(0),
                EventKind::Read,
                Interval::new(0x1000 + (i % 4) * 64, 64),
                Sharing::Shared,
                Some(p),
                None,
                Some(t),
            );
            if i % 5 == 4 {
                assert_eq!(
                    tb.check(),
                    ppo::check_all(tb.trace()),
                    "round {round} event {i}"
                );
            }
        }
        tb.reset();
        assert!(tb.is_empty());
        assert_eq!(tb.indexed_events(), 0);
        assert!(tb.check().is_empty());
    }
}
