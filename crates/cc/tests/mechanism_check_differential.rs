//! System-level differential gate for PPO checking.
//!
//! The ppo crate already proves the incremental fold equal to the naive
//! oracle on randomized adversarial traces; this test closes the loop at the
//! other end of the stack: the traces the four crash-consistency mechanisms
//! (undo logging, redo logging, checkpointing, shadow paging) actually
//! produce through the full `NearPmSystem` — in every execution mode, from
//! the serial CPU baseline to the pipelined NearPM MD front-end, including
//! a crash/recovery segment — must yield **identical violation lists** from
//! the system's report, a one-batch fold of the whole trace, and the naive
//! rescanning oracle. The report's incrementally maintained
//! `relaxed_persists` column is held to the same standard.

use nearpm_cc::{Checkpoint, RedoLog, ShadowPaging, UndoLog};
use nearpm_core::{ExecMode, NearPmSystem, PoolId, Region, RunReport, SystemConfig, VirtAddr};
use nearpm_ppo::invariants::oracle;
use nearpm_ppo::{IncrementalChecker, Trace};

fn setup(mode: ExecMode) -> (NearPmSystem, PoolId) {
    let mut sys = NearPmSystem::new(SystemConfig::for_mode(mode).with_capacity(32 << 20));
    let pool = sys.create_pool("check-diff", 16 << 20).unwrap();
    (sys, pool)
}

/// Asserts the report, the one-batch fold, and the naive oracle agree on
/// `trace`, violation lists and relaxed-persist counts alike.
fn assert_checkers_agree(trace: &Trace, report: &RunReport, context: &str) {
    let naive = oracle::check_all(trace);
    assert_eq!(
        report.ppo_violations, naive,
        "report vs oracle diverged: {context}"
    );
    let mut fold = IncrementalChecker::new();
    assert_eq!(
        fold.check(trace),
        report.ppo_violations,
        "one-batch fold vs report diverged: {context}"
    );
    assert_eq!(
        fold.relaxed_persist_count(trace),
        report.relaxed_persists,
        "one-batch fold vs report relaxed_persists: {context}"
    );
    assert_eq!(
        report.relaxed_persists,
        oracle::relaxed_persist_count(trace),
        "report's incremental relaxed_persists vs oracle: {context}"
    );
}

fn obj(sys: &mut NearPmSystem, pool: PoolId) -> VirtAddr {
    let addr = sys.alloc(pool, 8192, 4096).unwrap();
    sys.cpu_write_persist(0, addr, &vec![0xAB; 8192], Region::AppPersist)
        .unwrap();
    addr
}

#[test]
fn undo_log_traces_check_identically_in_all_modes() {
    for mode in ExecMode::all() {
        let (mut sys, pool) = setup(mode);
        let addr = obj(&mut sys, pool);
        let mut undo = UndoLog::new(&mut sys, pool, 0, 8).unwrap();
        // A committed transaction, then one interrupted by a crash and
        // recovered — recovery reads exercise invariant 4.
        undo.begin(&mut sys).unwrap();
        undo.log_range(&mut sys, addr, 128).unwrap();
        undo.update(&mut sys, addr, &[0x11; 128]).unwrap();
        undo.commit(&mut sys).unwrap();
        undo.begin(&mut sys).unwrap();
        undo.log_range(&mut sys, addr.offset(4096), 128).unwrap();
        undo.update(&mut sys, addr.offset(4096), &[0x22; 128])
            .unwrap();
        sys.crash();
        undo.recover(&mut sys).unwrap();
        let (report, trace) = sys.report_with_trace();
        assert!(report.ppo_violations.is_empty(), "{mode:?}");
        assert_checkers_agree(&trace, &report, &format!("undo {mode:?}"));
    }
}

#[test]
fn redo_log_traces_check_identically_in_all_modes() {
    for mode in ExecMode::all() {
        let (mut sys, pool) = setup(mode);
        let addr = obj(&mut sys, pool);
        let mut redo = RedoLog::new(&mut sys, pool, 0, 8).unwrap();
        redo.begin(&mut sys).unwrap();
        redo.stage(&mut sys, addr, &[0x42; 64]).unwrap();
        // A second staged range on a far offset lands on the other device
        // in MD modes, forcing cross-device synchronization (invariant 3).
        redo.stage(&mut sys, addr.offset(4096), &[0x43; 64])
            .unwrap();
        redo.commit(&mut sys).unwrap();
        let (report, trace) = sys.report_with_trace();
        assert!(report.ppo_violations.is_empty(), "{mode:?}");
        assert_checkers_agree(&trace, &report, &format!("redo {mode:?}"));
    }
}

#[test]
fn checkpoint_traces_check_identically_in_all_modes() {
    for mode in ExecMode::all() {
        let (mut sys, pool) = setup(mode);
        let data = sys
            .alloc(pool, 2 * nearpm_sim::PM_PAGE, nearpm_sim::PM_PAGE)
            .unwrap();
        sys.cpu_write_persist(0, data, &vec![1u8; 256], Region::AppPersist)
            .unwrap();
        let mut ckpt = Checkpoint::new(&mut sys, pool, 0, 8).unwrap();
        ckpt.touch(&mut sys, data).unwrap();
        ckpt.update(&mut sys, data, &[2u8; 128]).unwrap();
        ckpt.advance_epoch(&mut sys).unwrap();
        ckpt.touch(&mut sys, data).unwrap();
        ckpt.update(&mut sys, data, &[3u8; 128]).unwrap();
        sys.crash();
        ckpt.recover(&mut sys).unwrap();
        let (report, trace) = sys.report_with_trace();
        assert!(report.ppo_violations.is_empty(), "{mode:?}");
        assert_checkers_agree(&trace, &report, &format!("ckpt {mode:?}"));
    }
}

#[test]
fn shadow_paging_traces_check_identically_in_all_modes() {
    for mode in ExecMode::all() {
        let (mut sys, pool) = setup(mode);
        let mut shadow = ShadowPaging::new(&mut sys, pool, 0, 4, 8).unwrap();
        let p2 = shadow.page_addr(&mut sys, 2).unwrap();
        sys.cpu_write_persist(0, p2, &vec![5u8; 256], Region::AppPersist)
            .unwrap();
        shadow.update(&mut sys, 2, 64, &[9u8; 32]).unwrap();
        shadow.update(&mut sys, 1, 0, &[7u8; 16]).unwrap();
        let (report, trace) = sys.report_with_trace();
        assert!(report.ppo_violations.is_empty(), "{mode:?}");
        assert_checkers_agree(&trace, &report, &format!("shadow {mode:?}"));
    }
}
