//! Exhaustive crash-point matrix: every boundary of every mechanism ×
//! pipeline shape × device configuration recovers with all three explorer
//! invariants (committed-prefix image, PPO-clean trace, idempotent second
//! recovery). The deeper release-mode sweep runs in CI as
//! `crash_matrix_smoke`; this keeps a 1-unit version in the tier-1 suite.
//!
//! Each cell's boundary count per kind is pinned exactly, so a change to
//! the offload → sync → release lifecycle that adds or drops a persist,
//! offload, sync or commit-retire boundary fails here.

use nearpm::core::ExecMode;
use nearpm::pm::MediaConfig;
use nearpm::workloads::{explore, CcMech, ExplorerConfig, PipelineMode};

/// Expected `by_kind` (`[persist, offload, sync, commit-retire]`) of one
/// 1-unit cell, per pipeline shape, as `[SD, MD]`.
struct Expected {
    pipelined: [[u64; 4]; 2],
    serial: [[u64; 4]; 2],
}

fn assert_cell(mech: CcMech, expected: Expected) {
    for pipeline in PipelineMode::ALL {
        let by_mode = match pipeline {
            PipelineMode::Pipelined => expected.pipelined,
            PipelineMode::Serial => expected.serial,
        };
        for (mode, by_kind) in [ExecMode::NearPmSd, ExecMode::NearPmMd]
            .into_iter()
            .zip(by_mode)
        {
            let cfg = ExplorerConfig {
                mech,
                pipeline,
                mode,
                units: 1,
                prune: false,
                media: MediaConfig::Heap,
            };
            let r = explore(&cfg).unwrap();
            assert!(
                r.ok(),
                "{mech}/{pipeline}/{}: {:?}",
                mode.label(),
                r.failures
            );
            assert_eq!(
                r.by_kind,
                by_kind,
                "{mech}/{pipeline}/{}: boundaries by kind [persist, offload, sync, commit-retire]",
                mode.label()
            );
            assert_eq!(r.boundaries, by_kind.iter().sum::<u64>());
            assert_eq!(r.explored, r.boundaries);
            assert_eq!(r.verified, r.boundaries);
            assert!(r.classes > 0 && r.classes <= r.boundaries);
        }
    }
}

#[test]
fn undo_log_matrix_recovers_at_every_boundary() {
    assert_cell(
        CcMech::UndoLog,
        Expected {
            pipelined: [[4, 3, 0, 1], [4, 4, 1, 1]],
            serial: [[3, 2, 0, 1], [3, 2, 1, 1]],
        },
    );
}

#[test]
fn redo_log_matrix_recovers_at_every_boundary() {
    assert_cell(
        CcMech::RedoLog,
        Expected {
            pipelined: [[6, 3, 0, 1], [6, 4, 1, 1]],
            serial: [[4, 2, 0, 1], [4, 2, 1, 1]],
        },
    );
}

#[test]
fn checkpoint_matrix_recovers_at_every_boundary() {
    assert_cell(
        CcMech::Checkpoint,
        Expected {
            pipelined: [[2, 2, 0, 1], [2, 2, 1, 1]],
            serial: [[1, 1, 0, 1], [1, 1, 1, 1]],
        },
    );
}

#[test]
fn shadow_paging_matrix_recovers_at_every_boundary() {
    assert_cell(
        CcMech::ShadowPaging,
        Expected {
            pipelined: [[4, 2, 0, 1], [4, 2, 1, 1]],
            serial: [[2, 1, 0, 1], [2, 1, 1, 1]],
        },
    );
}
