//! Exhaustive crash-point matrix: every boundary of every mechanism ×
//! pipeline shape × device configuration recovers with all three explorer
//! invariants (committed-prefix image, PPO-clean trace, idempotent second
//! recovery), at 1 unit and at the 3 units `crash_matrix_smoke` runs.
//!
//! Each cell's boundary count per kind is pinned exactly, so a change to
//! the offload → sync → release lifecycle that adds or drops a persist,
//! offload, sync or commit-retire boundary fails here. At 1 unit every
//! boundary is its own equivalence class, so the 3-unit cells also pin the
//! class and write-log replay counts: a class key that merged or split
//! equal images would move them.

use nearpm::core::ExecMode;
use nearpm::pm::MediaConfig;
use nearpm::workloads::{explore, explore_matrix, CcMech, ExplorerConfig, PipelineMode};

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

/// `(by_kind, classes, write_log_checks)` of every 3-unit cell, in
/// `explore_matrix` order (mechanism × pipeline × [SD, MD]), exactly as
/// `tests/golden/crash_matrix_smoke.txt` prints them.
const THREE_UNITS: [([u64; 4], u64, u64); 16] = [
    ([12, 9, 0, 4], 24, 24),
    ([12, 12, 3, 5], 30, 30),
    ([9, 6, 0, 4], 18, 18),
    ([9, 6, 3, 4], 21, 21),
    ([18, 9, 0, 4], 30, 30),
    ([18, 12, 3, 4], 36, 36),
    ([12, 6, 0, 4], 21, 21),
    ([12, 6, 3, 4], 24, 24),
    ([6, 6, 0, 3], 15, 15),
    ([6, 6, 3, 3], 18, 18),
    ([3, 3, 0, 3], 9, 9),
    ([3, 3, 3, 3], 12, 12),
    ([12, 6, 0, 3], 21, 21),
    ([12, 6, 3, 3], 24, 24),
    ([6, 3, 0, 3], 12, 12),
    ([6, 3, 3, 3], 15, 15),
];

#[test]
fn three_unit_matrix_pins_boundaries_and_classes() {
    let reports = explore_matrix(&[ExecMode::NearPmSd, ExecMode::NearPmMd], 3, false).unwrap();
    assert_eq!(reports.len(), THREE_UNITS.len());
    for (r, (by_kind, classes, write_log_checks)) in reports.iter().zip(THREE_UNITS) {
        let cell = format!("{}/{}/{}", r.mech, r.pipeline, r.mode.label());
        assert!(r.ok(), "{cell}: {:?}", r.failures);
        assert_eq!(r.by_kind, by_kind, "{cell}: boundaries by kind");
        assert_eq!(r.verified, r.boundaries, "{cell}: verified");
        assert_eq!(r.classes, classes, "{cell}: equivalence classes");
        assert_eq!(
            r.write_log_checks, write_log_checks,
            "{cell}: write-log replays"
        );
    }
    let boundaries: u64 = reports.iter().map(|r| r.boundaries).sum();
    let classes: u64 = reports.iter().map(|r| r.classes).sum();
    assert_eq!((boundaries, classes), (339, 330));
}
