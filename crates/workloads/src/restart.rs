//! # Process-restartable crash recovery
//!
//! The in-process explorer ([`crate::crashpoint`]) proves the recovery
//! invariants against a model whose "persistent" image lives in the crashed
//! process's heap. This module closes the loop with **real** durability:
//! the workload runs over a file-backed media image ([`MediaConfig::File`]),
//! the process dies abruptly at an exact [`CrashPlan`] boundary, a **fresh
//! process** (or a fresh system instance, for the in-process variant used by
//! unit tests) reopens the image from disk, reattaches the mechanism, runs
//! `recover()`, and proves the same three invariants:
//!
//! 1. the recovered application image is a legal committed prefix,
//! 2. the post-recovery trace is PPO-clean,
//! 3. a second crash + recovery is a no-op.
//!
//! Plus one invariant the in-process explorer cannot express:
//!
//! 4. **durability** — the bytes the fresh process finds on disk are exactly
//!    the bytes an in-process oracle holds at the same boundary (every media
//!    write is applied at primitive call time, so the image a dying process
//!    leaves behind equals the image a surviving one would hold).
//!
//! The kill-and-reopen flow is driven by a parent process (the `media_smoke`
//! gate) that re-executes its own binary with [`RestartSpec::to_env`] in the
//! environment; the child calls [`child_main`], runs to the armed boundary,
//! and `abort()`s. Unit tests use [`run_to_crash_in_process`], which drops
//! the crashed system instead of the whole process — the on-disk image is
//! identical either way, because `FileMedia` writes through on every store.

use crate::crashpoint::{CcMech, Driver, ExplorerConfig, PipelineMode};
use nearpm_core::{
    BoundaryKind, CrashPlan, ExecMode, MediaConfig, NearPmSystem, Result, SystemConfig, SystemError,
};
use std::path::PathBuf;

/// PM capacity of every restart run (matches the in-process explorer).
const CAPACITY: u64 = 32 << 20;

/// Environment variable that marks a process as a restart child. A binary
/// that wants to host children checks this at the top of `main` and calls
/// [`child_main`] when it is set.
pub const CHILD_ENV: &str = "NEARPM_RESTART_CHILD";

const ENV_MECH: &str = "NEARPM_RESTART_MECH";
const ENV_PIPELINE: &str = "NEARPM_RESTART_PIPELINE";
const ENV_MODE: &str = "NEARPM_RESTART_MODE";
const ENV_UNITS: &str = "NEARPM_RESTART_UNITS";
const ENV_BOUNDARY: &str = "NEARPM_RESTART_BOUNDARY";
const ENV_DIR: &str = "NEARPM_RESTART_DIR";

/// One restart-recovery scenario: which cell of the crashpoint matrix to
/// run, which boundary to die at, and where the file-backed image lives.
#[derive(Debug, Clone, PartialEq)]
pub struct RestartSpec {
    /// Mechanism under test.
    pub mech: CcMech,
    /// Pipelined or serial unit shape.
    pub pipeline: PipelineMode,
    /// Execution mode.
    pub mode: ExecMode,
    /// Committed units the uninterrupted run would execute.
    pub units: usize,
    /// 0-based boundary the child dies at.
    pub boundary: u64,
    /// Directory holding the device files and manifest.
    pub dir: PathBuf,
}

fn mode_code(mode: ExecMode) -> &'static str {
    match mode {
        ExecMode::CpuBaseline => "baseline",
        ExecMode::NearPmSd => "sd",
        ExecMode::NearPmMdSync => "mdsync",
        ExecMode::NearPmMd => "md",
    }
}

fn parse_mode(s: &str) -> Option<ExecMode> {
    Some(match s {
        "baseline" => ExecMode::CpuBaseline,
        "sd" => ExecMode::NearPmSd,
        "mdsync" => ExecMode::NearPmMdSync,
        "md" => ExecMode::NearPmMd,
        _ => return None,
    })
}

fn parse_mech(s: &str) -> Option<CcMech> {
    CcMech::ALL.into_iter().find(|m| m.label() == s)
}

fn parse_pipeline(s: &str) -> Option<PipelineMode> {
    PipelineMode::ALL.into_iter().find(|p| p.label() == s)
}

impl RestartSpec {
    /// The explorer config this spec drives, with the file backend attached.
    pub fn config(&self) -> ExplorerConfig {
        let mut cfg = ExplorerConfig::new(self.mech, self.pipeline, self.mode).with_media(
            MediaConfig::File {
                dir: self.dir.clone(),
            },
        );
        cfg.units = self.units;
        cfg
    }

    /// Same cell on the heap backend (the oracle side of the differential).
    fn heap_config(&self) -> ExplorerConfig {
        let mut cfg = ExplorerConfig::new(self.mech, self.pipeline, self.mode);
        cfg.units = self.units;
        cfg
    }

    /// The system config a fresh process reopens the image with.
    fn system_config(&self) -> SystemConfig {
        SystemConfig::for_mode(self.mode).with_capacity(CAPACITY)
    }

    /// Serializes the spec into the environment variables [`RestartSpec::from_env`]
    /// reads, plus the [`CHILD_ENV`] marker.
    pub fn to_env(&self) -> Vec<(String, String)> {
        vec![
            (CHILD_ENV.into(), "1".into()),
            (ENV_MECH.into(), self.mech.label().into()),
            (ENV_PIPELINE.into(), self.pipeline.label().into()),
            (ENV_MODE.into(), mode_code(self.mode).into()),
            (ENV_UNITS.into(), self.units.to_string()),
            (ENV_BOUNDARY.into(), self.boundary.to_string()),
            (ENV_DIR.into(), self.dir.display().to_string()),
        ]
    }

    /// Reconstructs a spec from the current process environment; `None`
    /// when [`CHILD_ENV`] is absent or any variable fails to parse.
    pub fn from_env() -> Option<RestartSpec> {
        std::env::var(CHILD_ENV).ok()?;
        Some(RestartSpec {
            mech: parse_mech(&std::env::var(ENV_MECH).ok()?)?,
            pipeline: parse_pipeline(&std::env::var(ENV_PIPELINE).ok()?)?,
            mode: parse_mode(&std::env::var(ENV_MODE).ok()?)?,
            units: std::env::var(ENV_UNITS).ok()?.parse().ok()?,
            boundary: std::env::var(ENV_BOUNDARY).ok()?.parse().ok()?,
            dir: PathBuf::from(std::env::var(ENV_DIR).ok()?),
        })
    }
}

/// Counts the crash boundaries of the spec's cell (on the heap backend, so
/// it never touches `spec.dir`); boundary numbering is identical on every
/// backend because arming happens after setup in every run.
pub fn count_boundaries(spec: &RestartSpec) -> Result<u64> {
    let mut drv = Driver::new(&spec.heap_config(), false)?;
    drv.sys.arm_crash_plan(CrashPlan::count_only());
    for u in 0..spec.units {
        drv.run_unit(u)?;
    }
    let counter = drv.sys.disarm_crash_plan().expect("counting plan armed");
    Ok(counter.observed_total())
}

/// Runs the spec's workload over the file-backed image up to the armed
/// boundary, leaving the crashed image (and the geometry manifest) on disk.
/// Returns `true` when the crash plan fired. This is the child's body; unit
/// tests call it directly and drop the system in place of killing a process.
pub fn run_to_crash_in_process(spec: &RestartSpec) -> Result<bool> {
    let mut drv = Driver::new(&spec.config(), false)?;
    // The manifest is geometry metadata, written once at setup; for a
    // file-backed space `persist_to` detects the in-place image and only
    // writes the manifest + syncs.
    drv.sys.persist_to(&spec.dir)?;
    drv.sys
        .arm_crash_plan(CrashPlan::at_boundary(spec.boundary));
    for u in 0..spec.units {
        match drv.run_unit(u) {
            Ok(()) => {
                if drv.sys.is_crashed() {
                    break;
                }
            }
            Err(SystemError::Crashed) => break,
            Err(e) => return Err(e),
        }
    }
    Ok(drv.sys.is_crashed())
}

/// Entry point for a restart child process: runs to the armed boundary and
/// dies abruptly — `abort()`, not a clean exit, so nothing between the
/// media writes and process death can "help" durability. Exits with code 3
/// when the boundary never fired and 4 on an unexpected error, so the
/// parent can tell a mis-specified boundary from a real crash.
pub fn child_main(spec: &RestartSpec) -> ! {
    match run_to_crash_in_process(spec) {
        Ok(true) => std::process::abort(),
        Ok(false) => std::process::exit(3),
        Err(e) => {
            eprintln!("restart child failed: {e}");
            std::process::exit(4)
        }
    }
}

/// Outcome of verifying one restarted recovery.
#[derive(Debug, Clone)]
pub struct RestartOutcome {
    /// Units known committed before the crash.
    pub units_committed: usize,
    /// Boundary kind that fired (from the in-process oracle replay).
    pub fired: Option<BoundaryKind>,
    /// Human-readable invariant failures; empty on success.
    pub failures: Vec<String>,
}

impl RestartOutcome {
    /// True when every invariant held.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Verifies a restarted recovery: reopens the image a dead (or dropped)
/// run left in `spec.dir`, reattaches the mechanism, recovers, and checks
/// the four invariants (durability differential, committed prefix,
/// PPO-clean, idempotence). The committed-unit progress and the expected
/// crashed image come from an in-process replay of the same boundary on the
/// heap backend — the run is deterministic and backend-independent, so the
/// heap replay is the oracle for what the dying process must have left
/// behind.
pub fn verify_restarted_recovery(spec: &RestartSpec) -> Result<RestartOutcome> {
    let mut failures = Vec::new();

    // Oracle run (uncrashed): the legal committed-prefix images.
    let heap_cfg = spec.heap_config();
    let mut oracle_drv = Driver::new(&heap_cfg, false)?;
    let mut oracle = vec![oracle_drv.app_image()?];
    for u in 0..spec.units {
        oracle_drv.run_unit(u)?;
        oracle.push(oracle_drv.app_image()?);
    }

    // In-process replay of the same boundary on the heap backend: committed
    // progress, fired kind, and the expected on-disk image.
    let mut replay = Driver::new(&heap_cfg, false)?;
    replay
        .sys
        .arm_crash_plan(CrashPlan::at_boundary(spec.boundary));
    let mut units_committed = 0;
    for u in 0..spec.units {
        match replay.run_unit(u) {
            Ok(()) => {
                units_committed = u + 1;
                if replay.sys.is_crashed() {
                    break;
                }
            }
            Err(SystemError::Crashed) => break,
            Err(e) => return Err(e),
        }
    }
    let fired = replay.sys.disarm_crash_plan().and_then(|p| p.fired_kind());
    if !replay.sys.is_crashed() {
        return Ok(RestartOutcome {
            units_committed,
            fired,
            failures: vec![format!(
                "boundary {} never fired in the oracle replay",
                spec.boundary
            )],
        });
    }

    // Fresh system over the on-disk image; starts in the crashed state.
    let reopened = NearPmSystem::reopen_from(spec.system_config(), &spec.dir)?;

    // Invariant 4 (durability): the dying process's image is byte-identical
    // to the in-process oracle's at the same boundary.
    for d in 0..reopened.media_count() {
        if reopened.device_image(d) != replay.sys.device_image(d) {
            failures.push(format!(
                "device {d}: on-disk image diverges from the in-process crash image"
            ));
        }
    }

    // The checkpoint epoch rides in the reopened system (read back from the
    // manifest); the replay's `units_committed` is only needed for the
    // legal-image set below.
    let mut drv = Driver::reattach(&heap_cfg, reopened)?;

    // Invariant 1: the recovered image is a legal committed prefix.
    let outcome = drv.recover()?;
    let image = drv.app_image()?;
    let legal = drv.legal_images(&oracle, units_committed);
    if !legal.contains(&image) {
        failures.push(format!(
            "recovered image matches none of the {} legal committed-prefix images \
             at progress {units_committed}",
            legal.len()
        ));
    }

    // Invariant 2: the post-recovery trace is PPO-clean.
    let violations = drv.sys.report().ppo_violations;
    if !violations.is_empty() {
        failures.push(format!(
            "{} PPO violations after restarted recovery",
            violations.len()
        ));
    }

    // Invariant 3: a second crash + recovery is a no-op.
    drv.sys.crash();
    let second = drv.recover()?;
    if second.work != 0 {
        failures.push(format!("second recovery re-did {} entries", second.work));
    }
    if let (Some(m1), Some(m2)) = (&outcome.mapping, &second.mapping) {
        if m1 != m2 {
            failures.push("second recovery changed the page table".into());
        }
    }
    let image2 = drv.app_image()?;
    if image2 != image {
        failures.push("second recovery changed the image".into());
    }

    Ok(RestartOutcome {
        units_committed,
        fired,
        failures,
    })
}

/// Convenience: the crash-then-verify round trip entirely in-process (the
/// crashed system is dropped instead of the process dying). Exercises the
/// same reopen/reattach/recover path as the kill-and-reopen flow; only the
/// process boundary differs.
pub fn drop_and_reopen(spec: &RestartSpec) -> Result<RestartOutcome> {
    if !run_to_crash_in_process(spec)? {
        return Ok(RestartOutcome {
            units_committed: 0,
            fired: None,
            failures: vec![format!("boundary {} never fired", spec.boundary)],
        });
    }
    verify_restarted_recovery(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("nearpm-restart-{tag}-{}", std::process::id()))
    }

    fn spec(mech: CcMech, pipeline: PipelineMode, boundary: u64, tag: &str) -> RestartSpec {
        RestartSpec {
            mech,
            pipeline,
            mode: ExecMode::NearPmMd,
            units: 2,
            boundary,
            dir: temp_dir(tag),
        }
    }

    #[test]
    fn env_round_trip() {
        let s = spec(CcMech::ShadowPaging, PipelineMode::Pipelined, 7, "env");
        for (k, v) in s.to_env() {
            std::env::set_var(k, v);
        }
        let parsed = RestartSpec::from_env().expect("parse");
        std::env::remove_var(CHILD_ENV);
        assert_eq!(parsed, s);
    }

    #[test]
    fn every_mechanism_recovers_after_drop_and_reopen() {
        for (i, mech) in CcMech::ALL.into_iter().enumerate() {
            let mut s = spec(
                mech,
                PipelineMode::Serial,
                0,
                &format!("drop-{}", mech.label()),
            );
            // A mid-run boundary: deep enough that at least one unit is in
            // flight or committed.
            let total = count_boundaries(&s).unwrap();
            assert!(total > 2, "{mech}: too few boundaries");
            s.boundary = (total / 2) + i as u64 % 2;
            let outcome = drop_and_reopen(&s).unwrap();
            std::fs::remove_dir_all(&s.dir).ok();
            assert!(
                outcome.ok(),
                "{mech}: restart recovery failed: {:?}",
                outcome.failures
            );
            assert!(outcome.fired.is_some());
        }
    }

    #[test]
    fn pipelined_shadow_restart_recovers_every_boundary() {
        let mut s = spec(
            CcMech::ShadowPaging,
            PipelineMode::Pipelined,
            0,
            "shadow-all",
        );
        let total = count_boundaries(&s).unwrap();
        for b in 0..total {
            s.boundary = b;
            let outcome = drop_and_reopen(&s).unwrap();
            assert!(
                outcome.ok(),
                "boundary {b}: restart recovery failed: {:?}",
                outcome.failures
            );
        }
        std::fs::remove_dir_all(&s.dir).ok();
    }

    #[test]
    fn out_of_range_boundary_is_reported_not_panicked() {
        let s = spec(CcMech::UndoLog, PipelineMode::Serial, 100_000, "oob");
        let outcome = drop_and_reopen(&s).unwrap();
        std::fs::remove_dir_all(&s.dir).ok();
        assert!(!outcome.ok());
        assert!(outcome.failures[0].contains("never fired"));
    }
}
