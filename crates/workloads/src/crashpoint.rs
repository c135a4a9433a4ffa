//! # Exhaustive crash-point exploration
//!
//! Enumerates **every** crash boundary of a deterministic workload run —
//! each CPU persist, offload posting, sync, and commit-retire event (see
//! [`BoundaryKind`]) — then replays the run once per boundary, injects a
//! crash exactly there with a [`CrashPlan`], runs the mechanism's
//! `recover()`, and proves three invariants at every point:
//!
//! 1. **Committed-prefix oracle.** The post-recovery application image
//!    equals one of the legal images recorded by an uncrashed oracle run:
//!    the state after the last unit known committed before the crash, the
//!    state after the unit that was in flight (the marker protocols may
//!    legitimately roll it forward), or — for pipelined shadow paging,
//!    whose page switches commit per page — a recorded per-site
//!    intermediate of the in-flight unit. Never a torn mix.
//! 2. **Clean ordering.** The recorded trace has zero PPO violations after
//!    recovery.
//! 3. **Idempotence.** Crashing again immediately and re-running
//!    `recover()` finds nothing to do and leaves the image byte-identical.
//!
//! Exhaustiveness argument: media mutations apply at primitive call time
//! and the only state mutable *between* boundaries is volatile (CPU cache
//! lines, device FIFOs), so a crash strictly between two boundaries is
//! functionally identical to a crash at the earlier one — enumerating the
//! boundaries enumerates every functionally distinct crash point.
//!
//! Replays that land in the same *equivalence class* — same fired boundary
//! kind, same persistent image at the moment of the crash, and same
//! committed-unit progress — must recover identically; the explorer tracks
//! the classes and reports the dedup ratio. The image part of the class key
//! is [`NearPmSystem::media_digest`], a digest of the non-zero pages the run
//! wrote: equal images digest equal whatever their write history. By
//! default every boundary is still fully verified (no sampling);
//! [`ExplorerConfig::prune`] skips the invariant checks for duplicate
//! classes when speed matters. One media write-log differential (replay of
//! the recorded mutation history onto a zeroed image must reproduce the
//! live image) runs per class representative. It compares only the pages
//! written on either side, since every other page is zero on both, so both
//! image checks cost O(pages written) rather than O(capacity).

use nearpm_cc::{Checkpoint, RedoLog, ShadowPaging, UndoLog};
use nearpm_core::{
    BoundaryKind, CrashPlan, ExecMode, MediaConfig, NearPmSystem, Region, Result, SystemConfig,
    SystemError, VirtAddr,
};
use nearpm_sim::FxHashSet;
use std::fmt;

/// Size of the application object under test (two PM pages).
const APP_LEN: usize = 8192;
/// One PM page.
const PAGE: usize = 4096;
/// Offset of the shadow-paging update site inside its logical page.
const SHADOW_OFF: u64 = 128;
/// Length of a shadow-paging update.
const SHADOW_LEN: usize = 64;
/// Log-arena pages per device for the logging/checkpoint mechanisms.
const ARENA_PAGES: usize = 16;

/// The four crash-consistency mechanisms the explorer drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CcMech {
    /// Undo logging ([`UndoLog`]).
    UndoLog,
    /// Redo logging ([`RedoLog`]).
    RedoLog,
    /// Page-granular checkpointing ([`Checkpoint`]).
    Checkpoint,
    /// Shadow paging ([`ShadowPaging`]).
    ShadowPaging,
}

impl CcMech {
    /// All four mechanisms, in report order.
    pub const ALL: [CcMech; 4] = [
        CcMech::UndoLog,
        CcMech::RedoLog,
        CcMech::Checkpoint,
        CcMech::ShadowPaging,
    ];

    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            CcMech::UndoLog => "undo-log",
            CcMech::RedoLog => "redo-log",
            CcMech::Checkpoint => "checkpoint",
            CcMech::ShadowPaging => "shadow-paging",
        }
    }
}

impl fmt::Display for CcMech {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Whether each unit drives the mechanism's split-phase (pipelined)
/// multi-site path or the serial one-site-at-a-time path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineMode {
    /// Multi-site units through the split-phase paths (`log_range` over the
    /// whole object, `touch_many`, `update_many`).
    Pipelined,
    /// Single-site units through the serial paths.
    Serial,
}

impl PipelineMode {
    /// Both pipeline modes.
    pub const ALL: [PipelineMode; 2] = [PipelineMode::Pipelined, PipelineMode::Serial];

    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            PipelineMode::Pipelined => "pipelined",
            PipelineMode::Serial => "serial",
        }
    }
}

impl fmt::Display for PipelineMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One cell of the exploration matrix.
#[derive(Debug, Clone)]
pub struct ExplorerConfig {
    /// Mechanism under test.
    pub mech: CcMech,
    /// Pipelined or serial unit shape.
    pub pipeline: PipelineMode,
    /// Execution mode (device count and sync policy follow from it).
    pub mode: ExecMode,
    /// Committed units (transactions / epochs / page updates) per run.
    pub units: usize,
    /// When true, boundaries whose equivalence class was already verified
    /// skip the invariant checks (the class representative proved them).
    pub prune: bool,
    /// Media storage engine every replayed system uses (heap by default).
    /// Sequential replays with a file backend can share one directory:
    /// creating a device truncates its file, so each replay starts clean.
    pub media: MediaConfig,
}

impl ExplorerConfig {
    /// A config with the default smoke-test depth (3 units, no pruning).
    pub fn new(mech: CcMech, pipeline: PipelineMode, mode: ExecMode) -> Self {
        ExplorerConfig {
            mech,
            pipeline,
            mode,
            units: 3,
            prune: false,
            media: MediaConfig::Heap,
        }
    }

    /// Overrides the media storage engine.
    pub fn with_media(mut self, media: MediaConfig) -> Self {
        self.media = media;
        self
    }
}

/// Result of exploring one [`ExplorerConfig`] cell.
#[derive(Debug, Clone)]
pub struct ExplorationReport {
    /// Mechanism explored.
    pub mech: CcMech,
    /// Pipeline shape.
    pub pipeline: PipelineMode,
    /// Execution mode.
    pub mode: ExecMode,
    /// Units per run.
    pub units: usize,
    /// Total crash boundaries the oracle run observed.
    pub boundaries: u64,
    /// Boundaries by kind, in [`BoundaryKind::ALL`] order.
    pub by_kind: [u64; 4],
    /// Crash points actually injected (always equals `boundaries`).
    pub explored: u64,
    /// Crash points that went through the full three-invariant check.
    pub verified: u64,
    /// Crash points skipped as duplicates of a verified class (prune mode).
    pub pruned: u64,
    /// Distinct equivalence classes (kind, image digest, progress).
    pub classes: u64,
    /// Media write-log differential replays performed (one per class).
    pub write_log_checks: u64,
    /// Human-readable invariant failures; empty on success.
    pub failures: Vec<String>,
}

impl ExplorationReport {
    /// True when every explored boundary recovered cleanly.
    pub fn ok(&self) -> bool {
        self.failures.is_empty() && self.explored == self.boundaries
    }

    /// Explored boundaries per equivalence class (≥ 1.0; higher means more
    /// redundancy an equivalence-class pruner can exploit).
    pub fn dedup_ratio(&self) -> f64 {
        if self.classes == 0 {
            1.0
        } else {
            self.explored as f64 / self.classes as f64
        }
    }
}

impl fmt::Display for ExplorationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}/{}: {} boundaries (persist {} offload {} sync {} commit-retire {}), \
             explored {}, verified {}, pruned {}, {} classes (dedup {:.2}x), \
             {} write-log replays, {} failures",
            self.mech,
            self.pipeline,
            self.mode.label(),
            self.boundaries,
            self.by_kind[0],
            self.by_kind[1],
            self.by_kind[2],
            self.by_kind[3],
            self.explored,
            self.verified,
            self.pruned,
            self.classes,
            self.dedup_ratio(),
            self.write_log_checks,
            self.failures.len(),
        )
    }
}

/// What a mechanism's `recover()` reports, normalized across mechanisms.
pub(crate) struct RecoveryOutcome {
    /// Entries rolled back / forward / restored (0 for shadow paging).
    pub(crate) work: u64,
    /// Shadow paging's recovered page-table mapping.
    pub(crate) mapping: Option<Vec<VirtAddr>>,
}

/// One system + mechanism instance replaying the deterministic workload.
/// Shared with the restart-recovery harness (`crate::restart`), which runs
/// the same workload in a child process over a file-backed image.
pub(crate) struct Driver {
    pub(crate) sys: NearPmSystem,
    pipeline: PipelineMode,
    state: State,
}

enum State {
    Undo {
        log: UndoLog,
        obj: VirtAddr,
    },
    Redo {
        log: RedoLog,
        obj: VirtAddr,
    },
    Ckpt {
        ck: Checkpoint,
        pages: [VirtAddr; 2],
    },
    Shadow {
        sp: Box<ShadowPaging>,
    },
}

/// Fill byte for unit `u`, site `s` — distinct per (unit, site) so torn
/// images are unambiguous.
pub(crate) fn fill_byte(u: usize, s: usize) -> u8 {
    (1 + 2 * u + s) as u8
}

impl Driver {
    pub(crate) fn new(cfg: &ExplorerConfig, with_write_log: bool) -> Result<Driver> {
        let mut sys = NearPmSystem::try_new(
            SystemConfig::for_mode(cfg.mode)
                .with_capacity(32 << 20)
                .with_media(cfg.media.clone()),
        )?;
        if with_write_log {
            sys.enable_media_write_log();
        }
        let pool = sys.create_pool("crashpoint", 16 << 20)?;
        let state = match cfg.mech {
            CcMech::UndoLog | CcMech::RedoLog => {
                let obj = sys.alloc(pool, APP_LEN as u64, PAGE as u64)?;
                sys.cpu_write_persist(0, obj, &[0xA5; APP_LEN], Region::AppPersist)?;
                match cfg.mech {
                    CcMech::UndoLog => State::Undo {
                        log: UndoLog::new(&mut sys, pool, 0, ARENA_PAGES)?,
                        obj,
                    },
                    _ => State::Redo {
                        log: RedoLog::new(&mut sys, pool, 0, ARENA_PAGES)?,
                        obj,
                    },
                }
            }
            CcMech::Checkpoint => {
                let p0 = sys.alloc(pool, PAGE as u64, PAGE as u64)?;
                let p1 = sys.alloc(pool, PAGE as u64, PAGE as u64)?;
                sys.cpu_write_persist(0, p0, &[0xA5; PAGE], Region::AppPersist)?;
                sys.cpu_write_persist(0, p1, &[0xA5; PAGE], Region::AppPersist)?;
                State::Ckpt {
                    ck: Checkpoint::new(&mut sys, pool, 0, ARENA_PAGES)?,
                    pages: [p0, p1],
                }
            }
            CcMech::ShadowPaging => {
                let mut sp = Box::new(ShadowPaging::new(&mut sys, pool, 0, 2, ARENA_PAGES)?);
                for i in 0..2 {
                    let page = sp.page_addr(&mut sys, i)?;
                    sys.cpu_write_persist(0, page, &[0xA5; PAGE], Region::AppPersist)?;
                }
                State::Shadow { sp }
            }
        };
        Ok(Driver {
            sys,
            pipeline: cfg.pipeline,
            state,
        })
    }

    /// Re-creates a driver over a reopened — and still crashed — system
    /// image: the same pool and allocation sequence as [`Driver::new`] (so
    /// every object, marker, table, and arena slot lands at the address the
    /// crashed process used) but without any of the initial-image writes;
    /// the persistent image is authoritative. The checkpoint epoch counter
    /// comes from the reopened system itself (read back from the media
    /// manifest), so nothing about the pre-crash run needs replaying here.
    pub(crate) fn reattach(cfg: &ExplorerConfig, mut sys: NearPmSystem) -> Result<Driver> {
        let pool = sys.create_pool("crashpoint", 16 << 20)?;
        let state = match cfg.mech {
            CcMech::UndoLog | CcMech::RedoLog => {
                let obj = sys.alloc(pool, APP_LEN as u64, PAGE as u64)?;
                match cfg.mech {
                    CcMech::UndoLog => State::Undo {
                        log: UndoLog::new(&mut sys, pool, 0, ARENA_PAGES)?,
                        obj,
                    },
                    _ => State::Redo {
                        log: RedoLog::new(&mut sys, pool, 0, ARENA_PAGES)?,
                        obj,
                    },
                }
            }
            CcMech::Checkpoint => {
                let p0 = sys.alloc(pool, PAGE as u64, PAGE as u64)?;
                let p1 = sys.alloc(pool, PAGE as u64, PAGE as u64)?;
                State::Ckpt {
                    ck: Checkpoint::reattach(&mut sys, pool, 0, ARENA_PAGES)?,
                    pages: [p0, p1],
                }
            }
            CcMech::ShadowPaging => State::Shadow {
                sp: Box::new(ShadowPaging::reattach(&mut sys, pool, 0, 2, ARENA_PAGES)?),
            },
        };
        Ok(Driver {
            sys,
            pipeline: cfg.pipeline,
            state,
        })
    }

    /// Runs committed unit `u`: one transaction / epoch / page-update step.
    pub(crate) fn run_unit(&mut self, u: usize) -> Result<()> {
        let sys = &mut self.sys;
        match &mut self.state {
            State::Undo { log, obj } => {
                log.begin(sys)?;
                match self.pipeline {
                    PipelineMode::Pipelined => {
                        log.log_range(sys, *obj, APP_LEN as u64)?;
                        for s in 0..2 {
                            let site = obj.offset((s * PAGE) as u64);
                            log.update(sys, site, &vec![fill_byte(u, s); PAGE])?;
                        }
                    }
                    PipelineMode::Serial => {
                        let site = obj.offset(((u % 2) * PAGE) as u64);
                        log.log_range(sys, site, PAGE as u64)?;
                        log.update(sys, site, &vec![fill_byte(u, 0); PAGE])?;
                    }
                }
                log.commit(sys)
            }
            State::Redo { log, obj } => {
                log.begin(sys)?;
                match self.pipeline {
                    PipelineMode::Pipelined => {
                        for s in 0..2 {
                            let site = obj.offset((s * PAGE) as u64);
                            log.stage(sys, site, &vec![fill_byte(u, s); PAGE])?;
                        }
                    }
                    PipelineMode::Serial => {
                        let site = obj.offset(((u % 2) * PAGE) as u64);
                        log.stage(sys, site, &vec![fill_byte(u, 0); PAGE])?;
                    }
                }
                log.commit(sys)
            }
            State::Ckpt { ck, pages } => {
                match self.pipeline {
                    PipelineMode::Pipelined => {
                        ck.touch_many(sys, &[pages[0], pages[1]])?;
                        for (s, page) in pages.iter().enumerate() {
                            ck.update(sys, *page, &vec![fill_byte(u, s); PAGE])?;
                        }
                    }
                    PipelineMode::Serial => {
                        let page = pages[u % 2];
                        ck.touch(sys, page)?;
                        ck.update(sys, page, &vec![fill_byte(u, 0); PAGE])?;
                    }
                }
                ck.advance_epoch(sys)
            }
            State::Shadow { sp } => match self.pipeline {
                PipelineMode::Pipelined => {
                    let sites: Vec<(usize, u64, Vec<u8>)> = (0..2)
                        .map(|s| (s, SHADOW_OFF, vec![fill_byte(u, s); SHADOW_LEN]))
                        .collect();
                    sp.update_many(sys, &sites)
                }
                PipelineMode::Serial => {
                    sp.update(sys, u % 2, SHADOW_OFF, &[fill_byte(u, 0); SHADOW_LEN])
                }
            },
        }
    }

    /// The application image: the home object, the checkpointed pages, or
    /// the logical pages behind the persistent shadow page table. Read
    /// directly off the media, so it is valid while crashed.
    pub(crate) fn app_image(&mut self) -> Result<Vec<u8>> {
        let sys = &mut self.sys;
        match &mut self.state {
            State::Undo { obj, .. } | State::Redo { obj, .. } => sys.persistent_read(*obj, APP_LEN),
            State::Ckpt { pages, .. } => {
                let mut image = sys.persistent_read(pages[0], PAGE)?;
                image.extend(sys.persistent_read(pages[1], PAGE)?);
                Ok(image)
            }
            State::Shadow { sp } => {
                let mut image = Vec::with_capacity(2 * PAGE);
                for i in 0..2 {
                    let page = sp.page_addr(sys, i)?;
                    image.extend(sys.persistent_read(page, PAGE)?);
                }
                Ok(image)
            }
        }
    }

    /// Runs the mechanism's recovery and normalizes the result.
    pub(crate) fn recover(&mut self) -> Result<RecoveryOutcome> {
        let sys = &mut self.sys;
        Ok(match &mut self.state {
            State::Undo { log, .. } => RecoveryOutcome {
                work: log.recover(sys)? as u64,
                mapping: None,
            },
            State::Redo { log, .. } => RecoveryOutcome {
                work: log.recover(sys)? as u64,
                mapping: None,
            },
            State::Ckpt { ck, .. } => RecoveryOutcome {
                work: ck.recover(sys)? as u64,
                mapping: None,
            },
            State::Shadow { sp } => RecoveryOutcome {
                work: 0,
                mapping: Some(sp.recover(sys)?),
            },
        })
    }

    /// The legal post-recovery images when the crash interrupted unit
    /// `u_ok` (0-based; `u_ok` units committed for sure): the committed
    /// prefix, the in-flight unit rolled forward, and — pipelined shadow
    /// paging only — the per-site intermediate after the first of the in-
    /// flight unit's two page switches (page switches commit per page, not
    /// per unit).
    pub(crate) fn legal_images(&self, oracle: &[Vec<u8>], u_ok: usize) -> Vec<Vec<u8>> {
        let mut legal = vec![oracle[u_ok].clone()];
        if u_ok + 1 < oracle.len() {
            if matches!(self.state, State::Shadow { .. })
                && self.pipeline == PipelineMode::Pipelined
            {
                let mut partial = oracle[u_ok].clone();
                let start = SHADOW_OFF as usize;
                partial[start..start + SHADOW_LEN]
                    .copy_from_slice(&[fill_byte(u_ok, 0); SHADOW_LEN]);
                legal.push(partial);
            }
            legal.push(oracle[u_ok + 1].clone());
        }
        legal
    }
}

/// Explores one matrix cell: enumerates the run's boundaries with a
/// counting [`CrashPlan`], records the committed-prefix oracle images, then
/// replays the run once per boundary with the crash injected there and
/// checks the three invariants. Every boundary is explored — pruning (when
/// enabled) only skips re-verifying a class that already passed.
pub fn explore(cfg: &ExplorerConfig) -> Result<ExplorationReport> {
    assert!(cfg.units > 0, "explorer needs at least one unit");

    // Oracle run: count boundaries, record the legal image after every
    // committed unit. Arming happens after setup in every run, so boundary
    // numbering is identical across replays.
    let mut oracle_drv = Driver::new(cfg, false)?;
    let mut oracle: Vec<Vec<u8>> = vec![oracle_drv.app_image()?];
    oracle_drv.sys.arm_crash_plan(CrashPlan::count_only());
    for u in 0..cfg.units {
        oracle_drv.run_unit(u)?;
        oracle.push(oracle_drv.app_image()?);
    }
    let counter = oracle_drv
        .sys
        .disarm_crash_plan()
        .expect("counting plan still armed");
    let boundaries = counter.observed_total();
    let by_kind = [
        counter.observed_of(BoundaryKind::Persist),
        counter.observed_of(BoundaryKind::Offload),
        counter.observed_of(BoundaryKind::Sync),
        counter.observed_of(BoundaryKind::CommitRetire),
    ];

    let mut report = ExplorationReport {
        mech: cfg.mech,
        pipeline: cfg.pipeline,
        mode: cfg.mode,
        units: cfg.units,
        boundaries,
        by_kind,
        explored: 0,
        verified: 0,
        pruned: 0,
        classes: 0,
        write_log_checks: 0,
        failures: Vec::new(),
    };
    let mut seen: FxHashSet<(Option<BoundaryKind>, u64, usize)> = FxHashSet::default();

    for n in 0..boundaries {
        let mut drv = Driver::new(cfg, true)?;
        drv.sys.arm_crash_plan(CrashPlan::at_boundary(n));
        // Units committed for certain before the crash. A unit whose last
        // boundary fired the crash still returns Ok (the crash lands after
        // the primitive's effect), so an Ok unit counts even when the
        // system is already down.
        let mut u_ok = 0;
        for u in 0..cfg.units {
            match drv.run_unit(u) {
                Ok(()) => {
                    u_ok = u + 1;
                    if drv.sys.is_crashed() {
                        break;
                    }
                }
                Err(SystemError::Crashed) => break,
                Err(e) => return Err(e),
            }
        }
        report.explored += 1;
        if !drv.sys.is_crashed() {
            report
                .failures
                .push(format!("boundary {n}: crash plan never fired"));
            continue;
        }
        let plan = drv.sys.disarm_crash_plan().expect("plan still armed");
        let key = (plan.fired_kind(), drv.sys.media_digest(), u_ok);
        let new_class = seen.insert(key);
        if new_class {
            report.classes += 1;
        } else if cfg.prune {
            report.pruned += 1;
            continue;
        }

        // Invariant 1: the recovered image is a legal committed prefix.
        let outcome = drv.recover()?;
        let image = drv.app_image()?;
        let legal = drv.legal_images(&oracle, u_ok);
        if !legal.contains(&image) {
            report.failures.push(format!(
                "boundary {n} ({}): recovered image matches none of the {} legal \
                 committed-prefix images at progress {u_ok}",
                plan.fired_kind().map_or("?", |k| k.label()),
                legal.len(),
            ));
            continue;
        }

        // Invariant 2: the post-recovery trace is PPO-clean.
        let violations = drv.sys.report().ppo_violations;
        if !violations.is_empty() {
            report.failures.push(format!(
                "boundary {n}: {} PPO violations after recovery",
                violations.len()
            ));
            continue;
        }

        // Media write-log differential, once per equivalence class.
        if new_class {
            report.write_log_checks += 1;
            if !drv.sys.verify_write_log_replay() {
                report.failures.push(format!(
                    "boundary {n}: media write-log replay diverges from the live image"
                ));
                continue;
            }
        }

        // Invariant 3: a second crash + recovery is a no-op.
        drv.sys.crash();
        let second = drv.recover()?;
        let image2 = drv.app_image()?;
        if second.work != 0 {
            report.failures.push(format!(
                "boundary {n}: second recovery re-did {} entries",
                second.work
            ));
            continue;
        }
        if let (Some(m1), Some(m2)) = (&outcome.mapping, &second.mapping) {
            if m1 != m2 {
                report.failures.push(format!(
                    "boundary {n}: second recovery changed the page table"
                ));
                continue;
            }
        }
        if image2 != image {
            report
                .failures
                .push(format!("boundary {n}: second recovery changed the image"));
            continue;
        }
        report.verified += 1;
    }
    Ok(report)
}

/// Explores the full matrix: all four mechanisms × both pipeline shapes ×
/// the given execution modes.
pub fn explore_matrix(
    modes: &[ExecMode],
    units: usize,
    prune: bool,
) -> Result<Vec<ExplorationReport>> {
    let mut reports = Vec::new();
    for mech in CcMech::ALL {
        for pipeline in PipelineMode::ALL {
            for &mode in modes {
                let cfg = ExplorerConfig {
                    mech,
                    pipeline,
                    mode,
                    units,
                    prune,
                    media: MediaConfig::Heap,
                };
                reports.push(explore(&cfg)?);
            }
        }
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(mech: CcMech, pipeline: PipelineMode, mode: ExecMode) -> ExplorationReport {
        let cfg = ExplorerConfig {
            mech,
            pipeline,
            mode,
            units: 2,
            prune: false,
            media: MediaConfig::Heap,
        };
        explore(&cfg).unwrap()
    }

    #[test]
    fn undo_log_every_boundary_recovers() {
        let r = run(CcMech::UndoLog, PipelineMode::Pipelined, ExecMode::NearPmMd);
        assert!(r.ok(), "failures: {:?}", r.failures);
        assert!(r.boundaries > 0);
        assert_eq!(r.explored, r.boundaries);
        assert_eq!(r.verified, r.boundaries);
    }

    #[test]
    fn redo_log_every_boundary_recovers() {
        let r = run(CcMech::RedoLog, PipelineMode::Serial, ExecMode::NearPmSd);
        assert!(r.ok(), "failures: {:?}", r.failures);
        assert_eq!(r.verified, r.boundaries);
    }

    #[test]
    fn checkpoint_every_boundary_recovers() {
        let r = run(
            CcMech::Checkpoint,
            PipelineMode::Pipelined,
            ExecMode::NearPmMdSync,
        );
        assert!(r.ok(), "failures: {:?}", r.failures);
        assert_eq!(r.verified, r.boundaries);
    }

    #[test]
    fn shadow_paging_every_boundary_recovers() {
        let r = run(
            CcMech::ShadowPaging,
            PipelineMode::Pipelined,
            ExecMode::NearPmMd,
        );
        assert!(r.ok(), "failures: {:?}", r.failures);
        assert_eq!(r.verified, r.boundaries);
    }

    #[test]
    fn cpu_baseline_is_covered_too() {
        let r = run(CcMech::UndoLog, PipelineMode::Serial, ExecMode::CpuBaseline);
        assert!(r.ok(), "failures: {:?}", r.failures);
        // The baseline has no offloads: every boundary is persist or
        // commit-retire/sync.
        assert_eq!(r.by_kind[1], 0);
    }

    /// A file-backed cell must explore the same boundary space and verify
    /// every point exactly like the heap cell: the media engine is
    /// orthogonal to the crash-consistency protocol. All replays share one
    /// directory — creating a device truncates its file, so each replay
    /// starts clean.
    #[test]
    fn file_media_cell_matches_heap_cell() {
        let dir =
            std::env::temp_dir().join(format!("nearpm-crashpoint-file-{}", std::process::id()));
        let mut heap_cfg =
            ExplorerConfig::new(CcMech::UndoLog, PipelineMode::Serial, ExecMode::NearPmMd);
        heap_cfg.units = 2;
        let file_cfg = heap_cfg
            .clone()
            .with_media(MediaConfig::File { dir: dir.clone() });
        let heap = explore(&heap_cfg).unwrap();
        let file = explore(&file_cfg).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert!(file.ok(), "failures: {:?}", file.failures);
        assert_eq!(file.boundaries, heap.boundaries);
        assert_eq!(file.verified, heap.verified);
        assert_eq!(file.classes, heap.classes);
    }

    #[test]
    fn pruning_skips_duplicate_classes_but_explores_everything() {
        let cfg = ExplorerConfig {
            mech: CcMech::UndoLog,
            pipeline: PipelineMode::Pipelined,
            mode: ExecMode::NearPmMd,
            units: 2,
            prune: true,
            media: MediaConfig::Heap,
        };
        let r = explore(&cfg).unwrap();
        assert!(r.ok(), "failures: {:?}", r.failures);
        assert_eq!(r.explored, r.boundaries);
        assert_eq!(r.verified + r.pruned, r.boundaries);
        assert_eq!(r.verified, r.classes);
        assert!(r.dedup_ratio() >= 1.0);
    }
}
