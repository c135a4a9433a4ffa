//! Deterministic fault injection: crash boundaries and crash plans.
//!
//! A *crash boundary* is a point in a run where the persisted image can
//! change or become visible to ordering: every persist (`cpu_persist`,
//! `cpu_copy`), every offload posting (device-side persist — and the
//! mid-flight point where the request is posted but its commit handle not
//! yet retired), every sync (`sw_sync_batch`, `delayed_sync_batch`), and
//! every commit-retire event (`release_batch`, `release_batch_retired`).
//! Between two consecutive boundaries the only mutable state is volatile
//! (CPU cache lines), so a crash strictly between boundaries is
//! functionally identical to a crash at the earlier boundary: enumerating
//! all boundaries is exhaustive over functionally distinct crash points.
//!
//! A [`CrashPlan`] armed on the system (see
//! [`crate::NearPmSystem::arm_crash_plan`]) counts boundaries as they occur
//! and fires [`crate::NearPmSystem::crash`] when the configured boundary is
//! reached. The crash fires *after* the primitive's full effect (media
//! mutation and trace events) has been applied, so the primitive that
//! triggers it still returns `Ok`; every subsequent operation fails with
//! [`crate::SystemError::Crashed`] until recovery runs. Arming a plan with
//! target [`u64::MAX`] turns it into a pure boundary counter — the way the
//! crash-point explorer enumerates a run before replaying it.

/// Classification of a crash boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundaryKind {
    /// A CPU-side persist: `cpu_persist`, `cpu_copy`, `cpu_write_persist`.
    Persist,
    /// An offload posting: the device-side persist of an NDP request, which
    /// is simultaneously the mid-flight point between posting and retire.
    Offload,
    /// An ordering point: `sw_sync_batch`, `delayed_sync_batch`.
    Sync,
    /// A commit-retire event: commit-handle release of an `OffloadBatch`.
    CommitRetire,
}

impl BoundaryKind {
    /// All boundary kinds, in taxonomy order.
    pub const ALL: [BoundaryKind; 4] = [
        BoundaryKind::Persist,
        BoundaryKind::Offload,
        BoundaryKind::Sync,
        BoundaryKind::CommitRetire,
    ];

    /// Stable short label (reports, dedup keys).
    pub fn label(self) -> &'static str {
        match self {
            BoundaryKind::Persist => "persist",
            BoundaryKind::Offload => "offload",
            BoundaryKind::Sync => "sync",
            BoundaryKind::CommitRetire => "commit-retire",
        }
    }

    fn index(self) -> usize {
        match self {
            BoundaryKind::Persist => 0,
            BoundaryKind::Offload => 1,
            BoundaryKind::Sync => 2,
            BoundaryKind::CommitRetire => 3,
        }
    }
}

impl std::fmt::Display for BoundaryKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A deterministic fault-injection plan: crash at the `n`-th boundary
/// (0-based) observed after arming, optionally filtered to one
/// [`BoundaryKind`].
#[derive(Debug, Clone)]
pub struct CrashPlan {
    target: u64,
    kind: Option<BoundaryKind>,
    matched: u64,
    by_kind: [u64; 4],
    fired: bool,
    fired_kind: Option<BoundaryKind>,
}

impl CrashPlan {
    /// Crash at the `n`-th boundary of any kind (0-based).
    pub fn at_boundary(n: u64) -> Self {
        CrashPlan {
            target: n,
            kind: None,
            matched: 0,
            by_kind: [0; 4],
            fired: false,
            fired_kind: None,
        }
    }

    /// Crash at the `n`-th [`BoundaryKind::Persist`] boundary (0-based).
    pub fn at_persist(n: u64) -> Self {
        CrashPlan::at_kind(BoundaryKind::Persist, n)
    }

    /// Crash at the `n`-th boundary of the given kind (0-based).
    pub fn at_kind(kind: BoundaryKind, n: u64) -> Self {
        CrashPlan {
            target: n,
            kind: Some(kind),
            matched: 0,
            by_kind: [0; 4],
            fired: false,
            fired_kind: None,
        }
    }

    /// A plan that never fires: counts every boundary of the run. Used to
    /// enumerate a run's boundaries before replaying it point by point.
    pub fn count_only() -> Self {
        CrashPlan::at_boundary(u64::MAX)
    }

    /// Boundaries observed since arming that match the plan's kind filter.
    pub fn observed(&self) -> u64 {
        self.matched
    }

    /// Boundaries of `kind` observed since arming (taxonomy breakdown).
    pub fn observed_of(&self, kind: BoundaryKind) -> u64 {
        self.by_kind[kind.index()]
    }

    /// Total boundaries of every kind observed since arming.
    pub fn observed_total(&self) -> u64 {
        self.by_kind.iter().sum()
    }

    /// True once the plan has injected its crash.
    pub fn fired(&self) -> bool {
        self.fired
    }

    /// The kind of the boundary the crash fired at, once fired.
    pub fn fired_kind(&self) -> Option<BoundaryKind> {
        self.fired_kind
    }

    /// Records one boundary; returns true exactly when the crash must fire.
    pub(crate) fn note(&mut self, kind: BoundaryKind) -> bool {
        self.by_kind[kind.index()] += 1;
        if self.kind.is_some_and(|k| k != kind) {
            return false;
        }
        let hit = !self.fired && self.matched == self.target;
        self.matched += 1;
        if hit {
            self.fired = true;
            self.fired_kind = Some(kind);
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_once_at_target_boundary() {
        let mut p = CrashPlan::at_boundary(2);
        assert!(!p.note(BoundaryKind::Persist));
        assert!(!p.note(BoundaryKind::Sync));
        assert!(p.note(BoundaryKind::Offload));
        assert!(p.fired());
        assert_eq!(p.fired_kind(), Some(BoundaryKind::Offload));
        // Never fires twice even though the count keeps running.
        assert!(!p.note(BoundaryKind::Offload));
        assert_eq!(p.observed(), 4);
        assert_eq!(p.observed_total(), 4);
    }

    #[test]
    fn kind_filter_counts_only_matching_boundaries() {
        let mut p = CrashPlan::at_persist(1);
        assert!(!p.note(BoundaryKind::Persist));
        assert!(!p.note(BoundaryKind::Sync));
        assert!(!p.note(BoundaryKind::CommitRetire));
        assert!(p.note(BoundaryKind::Persist));
        assert_eq!(p.observed(), 2);
        assert_eq!(p.observed_total(), 4);
        assert_eq!(p.observed_of(BoundaryKind::Persist), 2);
        assert_eq!(p.observed_of(BoundaryKind::Sync), 1);
        assert_eq!(p.observed_of(BoundaryKind::Offload), 0);
    }

    #[test]
    fn count_only_never_fires() {
        let mut p = CrashPlan::count_only();
        for _ in 0..1000 {
            assert!(!p.note(BoundaryKind::Persist));
        }
        assert!(!p.fired());
        assert_eq!(p.observed(), 1000);
    }

    #[test]
    fn labels_are_stable() {
        let labels: Vec<&str> = BoundaryKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels, ["persist", "offload", "sync", "commit-retire"]);
        assert_eq!(BoundaryKind::Sync.to_string(), "sync");
    }
}
