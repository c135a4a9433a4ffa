//! The four PPO invariants (paper Section 4): the [`PpoViolation`]s a check
//! reports, the whole-trace entry point [`check_all`], and the naive
//! reference checkers in [`oracle`].
//!
//! The checks are conservative: they operate on the recorded [`Trace`] and
//! flag orderings that a PPO-compliant NearPM system must never produce. The
//! system-level tests run every workload/mechanism combination, collect the
//! trace, and assert that no violations are reported; mutation tests flip
//! timestamps to confirm the checks actually detect broken orderings.
//!
//! Invariant 3 (persist before synchronization) covers different writes
//! depending on whether a `Sync` event names a procedure. A **proc-scoped**
//! sync (`proc == Some(p)`) guarantees exactly the writes of `p` recorded
//! before it, *regardless of their timestamps*: a participating write that
//! persists only after the sync completes is a violation, while another
//! procedure's late write is out of scope. The system records one sync event
//! per participating (device, procedure) pair. An **unscoped** sync covers
//! every prior-in-trace write of its agent timestamped no later than the
//! sync — the temporal under-approximation that avoids false positives when
//! application threads interleave in the trace.
//!
//! ## Implementation
//!
//! There is one implementation: [`check_all`] folds the whole trace as one
//! batch of an [`IncrementalChecker`], the same fold the system runs
//! incrementally at every report. The original quadratic scans are kept in
//! [`oracle`] (compiled under `cfg(test)` or the `oracle` feature) as the
//! sole independent reference; differential tests assert that the fold
//! reports identical violation lists on randomized traces, at every prefix
//! and batch split.

use crate::event::{Agent, Interval, ProcId, Trace};
use crate::incremental::IncrementalChecker;

/// A detected violation of a PPO invariant.
#[derive(Debug, Clone, PartialEq)]
pub enum PpoViolation {
    /// Invariant 1/2: a CPU access and an NDP access to overlapping *shared*
    /// addresses persisted (or became visible) out of program order relative
    /// to the offload point.
    SharedOrderViolation {
        /// The NDP procedure involved.
        proc: ProcId,
        /// Interval of the CPU access.
        cpu_interval: Interval,
        /// Interval of the NDP access.
        ndp_interval: Interval,
        /// Timestamp of the CPU event (ps).
        cpu_ts: u64,
        /// Timestamp of the NDP event (ps).
        ndp_ts: u64,
        /// True if the CPU access preceded the offload in program order.
        cpu_before_offload: bool,
    },
    /// Invariant 3: an NDP write issued before a synchronization event had
    /// not persisted when the synchronization completed.
    UnpersistedBeforeSync {
        /// Agent that issued the write.
        agent: Agent,
        /// The write interval.
        interval: Interval,
        /// Timestamp of the synchronization event (ps).
        sync_ts: u64,
    },
    /// Invariant 4: the recovery procedure read data that had never persisted
    /// before the failure.
    RecoveryReadUnpersisted {
        /// Agent performing the recovery read.
        agent: Agent,
        /// Interval read during recovery.
        interval: Interval,
    },
    /// An NDP procedure accessed a shared address but the trace contains no
    /// offload event for it, so ordering with the CPU cannot be established.
    MissingOffload {
        /// The procedure with no offload record.
        proc: ProcId,
    },
}

impl std::fmt::Display for PpoViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PpoViolation::SharedOrderViolation {
                proc,
                cpu_ts,
                ndp_ts,
                cpu_before_offload,
                ..
            } => write!(
                f,
                "shared-address order violation for proc {proc:?}: cpu@{cpu_ts} vs ndp@{ndp_ts} (cpu before offload: {cpu_before_offload})"
            ),
            PpoViolation::UnpersistedBeforeSync { agent, sync_ts, .. } => write!(
                f,
                "write by {agent} not persisted before synchronization at {sync_ts}"
            ),
            PpoViolation::RecoveryReadUnpersisted { agent, interval } => write!(
                f,
                "recovery read by {agent} of [{}..{}) that never persisted before failure",
                interval.start,
                interval.end()
            ),
            PpoViolation::MissingOffload { proc } => {
                write!(f, "NDP procedure {proc:?} has no offload event")
            }
        }
    }
}

/// Checks all four invariants over the whole trace and returns every
/// violation found: ordering (Invariants 1/2, including `MissingOffload`),
/// then persist-before-sync (Invariant 3), then recovery reads
/// (Invariant 4). This is a one-batch [`IncrementalChecker`] fold.
pub fn check_all(trace: &Trace) -> Vec<PpoViolation> {
    IncrementalChecker::new().check(trace)
}

/// The original nested-scan checkers, kept verbatim as reference oracles.
///
/// These are O(n²)–O(n³) in the trace length and exist only so that
/// differential tests, the smoke gates, and the `ppo_check` benchmarks can
/// compare the incremental fold against the original semantics. Compiled
/// under `cfg(test)` or the `oracle` cargo feature.
#[cfg(any(test, feature = "oracle"))]
pub mod oracle {
    use super::PpoViolation;
    use crate::event::{Agent, EventKind, PpoEvent, ProcId, Sharing, Trace};

    /// Naive [`super::check_all`]: runs every naive checker.
    pub fn check_all(trace: &Trace) -> Vec<PpoViolation> {
        let mut v = check_cpu_ndp_ordering(trace);
        v.extend(check_sync_persistence(trace));
        v.extend(check_recovery_reads(trace));
        v
    }

    /// Invariants 1 and 2, naive: ordering between CPU and NDP accesses to
    /// shared addresses must follow program order around the offload point
    /// (all-pairs CPU×NDP scan).
    pub fn check_cpu_ndp_ordering(trace: &Trace) -> Vec<PpoViolation> {
        let mut violations = Vec::new();
        let events = trace.events();

        // Offload program-order index (on the CPU) and timestamp per procedure.
        let mut offload_po: std::collections::BTreeMap<ProcId, u64> =
            std::collections::BTreeMap::new();
        for e in events {
            if e.kind == EventKind::Offload && e.agent == Agent::Cpu {
                if let Some(p) = e.proc {
                    offload_po.entry(p).or_insert(e.program_order);
                }
            }
        }

        // NDP accesses to shared intervals, grouped by procedure.
        let ndp_shared: Vec<&PpoEvent> = events
            .iter()
            .filter(|e| {
                e.agent.is_ndp()
                    && e.sharing == Sharing::Shared
                    && matches!(
                        e.kind,
                        EventKind::Write | EventKind::Persist | EventKind::Read
                    )
                    && e.interval.len > 0
            })
            .collect();

        // CPU accesses to shared intervals.
        let cpu_shared: Vec<&PpoEvent> = events
            .iter()
            .filter(|e| {
                e.agent == Agent::Cpu
                    && e.sharing == Sharing::Shared
                    && matches!(
                        e.kind,
                        EventKind::Write | EventKind::Persist | EventKind::Read
                    )
                    && e.interval.len > 0
            })
            .collect();

        for ndp in &ndp_shared {
            let proc = match ndp.proc {
                Some(p) => p,
                None => continue,
            };
            let Some(&off_po) = offload_po.get(&proc) else {
                violations.push(PpoViolation::MissingOffload { proc });
                continue;
            };
            for cpu in &cpu_shared {
                if !cpu.interval.overlaps(&ndp.interval) {
                    continue;
                }
                // Only compare like kinds for persistence (Invariant 2) and
                // visibility (Invariant 1): persist-vs-persist and
                // write/read-vs-write/read.
                let comparable = matches!(
                    (cpu.kind, ndp.kind),
                    (EventKind::Persist, EventKind::Persist)
                        | (EventKind::Write, EventKind::Write)
                        | (EventKind::Write, EventKind::Read)
                        | (EventKind::Read, EventKind::Write)
                );
                if !comparable {
                    continue;
                }
                let cpu_before_offload = cpu.program_order < off_po;
                let ok = if cpu_before_offload {
                    cpu.timestamp_ps <= ndp.timestamp_ps
                } else {
                    ndp.timestamp_ps <= cpu.timestamp_ps
                };
                if !ok {
                    violations.push(PpoViolation::SharedOrderViolation {
                        proc,
                        cpu_interval: cpu.interval,
                        ndp_interval: ndp.interval,
                        cpu_ts: cpu.timestamp_ps,
                        ndp_ts: ndp.timestamp_ps,
                        cpu_before_offload,
                    });
                }
            }
        }
        violations
    }

    /// Invariant 3, naive: per sync, rescan every prior write and, per
    /// write, rescan every event for a covering persist.
    pub fn check_sync_persistence(trace: &Trace) -> Vec<PpoViolation> {
        let mut violations = Vec::new();
        let events = trace.events();

        for sync in events
            .iter()
            .filter(|e| e.kind == EventKind::Sync && e.agent.is_ndp())
        {
            for w in events.iter().filter(|e| {
                e.agent == sync.agent
                    && e.kind == EventKind::Write
                    && e.interval.len > 0
                    && e.program_order < sync.program_order
                    && match sync.proc {
                        // Proc-scoped sync: exactly the procedure's writes,
                        // regardless of recorded timestamps.
                        Some(p) => e.proc == Some(p),
                        // Unscoped sync — temporal, not trace-positional: a
                        // write that happens after the sync is not covered.
                        None => e.timestamp_ps <= sync.timestamp_ps,
                    }
            }) {
                // Find a persist of the same agent covering (overlapping) the
                // write interval, no later than the sync.
                let persisted = events.iter().any(|p| {
                    p.agent == w.agent
                        && p.kind == EventKind::Persist
                        && p.interval.overlaps(&w.interval)
                        && p.timestamp_ps <= sync.timestamp_ps
                });
                if !persisted {
                    violations.push(PpoViolation::UnpersistedBeforeSync {
                        agent: w.agent,
                        interval: w.interval,
                        sync_ts: sync.timestamp_ps,
                    });
                }
            }
        }
        violations
    }

    /// Invariant 4, naive: per recovery read, rescan the whole trace for
    /// pre-failure writes and persists.
    pub fn check_recovery_reads(trace: &Trace) -> Vec<PpoViolation> {
        let mut violations = Vec::new();
        let Some(failure_ts) = trace.failure_time() else {
            return violations;
        };
        let events = trace.events();
        for r in events
            .iter()
            .filter(|e| e.kind == EventKind::RecoveryRead && e.interval.len > 0)
        {
            let written = events.iter().any(|w| {
                w.kind == EventKind::Write
                    && w.interval.overlaps(&r.interval)
                    && w.timestamp_ps <= failure_ts
            });
            if !written {
                continue;
            }
            let persisted_before_failure = events.iter().any(|p| {
                p.kind == EventKind::Persist
                    && p.interval.overlaps(&r.interval)
                    && p.timestamp_ps <= failure_ts
            });
            if !persisted_before_failure {
                violations.push(PpoViolation::RecoveryReadUnpersisted {
                    agent: r.agent,
                    interval: r.interval,
                });
            }
        }
        violations
    }

    /// Naive [`crate::IncrementalChecker::relaxed_persist_count`]: counts
    /// NDP persists to NDP-managed addresses delayed past some CPU access
    /// (all-pairs persist×access scan).
    pub fn relaxed_persist_count(trace: &Trace) -> usize {
        let events = trace.events();
        let cpu_accesses: Vec<&PpoEvent> = events
            .iter()
            .filter(|e| {
                e.agent == Agent::Cpu && matches!(e.kind, EventKind::Write | EventKind::Read)
            })
            .collect();
        events
            .iter()
            .filter(|e| {
                e.agent.is_ndp() && e.kind == EventKind::Persist && e.sharing == Sharing::NdpManaged
            })
            .filter(|p| {
                cpu_accesses
                    .iter()
                    .any(|c| c.program_order > 0 && c.timestamp_ps < p.timestamp_ps)
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Agent, EventKind, Interval, Sharing, Trace};

    /// Builds a well-formed undo-logging trace:
    /// CPU offloads log creation, NDP persists the log (NDP-managed), the CPU
    /// then updates the shared object in place and persists it.
    fn good_undo_log_trace() -> Trace {
        let mut t = Trace::new(1);
        let p = t.new_proc();
        let obj = Interval::new(0x1000, 64);
        let log = Interval::new(0x8000, 64);

        // CPU offloads the log-creation procedure.
        t.record(
            Agent::Cpu,
            EventKind::Offload,
            Interval::new(0, 0),
            Sharing::Shared,
            Some(p),
            None,
            100,
        );
        // NDP reads the shared object (source of the log copy).
        t.record(
            Agent::Ndp(0),
            EventKind::Read,
            obj,
            Sharing::Shared,
            Some(p),
            None,
            200,
        );
        // NDP writes + persists the log (NDP-managed).
        t.record_write_persist(Agent::Ndp(0), log, Sharing::NdpManaged, Some(p), 300);
        // CPU updates the object afterwards and persists it.
        t.record(
            Agent::Cpu,
            EventKind::Write,
            obj,
            Sharing::Shared,
            None,
            None,
            400,
        );
        t.record(
            Agent::Cpu,
            EventKind::Persist,
            obj,
            Sharing::Shared,
            None,
            None,
            450,
        );
        t
    }

    #[test]
    fn well_formed_trace_has_no_violations() {
        let t = good_undo_log_trace();
        assert!(check_all(&t).is_empty());
    }

    #[test]
    fn cpu_update_persisting_before_ndp_read_is_flagged() {
        // The CPU's in-place update (after the offload) must not become
        // visible before the NDP procedure reads the old value.
        let mut t = Trace::new(1);
        let p = t.new_proc();
        let obj = Interval::new(0x1000, 64);
        t.record(
            Agent::Cpu,
            EventKind::Offload,
            Interval::new(0, 0),
            Sharing::Shared,
            Some(p),
            None,
            100,
        );
        // NDP reads the object *late*...
        t.record(
            Agent::Ndp(0),
            EventKind::Read,
            obj,
            Sharing::Shared,
            Some(p),
            None,
            500,
        );
        // ...but the CPU already overwrote it at t=200 (program order after offload).
        t.record(
            Agent::Cpu,
            EventKind::Write,
            obj,
            Sharing::Shared,
            None,
            None,
            200,
        );
        let violations = check_all(&t);
        assert_eq!(violations.len(), 1);
        assert!(matches!(
            violations[0],
            PpoViolation::SharedOrderViolation {
                cpu_before_offload: false,
                ..
            }
        ));
    }

    #[test]
    fn cpu_write_before_offload_must_be_visible_to_ndp() {
        let mut t = Trace::new(1);
        let p = t.new_proc();
        let obj = Interval::new(0x1000, 64);
        // CPU writes the object, then offloads; the NDP read happens "earlier"
        // in simulated time than the CPU write — a violation.
        t.record(
            Agent::Cpu,
            EventKind::Write,
            obj,
            Sharing::Shared,
            None,
            None,
            300,
        );
        t.record(
            Agent::Cpu,
            EventKind::Offload,
            Interval::new(0, 0),
            Sharing::Shared,
            Some(p),
            None,
            350,
        );
        t.record(
            Agent::Ndp(0),
            EventKind::Read,
            obj,
            Sharing::Shared,
            Some(p),
            None,
            100,
        );
        let violations = check_all(&t);
        assert_eq!(violations.len(), 1);
        assert!(matches!(
            violations[0],
            PpoViolation::SharedOrderViolation {
                cpu_before_offload: true,
                ..
            }
        ));
    }

    #[test]
    fn ndp_shared_access_without_offload_is_flagged() {
        let mut t = Trace::new(1);
        let p = t.new_proc();
        let obj = Interval::new(0x1000, 64);
        t.record(
            Agent::Ndp(0),
            EventKind::Write,
            obj,
            Sharing::Shared,
            Some(p),
            None,
            100,
        );
        t.record(
            Agent::Cpu,
            EventKind::Write,
            obj,
            Sharing::Shared,
            None,
            None,
            200,
        );
        let violations = check_all(&t);
        assert!(violations
            .iter()
            .any(|v| matches!(v, PpoViolation::MissingOffload { .. })));
    }

    #[test]
    fn ndp_managed_addresses_are_exempt_from_cpu_ordering() {
        // An NDP-managed persist long after CPU activity is fine.
        let mut t = Trace::new(1);
        let p = t.new_proc();
        let log = Interval::new(0x8000, 64);
        t.record(
            Agent::Cpu,
            EventKind::Offload,
            Interval::new(0, 0),
            Sharing::Shared,
            Some(p),
            None,
            100,
        );
        t.record(
            Agent::Cpu,
            EventKind::Write,
            Interval::new(0x1000, 64),
            Sharing::Shared,
            None,
            None,
            150,
        );
        t.record_write_persist(Agent::Ndp(0), log, Sharing::NdpManaged, Some(p), 9_000);
        assert!(check_all(&t).is_empty());
        assert_eq!(IncrementalChecker::new().relaxed_persist_count(&t), 1);
    }

    #[test]
    fn sync_requires_prior_writes_persisted() {
        let mut t = Trace::new(2);
        let p = t.new_proc();
        let s = t.new_sync();
        let log = Interval::new(0x8000, 64);
        t.record(
            Agent::Cpu,
            EventKind::Offload,
            Interval::new(0, 0),
            Sharing::Shared,
            Some(p),
            None,
            10,
        );
        // Device 0 writes its half of the log but never persists it...
        t.record(
            Agent::Ndp(0),
            EventKind::Write,
            log,
            Sharing::NdpManaged,
            Some(p),
            None,
            100,
        );
        // ...and then synchronizes. That violates Invariant 3.
        t.record(
            Agent::Ndp(0),
            EventKind::Sync,
            Interval::new(0, 0),
            Sharing::NdpManaged,
            Some(p),
            Some(s),
            200,
        );
        let violations = check_all(&t);
        assert_eq!(violations.len(), 1);
        assert!(matches!(
            violations[0],
            PpoViolation::UnpersistedBeforeSync { .. }
        ));

        // Adding the persist before the sync fixes it.
        let mut t2 = Trace::new(2);
        let p2 = t2.new_proc();
        let s2 = t2.new_sync();
        t2.record(
            Agent::Cpu,
            EventKind::Offload,
            Interval::new(0, 0),
            Sharing::Shared,
            Some(p2),
            None,
            10,
        );
        t2.record(
            Agent::Ndp(0),
            EventKind::Write,
            log,
            Sharing::NdpManaged,
            Some(p2),
            None,
            100,
        );
        t2.record(
            Agent::Ndp(0),
            EventKind::Persist,
            log,
            Sharing::NdpManaged,
            Some(p2),
            None,
            150,
        );
        t2.record(
            Agent::Ndp(0),
            EventKind::Sync,
            Interval::new(0, 0),
            Sharing::NdpManaged,
            Some(p2),
            Some(s2),
            200,
        );
        assert!(check_all(&t2).is_empty());
    }

    /// ROADMAP proc-scoped sync regression: a sync that names its procedure
    /// guarantees exactly that procedure's writes. A participating write
    /// whose timestamp lands *after* the sync (a late write the old temporal
    /// rule silently cleared) is correctly flagged, while another
    /// procedure's late write recorded before the sync does not false-
    /// positive — and an unscoped sync keeps the legacy temporal behavior.
    #[test]
    fn proc_scoped_sync_flags_late_participating_write_only() {
        let lay = |proc_for_sync: Option<ProcId>| -> (Trace, ProcId, ProcId) {
            let mut t = Trace::new(1);
            let p1 = t.new_proc();
            let p2 = t.new_proc();
            let s = t.new_sync();
            let log1 = Interval::new(0x8000, 64);
            let log2 = Interval::new(0x9000, 64);
            // An *unrelated* procedure's late write (ts 400 > sync ts 300),
            // recorded before the sync and never persisted.
            t.record(
                Agent::Ndp(0),
                EventKind::Write,
                log2,
                Sharing::NdpManaged,
                Some(p2),
                None,
                400,
            );
            // The participating procedure's write is also late (ts 500) and
            // never persisted: its handle took part in the sync, so the
            // sync's completion claims it persisted — a genuine violation.
            t.record(
                Agent::Ndp(0),
                EventKind::Write,
                log1,
                Sharing::NdpManaged,
                Some(p1),
                None,
                500,
            );
            t.record(
                Agent::Ndp(0),
                EventKind::Sync,
                Interval::new(0, 0),
                Sharing::NdpManaged,
                proc_for_sync,
                Some(s),
                300,
            );
            (t, p1, p2)
        };

        // Proc-scoped sync: exactly the participating procedure's late
        // write is flagged; the unrelated write is out of scope.
        let (t, _p1, _p2) = lay(Some(ProcId(0)));
        let violations = check_all(&t);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(matches!(
            violations[0],
            PpoViolation::UnpersistedBeforeSync {
                interval: Interval { start: 0x8000, .. },
                ..
            }
        ));
        assert_eq!(violations, oracle::check_sync_persistence(&t));
        // The incremental checker agrees, including when the sync arrives in
        // a later batch than the writes.
        let mut checker = IncrementalChecker::new();
        let mut replay = Trace::new(1);
        for (i, e) in t.events().iter().enumerate() {
            replay.record(
                e.agent,
                e.kind,
                e.interval,
                e.sharing,
                e.proc,
                e.sync,
                e.timestamp_ps,
            );
            assert_eq!(
                checker.check(&replay),
                oracle::check_all(&replay),
                "prefix {i}"
            );
        }

        // Unscoped sync: the legacy temporal under-approximation clears
        // both late writes (they had not happened yet at sync time).
        let (t, _, _) = lay(None);
        assert!(check_all(&t).is_empty());
        assert_eq!(oracle::check_sync_persistence(&t), Vec::new());

        // A persisted participating write satisfies the proc-scoped sync
        // even when its persist is recorded after the sync in the trace but
        // timestamped before it.
        let mut t2 = Trace::new(1);
        let p1 = t2.new_proc();
        let s2 = t2.new_sync();
        let log = Interval::new(0x8000, 64);
        t2.record(
            Agent::Ndp(0),
            EventKind::Write,
            log,
            Sharing::NdpManaged,
            Some(p1),
            None,
            100,
        );
        t2.record(
            Agent::Ndp(0),
            EventKind::Sync,
            Interval::new(0, 0),
            Sharing::NdpManaged,
            Some(p1),
            Some(s2),
            300,
        );
        t2.record(
            Agent::Ndp(0),
            EventKind::Persist,
            log,
            Sharing::NdpManaged,
            Some(p1),
            None,
            200,
        );
        assert!(check_all(&t2).is_empty());
        assert_eq!(oracle::check_sync_persistence(&t2), Vec::new());
    }

    #[test]
    fn recovery_read_of_unpersisted_data_is_flagged() {
        let mut t = Trace::new(1);
        let log = Interval::new(0x8000, 64);
        // Written but never persisted before the failure.
        t.record(
            Agent::Ndp(0),
            EventKind::Write,
            log,
            Sharing::NdpManaged,
            None,
            None,
            100,
        );
        t.record(
            Agent::Cpu,
            EventKind::Failure,
            Interval::new(0, 0),
            Sharing::Shared,
            None,
            None,
            200,
        );
        t.record(
            Agent::Ndp(0),
            EventKind::RecoveryRead,
            log,
            Sharing::NdpManaged,
            None,
            None,
            300,
        );
        let violations = check_all(&t);
        assert_eq!(violations.len(), 1);

        // If the data persisted before the failure, recovery may read it.
        let mut t2 = Trace::new(1);
        t2.record_write_persist(Agent::Ndp(0), log, Sharing::NdpManaged, None, 100);
        t2.record(
            Agent::Cpu,
            EventKind::Failure,
            Interval::new(0, 0),
            Sharing::Shared,
            None,
            None,
            200,
        );
        t2.record(
            Agent::Ndp(0),
            EventKind::RecoveryRead,
            log,
            Sharing::NdpManaged,
            None,
            None,
            300,
        );
        assert!(check_all(&t2).is_empty());
    }

    #[test]
    fn recovery_read_of_never_written_region_is_allowed() {
        let mut t = Trace::new(1);
        t.record(
            Agent::Cpu,
            EventKind::Failure,
            Interval::new(0, 0),
            Sharing::Shared,
            None,
            None,
            200,
        );
        t.record(
            Agent::Ndp(0),
            EventKind::RecoveryRead,
            Interval::new(0x9000, 64),
            Sharing::NdpManaged,
            None,
            None,
            300,
        );
        assert!(check_all(&t).is_empty());
    }

    #[test]
    fn no_failure_means_no_recovery_violations() {
        let t = good_undo_log_trace();
        assert!(check_all(&t).is_empty());
    }

    #[test]
    fn violation_display_is_informative() {
        let v = PpoViolation::MissingOffload { proc: ProcId(7) };
        assert!(v.to_string().contains("no offload"));
        let v = PpoViolation::RecoveryReadUnpersisted {
            agent: Agent::Ndp(1),
            interval: Interval::new(0, 8),
        };
        assert!(v.to_string().contains("recovery read"));
    }

    #[test]
    fn indexed_and_oracle_agree_on_handcrafted_traces() {
        let traces = [good_undo_log_trace()];
        for t in &traces {
            assert_eq!(check_all(t), oracle::check_all(t));
            assert_eq!(
                IncrementalChecker::new().relaxed_persist_count(t),
                oracle::relaxed_persist_count(t)
            );
        }
    }
}
