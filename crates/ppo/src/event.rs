//! Persist-ordering event traces.
//!
//! Execution of a PM program on a NearPM system is *partitioned*: some memory
//! accesses are issued by the CPU, some by NDP procedures running on one or
//! more NearPM devices. To reason about Partitioned Persist Ordering (PPO),
//! the system records an [`Trace`] of [`PpoEvent`]s. Each event carries:
//!
//! * the **agent** that issued it (CPU or a specific NearPM device),
//! * its **kind** (read, write, persist, offload, synchronization, failure,
//!   recovery read),
//! * the affected **address interval** and its **sharing classification**
//!   (shared between CPU and NDP, or managed exclusively by NDP — logs,
//!   checkpoints, shadow copies),
//! * a **timestamp** in simulated time and a per-agent **program-order
//!   index**.
//!
//! The checker ([`crate::IncrementalChecker`], [`crate::check_all`])
//! consumes such traces and verifies the four PPO invariants from Section 4
//! of the paper.

use std::fmt;

/// Identifier of an NDP procedure (a series of primitives offloaded together,
/// e.g. "create the undo log for object X").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub u64);

/// Identifier of a multi-device synchronization event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SyncId(pub u64);

/// The agent that issued a memory event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Agent {
    /// The host CPU.
    Cpu,
    /// A NearPM device (by index).
    Ndp(usize),
}

impl Agent {
    /// True for NearPM agents.
    pub fn is_ndp(&self) -> bool {
        matches!(self, Agent::Ndp(_))
    }

    /// Dense index of the agent (the CPU first, then the devices), for
    /// per-agent state kept in a `Vec`.
    pub(crate) fn slot(self) -> usize {
        match self {
            Agent::Cpu => 0,
            Agent::Ndp(d) => d + 1,
        }
    }

    /// This agent's entry in per-agent state kept in a `Vec` indexed by
    /// [`Agent::slot`], growing the `Vec` with defaults up to it.
    pub(crate) fn entry_in<T: Default>(self, per_agent: &mut Vec<T>) -> &mut T {
        let slot = self.slot();
        if slot >= per_agent.len() {
            per_agent.resize_with(slot + 1, T::default);
        }
        &mut per_agent[slot]
    }
}

impl fmt::Display for Agent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Agent::Cpu => write!(f, "cpu"),
            Agent::Ndp(d) => write!(f, "ndp{d}"),
        }
    }
}

/// Sharing classification of an address interval, the pivot of PPO's relaxed
/// ordering: NDP-managed addresses never become visible to the CPU outside of
/// recovery, so persists to them may be delayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sharing {
    /// Shared between the CPU and NDP procedures (application data).
    Shared,
    /// Managed exclusively by NDP procedures (logs, checkpoints, shadow pages).
    NdpManaged,
}

/// A byte interval in the (virtual) address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// First byte.
    pub start: u64,
    /// Length in bytes.
    pub len: u64,
}

impl Interval {
    /// Creates an interval.
    pub fn new(start: u64, len: u64) -> Self {
        Interval { start, len }
    }

    /// Exclusive end.
    pub fn end(&self) -> u64 {
        self.start + self.len
    }

    /// True if two intervals share at least one byte.
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.len > 0 && other.len > 0 && self.start < other.end() && other.start < self.end()
    }
}

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A read of the interval.
    Read,
    /// A write of the interval (visible, not necessarily persistent yet).
    Write,
    /// The interval became persistent (reached the persistence domain).
    Persist,
    /// The CPU offloaded an NDP procedure (the event's `proc` names it).
    Offload,
    /// An NDP procedure completed on this agent.
    ProcComplete,
    /// A multi-device synchronization point (the event's `sync` names it).
    Sync,
    /// A system failure (crash). Everything not persisted is lost.
    Failure,
    /// A read performed by the recovery procedure after a failure.
    RecoveryRead,
}

/// One entry of a PPO trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PpoEvent {
    /// Issuing agent.
    pub agent: Agent,
    /// Event kind.
    pub kind: EventKind,
    /// Affected address interval (zero-length for pure control events).
    pub interval: Interval,
    /// Sharing classification of the interval.
    pub sharing: Sharing,
    /// NDP procedure this event belongs to (if any).
    pub proc: Option<ProcId>,
    /// Synchronization event referenced (for `Sync` events).
    pub sync: Option<SyncId>,
    /// Simulated time at which the event took effect, in picoseconds.
    pub timestamp_ps: u64,
    /// Program-order index within the issuing agent.
    pub program_order: u64,
}

/// An append-only trace of PPO events.
///
/// Long self-monitoring runs can **retire** a folded prefix
/// ([`Trace::retire_through`]): retired events are dropped from the live
/// vector, bounding resident memory while [`Trace::len`] keeps counting
/// every event ever recorded. Event indices (as used by the incremental
/// checker) stay absolute; [`Trace::events`] returns the live suffix,
/// offset by [`Trace::retired`].
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<PpoEvent>,
    next_proc: u64,
    next_sync: u64,
    program_order_cpu: u64,
    program_order_ndp: Vec<u64>,
    /// Timestamp of the first recorded failure event (cached so
    /// `failure_time` is O(1) instead of a scan).
    first_failure: Option<u64>,
    /// Bumped by [`Trace::clear`] so the incremental checker can detect a
    /// reset even when the trace has regrown past its previous length.
    generation: u64,
    /// Number of events evicted from the front of the live vector.
    retired: usize,
}

impl Trace {
    /// Creates an empty trace for a system with `devices` NearPM devices.
    pub fn new(devices: usize) -> Self {
        Trace {
            program_order_ndp: vec![0; devices],
            ..Trace::default()
        }
    }

    /// Clears all events and counters, returning the trace to its freshly
    /// constructed state and advancing its generation. An
    /// [`crate::IncrementalChecker`] that folded the old trace sees the
    /// generation change on its next check and rebuilds from scratch.
    pub fn clear(&mut self) {
        let devices = self.program_order_ndp.len();
        let generation = self.generation.wrapping_add(1);
        *self = Trace::new(devices);
        self.generation = generation;
    }

    /// Reset generation: starts at zero and advances on every
    /// [`Trace::clear`].
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Total number of recorded events, including retired ones. This is the
    /// absolute id space: event `i` of a run keeps id `i` forever, whether or
    /// not it is still resident.
    pub fn len(&self) -> usize {
        self.retired + self.events.len()
    }

    /// True if no event was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The live (non-retired) suffix of the trace, in recording order. The
    /// first element has absolute id [`Trace::retired`], not 0.
    pub fn events(&self) -> &[PpoEvent] {
        &self.events
    }

    /// Number of events evicted from the front by [`Trace::retire_through`].
    pub fn retired(&self) -> usize {
        self.retired
    }

    /// Number of events still resident in the live vector.
    pub fn resident(&self) -> usize {
        self.events.len()
    }

    /// Drops events with absolute id `< floor` from the live vector,
    /// returning how many were evicted. Callers must guarantee no live
    /// consumer will dereference the evicted prefix again: an
    /// [`crate::IncrementalChecker`] never reads an event older than the
    /// batch it folds, so everything below its
    /// [`crate::IncrementalChecker::consumed`] may go.
    pub fn retire_through(&mut self, floor: usize) -> usize {
        let evict = floor.saturating_sub(self.retired).min(self.events.len());
        self.events.drain(..evict);
        self.retired += evict;
        evict
    }

    /// Allocates a fresh NDP-procedure id.
    pub fn new_proc(&mut self) -> ProcId {
        let id = ProcId(self.next_proc);
        self.next_proc += 1;
        id
    }

    /// Allocates a fresh synchronization-event id.
    pub fn new_sync(&mut self) -> SyncId {
        let id = SyncId(self.next_sync);
        self.next_sync += 1;
        id
    }

    /// Next program-order index for `agent`, advancing the counter.
    fn next_po(&mut self, agent: Agent) -> u64 {
        match agent {
            Agent::Cpu => {
                let po = self.program_order_cpu;
                self.program_order_cpu += 1;
                po
            }
            Agent::Ndp(d) => {
                if d >= self.program_order_ndp.len() {
                    self.program_order_ndp.resize(d + 1, 0);
                }
                let po = self.program_order_ndp[d];
                self.program_order_ndp[d] += 1;
                po
            }
        }
    }

    /// Records an event, assigning its program-order index automatically.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        agent: Agent,
        kind: EventKind,
        interval: Interval,
        sharing: Sharing,
        proc: Option<ProcId>,
        sync: Option<SyncId>,
        timestamp_ps: u64,
    ) -> &PpoEvent {
        let program_order = self.next_po(agent);
        if kind == EventKind::Failure && self.first_failure.is_none() {
            self.first_failure = Some(timestamp_ps);
        }
        self.events.push(PpoEvent {
            agent,
            kind,
            interval,
            sharing,
            proc,
            sync,
            timestamp_ps,
            program_order,
        });
        self.events.last().expect("just pushed")
    }

    /// Convenience: record a write and its persist at the same timestamp
    /// (used for NDP writes, which have no write cache).
    pub fn record_write_persist(
        &mut self,
        agent: Agent,
        interval: Interval,
        sharing: Sharing,
        proc: Option<ProcId>,
        timestamp_ps: u64,
    ) {
        self.record(
            agent,
            EventKind::Write,
            interval,
            sharing,
            proc,
            None,
            timestamp_ps,
        );
        self.record(
            agent,
            EventKind::Persist,
            interval,
            sharing,
            proc,
            None,
            timestamp_ps,
        );
    }

    /// The timestamp of the first failure event, if one was recorded.
    pub fn failure_time(&self) -> Option<u64> {
        self.first_failure
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_overlap_rules() {
        let a = Interval::new(0, 10);
        let b = Interval::new(5, 10);
        let c = Interval::new(10, 10);
        let z = Interval::new(0, 0);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(!a.overlaps(&z));
        assert_eq!(a.end(), 10);
    }

    #[test]
    fn program_order_advances_per_agent() {
        let mut t = Trace::new(2);
        t.record(
            Agent::Cpu,
            EventKind::Write,
            Interval::new(0, 8),
            Sharing::Shared,
            None,
            None,
            10,
        );
        t.record(
            Agent::Ndp(0),
            EventKind::Write,
            Interval::new(64, 8),
            Sharing::NdpManaged,
            None,
            None,
            20,
        );
        t.record(
            Agent::Cpu,
            EventKind::Persist,
            Interval::new(0, 8),
            Sharing::Shared,
            None,
            None,
            30,
        );
        let by_agent = |agent: Agent| -> Vec<u64> {
            t.events()
                .iter()
                .filter(|e| e.agent == agent)
                .map(|e| e.program_order)
                .collect()
        };
        assert_eq!(by_agent(Agent::Cpu), vec![0, 1]);
        assert_eq!(by_agent(Agent::Ndp(0)), vec![0]);
        assert!(by_agent(Agent::Ndp(1)).is_empty());
    }

    #[test]
    fn proc_and_sync_ids_are_unique() {
        let mut t = Trace::new(1);
        let p0 = t.new_proc();
        let p1 = t.new_proc();
        let s0 = t.new_sync();
        let s1 = t.new_sync();
        assert_ne!(p0, p1);
        assert_ne!(s0, s1);
    }

    #[test]
    fn write_persist_shortcut_records_two_events() {
        let mut t = Trace::new(1);
        let p = t.new_proc();
        t.record_write_persist(
            Agent::Ndp(0),
            Interval::new(128, 64),
            Sharing::NdpManaged,
            Some(p),
            42,
        );
        assert_eq!(t.len(), 2);
        assert_eq!(t.events()[0].kind, EventKind::Write);
        assert_eq!(t.events()[1].kind, EventKind::Persist);
        assert_eq!(t.events()[1].timestamp_ps, 42);
    }

    #[test]
    fn failure_time_lookup() {
        let mut t = Trace::new(1);
        assert_eq!(t.failure_time(), None);
        t.record(
            Agent::Cpu,
            EventKind::Failure,
            Interval::new(0, 0),
            Sharing::Shared,
            None,
            None,
            999,
        );
        assert_eq!(t.failure_time(), Some(999));
    }

    #[test]
    fn retirement_evicts_prefix_but_preserves_totals() {
        let mut t = Trace::new(1);
        let p = t.new_proc();
        for i in 0..10u64 {
            t.record_write_persist(
                Agent::Ndp(0),
                Interval::new(i * 64, 64),
                Sharing::NdpManaged,
                Some(p),
                i * 10,
            );
        }
        assert_eq!(t.len(), 20);
        assert_eq!(t.retired(), 0);

        // Retire the first 7 events (3.5 write/persist pairs).
        assert_eq!(t.retire_through(7), 7);
        assert_eq!(t.retired(), 7);
        assert_eq!(t.resident(), 13);
        assert_eq!(t.len(), 20);
        assert!(!t.is_empty());
        // Live suffix starts at absolute id 7 (a persist of interval 192..256).
        assert_eq!(t.events()[0].kind, EventKind::Persist);
        assert_eq!(t.events()[0].interval.start, 3 * 64);

        // A lower or equal floor is a no-op; floors past the end clamp.
        assert_eq!(t.retire_through(5), 0);
        assert_eq!(t.retire_through(usize::MAX), 13);
        assert_eq!(t.retired(), 20);
        assert_eq!(t.resident(), 0);
        assert_eq!(t.len(), 20);

        // clear() resets retirement along with everything else.
        t.clear();
        assert_eq!(t.retired(), 0);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn agent_display_and_classification() {
        assert_eq!(Agent::Cpu.to_string(), "cpu");
        assert_eq!(Agent::Ndp(1).to_string(), "ndp1");
        assert!(Agent::Ndp(0).is_ndp());
        assert!(!Agent::Cpu.is_ndp());
    }
}
