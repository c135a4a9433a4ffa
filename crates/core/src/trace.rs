//! Incremental PPO trace construction and checking.
//!
//! Functional effects are applied while the task graph is being built. Since
//! the graph maintains every task's start/finish time incrementally (see
//! `nearpm_sim::TaskGraph`), trace events can be timestamped **eagerly** at
//! record time — the finish time of the task they are tied to — instead of
//! being resolved in a separate pass after scheduling. The [`TraceBuilder`]
//! therefore owns a concrete [`nearpm_ppo::Trace`] that only ever grows, and
//! an [`IncrementalChecker`] that folds in exactly the events appended since
//! the last check, so multi-`report()` runs (the fig18–20 sweeps, sampled
//! runs) check each event once instead of re-checking the whole trace.
//! Because the fold never reads an event older than its batch,
//! [`TraceBuilder::compact`] may drop everything it has folded.

use nearpm_ppo::{
    Agent, EventKind, IncrementalChecker, Interval, PpoViolation, ProcId, Sharing, SyncId, Trace,
};
use nearpm_sim::{SimTime, TaskGraph, TaskId};

/// Accumulates PPO events during graph construction and checks them with a
/// violation-level incremental checker.
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    trace: Trace,
    checker: IncrementalChecker,
}

impl TraceBuilder {
    /// Creates a builder for a system with `devices` NearPM devices.
    pub fn new(devices: usize) -> Self {
        TraceBuilder {
            trace: Trace::new(devices),
            checker: IncrementalChecker::new(),
        }
    }

    /// Allocates a fresh NDP-procedure id.
    pub fn new_proc(&mut self) -> ProcId {
        self.trace.new_proc()
    }

    /// Allocates a fresh synchronization-event id.
    pub fn new_sync(&mut self) -> SyncId {
        self.trace.new_sync()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// True if no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// Records an event timestamped at `task`'s finish time, read from the
    /// graph's incrementally maintained schedule (or at the end of time when
    /// `task` is `None`, used for the failure marker of a crash with no
    /// preceding CPU work).
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        graph: &TaskGraph,
        agent: Agent,
        kind: EventKind,
        interval: Interval,
        sharing: Sharing,
        proc: Option<ProcId>,
        sync: Option<SyncId>,
        task: Option<TaskId>,
    ) {
        let ts = task
            .map(|t| graph.task_finish(t).as_ps())
            .unwrap_or(u64::MAX);
        self.trace
            .record(agent, kind, interval, sharing, proc, sync, ts);
    }

    /// The accumulated trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Checks the PPO invariants, folding only the events recorded since the
    /// previous call into the incremental checker — repeated clean checks of
    /// a growing trace cost O(new events · log n) end to end.
    pub fn check(&mut self) -> Vec<PpoViolation> {
        self.checker.check(&self.trace)
    }

    /// Number of events already folded into the checker.
    pub fn indexed_events(&self) -> usize {
        self.checker.consumed()
    }

    /// Number of NDP persists to NDP-managed addresses that PPO allowed to
    /// be delayed past CPU program order (Invariant 2's relaxation),
    /// maintained incrementally by the checker — the same answer as the
    /// naive `nearpm_ppo::invariants::oracle::relaxed_persist_count` without
    /// rescanning the trace.
    pub fn relaxed_persist_count(&mut self) -> usize {
        self.checker.relaxed_persist_count(&self.trace)
    }

    /// Drops the checker state no event recorded from now on can pair with,
    /// given that every such event is stamped at or after `w` and that an
    /// offload and its NDP accesses are recorded together
    /// ([`IncrementalChecker::retire_below`]). Call it right after a check,
    /// so every recorded event is folded.
    pub fn retire_below(&mut self, w: SimTime) {
        self.checker.retire_below(w.as_ps());
    }

    /// Retires every event the checker has folded — the fold never reads
    /// an event older than its batch — dropping them from the live trace.
    /// Returns how many events were evicted. Callers must not run
    /// whole-trace oracles (`check_all`, `report_oracle`) on a compacted
    /// trace — the live slice is a suffix.
    pub fn compact(&mut self) -> usize {
        self.trace.retire_through(self.checker.consumed())
    }

    /// Number of events still resident in the live trace vector.
    pub fn resident_events(&self) -> usize {
        self.trace.resident()
    }

    /// Number of events evicted by [`TraceBuilder::compact`].
    pub fn retired_events(&self) -> usize {
        self.trace.retired()
    }

    /// Clears the trace and drops the checker's folded state.
    pub fn reset(&mut self) {
        self.trace.clear();
        self.checker.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nearpm_sim::{LatencyModel, Region, Resource};

    fn two_task_graph() -> (TaskGraph, TaskId, TaskId) {
        let model = LatencyModel::default();
        let mut graph = TaskGraph::new();
        let a = graph.add(
            "cpu",
            Resource::Cpu(0),
            model.cpu_compute(100.0),
            Region::Application,
            &[],
        );
        let b = graph.add(
            "ndp",
            Resource::NdpUnit { device: 0, unit: 0 },
            model.ndp_copy(4096),
            Region::CcDataMovement,
            &[a],
        );
        (graph, a, b)
    }

    #[test]
    fn events_carry_task_finish_times() {
        let (graph, a, b) = two_task_graph();
        let mut tb = TraceBuilder::new(1);
        let p = tb.new_proc();
        tb.record(
            &graph,
            Agent::Cpu,
            EventKind::Offload,
            Interval::new(0, 0),
            Sharing::Shared,
            Some(p),
            None,
            Some(a),
        );
        tb.record(
            &graph,
            Agent::Ndp(0),
            EventKind::Persist,
            Interval::new(0x100, 64),
            Sharing::NdpManaged,
            Some(p),
            None,
            Some(b),
        );
        assert_eq!(tb.len(), 2);

        // The eager timestamps equal the graph's incrementally maintained
        // finish times: incremental timing is prefix-stable.
        let events = tb.trace().events();
        assert_eq!(events[0].timestamp_ps, graph.task_finish(a).as_ps());
        assert_eq!(events[1].timestamp_ps, graph.task_finish(b).as_ps());
        assert!(events[0].timestamp_ps < events[1].timestamp_ps);
    }

    #[test]
    fn failure_marker_without_task_sorts_last() {
        let graph = TaskGraph::new();
        let mut tb = TraceBuilder::new(1);
        tb.record(
            &graph,
            Agent::Cpu,
            EventKind::Failure,
            Interval::new(0, 0),
            Sharing::Shared,
            None,
            None,
            None,
        );
        assert_eq!(tb.trace().failure_time(), Some(u64::MAX));
    }

    #[test]
    fn check_folds_events_incrementally_and_reset_invalidates() {
        let (graph, a, b) = two_task_graph();
        let mut tb = TraceBuilder::new(1);
        let p = tb.new_proc();
        tb.record(
            &graph,
            Agent::Cpu,
            EventKind::Offload,
            Interval::new(0, 0),
            Sharing::Shared,
            Some(p),
            None,
            Some(a),
        );
        assert!(tb.check().is_empty());
        assert_eq!(tb.indexed_events(), 1);
        tb.record(
            &graph,
            Agent::Ndp(0),
            EventKind::Persist,
            Interval::new(0x100, 64),
            Sharing::NdpManaged,
            Some(p),
            None,
            Some(b),
        );
        assert!(tb.check().is_empty());
        assert_eq!(tb.indexed_events(), 2);
        tb.reset();
        assert!(tb.is_empty());
        assert_eq!(tb.indexed_events(), 0);
    }

    #[test]
    fn ids_are_unique() {
        let mut tb = TraceBuilder::new(2);
        assert!(tb.is_empty());
        assert_ne!(tb.new_proc(), tb.new_proc());
        assert_ne!(tb.new_sync(), tb.new_sync());
    }
}
