//! Request FIFO of a NearPM device.
//!
//! Requests issued over the control path land in a bounded FIFO (32 entries
//! in the prototype, Table 3) that is part of the persistence domain: on a
//! failure its contents are written back to a reserved PM location by the
//! residual-capacitance mechanism and replayed during recovery.
//!
//! Besides the *physical* queue (used by the recovery path, which really
//! enqueues requests before replaying them), the FIFO maintains a *modeled
//! occupancy window* for timing: an entry occupies its slot from the
//! request's arrival over the control path until the front-end hands the
//! request to a unit — its issue stage retires in the task graph. A
//! conflicting request waiting at its issue queue therefore backs the FIFO
//! up, and when the window is as deep as the FIFO, a newly arriving request
//! stalls the host until the oldest blocking front-end stage retires — real
//! backpressure, surfaced as stall time and a high-watermark instead of the
//! queue being drained instantly.

use std::cell::RefCell;
use std::collections::VecDeque;

use nearpm_sim::{SimDuration, SimTime, TaskId};

use crate::request::{NearPmRequest, RequestId};

/// Default FIFO depth (entries), matching the prototype configuration.
pub const DEFAULT_FIFO_DEPTH: usize = 32;

/// Error returned when the FIFO is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FifoFull;

impl std::fmt::Display for FifoFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NearPM request FIFO is full")
    }
}

impl std::error::Error for FifoFull {}

/// Modeled admission of one request into the FIFO, returned by
/// [`RequestFifo::admit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FifoAdmission {
    /// Front-end (issue) task whose retirement frees the slot this request
    /// needs. `None` when a slot is free at arrival; otherwise the request's
    /// decode must order after this task (backpressure on the host).
    pub slot_dep: Option<TaskId>,
    /// How long the host stalls at the full FIFO before the slot frees.
    pub stalled: SimDuration,
}

/// Bounded request FIFO.
#[derive(Debug, Clone)]
pub struct RequestFifo {
    depth: usize,
    entries: VecDeque<(RequestId, NearPmRequest)>,
    next_id: u64,
    accepted: u64,
    high_watermark: usize,
    /// Modeled occupancy window: `(issue task, arrival, front-end retire
    /// time)` of admitted requests, sorted by retire time. Entries are kept
    /// past their retirement for [`WINDOW_GC_SLACK`]: admissions arrive
    /// slightly out of simulated-time order (the task graph is built thread
    /// by thread while the threads' clocks drift apart), so an entry may
    /// still determine the occupancy seen by a straggler arrival after a
    /// later one was already admitted. A deque, because garbage collection
    /// drains its front.
    window: VecDeque<(TaskId, SimTime, SimTime)>,
    /// `(arrival, retire)` residency history of every admitted request —
    /// unlike `window`, garbage-collected only on request
    /// (`retire_history_before`), so post-run analyses can
    /// ask "how full was the FIFO during `[from, to)`" for any window of the
    /// run (`fig_timeline`'s occupancy series).
    history: Vec<(SimTime, SimTime)>,
    /// Windows starting before this time may no longer be queried: history
    /// entries that retired before it were dropped.
    history_floor: SimTime,
    /// Lazily (re)built prefix/range-max structure over `history` answering
    /// [`RequestFifo::occupancy_in`] in O(log m). Interior mutability keeps
    /// the query `&self` (the whole report path is read-only); the cell is
    /// invalidated whenever `history` grows, and reset when it is trimmed.
    occupancy_index: RefCell<OccupancyIndex>,
    stall_time: SimDuration,
    stalls: u64,
}

/// Sorted event list plus running-occupancy range-max tree over the full
/// residency history.
///
/// The occupancy step function `f(t) = #{entries: arrival <= t < retire}`
/// only changes at arrival/retirement instants. The index stores every
/// instant sorted by `(time, delta)` — retirements before arrivals at the
/// same instant, the admission model's tie rule — the running occupancy
/// after each event, and a flat max segment tree over those running values.
/// `max f(t) over [from, to)` is then `f(from)` (two binary searches over
/// the sorted arrival/retire instants) joined with the range max of the
/// running values at events strictly inside `(from, to)`: the maximum is
/// always attained either at `from` or at an arrival event, and ties'
/// intermediate running values never exceed the step function's value at
/// either side of the instant, so the answer is exact.
#[derive(Debug, Clone, Default)]
struct OccupancyIndex {
    /// History length this index was built from (`history.len()` at build
    /// time; a shorter value marks the index stale).
    built_len: usize,
    /// Every arrival instant, sorted (ps).
    arrivals: Vec<u64>,
    /// Every retirement instant, sorted (ps).
    retires: Vec<u64>,
    /// All events sorted by `(time, delta)`; retirements (`-1`) order before
    /// arrivals (`+1`) at the same instant.
    events: Vec<(u64, i32)>,
    /// Flat max segment tree of size `2 * events.len()`; leaf `i` holds the
    /// running occupancy after `events[i]`.
    tree: Vec<i32>,
}

impl OccupancyIndex {
    fn rebuild(&mut self, history: &[(SimTime, SimTime)]) {
        self.arrivals = history.iter().map(|&(a, _)| a.as_ps()).collect();
        self.arrivals.sort_unstable();
        self.retires = history.iter().map(|&(_, r)| r.as_ps()).collect();
        self.retires.sort_unstable();
        let mut events: Vec<(u64, i32)> = Vec::with_capacity(2 * history.len());
        for &(a, r) in history {
            events.push((a.as_ps(), 1));
            events.push((r.as_ps(), -1));
        }
        events.sort_unstable_by_key(|&(t, d)| (t, d));
        let n = events.len();
        let mut tree = vec![i32::MIN; 2 * n];
        let mut live = 0i32;
        for (i, &(_, d)) in events.iter().enumerate() {
            live += d;
            tree[n + i] = live;
        }
        for i in (1..n).rev() {
            tree[i] = tree[2 * i].max(tree[2 * i + 1]);
        }
        self.events = events;
        self.tree = tree;
        self.built_len = history.len();
    }

    /// Max of the running occupancy over event indices `[l, r)`.
    fn range_max(&self, mut l: usize, mut r: usize) -> i32 {
        let n = self.events.len();
        l += n;
        r += n;
        let mut m = i32::MIN;
        while l < r {
            if l & 1 == 1 {
                m = m.max(self.tree[l]);
                l += 1;
            }
            if r & 1 == 1 {
                r -= 1;
                m = m.max(self.tree[r]);
            }
            l >>= 1;
            r >>= 1;
        }
        m
    }

    /// `max f(t) for t in [from, to)` — O(log m).
    fn max_occupancy_in(&self, from: u64, to: u64) -> i32 {
        // f(from): entries that arrived no later than `from` and whose
        // front-end stage had not yet retired (`retire > from`, matching the
        // sweep's retire-before-arrive tie rule).
        let at_from = self.arrivals.partition_point(|&a| a <= from) as i32
            - self.retires.partition_point(|&r| r <= from) as i32;
        // The occupancy only rises at arrivals, so the window max beyond
        // `from` lives at an event strictly inside `(from, to)`.
        let l = self.events.partition_point(|&(t, _)| t <= from);
        let r = self.events.partition_point(|&(t, _)| t < to);
        let inside = if l < r {
            self.range_max(l, r)
        } else {
            i32::MIN
        };
        at_from.max(inside)
    }
}

/// How far behind the newest arrival an entry's retirement must lie before
/// it is garbage-collected from the occupancy window. Thread-clock skew in
/// the multithreaded sweeps measures in tens of microseconds; 1 ms of slack
/// keeps every entry any realistic straggler arrival could observe.
const WINDOW_GC_SLACK: SimDuration = SimDuration::from_ps(1_000_000_000);

impl RequestFifo {
    /// Creates a FIFO of the given depth.
    pub fn new(depth: usize) -> Self {
        assert!(depth >= 1, "a FIFO needs at least one slot");
        RequestFifo {
            depth,
            entries: VecDeque::with_capacity(depth),
            next_id: 0,
            accepted: 0,
            high_watermark: 0,
            window: VecDeque::new(),
            history: Vec::new(),
            history_floor: SimTime::ZERO,
            occupancy_index: RefCell::new(OccupancyIndex::default()),
            stall_time: SimDuration::ZERO,
            stalls: 0,
        }
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no requests are queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if the FIFO cannot accept another request.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.depth
    }

    /// FIFO depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Total requests accepted over the FIFO's lifetime.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Maximum occupancy observed (modeled occupancy for submitted requests,
    /// physical occupancy for pre-queued recovery replays).
    pub fn high_watermark(&self) -> usize {
        self.high_watermark
    }

    /// Total time hosts spent stalled at the full FIFO (modeled occupancy).
    pub fn stall_time(&self) -> SimDuration {
        self.stall_time
    }

    /// Number of requests that stalled at the full FIFO.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Models the admission of a request arriving over the control path at
    /// `arrival`. An entry occupies a slot at that instant if it was admitted
    /// no later (`entry arrival <= arrival`) and its front-end stage has not
    /// yet retired (`retire > arrival`) — counting is non-destructive, so an
    /// out-of-order earlier arrival still sees the entries that occupied the
    /// FIFO at *its* time. If the occupancy fills the FIFO, the request
    /// stalls the host until the oldest blocking entry retires and its own
    /// decode must order after that task. Call
    /// [`RequestFifo::record_front_end`] with the request's issue task once
    /// it exists.
    pub fn admit(&mut self, arrival: SimTime) -> FifoAdmission {
        // Garbage-collect only entries retired so far in the past that no
        // straggler arrival can still observe them.
        let floor = SimTime::from_ps(arrival.as_ps().saturating_sub(WINDOW_GC_SLACK.as_ps()));
        let collectable = self.window.partition_point(|&(_, _, r)| r <= floor);
        self.window.drain(..collectable);

        // Live entries at `arrival`, in retire order (the window's order).
        let first_unretired = self.window.partition_point(|&(_, _, r)| r <= arrival);
        let mut live_entries = self
            .window
            .range(first_unretired..)
            .filter(|&&(_, admitted, _)| admitted <= arrival);
        let live = live_entries.clone().count();
        let admission = if live >= self.depth {
            // The FIFO is full until enough entries retire; the slot this
            // request takes frees when entry `live - depth` (0-based, in
            // retire order) leaves.
            let &(slot_dep, _, frees_at) = live_entries
                .nth(live - self.depth)
                .expect("counted among the live entries");
            let stalled = frees_at.since(arrival);
            self.stall_time += stalled;
            self.stalls += 1;
            FifoAdmission {
                slot_dep: Some(slot_dep),
                stalled,
            }
        } else {
            FifoAdmission::default()
        };
        // Occupancy including this request, capped at the physical depth (a
        // stalled request waits on the control path, not in the FIFO).
        let occupancy = (live + 1).min(self.depth);
        self.high_watermark = self.high_watermark.max(occupancy);
        admission
    }

    /// Records the front-end completion of the most recently admitted
    /// request: it arrived at `arrival` and its FIFO slot frees when `task`
    /// (the issue stage) retires and the request moves to a unit. Kept
    /// sorted by retire time (front-end stages are served in arrival order,
    /// which may differ from admission order).
    pub fn record_front_end(&mut self, task: TaskId, arrival: SimTime, retires_at: SimTime) {
        let pos = self.window.partition_point(|&(_, _, r)| r <= retires_at);
        self.window.insert(pos, (task, arrival, retires_at));
        self.history.push((arrival, retires_at));
    }

    /// Drops the occupancy-window entries whose front-end stage retired at
    /// or before `w`. The caller vouches that every request admitted from
    /// now on arrives at or after `w`: such an arrival counts only entries
    /// that retire after it, so the dropped ones never decided an
    /// admission again.
    pub(crate) fn retire_window_before(&mut self, w: SimTime) {
        let dropped = self.window.partition_point(|&(_, _, r)| r <= w);
        self.window.drain(..dropped);
    }

    /// The oldest front-end task the occupancy window still holds (a later
    /// admission may wait for it).
    pub(crate) fn oldest_task(&self) -> Option<TaskId> {
        self.window.iter().map(|&(task, _, _)| task).min()
    }

    /// Drops the residency-history entries that retired before `floor`,
    /// after which windows starting before `floor` may not be queried. An
    /// entry retired before a window starts neither arrived in it nor
    /// occupied a slot during it, so [`RequestFifo::admissions_in`] and
    /// [`RequestFifo::occupancy_in`] answer every window starting at or
    /// after `floor` as before. Floors only move forward.
    pub(crate) fn retire_history_before(&mut self, floor: SimTime) {
        if floor <= self.history_floor {
            return;
        }
        self.history_floor = floor;
        self.history.retain(|&(_, retire)| retire >= floor);
        *self.occupancy_index.get_mut() = OccupancyIndex::default();
    }

    /// Number of residency-history entries held.
    pub(crate) fn history_len(&self) -> usize {
        self.history.len()
    }

    /// The occupancy index, rebuilt if the history grew since it was built.
    ///
    /// # Panics
    ///
    /// Panics if `from` lies below the history floor.
    fn index_from(&self, from: SimTime) -> std::cell::RefMut<'_, OccupancyIndex> {
        assert!(
            from >= self.history_floor,
            "FIFO window query from {from} is below the history floor {}",
            self.history_floor
        );
        let mut index = self.occupancy_index.borrow_mut();
        if index.built_len != self.history.len() {
            index.rebuild(&self.history);
        }
        index
    }

    /// Highest modeled occupancy reached within the simulated-time window
    /// `[from, to)`, capped at the physical depth (a stalled request waits
    /// on the control path, not in the FIFO).
    ///
    /// Answered from a prefix/range-max structure over the residency
    /// history (the private `OccupancyIndex`): O(log m) per window after a
    /// lazy O(m log m) build amortized over all queries since the history
    /// last changed. The original O(m log m)-per-window line sweep is kept
    /// as the test-only oracle `occupancy_in_sweep`.
    ///
    /// # Panics
    ///
    /// Panics if a non-empty window starts below the history floor (see
    /// [`NearPmDevice::retire_fifo_history_before`](crate::NearPmDevice::retire_fifo_history_before)).
    pub fn occupancy_in(&self, from: SimTime, to: SimTime) -> usize {
        if to <= from {
            return 0;
        }
        let index = self.index_from(from);
        let max = index.max_occupancy_in(from.as_ps(), to.as_ps());
        (max.max(0) as usize).min(self.depth)
    }

    /// Number of requests admitted into the FIFO within the simulated-time
    /// window `[from, to)` — the per-window arrival count the open-loop
    /// driver reports as the device's offered admission rate.
    ///
    /// Answered in O(log m) from the sorted arrival-instant list of the
    /// lazily built `OccupancyIndex`; the test-only `admissions_in_sweep` is
    /// the O(m) differential oracle.
    ///
    /// # Panics
    ///
    /// Panics if a non-empty window starts below the history floor (see
    /// [`NearPmDevice::retire_fifo_history_before`](crate::NearPmDevice::retire_fifo_history_before)).
    pub fn admissions_in(&self, from: SimTime, to: SimTime) -> usize {
        if to <= from {
            return 0;
        }
        let index = self.index_from(from);
        index.arrivals.partition_point(|&a| a < to.as_ps())
            - index.arrivals.partition_point(|&a| a < from.as_ps())
    }

    /// O(m) scan over the residency history counting admissions in
    /// `[from, to)` — the reference oracle [`RequestFifo::admissions_in`] is
    /// checked against by `indexed_admissions_match_sweep_oracle`.
    #[cfg(test)]
    fn admissions_in_sweep(&self, from: SimTime, to: SimTime) -> usize {
        if to <= from {
            return 0;
        }
        self.history
            .iter()
            .filter(|&&(arrival, _)| from <= arrival && arrival < to)
            .count()
    }

    /// The original per-window line sweep over the residency history —
    /// O(m log m) per call. Kept as the reference oracle the indexed
    /// [`RequestFifo::occupancy_in`] is checked against by
    /// `indexed_occupancy_matches_sweep_oracle`.
    #[cfg(test)]
    fn occupancy_in_sweep(&self, from: SimTime, to: SimTime) -> usize {
        if to <= from {
            return 0;
        }
        let mut edges: Vec<(SimTime, i32)> = Vec::new();
        for &(arrival, retire) in &self.history {
            if arrival < to && retire > from {
                edges.push((arrival.max(from), 1));
                edges.push((retire.min(to), -1));
            }
        }
        // Retirements sort before arrivals at the same instant, matching the
        // admission model (an entry whose retire time equals an arrival no
        // longer occupies its slot at that arrival).
        edges.sort_unstable_by_key(|&(t, delta)| (t, delta));
        let mut live = 0i32;
        let mut max = 0i32;
        for (_, delta) in edges {
            live += delta;
            max = max.max(live);
        }
        (max.max(0) as usize).min(self.depth)
    }

    /// Enqueues a request, assigning it a [`RequestId`].
    pub fn push(&mut self, request: NearPmRequest) -> Result<RequestId, FifoFull> {
        if self.is_full() {
            return Err(FifoFull);
        }
        let id = RequestId(self.next_id);
        self.next_id += 1;
        self.accepted += 1;
        self.entries.push_back((id, request));
        self.high_watermark = self.high_watermark.max(self.entries.len());
        Ok(id)
    }

    /// Dequeues the oldest request.
    pub fn pop(&mut self) -> Option<(RequestId, NearPmRequest)> {
        self.entries.pop_front()
    }

    /// Peeks at the oldest request without removing it.
    pub fn peek(&self) -> Option<&(RequestId, NearPmRequest)> {
        self.entries.front()
    }

    /// Snapshot of the queued requests (persistence-domain image used by the
    /// hardware recovery procedure).
    pub fn snapshot(&self) -> Vec<(RequestId, NearPmRequest)> {
        self.entries.iter().cloned().collect()
    }

    /// Restores the FIFO from a persistence-domain snapshot. `next_id` is
    /// advanced past every restored id so that requests pushed after recovery
    /// can never be minted with a [`RequestId`] that is still in flight.
    pub fn restore(&mut self, entries: Vec<(RequestId, NearPmRequest)>) {
        self.entries = entries.into();
        if let Some(max_id) = self.entries.iter().map(|(id, _)| id.0).max() {
            self.next_id = self.next_id.max(max_id + 1);
        }
        self.high_watermark = self.high_watermark.max(self.entries.len());
    }

    /// Discards all queued requests (used to model losing state that is *not*
    /// in the persistence domain, for negative tests).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

impl Default for RequestFifo {
    fn default() -> Self {
        RequestFifo::new(DEFAULT_FIFO_DEPTH)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{NearPmOp, NearPmRequest, ThreadId};
    use nearpm_pm::{PoolId, VirtAddr};

    fn req(n: u64) -> NearPmRequest {
        NearPmRequest::new(
            PoolId(0),
            ThreadId(0),
            NearPmOp::ShadowCopy {
                src: VirtAddr(n * 4096),
                dst: VirtAddr(n * 4096 + 0x100000),
                len: 4096,
            },
        )
    }

    #[test]
    fn fifo_order_preserved() {
        let mut f = RequestFifo::new(4);
        let a = f.push(req(1)).unwrap();
        let b = f.push(req(2)).unwrap();
        assert_ne!(a, b);
        assert_eq!(f.len(), 2);
        let (id, r) = f.pop().unwrap();
        assert_eq!(id, a);
        assert_eq!(r, req(1));
        assert_eq!(f.pop().unwrap().0, b);
        assert!(f.pop().is_none());
    }

    #[test]
    fn fifo_full_rejected() {
        let mut f = RequestFifo::new(2);
        f.push(req(1)).unwrap();
        f.push(req(2)).unwrap();
        assert!(f.is_full());
        assert_eq!(f.push(req(3)), Err(FifoFull));
        f.pop();
        assert!(f.push(req(3)).is_ok());
        assert_eq!(f.accepted(), 3);
        assert_eq!(f.high_watermark(), 2);
    }

    #[test]
    fn snapshot_and_restore_roundtrip() {
        let mut f = RequestFifo::new(8);
        f.push(req(1)).unwrap();
        f.push(req(2)).unwrap();
        let snap = f.snapshot();
        f.clear();
        assert!(f.is_empty());
        f.restore(snap);
        assert_eq!(f.len(), 2);
        assert_eq!(f.peek().unwrap().1, req(1));
    }

    #[test]
    fn restore_advances_next_id_past_restored_entries() {
        // A FIFO that has already issued ids 0..3 crashes with two requests
        // still queued.
        let mut f = RequestFifo::new(8);
        for i in 0..4 {
            f.push(req(i)).unwrap();
        }
        f.pop();
        f.pop();
        let snap = f.snapshot();
        assert_eq!(
            snap.iter().map(|(id, _)| id.0).collect::<Vec<_>>(),
            vec![2, 3]
        );

        // A fresh device (next_id = 0) restores the snapshot: post-recovery
        // pushes must not collide with the replayed ids.
        let mut recovered = RequestFifo::new(8);
        recovered.restore(snap);
        let fresh = recovered.push(req(9)).unwrap();
        assert_eq!(fresh, RequestId(4));
        let ids: Vec<u64> = recovered.snapshot().iter().map(|(id, _)| id.0).collect();
        let mut deduped = ids.clone();
        deduped.dedup();
        assert_eq!(ids, deduped, "restored FIFO minted a duplicate RequestId");
    }

    #[test]
    fn restore_never_rewinds_next_id() {
        let mut f = RequestFifo::new(8);
        for i in 0..6 {
            f.push(req(i)).unwrap();
        }
        while f.pop().is_some() {}
        // Restoring an old (lower-id) snapshot must not rewind the counter.
        let mut old = RequestFifo::new(8);
        old.push(req(1)).unwrap();
        f.restore(old.snapshot());
        assert_eq!(f.push(req(7)).unwrap(), RequestId(6));
    }

    #[test]
    fn default_depth_matches_prototype() {
        let f = RequestFifo::default();
        assert_eq!(f.depth(), 32);
    }

    #[test]
    fn modeled_admission_stalls_when_the_window_fills() {
        use nearpm_sim::{Region, Resource, SimTime, TaskGraph};
        let ns = SimDuration::from_ns;
        let mut g = TaskGraph::new();
        let mut f = RequestFifo::new(2);
        let iq = Resource::IssueQueue { device: 0, unit: 0 };

        // Three requests arrive simultaneously; their front-end stages
        // serialize and retire at 10/20/30 ns.
        assert_eq!(f.admit(SimTime::ZERO), FifoAdmission::default());
        let d0 = g.add("ndp-issue", iq, ns(10.0), Region::CcOffload, &[]);
        f.record_front_end(d0, SimTime::ZERO, g.task_finish(d0));
        assert_eq!(f.admit(SimTime::ZERO), FifoAdmission::default());
        let d1 = g.add("ndp-issue", iq, ns(10.0), Region::CcOffload, &[]);
        f.record_front_end(d1, SimTime::ZERO, g.task_finish(d1));

        // The third arrival finds both slots occupied: it must wait for the
        // oldest outstanding entry and report the stall.
        let a = f.admit(SimTime::ZERO);
        assert_eq!(a.slot_dep, Some(d0));
        assert_eq!(a.stalled, ns(10.0));
        let d2 = g.add("ndp-issue", iq, ns(10.0), Region::CcOffload, &[d0]);
        f.record_front_end(d2, SimTime::ZERO, g.task_finish(d2));

        assert_eq!(f.high_watermark(), 2, "occupancy is capped at the depth");
        assert_eq!(f.stalls(), 1);
        assert_eq!(f.stall_time(), ns(10.0));

        // A request arriving after every entry retired admits cleanly.
        assert_eq!(f.admit(SimTime::from_ns(100.0)), FifoAdmission::default());
        assert_eq!(f.stalls(), 1);
    }

    #[test]
    fn modeled_admission_excludes_retired_entries() {
        use nearpm_sim::{Region, Resource, SimTime, TaskGraph};
        let ns = SimDuration::from_ns;
        let mut g = TaskGraph::new();
        let mut f = RequestFifo::new(4);
        let iq = Resource::IssueQueue { device: 0, unit: 0 };
        for _ in 0..3 {
            f.admit(SimTime::ZERO);
            let d = g.add("ndp-issue", iq, ns(10.0), Region::CcOffload, &[]);
            f.record_front_end(d, SimTime::ZERO, g.task_finish(d));
        }
        // Arriving at 15 ns: the first entry (retired at 10 ns) no longer
        // occupies a slot, so occupancy is 2 + the new request.
        assert_eq!(f.admit(SimTime::from_ns(15.0)), FifoAdmission::default());
        assert_eq!(f.high_watermark(), 3);
        assert_eq!(f.stall_time(), SimDuration::ZERO);
    }

    /// Admissions reach the FIFO in task-graph build order, which is not
    /// simulated-time order: a straggler arrival must still see the entries
    /// that occupied the FIFO at *its* time, even after a later arrival was
    /// admitted (counting is non-destructive), and entries that had not
    /// arrived yet must not count against it.
    #[test]
    fn out_of_order_arrivals_see_historical_occupancy() {
        use nearpm_sim::{Region, Resource, SimTime, TaskGraph};
        let mut g = TaskGraph::new();
        let mut f = RequestFifo::new(1);
        let iq = Resource::IssueQueue { device: 0, unit: 0 };
        // Entry A occupies the single slot from 0 to 2 us (conflict wait).
        f.admit(SimTime::ZERO);
        let a = g.add(
            "ndp-issue",
            iq,
            SimDuration::from_us(2.0),
            Region::CcOffload,
            &[],
        );
        f.record_front_end(a, SimTime::ZERO, g.task_finish(a));
        // A later-submitted request arriving at 10 us finds the FIFO empty…
        assert_eq!(
            f.admit(SimTime::from_ns(10_000.0)),
            FifoAdmission::default()
        );
        let b = g.add(
            "ndp-issue",
            iq,
            SimDuration::from_us(1.0),
            Region::CcOffload,
            &[],
        );
        f.record_front_end(b, SimTime::from_ns(10_000.0), g.task_finish(b));
        // …but a straggler arriving at 1 us (submitted afterwards) was
        // inside A's residency: it must stall until A retires at 2 us, and
        // B — which had not arrived by 1 us — must not count against it.
        let s = f.admit(SimTime::from_ns(1_000.0));
        assert_eq!(s.slot_dep, Some(a));
        assert_eq!(s.stalled, SimDuration::from_us(1.0));
        assert_eq!(f.stalls(), 1);
    }

    /// The indexed `occupancy_in` must agree with the original per-window
    /// line sweep on randomized residency histories — including interleaved
    /// queries and appends (the lazy index rebuilds when the history grows),
    /// zero-length residencies, coincident arrival/retire instants (the
    /// retire-before-arrive tie rule), windows outside the history, and the
    /// depth cap.
    #[test]
    fn indexed_occupancy_matches_sweep_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        for round in 0..40 {
            let depth = rng.gen_range(1usize..6);
            let mut f = RequestFifo::new(depth);
            let entries = rng.gen_range(0usize..120);
            for _ in 0..entries {
                let arrival = rng.gen_range(0u64..3_000);
                // Bias toward short residencies and allow coincident
                // instants (retire == another entry's arrival).
                let len = rng.gen_range(0u64..400);
                f.history
                    .push((SimTime::from_ps(arrival), SimTime::from_ps(arrival + len)));
                // Interleave queries with appends so the lazy rebuild path
                // (index stale after every push) is exercised too.
                if rng.gen_range(0..8) == 0 {
                    let from = SimTime::from_ps(rng.gen_range(0u64..4_000));
                    let to = SimTime::from_ps(rng.gen_range(0u64..4_000));
                    assert_eq!(
                        f.occupancy_in(from, to),
                        f.occupancy_in_sweep(from, to),
                        "round {round} mid-build window [{from}, {to})"
                    );
                }
            }
            for _ in 0..60 {
                let from = SimTime::from_ps(rng.gen_range(0u64..4_000));
                let to = SimTime::from_ps(rng.gen_range(0u64..4_000));
                assert_eq!(
                    f.occupancy_in(from, to),
                    f.occupancy_in_sweep(from, to),
                    "round {round} window [{from}, {to})"
                );
            }
            // Degenerate and boundary windows.
            let zero = SimTime::ZERO;
            let far = SimTime::from_ps(1 << 40);
            assert_eq!(f.occupancy_in(far, zero), 0);
            assert_eq!(
                f.occupancy_in(zero, far),
                f.occupancy_in_sweep(zero, far),
                "round {round} full-history window"
            );
        }
    }

    /// Dropping the window entries retired by `w` changes no later
    /// admission that arrives at or after `w`: the same slot dependency,
    /// stall, high watermark and stall totals as an untrimmed clone.
    #[test]
    fn window_trim_keeps_later_admissions_exact() {
        use nearpm_sim::{Region, Resource, TaskGraph};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(19);
        for round in 0..30 {
            let mut g = TaskGraph::new();
            let mut clone = RequestFifo::new(rng.gen_range(1usize..5));
            let mut trimmed = clone.clone();
            let mut w = 0u64;
            for _ in 0..200 {
                if rng.gen_range(0..8) == 0 {
                    w += rng.gen_range(0u64..600);
                    trimmed.retire_window_before(SimTime::from_ps(w));
                }
                let arrival = SimTime::from_ps(w + rng.gen_range(0u64..2_000));
                assert_eq!(
                    trimmed.admit(arrival),
                    clone.admit(arrival),
                    "round {round}"
                );
                let task = g.add(
                    "ndp-issue",
                    Resource::Cpu(0),
                    SimDuration::ZERO,
                    Region::CcOffload,
                    &[],
                );
                let retire = arrival + SimDuration::from_ps(rng.gen_range(0u64..1_500));
                trimmed.record_front_end(task, arrival, retire);
                clone.record_front_end(task, arrival, retire);
            }
            assert_eq!(trimmed.high_watermark(), clone.high_watermark());
            assert_eq!(trimmed.stalls(), clone.stalls());
            assert_eq!(trimmed.stall_time(), clone.stall_time());
            assert!(trimmed.window.len() < clone.window.len(), "round {round}");
            assert!(trimmed.oldest_task() >= clone.oldest_task());
        }
    }

    /// A history trimmed below a floor answers every window starting at or
    /// after the floor like an untrimmed clone, also after more entries
    /// arrive.
    #[test]
    fn trimmed_history_answers_like_an_untrimmed_clone() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        for round in 0..40 {
            let mut clone = RequestFifo::new(rng.gen_range(1usize..6));
            let mut trimmed = clone.clone();
            let mut floor = 0u64;
            for _ in 0..rng.gen_range(1usize..150) {
                if rng.gen_range(0..10) == 0 {
                    floor += rng.gen_range(0u64..500);
                    trimmed.retire_history_before(SimTime::from_ps(floor));
                }
                // Arrivals may still land below the floor: an entry that
                // retires before it is irrelevant to every allowed window.
                let arrival = rng.gen_range(floor.saturating_sub(300)..floor + 2_000);
                let entry = (
                    SimTime::from_ps(arrival),
                    SimTime::from_ps(arrival + rng.gen_range(0u64..400)),
                );
                trimmed.history.push(entry);
                clone.history.push(entry);
                let from = SimTime::from_ps(floor + rng.gen_range(0u64..2_500));
                let to = from + SimDuration::from_ps(rng.gen_range(0u64..2_500));
                assert_eq!(
                    trimmed.occupancy_in(from, to),
                    clone.occupancy_in(from, to),
                    "round {round} window [{from}, {to})"
                );
                assert_eq!(
                    trimmed.admissions_in(from, to),
                    clone.admissions_in(from, to),
                    "round {round} window [{from}, {to})"
                );
            }
            assert!(trimmed.history_len() <= clone.history_len());
        }
    }

    #[test]
    #[should_panic(expected = "is below the history floor")]
    fn history_query_below_its_floor_panics() {
        let mut f = RequestFifo::new(2);
        f.history.push((SimTime::ZERO, SimTime::from_ns(1.0)));
        f.retire_history_before(SimTime::from_ns(5.0));
        f.admissions_in(SimTime::from_ns(4.0), SimTime::from_ns(6.0));
    }

    /// The indexed per-window admission count must agree with the O(m) scan
    /// on randomized histories, and the full-history window must count every
    /// admission exactly once.
    #[test]
    fn indexed_admissions_match_sweep_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(47);
        for round in 0..40 {
            let mut f = RequestFifo::new(rng.gen_range(1usize..6));
            let entries = rng.gen_range(0usize..120);
            for _ in 0..entries {
                let arrival = rng.gen_range(0u64..3_000);
                let len = rng.gen_range(0u64..400);
                f.history
                    .push((SimTime::from_ps(arrival), SimTime::from_ps(arrival + len)));
            }
            for _ in 0..60 {
                let from = SimTime::from_ps(rng.gen_range(0u64..4_000));
                let to = SimTime::from_ps(rng.gen_range(0u64..4_000));
                assert_eq!(
                    f.admissions_in(from, to),
                    f.admissions_in_sweep(from, to),
                    "round {round} window [{from}, {to})"
                );
            }
            assert_eq!(
                f.admissions_in(SimTime::ZERO, SimTime::from_ps(1 << 40)),
                entries,
                "round {round} full-history window"
            );
            assert_eq!(f.admissions_in(SimTime::from_ps(1 << 40), SimTime::ZERO), 0);
        }
    }
}
