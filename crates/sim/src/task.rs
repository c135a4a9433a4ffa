//! Task-graph construction.
//!
//! Every operation in the system — an application compute burst, a CPU
//! in-place persist, a NearPM DMA copy, a synchronization wait — is lowered
//! to a task bound to one [`Resource`] with an explicit dependency list.
//! A [`TaskGraph`] accumulates these tasks, schedules each one as it is
//! added, and maintains what the reports read: region and resource duration
//! sums, the makespan, and the busy-interval [`Timeline`] of
//! [`crate::schedule`].
//!
//! ## Storage layout
//!
//! Tasks live in a **struct-of-arrays arena**: one parallel vector per field
//! (label, resource, duration, region) plus a single flat dependency pool
//! indexed by per-task offsets. `add` touches each field array once and
//! appends the dependency slice to the shared pool, so building a
//! million-task graph performs no per-task heap allocation (the old layout
//! allocated one `Vec<TaskId>` per task) and the hot scheduling fields stay
//! densely packed. [`TaskRef`] is the borrowed per-task view the accessors
//! hand out.

use std::collections::HashMap;

use crate::resource::Resource;
use crate::schedule::Timeline;
use crate::time::{SimDuration, SimTime};

/// Identifier of a task within one [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub(crate) usize);

impl TaskId {
    /// Index into the graph's task vector.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Accounting category of a task, matching the breakdowns reported by the
/// paper (Figure 1 and Figure 18).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Region {
    /// Application logic: compute and volatile-memory work.
    Application,
    /// In-place persistent updates that the application itself performs.
    AppPersist,
    /// Crash-consistency data movement (log/checkpoint/shadow copies).
    CcDataMovement,
    /// Crash-consistency metadata generation.
    CcMetadata,
    /// Log reset / deletion.
    CcLogReset,
    /// Page-fault handling attributed to checkpointing or shadow paging.
    CcPageFault,
    /// Command issue and offload overhead on the control path.
    CcOffload,
    /// Synchronization: CPU polling, cross-device completion exchange.
    CcSync,
    /// Page-table switch in shadow paging, commit records, etc.
    CcCommit,
}

impl Region {
    /// True if this region is part of crash-consistency overhead (everything
    /// except plain application logic and the application's own in-place
    /// persists).
    pub fn is_crash_consistency(self) -> bool {
        !matches!(self, Region::Application | Region::AppPersist)
    }

    /// Stable short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Region::Application => "application",
            Region::AppPersist => "app-persist",
            Region::CcDataMovement => "data-movement",
            Region::CcMetadata => "metadata",
            Region::CcLogReset => "log-reset",
            Region::CcPageFault => "page-fault",
            Region::CcOffload => "offload",
            Region::CcSync => "sync",
            Region::CcCommit => "commit",
        }
    }

    /// All regions, in report order.
    pub fn all() -> [Region; 9] {
        [
            Region::Application,
            Region::AppPersist,
            Region::CcDataMovement,
            Region::CcMetadata,
            Region::CcLogReset,
            Region::CcPageFault,
            Region::CcOffload,
            Region::CcSync,
            Region::CcCommit,
        ]
    }
}

/// Borrowed view of one task in the graph's struct-of-arrays arena.
///
/// The graph stores task fields in parallel vectors and dependency lists in
/// one flat pool; this view stitches a single task back together without
/// copying (the `deps` slice borrows the pool directly).
#[derive(Debug, Clone, Copy)]
pub struct TaskRef<'a> {
    /// Identifier within the owning graph.
    pub id: TaskId,
    /// Short human-readable label (used in traces and debugging).
    pub label: &'static str,
    /// Resource that executes the task.
    pub resource: Resource,
    /// Execution time once started.
    pub duration: SimDuration,
    /// Tasks that must finish before this one starts.
    pub deps: &'a [TaskId],
    /// Accounting category.
    pub region: Region,
}

/// A directed acyclic graph of tasks.
///
/// Tasks are appended in program order; dependencies may only reference
/// previously added tasks, which makes cycles impossible by construction and
/// lets the scheduler process tasks in insertion order.
///
/// Because the list scheduler processes tasks in exactly this order, a task's
/// start and finish time are fully determined the moment it is added: the
/// graph maintains them **incrementally** (`start = max(dep finishes,
/// resource free time)`). This is what lets the device model dispatch
/// requests to the earliest-available unit *while the graph is being built*,
/// and lets trace events be timestamped eagerly instead of after a separate
/// scheduling pass.
#[derive(Debug, Default, Clone)]
pub struct TaskGraph {
    /// Per-task labels (struct-of-arrays arena, one entry per task).
    labels: Vec<&'static str>,
    /// Per-task executing resource.
    resources: Vec<Resource>,
    /// Per-task execution time.
    durations: Vec<SimDuration>,
    /// Per-task accounting category.
    regions: Vec<Region>,
    /// Start offset of each task's dependency slice in [`TaskGraph::dep_pool`]
    /// (the slice ends at the next task's offset, or at the pool's end for
    /// the last task).
    dep_offsets: Vec<u32>,
    /// Flat dependency arena: every task's dependency list, concatenated in
    /// insertion order.
    dep_pool: Vec<TaskId>,
    /// Incremental start time of each task (same index as the field arrays).
    starts: Vec<SimTime>,
    /// Incremental finish time of each task.
    finishes: Vec<SimTime>,
    /// Time each resource becomes free (max finish among its tasks).
    resource_free: HashMap<Resource, SimTime>,
    /// Busy intervals (sorted by start, disjoint) of resources scheduled in
    /// *arrival order* via [`TaskGraph::add_arrival_ordered`].
    arrival_busy: HashMap<Resource, Vec<(SimTime, SimTime)>>,
    /// Scheduling discipline each resource was first used with (`true` =
    /// arrival-ordered). Mixing disciplines on one resource would silently
    /// schedule overlapping tasks, so it is rejected.
    arrival_ordered: HashMap<Resource, bool>,
    /// Incremental per-region busy sums (every task's duration, including
    /// zero-length barriers, which contribute nothing but create the entry —
    /// matching the oracle aggregation exactly).
    region_busy: HashMap<Region, SimDuration>,
    /// Incremental per-resource busy sums (a resource never overlaps
    /// itself, so each equals the resource's busy time).
    resource_busy: HashMap<Resource, SimDuration>,
    /// Latest task finish (the makespan end), including zero-length tasks.
    max_finish: SimTime,
    /// Incrementally merged busy-interval timeline of the schedule so far.
    timeline: Timeline,
    /// Number of leading tasks whose descriptive columns (labels, resources,
    /// durations, regions, dependencies) were evicted by
    /// [`TaskGraph::retire_tasks_before`]. The timing columns (`starts`,
    /// `finishes`) are kept in full — new tasks may depend on arbitrarily
    /// old ones — so scheduling is unaffected.
    retired: usize,
    /// Dependency-pool entries dropped for retired tasks (`dep_offsets`
    /// values stay absolute; subtract this on access).
    dep_pool_base: usize,
}

impl TaskGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        TaskGraph::default()
    }

    /// Total number of tasks ever added, including retired ones — the
    /// absolute [`TaskId`] space.
    pub fn len(&self) -> usize {
        self.retired + self.labels.len()
    }

    /// True if no task was ever added.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of tasks whose descriptive columns are still resident.
    pub fn resident_tasks(&self) -> usize {
        self.labels.len()
    }

    /// Evicts the descriptive columns (labels, resources, durations,
    /// regions, dependency lists) of tasks with id `< floor`, returning how
    /// many were evicted. The timing columns survive in full, so
    /// [`TaskGraph::task_finish`] / scheduling against old dependencies keep
    /// working; [`TaskGraph::task`] and [`TaskGraph::tasks`] only cover the
    /// live suffix afterwards, so whole-graph rescans
    /// (`schedule::oracle::aggregate`, [`TaskGraph::append`]) must not be
    /// used on a retired graph. All report aggregates are maintained
    /// incrementally and stay exact.
    pub fn retire_tasks_before(&mut self, floor: usize) -> usize {
        let evict = floor.saturating_sub(self.retired).min(self.labels.len());
        if evict == 0 {
            return 0;
        }
        let pool_end = self.dep_pool_base + self.dep_pool.len();
        let cut = self
            .dep_offsets
            .get(evict)
            .map_or(pool_end, |&o| o as usize)
            - self.dep_pool_base;
        self.labels.drain(..evict);
        self.resources.drain(..evict);
        self.durations.drain(..evict);
        self.regions.drain(..evict);
        self.dep_offsets.drain(..evict);
        self.dep_pool.drain(..cut);
        self.dep_pool_base += cut;
        self.retired += evict;
        evict
    }

    /// The dependency slice of task `i` (absolute id) inside the flat arena.
    fn deps_of(&self, i: usize) -> &[TaskId] {
        let rel = i - self.retired;
        let start = self.dep_offsets[rel] as usize - self.dep_pool_base;
        let end = self
            .dep_offsets
            .get(rel + 1)
            .map_or(self.dep_pool.len(), |&o| o as usize - self.dep_pool_base);
        &self.dep_pool[start..end]
    }

    /// Appends one task's fields to the arena (the SoA equivalent of the old
    /// `tasks.push(Task { .. })`).
    fn push_task(
        &mut self,
        label: &'static str,
        resource: Resource,
        duration: SimDuration,
        region: Region,
        deps: &[TaskId],
    ) {
        debug_assert!(self.dep_pool_base + self.dep_pool.len() + deps.len() <= u32::MAX as usize);
        self.dep_offsets
            .push((self.dep_pool_base + self.dep_pool.len()) as u32);
        self.dep_pool.extend_from_slice(deps);
        self.labels.push(label);
        self.resources.push(resource);
        self.durations.push(duration);
        self.regions.push(region);
    }

    /// Folds one just-scheduled task into what the reports read: the
    /// region and resource busy sums, the makespan, and the busy-interval
    /// [`Timeline`]. Called by every adder.
    fn account(
        &mut self,
        resource: Resource,
        duration: SimDuration,
        region: Region,
        start: SimTime,
        finish: SimTime,
    ) {
        *self.region_busy.entry(region).or_insert(SimDuration::ZERO) += duration;
        *self
            .resource_busy
            .entry(resource)
            .or_insert(SimDuration::ZERO) += duration;
        self.max_finish = self.max_finish.max(finish);
        self.timeline.record(resource, start, finish);
    }

    /// Asserts one scheduling discipline per resource. Zero-duration tasks
    /// (barriers) are exempt: they reserve no busy interval, so they cannot
    /// overlap anything.
    fn claim_discipline(&mut self, resource: Resource, arrival_ordered: bool, label: &str) {
        let claimed = self
            .arrival_ordered
            .entry(resource)
            .or_insert(arrival_ordered);
        assert!(
            *claimed == arrival_ordered,
            "task {label:?} schedules {resource} {}-ordered, but the resource is already \
             {}-ordered; mixing disciplines on one resource would overlap tasks",
            if arrival_ordered {
                "arrival"
            } else {
                "insertion"
            },
            if *claimed { "arrival" } else { "insertion" },
        );
    }

    /// Adds a task and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if any dependency refers to a task that has not been added yet,
    /// or if `resource` already carries arrival-ordered tasks
    /// ([`TaskGraph::add_arrival_ordered`]); both indicate a bug in the code
    /// building the graph.
    pub fn add(
        &mut self,
        label: &'static str,
        resource: Resource,
        duration: SimDuration,
        region: Region,
        deps: &[TaskId],
    ) -> TaskId {
        let id = TaskId(self.len());
        for d in deps {
            assert!(
                d.0 < id.0,
                "task dependency {:?} does not precede task {:?}",
                d,
                id
            );
        }
        if !duration.is_zero() {
            self.claim_discipline(resource, false, label);
        }
        let dep_ready = deps
            .iter()
            .map(|d| self.finishes[d.0])
            .max()
            .unwrap_or(SimTime::ZERO);
        let free = self
            .resource_free
            .get(&resource)
            .copied()
            .unwrap_or(SimTime::ZERO);
        let start = dep_ready.max(free);
        let finish = start + duration;
        self.starts.push(start);
        self.finishes.push(finish);
        self.resource_free.insert(resource, finish);
        self.account(resource, duration, region, start, finish);
        self.push_task(label, resource, duration, region, deps);
        id
    }

    /// Adds a task on a resource that serves requests in **arrival order**
    /// rather than insertion order: the task starts at the earliest gap of
    /// `resource` at or after its dependencies are ready, instead of after
    /// every previously inserted task on the resource.
    ///
    /// This models FIFO front-end hardware (the NearPM dispatcher and issue
    /// queues) fed by concurrently executing threads. The graph is built in
    /// *program* order — one thread's whole transaction is appended before
    /// the next thread's — so a command posted late in one transaction is
    /// inserted *before* other threads' commands that arrive earlier in
    /// simulated time. In-order list scheduling would make those earlier
    /// arrivals queue behind it (head-of-line blocking on a nearly idle
    /// resource, the fig20 multithread collapse); arrival-ordered scheduling
    /// lets the resource serve them in the gaps, exactly as the hardware
    /// would, while still never overlapping two tasks on the resource.
    ///
    /// [`TaskGraph::add`] and this method must not be mixed on the same
    /// resource — in-order tasks do not see the arrival-ordered busy
    /// intervals, so mixing would silently overlap tasks. The graph enforces
    /// this: the first non-zero-duration task on a resource claims its
    /// discipline, and the other adder panics afterwards.
    pub fn add_arrival_ordered(
        &mut self,
        label: &'static str,
        resource: Resource,
        duration: SimDuration,
        region: Region,
        deps: &[TaskId],
    ) -> TaskId {
        let id = TaskId(self.len());
        for d in deps {
            assert!(
                d.0 < id.0,
                "task dependency {:?} does not precede task {:?}",
                d,
                id
            );
        }
        if !duration.is_zero() {
            self.claim_discipline(resource, true, label);
        }
        let dep_ready = deps
            .iter()
            .map(|d| self.finishes[d.0])
            .max()
            .unwrap_or(SimTime::ZERO);
        let busy = self.arrival_busy.entry(resource).or_default();
        // Earliest gap at or after `dep_ready` that fits `duration`.
        let mut start = dep_ready;
        let mut i = busy.partition_point(|&(_, end)| end <= start);
        while let Some(&(next_start, next_end)) = busy.get(i) {
            if start + duration <= next_start {
                break;
            }
            start = next_end;
            i += 1;
        }
        let finish = start + duration;
        if !duration.is_zero() {
            busy.insert(i, (start, finish));
        }
        self.starts.push(start);
        self.finishes.push(finish);
        let free = self.resource_free.entry(resource).or_insert(SimTime::ZERO);
        *free = (*free).max(finish);
        self.account(resource, duration, region, start, finish);
        self.push_task(label, resource, duration, region, deps);
        id
    }

    /// Adds a zero-duration marker task pinned at the absolute simulated
    /// time `at`, ignoring resource availability — the open-loop driver's
    /// arrival events. A request generated by an external arrival process
    /// enters the system at its arrival time regardless of what the serving
    /// resources are doing; its first real task then depends on the marker,
    /// so `start = max(arrival, resource free)` — queueing delay becomes
    /// visible instead of being collapsed into back-to-back service.
    ///
    /// The marker reserves no busy interval and claims no scheduling
    /// discipline (like all zero-duration tasks), so it composes with both
    /// in-order and arrival-ordered resources. `resource_free` is only ever
    /// advanced (never rewound) to `at`, matching arrival-ordered semantics.
    pub fn add_pinned_marker(
        &mut self,
        label: &'static str,
        resource: Resource,
        at: SimTime,
        region: Region,
    ) -> TaskId {
        let id = TaskId(self.len());
        self.starts.push(at);
        self.finishes.push(at);
        let free = self.resource_free.entry(resource).or_insert(SimTime::ZERO);
        *free = (*free).max(at);
        self.account(resource, SimDuration::ZERO, region, at, at);
        self.push_task(label, resource, SimDuration::ZERO, region, &[]);
        id
    }

    /// Latest finish time among tasks with id `>= from` — O(len - from) over
    /// the timing columns, which survive [`TaskGraph::retire_tasks_before`].
    /// This is how a driver reads one request's commit-retire time from the
    /// task span the request added, without rescanning the whole graph.
    /// [`SimTime::ZERO`] when the range is empty.
    pub fn max_finish_since(&self, from: usize) -> SimTime {
        self.finishes[from.min(self.finishes.len())..]
            .iter()
            .copied()
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Earliest start time among tasks with id `>= from` (the span
    /// counterpart of [`TaskGraph::max_finish_since`]). [`SimTime::ZERO`]
    /// when the range is empty.
    pub fn min_start_since(&self, from: usize) -> SimTime {
        self.starts[from.min(self.starts.len())..]
            .iter()
            .copied()
            .min()
            .unwrap_or(SimTime::ZERO)
    }

    /// Scheduled start time of a task (list-scheduling semantics, maintained
    /// incrementally as tasks are added).
    pub fn task_start(&self, id: TaskId) -> SimTime {
        self.starts[id.0]
    }

    /// Scheduled finish time of a task.
    pub fn task_finish(&self, id: TaskId) -> SimTime {
        self.finishes[id.0]
    }

    /// The time at which `resource` becomes free: the finish time of the last
    /// task bound to it, or time zero if it has none. This is the signal the
    /// device dispatcher uses to pick the earliest-available unit.
    pub fn resource_available(&self, resource: Resource) -> SimTime {
        self.resource_free
            .get(&resource)
            .copied()
            .unwrap_or(SimTime::ZERO)
    }

    /// Adds a zero-length barrier task on `resource` depending on `deps`.
    ///
    /// Barriers are used to express "wait until all of these finish" without
    /// consuming time, e.g. the commit point waiting on log completions.
    pub fn barrier(&mut self, label: &'static str, resource: Resource, deps: &[TaskId]) -> TaskId {
        self.add(label, resource, SimDuration::ZERO, Region::CcSync, deps)
    }

    /// Iterates over the live (non-retired) tasks in insertion order, as
    /// borrowed views into the struct-of-arrays arena.
    pub fn tasks(&self) -> impl ExactSizeIterator<Item = TaskRef<'_>> + '_ {
        (self.retired..self.len()).map(move |i| self.task(TaskId(i)))
    }

    /// Access one task (a borrowed view; no per-task allocation).
    ///
    /// # Panics
    ///
    /// Panics if the task's descriptive columns were evicted by
    /// [`TaskGraph::retire_tasks_before`].
    pub fn task(&self, id: TaskId) -> TaskRef<'_> {
        let i = id.0;
        assert!(
            i >= self.retired,
            "task {i} was retired (watermark {})",
            self.retired
        );
        let rel = i - self.retired;
        TaskRef {
            id,
            label: self.labels[rel],
            resource: self.resources[rel],
            duration: self.durations[rel],
            deps: self.deps_of(i),
            region: self.regions[rel],
        }
    }

    /// Sum of the durations of tasks in a given region — O(1), maintained as
    /// tasks are added.
    pub fn region_work(&self, region: Region) -> SimDuration {
        self.region_busy
            .get(&region)
            .copied()
            .unwrap_or(SimDuration::ZERO)
    }

    /// End-to-end simulated time of the schedule so far (latest task finish,
    /// including zero-length barriers) — O(1).
    pub fn makespan(&self) -> SimDuration {
        self.max_finish.since(SimTime::ZERO)
    }

    /// The incrementally merged busy-interval timeline of the schedule so
    /// far. Totals are O(1) reads; windowed queries are O(log n).
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Fraction of the busy horizon ([`Timeline::horizon`]) during which
    /// `resource` was busy: its duration sum ÷ the horizon — O(1). The sum
    /// is the resource's busy time because a resource never runs two tasks
    /// at once: in-order tasks start at or after the resource's free time,
    /// arrival-ordered tasks only fill gaps, and mixing the two on one
    /// resource panics. Zero before any busy interval (guarding the
    /// undefined 0/0 case).
    pub fn utilization(&self, resource: Resource) -> f64 {
        let horizon = self.timeline.horizon().since(SimTime::ZERO);
        if horizon.is_zero() {
            return 0.0;
        }
        self.resource_busy
            .get(&resource)
            .map_or(0.0, |busy| busy.ratio(horizon))
    }

    /// Appends another graph, offsetting its task ids, and making its first
    /// tasks additionally depend on `join`. Returns the id offset applied.
    ///
    /// Tasks are replayed through the in-order [`TaskGraph::add`], so the
    /// source graph must not contain arrival-ordered tasks
    /// ([`TaskGraph::add_arrival_ordered`]) — replaying those in-order would
    /// silently re-derive different timings and claim the wrong discipline
    /// for their resources.
    ///
    /// # Panics
    ///
    /// Panics if `other` contains arrival-ordered tasks or has retired its
    /// task columns ([`TaskGraph::retire_tasks_before`]).
    pub fn append(&mut self, other: &TaskGraph, join: &[TaskId]) -> usize {
        assert!(
            other.arrival_ordered.values().all(|&ao| !ao),
            "append replays tasks with in-order scheduling, but the source graph \
             contains arrival-ordered tasks"
        );
        assert!(
            other.retired == 0,
            "append needs every source task, but {} were retired",
            other.retired
        );
        let offset = self.len();
        let mut deps: Vec<TaskId> = Vec::new();
        for i in 0..other.len() {
            let src_deps = other.deps_of(i);
            deps.clear();
            deps.extend(src_deps.iter().map(|d| TaskId(d.0 + offset)));
            if src_deps.is_empty() {
                deps.extend_from_slice(join);
            }
            self.add(
                other.labels[i],
                other.resources[i],
                other.durations[i],
                other.regions[i],
                &deps,
            );
        }
        offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn ns(x: f64) -> SimDuration {
        SimDuration::from_ns(x)
    }

    #[test]
    fn add_tasks_and_query() {
        let mut g = TaskGraph::new();
        assert!(g.is_empty());
        let a = g.add("a", Resource::Cpu(0), ns(10.0), Region::Application, &[]);
        let b = g.add("b", Resource::Cpu(0), ns(5.0), Region::CcDataMovement, &[a]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.task(b).deps, &[a][..]);
        assert!((g.region_work(Region::Application).as_ns() - 10.0).abs() < 1e-9);
        assert!((g.region_work(Region::CcDataMovement).as_ns() - 5.0).abs() < 1e-9);
        assert!(g.region_work(Region::CcSync).is_zero());
    }

    #[test]
    fn soa_arena_round_trips_every_field() {
        let mut g = TaskGraph::new();
        let a = g.add("a", Resource::Cpu(0), ns(1.0), Region::Application, &[]);
        let b = g.add("b", Resource::Cpu(1), ns(2.0), Region::CcMetadata, &[a]);
        let c = g.add("c", Resource::Cpu(0), ns(3.0), Region::CcCommit, &[a, b]);
        let views: Vec<_> = g.tasks().collect();
        assert_eq!(views.len(), 3);
        for (i, t) in views.iter().enumerate() {
            assert_eq!(t.id, TaskId(i));
        }
        assert!(views[0].deps.is_empty());
        assert_eq!(views[1].deps, &[a][..]);
        assert_eq!(views[2].deps, &[a, b][..]);
        assert_eq!(views[2].label, "c");
        assert_eq!(views[2].resource, Resource::Cpu(0));
        assert_eq!(views[2].region, Region::CcCommit);
        assert_eq!(views[2].duration, ns(3.0));
        assert_eq!(g.task(c).deps, &[a, b][..]);
    }

    #[test]
    #[should_panic(expected = "does not precede")]
    fn forward_dependency_panics() {
        let mut g = TaskGraph::new();
        // Fabricate a dependency on a task that does not exist yet.
        g.add(
            "bad",
            Resource::Cpu(0),
            ns(1.0),
            Region::Application,
            &[TaskId(5)],
        );
    }

    #[test]
    fn barrier_has_zero_duration() {
        let mut g = TaskGraph::new();
        let a = g.add("a", Resource::Cpu(0), ns(1.0), Region::Application, &[]);
        let b = g.barrier("join", Resource::Cpu(0), &[a]);
        assert!(g.task(b).duration.is_zero());
        assert_eq!(g.task(b).region, Region::CcSync);
    }

    #[test]
    fn region_classification() {
        assert!(!Region::Application.is_crash_consistency());
        assert!(!Region::AppPersist.is_crash_consistency());
        for r in Region::all() {
            if r != Region::Application && r != Region::AppPersist {
                assert!(r.is_crash_consistency(), "{:?}", r);
            }
            assert!(!r.name().is_empty());
        }
    }

    #[test]
    fn arrival_ordered_tasks_fill_gaps_instead_of_queueing() {
        let disp = Resource::Dispatcher(0);
        let mut g = TaskGraph::new();
        // A command posted late in one thread's transaction…
        let late_issue = g.add(
            "cmd-issue",
            Resource::Cpu(0),
            ns(100.0),
            Region::CcOffload,
            &[],
        );
        let a = g.add_arrival_ordered(
            "ndp-decode",
            disp,
            ns(10.0),
            Region::CcOffload,
            &[late_issue],
        );
        assert_eq!(g.task_start(a), SimTime::from_ns(100.0));
        // …must not delay another thread's command that arrives at time 0:
        // it decodes in the gap before the late arrival.
        let b = g.add_arrival_ordered("ndp-decode", disp, ns(10.0), Region::CcOffload, &[]);
        assert_eq!(g.task_start(b), SimTime::ZERO);
        // A task too long for the gap skips past it.
        let c = g.add_arrival_ordered("ndp-decode", disp, ns(150.0), Region::CcOffload, &[]);
        assert_eq!(g.task_start(c), SimTime::from_ns(110.0));
        // A task that fits the remaining gap exactly uses it.
        let d = g.add_arrival_ordered("ndp-decode", disp, ns(90.0), Region::CcOffload, &[]);
        assert_eq!(g.task_start(d), SimTime::from_ns(10.0));
        // The resource frees at the max finish over all tasks.
        assert_eq!(g.resource_available(disp), SimTime::from_ns(260.0));
    }

    #[test]
    #[should_panic(expected = "mixing disciplines")]
    fn mixing_scheduling_disciplines_on_one_resource_panics() {
        let disp = Resource::Dispatcher(0);
        let mut g = TaskGraph::new();
        g.add_arrival_ordered("ndp-decode", disp, ns(10.0), Region::CcOffload, &[]);
        // The same resource cannot also be scheduled in insertion order —
        // the in-order add would not see the arrival-ordered busy intervals.
        g.add("ndp-dispatch", disp, ns(10.0), Region::CcOffload, &[]);
    }

    #[test]
    fn zero_duration_barriers_are_exempt_from_discipline_claims() {
        let disp = Resource::Dispatcher(0);
        let mut g = TaskGraph::new();
        let a = g.add_arrival_ordered("ndp-decode", disp, ns(10.0), Region::CcOffload, &[]);
        // A zero-length join on the same resource reserves nothing and is
        // allowed from either adder.
        let b = g.barrier("join", disp, &[a]);
        assert_eq!(g.task_start(b), g.task_finish(a));
    }

    #[test]
    fn retiring_task_columns_keeps_scheduling_and_aggregates_exact() {
        let mut g = TaskGraph::new();
        let a = g.add("a", Resource::Cpu(0), ns(10.0), Region::Application, &[]);
        let b = g.add("b", Resource::Cpu(0), ns(5.0), Region::CcDataMovement, &[a]);
        let c = g.add("c", Resource::Cpu(1), ns(2.0), Region::Application, &[a, b]);
        let makespan = g.makespan();
        let app = g.region_work(Region::Application);
        let util = g.utilization(Resource::Cpu(0));

        assert_eq!(g.retire_tasks_before(2), 2);
        assert_eq!(g.resident_tasks(), 1);
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
        // Aggregates are incremental: untouched by retirement.
        assert_eq!(g.makespan(), makespan);
        assert_eq!(g.region_work(Region::Application), app);
        assert_eq!(g.utilization(Resource::Cpu(0)), util);
        // Timing columns survive; new tasks may depend on retired ones.
        assert_eq!(g.task_finish(a).as_ps(), 10_000);
        let d = g.add("d", Resource::Cpu(1), ns(1.0), Region::Application, &[a, c]);
        assert_eq!(g.task_start(d), g.task_finish(c));
        // The live suffix is iterable and keeps absolute ids and deps.
        let live: Vec<_> = g.tasks().map(|t| t.id).collect();
        assert_eq!(live, vec![c, d]);
        assert_eq!(g.task(c).deps, &[a, b][..]);
        // Floors only move forward; stale floors are no-ops.
        assert_eq!(g.retire_tasks_before(1), 0);
        assert_eq!(g.retire_tasks_before(usize::MAX), 2);
        assert_eq!(g.resident_tasks(), 0);
        assert_eq!(g.len(), 4);
    }

    #[test]
    #[should_panic(expected = "was retired")]
    fn retired_task_access_panics() {
        let mut g = TaskGraph::new();
        let a = g.add("a", Resource::Cpu(0), ns(10.0), Region::Application, &[]);
        g.retire_tasks_before(1);
        let _ = g.task(a);
    }

    #[test]
    #[should_panic(expected = "arrival-ordered tasks")]
    fn append_rejects_arrival_ordered_source_graphs() {
        let disp = Resource::Dispatcher(0);
        let mut src = TaskGraph::new();
        src.add_arrival_ordered("ndp-decode", disp, ns(10.0), Region::CcOffload, &[]);
        let mut dst = TaskGraph::new();
        dst.append(&src, &[]);
    }

    #[test]
    fn arrival_ordered_zero_duration_reserves_nothing() {
        let disp = Resource::Dispatcher(0);
        let mut g = TaskGraph::new();
        let a = g.add_arrival_ordered("marker", disp, SimDuration::ZERO, Region::CcSync, &[]);
        let b = g.add_arrival_ordered("decode", disp, ns(10.0), Region::CcOffload, &[]);
        assert_eq!(g.task_start(a), SimTime::ZERO);
        assert_eq!(g.task_start(b), SimTime::ZERO);
    }

    #[test]
    fn pinned_markers_schedule_at_their_absolute_time() {
        let mut g = TaskGraph::new();
        let busy = g.add(
            "work",
            Resource::Cpu(0),
            ns(100.0),
            Region::Application,
            &[],
        );
        // A marker pinned in the middle of the resource's busy period starts
        // exactly there (ignores availability)…
        let m = g.add_pinned_marker(
            "arrival",
            Resource::Cpu(0),
            SimTime::from_ns(40.0),
            Region::Application,
        );
        assert_eq!(g.task_start(m), SimTime::from_ns(40.0));
        assert_eq!(g.task_finish(m), SimTime::from_ns(40.0));
        // …and never rewinds the resource's free time.
        assert_eq!(g.resource_available(Resource::Cpu(0)), g.task_finish(busy));
        // A task depending on the marker starts at max(arrival, free).
        let next = g.add("op", Resource::Cpu(0), ns(10.0), Region::Application, &[m]);
        assert_eq!(g.task_start(next), g.task_finish(busy));
        // A marker past the horizon advances the resource's free time, so a
        // later arrival-gated task waits for its arrival, not the resource.
        let late = g.add_pinned_marker(
            "arrival",
            Resource::Cpu(1),
            SimTime::from_ns(500.0),
            Region::Application,
        );
        let served = g.add(
            "op",
            Resource::Cpu(1),
            ns(10.0),
            Region::Application,
            &[late],
        );
        assert_eq!(g.task_start(served), SimTime::from_ns(500.0));
    }

    #[test]
    fn pinned_markers_compose_with_arrival_ordered_resources() {
        let disp = Resource::Dispatcher(0);
        let mut g = TaskGraph::new();
        let a = g.add_arrival_ordered("ndp-decode", disp, ns(10.0), Region::CcOffload, &[]);
        // Zero-duration markers claim no discipline, so they can pin events
        // onto an arrival-ordered resource too.
        let m = g.add_pinned_marker("arrival", disp, SimTime::from_ns(3.0), Region::CcSync);
        assert_eq!(g.task_start(m), SimTime::from_ns(3.0));
        assert_eq!(g.resource_available(disp), g.task_finish(a));
    }

    #[test]
    fn span_extrema_cover_task_ranges_and_survive_retirement() {
        let mut g = TaskGraph::new();
        let a = g.add("a", Resource::Cpu(0), ns(10.0), Region::Application, &[]);
        let b = g.add("b", Resource::Cpu(1), ns(5.0), Region::Application, &[]);
        let c = g.add("c", Resource::Cpu(0), ns(2.0), Region::Application, &[a, b]);
        assert_eq!(g.max_finish_since(0), g.task_finish(c));
        assert_eq!(g.max_finish_since(c.index()), g.task_finish(c));
        assert_eq!(g.min_start_since(c.index()), g.task_start(c));
        assert_eq!(g.min_start_since(b.index()), SimTime::ZERO);
        // Empty and out-of-range spans are ZERO, not a panic.
        assert_eq!(g.max_finish_since(g.len()), SimTime::ZERO);
        assert_eq!(g.max_finish_since(g.len() + 10), SimTime::ZERO);
        // Timing columns survive retirement, so spans still answer.
        g.retire_tasks_before(g.len());
        assert_eq!(g.max_finish_since(0), g.task_finish(c));
    }

    #[test]
    fn append_offsets_and_joins() {
        let mut base = TaskGraph::new();
        let a = base.add("a", Resource::Cpu(0), ns(3.0), Region::Application, &[]);

        let mut tail = TaskGraph::new();
        let x = tail.add("x", Resource::Cpu(0), ns(2.0), Region::Application, &[]);
        let _y = tail.add("y", Resource::Cpu(0), ns(2.0), Region::Application, &[x]);

        let offset = base.append(&tail, &[a]);
        assert_eq!(offset, 1);
        assert_eq!(base.len(), 3);
        // The appended root now depends on `a`.
        assert_eq!(base.task(TaskId(1)).deps, &[a][..]);
        // The appended second task depends on the offset first task.
        assert_eq!(base.task(TaskId(2)).deps, &[TaskId(1)][..]);
    }
}
