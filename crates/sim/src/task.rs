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

use crate::hash::FxHashMap;
use crate::resource::Resource;
use crate::schedule::{partition_point_from_back, Timeline};
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

    /// Position of this region in [`Region::all`].
    fn index(self) -> usize {
        self as usize
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

/// What the graph tracks per resource.
#[derive(Debug, Clone, Default)]
struct ResourceState {
    /// Time the resource becomes free (max finish among its tasks).
    free: SimTime,
    /// Busy sum of its tasks (a resource never overlaps itself, so this is
    /// the resource's busy time).
    busy: SimDuration,
    /// Scheduling discipline the resource was first used with (`true` =
    /// arrival-ordered). Mixing disciplines on one resource would silently
    /// schedule overlapping tasks, so it is rejected.
    discipline: Option<bool>,
    /// Busy intervals (sorted by start, disjoint) of a resource scheduled in
    /// *arrival order* via [`TaskGraph::add_arrival_ordered`]. Those ending
    /// before the floor of [`TaskGraph::retire_busy_before`] are dropped.
    arrival_busy: Vec<(SimTime, SimTime)>,
}

impl ResourceState {
    /// Asserts one scheduling discipline per resource. Zero-duration tasks
    /// (barriers) are exempt: they reserve no busy interval, so they cannot
    /// overlap anything.
    fn claim_discipline(
        &mut self,
        resource: Resource,
        duration: SimDuration,
        arrival_ordered: bool,
        label: &str,
    ) {
        if duration.is_zero() {
            return;
        }
        let claimed = *self.discipline.get_or_insert(arrival_ordered);
        assert!(
            claimed == arrival_ordered,
            "task {label:?} schedules {resource} {}-ordered, but the resource is already \
             {}-ordered; mixing disciplines on one resource would overlap tasks",
            if arrival_ordered {
                "arrival"
            } else {
                "insertion"
            },
            if claimed { "arrival" } else { "insertion" },
        );
    }
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
    /// Incremental start time of each task at or above the timing floor
    /// (`starts[i]` is task `timing_floor + i`).
    starts: Vec<SimTime>,
    /// Incremental finish time of each task at or above the timing floor.
    finishes: Vec<SimTime>,
    /// Number of leading tasks whose timing entries were evicted by
    /// [`TaskGraph::retire_timings_before`]; reading one panics.
    timing_floor: usize,
    /// Scheduling state of every resource that has carried a task, fetched
    /// once per added task.
    per_resource: FxHashMap<Resource, ResourceState>,
    /// Incremental per-region busy sums, indexed by [`Region::index`].
    region_busy: [SimDuration; 9],
    /// Latest task finish (the makespan end), including zero-length tasks.
    max_finish: SimTime,
    /// Incrementally merged busy-interval timeline of the schedule so far.
    timeline: Timeline,
    /// Number of leading tasks whose descriptive columns (labels, resources,
    /// durations, regions, dependencies) were evicted by
    /// [`TaskGraph::retire_tasks_before`]. Scheduling reads only the timing
    /// columns, so it is unaffected.
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
    /// many were evicted. Scheduling reads only the timing columns, which
    /// [`TaskGraph::retire_timings_before`] trims separately;
    /// [`TaskGraph::task`] and [`TaskGraph::tasks`] only cover the live
    /// suffix afterwards, so whole-graph rescans
    /// (`schedule::oracle::aggregate`) must not be used on a retired graph.
    /// All report aggregates are maintained incrementally and stay exact.
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

    /// Evicts the start and finish times of tasks with id `< floor`,
    /// returning how many were evicted. The caller vouches that no task
    /// below `floor` is ever named again: as a dependency, or to
    /// [`TaskGraph::task_start`], [`TaskGraph::task_finish`],
    /// [`TaskGraph::max_finish_since`] or [`TaskGraph::min_start_since`].
    /// Each of those panics on a task below the floor rather than return a
    /// wrong time. Floors only move forward; a stale floor is a no-op.
    pub fn retire_timings_before(&mut self, floor: usize) -> usize {
        let evict = floor
            .saturating_sub(self.timing_floor)
            .min(self.starts.len());
        self.starts.drain(..evict);
        self.finishes.drain(..evict);
        self.timing_floor += evict;
        evict
    }

    /// Drops every busy interval that ends before `w` from the
    /// arrival-ordered busy lists and from the CPU/NDP union sets, which
    /// keep the dropped coverage as their prefix sums' base. Afterwards the
    /// union sets' windowed queries panic below `w`.
    /// The caller vouches that every task added from now on with a
    /// non-zero duration depends on a task finishing at or after `w`.
    /// Such a task's gap search starts at or after `w`, past every dropped
    /// interval, and its union pieces start there too, so schedules,
    /// totals and the overlap stay exact.
    pub fn retire_busy_before(&mut self, w: SimTime) {
        for state in self.per_resource.values_mut() {
            let dropped = state.arrival_busy.partition_point(|&(_, end)| end < w);
            state.arrival_busy.drain(..dropped);
        }
        self.timeline.retire_before(w);
    }

    /// Number of tasks whose timing entries are still resident.
    pub fn resident_timings(&self) -> usize {
        self.starts.len()
    }

    /// Number of busy intervals resident in the arrival-ordered busy lists.
    pub fn resident_busy_intervals(&self) -> usize {
        self.per_resource
            .values()
            .map(|state| state.arrival_busy.len())
            .sum()
    }

    /// Position of task `i` in the timing columns.
    ///
    /// # Panics
    ///
    /// Panics if `i` is below the timing floor.
    fn timing_index(&self, i: usize) -> usize {
        assert!(
            i >= self.timing_floor,
            "task {i} is below the task floor {}: its timing was evicted",
            self.timing_floor
        );
        i - self.timing_floor
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

    /// Checks that every dependency precedes the task about to be added and
    /// returns the latest dependency finish.
    fn dep_ready(&self, deps: &[TaskId]) -> SimTime {
        let id = TaskId(self.len());
        let mut ready = SimTime::ZERO;
        for d in deps {
            assert!(
                d.0 < id.0,
                "task dependency {:?} does not precede task {:?}",
                d,
                id
            );
            ready = ready.max(self.finishes[self.timing_index(d.0)]);
        }
        ready
    }

    /// Records one just-scheduled task's timing and folds it into what the
    /// reports read: the region sum, the makespan, and the busy-interval
    /// [`Timeline`] (the adder has already updated the resource's state).
    /// Called by every adder, right before [`TaskGraph::push_task`].
    fn account(
        &mut self,
        resource: Resource,
        duration: SimDuration,
        region: Region,
        start: SimTime,
        finish: SimTime,
    ) -> TaskId {
        let id = TaskId(self.len());
        self.starts.push(start);
        self.finishes.push(finish);
        self.region_busy[region.index()] += duration;
        self.max_finish = self.max_finish.max(finish);
        self.timeline.record(resource, start, finish);
        id
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
        let dep_ready = self.dep_ready(deps);
        let state = self.per_resource.entry(resource).or_default();
        state.claim_discipline(resource, duration, false, label);
        let start = dep_ready.max(state.free);
        let finish = start + duration;
        state.free = finish;
        state.busy += duration;
        let id = self.account(resource, duration, region, start, finish);
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
        let dep_ready = self.dep_ready(deps);
        let state = self.per_resource.entry(resource).or_default();
        state.claim_discipline(resource, duration, true, label);
        let busy = &mut state.arrival_busy;
        // Earliest gap at or after `dep_ready` that fits `duration`; new
        // tasks land near the end of the busy list, so search from there.
        let mut start = dep_ready;
        let mut i = partition_point_from_back(busy, |&(_, end)| end <= start);
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
        state.free = state.free.max(finish);
        state.busy += duration;
        let id = self.account(resource, duration, region, start, finish);
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
        let state = self.per_resource.entry(resource).or_default();
        state.free = state.free.max(at);
        let id = self.account(resource, SimDuration::ZERO, region, at, at);
        self.push_task(label, resource, SimDuration::ZERO, region, &[]);
        id
    }

    /// Latest finish time among tasks with id `>= from` — O(len - from) over
    /// the timing columns. This is how a driver reads one request's
    /// commit-retire time from the task span the request added, without
    /// rescanning the whole graph. [`SimTime::ZERO`] when the range is
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if a non-empty range starts below the timing floor.
    pub fn max_finish_since(&self, from: usize) -> SimTime {
        self.finishes[self.span_start(from)..]
            .iter()
            .copied()
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Earliest start time among tasks with id `>= from` (the span
    /// counterpart of [`TaskGraph::max_finish_since`]). [`SimTime::ZERO`]
    /// when the range is empty.
    ///
    /// # Panics
    ///
    /// Panics if a non-empty range starts below the timing floor.
    pub fn min_start_since(&self, from: usize) -> SimTime {
        self.starts[self.span_start(from)..]
            .iter()
            .copied()
            .min()
            .unwrap_or(SimTime::ZERO)
    }

    /// Position in the timing columns of the span of tasks with id `>=
    /// from`: their length when the span is empty.
    fn span_start(&self, from: usize) -> usize {
        if from >= self.len() {
            self.starts.len()
        } else {
            self.timing_index(from)
        }
    }

    /// Scheduled start time of a task (list-scheduling semantics, maintained
    /// incrementally as tasks are added).
    ///
    /// # Panics
    ///
    /// Panics if the task is below the timing floor.
    pub fn task_start(&self, id: TaskId) -> SimTime {
        self.starts[self.timing_index(id.0)]
    }

    /// Scheduled finish time of a task.
    ///
    /// # Panics
    ///
    /// Panics if the task is below the timing floor.
    pub fn task_finish(&self, id: TaskId) -> SimTime {
        self.finishes[self.timing_index(id.0)]
    }

    /// The time at which `resource` becomes free: the finish time of the last
    /// task bound to it, or time zero if it has none. This is the signal the
    /// device dispatcher uses to pick the earliest-available unit.
    pub fn resource_available(&self, resource: Resource) -> SimTime {
        self.per_resource
            .get(&resource)
            .map_or(SimTime::ZERO, |state| state.free)
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
        self.region_busy[region.index()]
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
        self.per_resource
            .get(&resource)
            .map_or(0.0, |state| state.busy.ratio(horizon))
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
            assert_eq!(Region::all()[r.index()], r);
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

    /// Trimming timings below a task floor and busy intervals below a time
    /// `w` changes nothing for tasks that depend on a task finishing at or
    /// after `w`: a trimmed graph schedules every later task, and answers
    /// every total, utilization and windowed query at or after `w`, like an
    /// untrimmed clone, while holding only a suffix of its state.
    #[test]
    fn trimmed_graph_schedules_like_an_untrimmed_clone() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let in_order = [
            Resource::Cpu(0),
            Resource::Cpu(1),
            Resource::NdpUnit { device: 0, unit: 0 },
        ];
        let arrival = [
            Resource::Dispatcher(0),
            Resource::IssueQueue { device: 0, unit: 0 },
            Resource::NdpUnit { device: 0, unit: 1 },
        ];
        let mut rng = StdRng::seed_from_u64(5);
        for round in 0..12 {
            let mut trimmed = TaskGraph::new();
            let mut anchor = trimmed.add(
                "anchor",
                Resource::Cpu(0),
                ns(1.0),
                Region::Application,
                &[],
            );
            let mut clone = trimmed.clone();
            let mut w = SimTime::ZERO;
            for step in 0..300 {
                let mut deps = vec![anchor];
                let floor = trimmed.timing_floor;
                for _ in 0..rng.gen_range(0..3) {
                    deps.push(TaskId(rng.gen_range(floor..trimmed.len())));
                }
                deps.sort_unstable();
                deps.dedup();
                let duration = SimDuration::from_ps(rng.gen_range(0..3_000));
                let region = Region::all()[rng.gen_range(0..9usize)];
                let id = if rng.gen_bool(0.5) {
                    let r = arrival[rng.gen_range(0..arrival.len())];
                    clone.add_arrival_ordered("t", r, duration, region, &deps);
                    trimmed.add_arrival_ordered("t", r, duration, region, &deps)
                } else {
                    let r = in_order[rng.gen_range(0..in_order.len())];
                    clone.add("t", r, duration, region, &deps);
                    trimmed.add("t", r, duration, region, &deps)
                };
                assert_eq!(
                    trimmed.task_start(id),
                    clone.task_start(id),
                    "round {round}"
                );
                assert_eq!(
                    trimmed.task_finish(id),
                    clone.task_finish(id),
                    "round {round}"
                );
                if step % 25 == 24 {
                    // Every later task depends on the newest task, so it
                    // depends on a task finishing at or after its finish.
                    anchor = id;
                    w = trimmed.task_finish(id);
                    trimmed.retire_timings_before(id.index());
                    trimmed.retire_busy_before(w);
                }
            }
            assert_eq!(trimmed.makespan(), clone.makespan());
            for r in Region::all() {
                assert_eq!(trimmed.region_work(r), clone.region_work(r));
            }
            for &r in in_order.iter().chain(&arrival) {
                assert_eq!(trimmed.utilization(r), clone.utilization(r));
            }
            let (t, c) = (trimmed.timeline(), clone.timeline());
            assert_eq!(t.overlap(), c.overlap());
            assert_eq!(t.horizon(), c.horizon());
            for (ts, cs) in [(t.cpu(), c.cpu()), (t.ndp(), c.ndp())] {
                assert_eq!(ts.total(), cs.total());
                let kept = cs.intervals().partition_point(|&(_, end)| end < w);
                assert_eq!(ts.intervals(), &cs.intervals()[kept..]);
                for _ in 0..50 {
                    let from = w + SimDuration::from_ps(rng.gen_range(0..20_000));
                    let to = from + SimDuration::from_ps(rng.gen_range(0..20_000));
                    assert_eq!(ts.covered_in(from, to), cs.covered_in(from, to));
                }
            }
            let from = trimmed.timing_floor;
            assert!(from > 0 && trimmed.resident_timings() == trimmed.len() - from);
            assert_eq!(trimmed.max_finish_since(from), clone.max_finish_since(from));
            assert_eq!(trimmed.min_start_since(from), clone.min_start_since(from));
            assert!(trimmed.resident_busy_intervals() < clone.resident_busy_intervals());
        }
    }

    #[test]
    #[should_panic(expected = "task 1 is below the task floor 2")]
    fn dependency_below_the_task_floor_panics() {
        let mut g = TaskGraph::new();
        let _a = g.add("a", Resource::Cpu(0), ns(1.0), Region::Application, &[]);
        let b = g.add("b", Resource::Cpu(0), ns(1.0), Region::Application, &[]);
        let _c = g.add("c", Resource::Cpu(0), ns(1.0), Region::Application, &[]);
        assert_eq!(g.retire_timings_before(2), 2);
        g.add("d", Resource::Cpu(0), ns(1.0), Region::Application, &[b]);
    }

    #[test]
    fn timing_reads_below_the_task_floor_panic() {
        let mut g = TaskGraph::new();
        let a = g.add("a", Resource::Cpu(0), ns(1.0), Region::Application, &[]);
        let b = g.add("b", Resource::Cpu(0), ns(1.0), Region::Application, &[]);
        g.retire_timings_before(b.index());
        assert_eq!(g.task_start(b), SimTime::from_ns(1.0));
        // An empty span past the end still answers ZERO.
        assert_eq!(g.max_finish_since(g.len()), SimTime::ZERO);
        let reads: [&dyn Fn(&TaskGraph); 4] = [
            &|g| {
                g.task_start(a);
            },
            &|g| {
                g.task_finish(a);
            },
            &|g| {
                g.max_finish_since(a.index());
            },
            &|g| {
                g.min_start_since(a.index());
            },
        ];
        for read in reads {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| read(&g)))
                .expect_err("a read below the floor must panic");
            let msg = err.downcast_ref::<String>().expect("a formatted message");
            assert!(msg.contains("task 0 is below the task floor 1"), "{msg}");
        }
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
}
