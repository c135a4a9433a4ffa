//! The busy-interval timeline behind every reported CPU/NDP figure.
//!
//! A [`TaskGraph`](crate::TaskGraph) schedules each task the moment it is
//! added (`start = max(dep finishes, resource free time)`) and folds the
//! task's busy interval into a [`Timeline`]: the merged CPU-side and
//! NDP-side union [`IntervalSet`]s, a running CPU∩NDP overlap total, and the
//! busy horizon. Reports read these totals in O(1) (`RunReport`'s overlap and,
//! with the graph's per-resource duration sums, per-unit utilization);
//! `fig_timeline` reads windowed NDP busy time off the union set
//! ([`IntervalSet::covered_in`], O(log n)).
//!
//! ## Oracles
//!
//! The `oracle` submodule (compiled under `cfg(test)` or the `oracle`
//! feature) re-derives these numbers from the raw task list, independently
//! of the incremental bookkeeping. Each retained piece backs one gate:
//!
//! * `oracle::aggregate` rebuilds every per-resource merged set, both unions
//!   and their intersection from scratch (`IntervalSet::from_intervals`,
//!   `IntervalSet::intersect`). It is the only schedule reference behind
//!   `NearPmSystem::report_oracle`, so it backs the incremental==oracle
//!   report gates (`tests/incremental_report.rs`, `report_smoke`) and this
//!   module's `prefix_replay_snapshot_matches_oracle_aggregation` test, which
//!   proves the per-resource duration sums equal the merged coverage.
//! * `oracle::compute_timings` and the per-query rescans (`makespan`,
//!   `cpu_busy`, `ndp_busy`, `cpu_ndp_overlap`, `region_time`,
//!   `resource_time`) back `schedule_smoke`'s checksum equality and ≥10× bar
//!   and the `differential_timeline_vs_rescanning_oracle` test.

use crate::resource::Resource;
use crate::time::{SimDuration, SimTime};

/// The index [`slice::partition_point`] returns — the first element for
/// which `pred` is false, given that `pred` holds on a prefix of `slice` —
/// searched from the newest end. It checks the last element first, then
/// steps back in doubling strides and binary-searches inside the last
/// stride, so an answer `d` elements from the end costs O(log d) probes
/// instead of O(log len). The busy lists and union sets it searches grow in
/// roughly increasing simulated time: new intervals land at or near their
/// end however long the run has been going.
pub(crate) fn partition_point_from_back<T>(slice: &[T], mut pred: impl FnMut(&T) -> bool) -> usize {
    // Every element at or after `hi` fails `pred`.
    let mut hi = slice.len();
    let mut stride = 1;
    while hi > 0 {
        let lo = hi.saturating_sub(stride);
        if pred(&slice[lo]) {
            return lo + 1 + slice[lo + 1..hi].partition_point(pred);
        }
        hi = lo;
        stride *= 2;
    }
    0
}

/// A merged set of disjoint, sorted busy intervals with prefix sums of the
/// covered time.
///
/// The live set grows by **incremental insertion**: one interval is merged
/// in place (coalescing with anything it overlaps or touches) and the prefix
/// sums are rebuilt from the first modified index only. An insert that
/// lands `d` intervals from the end costs O(log d) to find (the search
/// starts from the newest end) and O(d) to splice and re-sum. Busy
/// intervals are produced in roughly increasing simulated time, so `d`
/// stays small however many intervals the set holds.
///
/// `retire_before` (reached through
/// [`TaskGraph::retire_busy_before`](crate::TaskGraph::retire_busy_before))
/// drops the intervals that end before a floor and keeps their coverage as
/// the prefix sums' base, so totals and every query at or after the floor
/// answer as before; inserts and queries below the floor panic.
#[derive(Debug, Clone, Default)]
pub struct IntervalSet {
    /// Disjoint intervals sorted by start; no two touch (`end < next start`).
    intervals: Vec<(SimTime, SimTime)>,
    /// `prefix[i]` = total covered time of every interval before
    /// `intervals[i]`, dropped ones included, in ps.
    prefix: Vec<u64>,
    /// Every dropped interval ended before this time.
    floor: SimTime,
}

impl IntervalSet {
    /// Inserts `[start, end)`, coalescing it with every existing interval it
    /// overlaps or touches, and appends to `newly` the sub-intervals that
    /// were **not** previously covered — the coverage delta the timeline's
    /// overlap total is maintained from. The search starts from the newest
    /// end and prefix sums are rebuilt from the first modified index, so the
    /// cost depends on how far from the end the insert lands, not on the
    /// set's size.
    fn insert(&mut self, start: SimTime, end: SimTime, newly: &mut Vec<(SimTime, SimTime)>) {
        if end <= start {
            return;
        }
        self.assert_at_or_above_floor(start);
        if self.prefix.is_empty() {
            // A default-constructed set has no sentinel prefix entry yet.
            self.prefix.push(0);
        }
        // First interval whose end reaches `start` (touching coalesces).
        let i = partition_point_from_back(&self.intervals, |&(_, e)| e < start);
        let mut j = i;
        let mut merged = (start, end);
        let mut cursor = start;
        while j < self.intervals.len() && self.intervals[j].0 <= end {
            let (cs, ce) = self.intervals[j];
            if cs > cursor && cursor < end {
                newly.push((cursor, cs.min(end)));
            }
            cursor = cursor.max(ce);
            merged.0 = merged.0.min(cs);
            merged.1 = merged.1.max(ce);
            j += 1;
        }
        if cursor < end {
            newly.push((cursor, end));
        }
        self.intervals.splice(i..j, std::iter::once(merged));
        // `intervals[..i]` (and so `prefix[..=i]`) are untouched: rebuild the
        // suffix only.
        self.prefix.truncate(i + 1);
        let mut acc = self.prefix[i];
        for &(s, e) in &self.intervals[i..] {
            acc += (e - s).as_ps();
            self.prefix.push(acc);
        }
    }

    /// Drops every interval that ends before `floor`, keeping their covered
    /// time in the prefix sums' base. The kept intervals are the untrimmed
    /// set's suffix, and an interval inserted at or after `floor` never
    /// touches a dropped one, so [`IntervalSet::total`] and every
    /// [`IntervalSet::covered_in`] at or after `floor` answer as they would
    /// have untrimmed. Floors only move forward.
    pub(crate) fn retire_before(&mut self, floor: SimTime) {
        if floor <= self.floor {
            return;
        }
        self.floor = floor;
        let dropped = self.intervals.partition_point(|&(_, end)| end < floor);
        self.intervals.drain(..dropped);
        self.prefix.drain(..dropped);
    }

    /// Panics if `t` lies below the floor of `retire_before`.
    fn assert_at_or_above_floor(&self, t: SimTime) {
        assert!(
            t >= self.floor,
            "busy-interval query at {t} is below the set's floor {}",
            self.floor
        );
    }

    /// The resident merged intervals, sorted by start: every interval
    /// unless `retire_before` dropped some.
    pub fn intervals(&self) -> &[(SimTime, SimTime)] {
        &self.intervals
    }

    /// Total covered time — O(1) from the precomputed prefix sums.
    pub fn total(&self) -> SimDuration {
        SimDuration::from_ps(*self.prefix.last().unwrap_or(&0))
    }

    /// Covered time in `[0, t)` — O(log n) via the prefix sums, O(log d)
    /// for a `t` that `d` intervals end after.
    fn covered_before(&self, t: SimTime) -> SimDuration {
        self.assert_at_or_above_floor(t);
        let k = partition_point_from_back(&self.intervals, |&(s, _)| s < t);
        // `get` keeps a default-constructed (never-inserted) set queryable.
        let mut ps = self.prefix.get(k).copied().unwrap_or(0);
        if k > 0 {
            let (_, end) = self.intervals[k - 1];
            if end > t {
                ps -= (end - t).as_ps();
            }
        }
        SimDuration::from_ps(ps)
    }

    /// Covered time in `[from, to)` — O(log n).
    ///
    /// # Panics
    ///
    /// Panics if `from` or `to` lies below the set's floor (see
    /// [`TaskGraph::retire_busy_before`](crate::TaskGraph::retire_busy_before)).
    pub fn covered_in(&self, from: SimTime, to: SimTime) -> SimDuration {
        self.covered_before(to)
            .saturating_sub(self.covered_before(from))
    }
}

/// The busy-interval timeline of one schedule: the merged CPU-side and
/// NDP-side union sets, the running total of their intersection, and the
/// busy horizon.
///
/// The task graph folds every task into it as the task is added, so a
/// report reads maintained totals instead of re-merging all intervals.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    cpu: IntervalSet,
    ndp: IntervalSet,
    /// Time covered by both unions.
    overlap: SimDuration,
    /// Latest finish of a non-zero-length task.
    horizon: SimTime,
    /// Reusable coverage-delta buffer for [`Timeline::record`].
    scratch: Vec<(SimTime, SimTime)>,
}

impl Timeline {
    /// Folds one busy interval of `resource` into the timeline: the horizon,
    /// the union of the resource's side, and the overlap total. Each newly
    /// covered piece of that union adds its intersection with the other
    /// side; the piece was not covered before, so it is disjoint from what
    /// is already counted — every point of the final intersection is counted
    /// exactly once, at the later of its two union arrivals. Zero-length
    /// intervals record nothing.
    pub(crate) fn record(&mut self, resource: Resource, start: SimTime, finish: SimTime) {
        if finish <= start {
            return;
        }
        self.horizon = self.horizon.max(finish);
        let (side, other) = if resource.is_cpu() {
            (&mut self.cpu, &self.ndp)
        } else if resource.is_ndp() {
            (&mut self.ndp, &self.cpu)
        } else {
            return;
        };
        self.scratch.clear();
        side.insert(start, finish, &mut self.scratch);
        for &(s, e) in &self.scratch {
            self.overlap += other.covered_in(s, e);
        }
    }

    /// Drops both unions' intervals that end before `floor`
    /// (`IntervalSet::retire_before`). The overlap total and the horizon
    /// are running values and stay as they are.
    pub(crate) fn retire_before(&mut self, floor: SimTime) {
        self.cpu.retire_before(floor);
        self.ndp.retire_before(floor);
    }

    /// Union timeline of all CPU threads.
    pub fn cpu(&self) -> &IntervalSet {
        &self.cpu
    }

    /// Union timeline of all NDP resources (units, dispatchers, issue
    /// queues).
    pub fn ndp(&self) -> &IntervalSet {
        &self.ndp
    }

    /// Wall-clock time during which a CPU thread and an NDP resource were
    /// busy simultaneously — the "parallelizable fraction" numerator of
    /// Figure 18. O(1).
    pub fn overlap(&self) -> SimDuration {
        self.overlap
    }

    /// Finish time of the latest non-zero-length task (the busy horizon).
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }
}

/// From-scratch reference aggregations of a task graph, independent of the
/// incremental bookkeeping (see the module docs for the gate each one
/// backs). Compiled under `cfg(test)` or the `oracle` cargo feature.
///
/// [`oracle::compute_timings`] re-derives timings with the *in-order*
/// recurrence, so it reproduces graphs built with
/// [`TaskGraph::add`](crate::TaskGraph::add) only; graphs containing
/// arrival-ordered tasks are outside its contract — for those, the graph's
/// incrementally maintained timings are authoritative.
#[cfg(any(test, feature = "oracle"))]
pub mod oracle {
    use super::IntervalSet;
    use crate::hash::FxHashMap;
    use crate::resource::Resource;
    use crate::task::{Region, TaskGraph};
    use crate::time::{SimDuration, SimTime};

    /// Start/finish assignment for one task.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct TaskTiming {
        /// Scheduled start time.
        pub start: SimTime,
        /// Scheduled finish time.
        pub finish: SimTime,
    }

    impl IntervalSet {
        /// Builds a set from arbitrary (possibly overlapping, unsorted)
        /// intervals. Zero-length intervals are dropped.
        pub fn from_intervals(mut intervals: Vec<(SimTime, SimTime)>) -> Self {
            intervals.retain(|(s, e)| e > s);
            intervals.sort_unstable_by_key(|(s, _)| *s);
            Self::merge_sorted(intervals)
        }

        /// Intersection with another set — linear sweep over both interval
        /// lists, producing a new merged set.
        pub fn intersect(&self, other: &IntervalSet) -> IntervalSet {
            let a = &self.intervals;
            let b = &other.intervals;
            let mut out = Vec::new();
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                let (as_, ae) = a[i];
                let (bs, be) = b[j];
                let start = as_.max(bs);
                let end = ae.min(be);
                if end > start {
                    out.push((start, end));
                }
                if ae <= be {
                    i += 1;
                } else {
                    j += 1;
                }
            }
            Self::merge_sorted(out)
        }

        /// Coalesces start-sorted intervals and computes the prefix sums.
        fn merge_sorted(intervals: Vec<(SimTime, SimTime)>) -> Self {
            let mut merged: Vec<(SimTime, SimTime)> = Vec::with_capacity(intervals.len());
            for (s, e) in intervals {
                match merged.last_mut() {
                    Some((_, last_end)) if s <= *last_end => {
                        if e > *last_end {
                            *last_end = e;
                        }
                    }
                    _ => merged.push((s, e)),
                }
            }
            let mut prefix = Vec::with_capacity(merged.len() + 1);
            let mut acc = 0u64;
            prefix.push(0);
            for (s, e) in &merged {
                acc += (*e - *s).as_ps();
                prefix.push(acc);
            }
            IntervalSet {
                intervals: merged,
                prefix,
                floor: SimTime::ZERO,
            }
        }
    }

    /// A task graph aggregated from scratch by [`aggregate`]: region busy
    /// sums, the makespan, every resource's merged busy set, the CPU/NDP
    /// unions and their intersection.
    #[derive(Debug, Clone)]
    pub struct Schedule {
        makespan: SimDuration,
        region_busy: FxHashMap<Region, SimDuration>,
        per_resource: FxHashMap<Resource, IntervalSet>,
        cpu: IntervalSet,
        ndp: IntervalSet,
        overlap: IntervalSet,
        horizon: SimTime,
    }

    impl Schedule {
        /// End-to-end simulated time (completion of the last task).
        pub fn makespan(&self) -> SimDuration {
            self.makespan
        }

        /// Finish time of the latest busy interval.
        pub fn horizon(&self) -> SimTime {
            self.horizon
        }

        /// Total busy time attributed to a region (summed across resources,
        /// so it can exceed the makespan when work overlaps).
        pub fn region_time(&self, region: Region) -> SimDuration {
            self.region_busy
                .get(&region)
                .copied()
                .unwrap_or(SimDuration::ZERO)
        }

        /// Sum of all crash-consistency region time.
        pub fn crash_consistency_time(&self) -> SimDuration {
            Region::all()
                .into_iter()
                .filter(|r| r.is_crash_consistency())
                .map(|r| self.region_time(r))
                .sum()
        }

        /// Sum of application-logic region time (including the
        /// application's own in-place persists, which the paper counts as
        /// application logic).
        pub fn application_time(&self) -> SimDuration {
            self.region_time(Region::Application) + self.region_time(Region::AppPersist)
        }

        /// Union timeline of all CPU threads.
        pub fn cpu(&self) -> &IntervalSet {
            &self.cpu
        }

        /// Union timeline of all NDP resources.
        pub fn ndp(&self) -> &IntervalSet {
            &self.ndp
        }

        /// Total of the CPU/NDP union intersection.
        pub fn cpu_ndp_overlap(&self) -> SimDuration {
            self.overlap.total()
        }

        /// Fraction of the makespan during which CPU and NDP overlap. Zero
        /// for an empty schedule (guarding the undefined 0/0 case).
        pub fn overlap_fraction(&self) -> f64 {
            if self.makespan.is_zero() {
                return 0.0;
            }
            self.cpu_ndp_overlap().ratio(self.makespan)
        }

        /// Fraction of the horizon covered by `resource`'s merged busy set.
        /// Zero for an empty schedule (guarding the undefined 0/0 case).
        pub fn utilization(&self, resource: Resource) -> f64 {
            if self.horizon == SimTime::ZERO {
                return 0.0;
            }
            match self.per_resource.get(&resource) {
                Some(set) => set.total().ratio(self.horizon.since(SimTime::ZERO)),
                None => 0.0,
            }
        }
    }

    /// One scan over the task list re-deriving every aggregate (region busy
    /// sums, makespan) and re-merging all busy intervals from scratch.
    /// Timings are read from the graph (they are authoritative for
    /// arrival-ordered tasks); everything downstream is rebuilt. This is the
    /// O(n)-per-report recompute path the incremental bookkeeping is
    /// measured against.
    pub fn aggregate(graph: &TaskGraph) -> Schedule {
        let mut region_busy: FxHashMap<Region, SimDuration> = FxHashMap::default();
        // Per-resource busy intervals in insertion order (out of order on an
        // arrival-ordered resource; merging sorts them).
        let mut per_resource: FxHashMap<Resource, Vec<(SimTime, SimTime)>> = FxHashMap::default();
        let mut makespan = SimDuration::ZERO;
        for task in graph.tasks() {
            let start = graph.task_start(task.id);
            let finish = graph.task_finish(task.id);
            *region_busy.entry(task.region).or_insert(SimDuration::ZERO) += task.duration;
            makespan = makespan.max(finish.since(SimTime::ZERO));
            if !task.duration.is_zero() {
                per_resource
                    .entry(task.resource)
                    .or_default()
                    .push((start, finish));
            }
        }
        build(makespan, region_busy, per_resource)
    }

    /// Merges each resource's busy intervals into its own set and into the
    /// CPU or NDP union, then intersects the unions.
    fn build(
        makespan: SimDuration,
        region_busy: FxHashMap<Region, SimDuration>,
        per_resource_raw: FxHashMap<Resource, Vec<(SimTime, SimTime)>>,
    ) -> Schedule {
        let mut cpu_all = Vec::new();
        let mut ndp_all = Vec::new();
        let per_resource: FxHashMap<Resource, IntervalSet> = per_resource_raw
            .into_iter()
            .map(|(r, intervals)| {
                if r.is_cpu() {
                    cpu_all.extend_from_slice(&intervals);
                } else if r.is_ndp() {
                    ndp_all.extend_from_slice(&intervals);
                }
                (r, IntervalSet::from_intervals(intervals))
            })
            .collect();
        let cpu = IntervalSet::from_intervals(cpu_all);
        let ndp = IntervalSet::from_intervals(ndp_all);
        let overlap = cpu.intersect(&ndp);
        let horizon = per_resource
            .values()
            .filter_map(|set| set.intervals.last().map(|&(_, e)| e))
            .max()
            .unwrap_or(SimTime::ZERO);
        Schedule {
            makespan,
            region_busy,
            per_resource,
            cpu,
            ndp,
            overlap,
            horizon,
        }
    }

    /// Recomputes every task's timing with the original scheduling
    /// recurrence (independent of the graph's incremental bookkeeping).
    pub fn compute_timings(graph: &TaskGraph) -> Vec<TaskTiming> {
        let mut timings: Vec<TaskTiming> = Vec::with_capacity(graph.len());
        let mut resource_free: FxHashMap<Resource, SimTime> = FxHashMap::default();
        for task in graph.tasks() {
            let dep_ready = task
                .deps
                .iter()
                .map(|d| timings[d.index()].finish)
                .max()
                .unwrap_or(SimTime::ZERO);
            let free = resource_free
                .get(&task.resource)
                .copied()
                .unwrap_or(SimTime::ZERO);
            let start = dep_ready.max(free);
            let finish = start + task.duration;
            resource_free.insert(task.resource, finish);
            timings.push(TaskTiming { start, finish });
        }
        timings
    }

    /// Sorts and merges intervals in place, returning their total covered
    /// length (the original per-query helper).
    fn merged_length(intervals: &mut Vec<(SimTime, SimTime)>) -> SimDuration {
        if intervals.is_empty() {
            return SimDuration::ZERO;
        }
        intervals.sort_by_key(|(s, _)| *s);
        let mut merged: Vec<(SimTime, SimTime)> = Vec::with_capacity(intervals.len());
        for &(s, e) in intervals.iter() {
            match merged.last_mut() {
                Some((_, last_end)) if s <= *last_end => {
                    if e > *last_end {
                        *last_end = e;
                    }
                }
                _ => merged.push((s, e)),
            }
        }
        let total = merged.iter().map(|(s, e)| *e - *s).sum();
        *intervals = merged;
        total
    }

    /// Total length of the intersection of two sets of *merged, sorted*
    /// intervals.
    fn intersection_length(a: &[(SimTime, SimTime)], b: &[(SimTime, SimTime)]) -> SimDuration {
        let mut i = 0;
        let mut j = 0;
        let mut total = SimDuration::ZERO;
        while i < a.len() && j < b.len() {
            let (as_, ae) = a[i];
            let (bs, be) = b[j];
            let start = as_.max(bs);
            let end = ae.min(be);
            if end > start {
                total += end - start;
            }
            if ae <= be {
                i += 1;
            } else {
                j += 1;
            }
        }
        total
    }

    fn collect<F: Fn(Resource) -> bool>(
        graph: &TaskGraph,
        timings: &[TaskTiming],
        keep: F,
    ) -> Vec<(SimTime, SimTime)> {
        graph
            .tasks()
            .filter(|t| !t.duration.is_zero() && keep(t.resource))
            .map(|t| (timings[t.id.index()].start, timings[t.id.index()].finish))
            .collect()
    }

    /// Makespan: rescan for the latest finish.
    pub fn makespan(timings: &[TaskTiming]) -> SimDuration {
        timings
            .iter()
            .map(|t| t.finish.since(SimTime::ZERO))
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// CPU busy time: rescan the task list, sort, merge.
    pub fn cpu_busy(graph: &TaskGraph, timings: &[TaskTiming]) -> SimDuration {
        let mut v = collect(graph, timings, |r| r.is_cpu());
        merged_length(&mut v)
    }

    /// NDP busy time: rescan the task list, sort, merge.
    pub fn ndp_busy(graph: &TaskGraph, timings: &[TaskTiming]) -> SimDuration {
        let mut v = collect(graph, timings, |r| r.is_ndp());
        merged_length(&mut v)
    }

    /// CPU/NDP overlap: rescan and re-merge both sides, then intersect.
    pub fn cpu_ndp_overlap(graph: &TaskGraph, timings: &[TaskTiming]) -> SimDuration {
        let mut cpu = collect(graph, timings, |r| r.is_cpu());
        let mut ndp = collect(graph, timings, |r| r.is_ndp());
        merged_length(&mut cpu);
        merged_length(&mut ndp);
        intersection_length(&cpu, &ndp)
    }

    /// Per-region busy time: rescan the task list.
    pub fn region_time(graph: &TaskGraph, region: Region) -> SimDuration {
        graph
            .tasks()
            .filter(|t| t.region == region)
            .map(|t| t.duration)
            .sum()
    }

    /// Per-resource busy time: rescan the task list.
    pub fn resource_time(graph: &TaskGraph, resource: Resource) -> SimDuration {
        graph
            .tasks()
            .filter(|t| t.resource == resource)
            .map(|t| t.duration)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::Resource;
    use crate::task::{Region, TaskGraph, TaskId};
    use crate::time::SimDuration;

    fn ns(x: f64) -> SimDuration {
        SimDuration::from_ns(x)
    }

    const CPU: Resource = Resource::Cpu(0);
    const UNIT0: Resource = Resource::NdpUnit { device: 0, unit: 0 };
    const UNIT1: Resource = Resource::NdpUnit { device: 0, unit: 1 };

    #[test]
    fn serial_chain_on_one_resource() {
        let mut g = TaskGraph::new();
        let a = g.add("a", CPU, ns(10.0), Region::Application, &[]);
        let b = g.add("b", CPU, ns(20.0), Region::CcDataMovement, &[a]);
        let _c = g.add("c", CPU, ns(5.0), Region::CcMetadata, &[b]);
        let cc: SimDuration = Region::all()
            .into_iter()
            .filter(|r| r.is_crash_consistency())
            .map(|r| g.region_work(r))
            .sum();
        assert!((g.makespan().as_ns() - 35.0).abs() < 1e-9);
        assert!((cc.as_ns() - 25.0).abs() < 1e-9);
        assert!((g.region_work(Region::Application).as_ns() - 10.0).abs() < 1e-9);
        assert_eq!(g.timeline().overlap(), SimDuration::ZERO);
    }

    #[test]
    fn resource_contention_serializes_independent_tasks() {
        let mut g = TaskGraph::new();
        let _a = g.add("a", CPU, ns(10.0), Region::Application, &[]);
        let _b = g.add("b", CPU, ns(10.0), Region::Application, &[]);
        // Independent but same resource: must serialize.
        assert!((g.makespan().as_ns() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn independent_tasks_on_distinct_units_run_in_parallel() {
        let mut g = TaskGraph::new();
        let _a = g.add("log-a", UNIT0, ns(100.0), Region::CcDataMovement, &[]);
        let _b = g.add("log-b", UNIT1, ns(100.0), Region::CcDataMovement, &[]);
        assert!((g.makespan().as_ns() - 100.0).abs() < 1e-9);
        assert!((g.timeline().ndp().total().as_ns() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn cpu_ndp_overlap_measured() {
        let mut g = TaskGraph::new();
        // NDP copies for 100 ns while the CPU computes for 60 ns concurrently.
        let _n = g.add("ndp-copy", UNIT0, ns(100.0), Region::CcDataMovement, &[]);
        let _c = g.add("cpu-work", CPU, ns(60.0), Region::Application, &[]);
        assert!((g.makespan().as_ns() - 100.0).abs() < 1e-9);
        assert!((g.timeline().overlap().as_ns() - 60.0).abs() < 1e-9);
        assert!((oracle::aggregate(&g).overlap_fraction() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn dependency_across_resources_enforced() {
        let mut g = TaskGraph::new();
        let n = g.add("ndp-log", UNIT0, ns(50.0), Region::CcDataMovement, &[]);
        let u = g.add("cpu-update", CPU, ns(10.0), Region::AppPersist, &[n]);
        assert!((g.task_start(u).as_ns() - 50.0).abs() < 1e-9);
        assert!((g.makespan().as_ns() - 60.0).abs() < 1e-9);
        assert_eq!(g.timeline().overlap(), SimDuration::ZERO);
    }

    #[test]
    fn barriers_do_not_consume_time_but_order() {
        let mut g = TaskGraph::new();
        let a = g.add("a", UNIT0, ns(40.0), Region::CcDataMovement, &[]);
        let b = g.add("b", UNIT1, ns(70.0), Region::CcDataMovement, &[]);
        let j = g.barrier("join", CPU, &[a, b]);
        let c = g.add("commit", CPU, ns(10.0), Region::CcCommit, &[j]);
        assert!((g.task_start(c).as_ns() - 70.0).abs() < 1e-9);
        assert!((g.makespan().as_ns() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn empty_graph_schedules_to_zero() {
        let g = TaskGraph::new();
        assert_eq!(g.makespan(), SimDuration::ZERO);
        assert_eq!(g.timeline().cpu().total(), SimDuration::ZERO);
        assert!(g.timeline().cpu().intervals().is_empty());
        assert_eq!(g.timeline().overlap(), SimDuration::ZERO);
        assert_eq!(g.timeline().horizon(), SimTime::ZERO);
        assert_eq!(g.utilization(CPU), 0.0);
        let full = oracle::aggregate(&g);
        assert_eq!(full.makespan(), SimDuration::ZERO);
        assert_eq!(full.horizon(), SimTime::ZERO);
        assert_eq!(full.utilization(CPU), 0.0);
    }

    /// The tail-first search returns `slice::partition_point`'s answer for
    /// every split position of empty, all-true, all-false and random sorted
    /// slices, and never probes outside the slice.
    #[test]
    fn partition_point_from_back_matches_partition_point() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let check = |slice: &[u64], bound: u64| {
            let want = slice.partition_point(|&x| x < bound);
            let got = partition_point_from_back(slice, |&x| x < bound);
            assert_eq!(got, want, "bound {bound} over {slice:?}");
        };
        check(&[], 0);
        check(&[], 7);
        let mut rng = StdRng::seed_from_u64(3);
        for len in 0..70usize {
            // Uniform slices are all-true or all-false for every bound.
            let flat = vec![5u64; len];
            for bound in [0, 5, 6] {
                check(&flat, bound);
            }
            // Strictly increasing values: every split position 0..=len.
            let strict: Vec<u64> = (0..len as u64).map(|i| 2 * i + 1).collect();
            for bound in 0..=2 * len as u64 + 1 {
                check(&strict, bound);
            }
            // Random sorted values with duplicates.
            let mut random: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..40)).collect();
            random.sort_unstable();
            for bound in 0..=41 {
                check(&random, bound);
            }
        }
        // Long slices, answers near the end and near the front.
        let long: Vec<u64> = (0..100_000).collect();
        for bound in [
            0, 1, 2, 31, 32, 33, 99_000, 99_998, 99_999, 100_000, 200_000,
        ] {
            check(&long, bound);
        }
    }

    #[test]
    fn interval_set_merges_and_sums() {
        let set = IntervalSet::from_intervals(vec![
            (SimTime::from_ns(0.0), SimTime::from_ns(10.0)),
            (SimTime::from_ns(5.0), SimTime::from_ns(15.0)),
            (SimTime::from_ns(20.0), SimTime::from_ns(25.0)),
        ]);
        assert!((set.total().as_ns() - 20.0).abs() < 1e-9);
        assert_eq!(set.intervals().len(), 2);
        assert!((set.covered_before(SimTime::from_ns(12.0)).as_ns() - 12.0).abs() < 1e-9);
        assert!(
            (set.covered_in(SimTime::from_ns(10.0), SimTime::from_ns(22.0))
                .as_ns()
                - 7.0)
                .abs()
                < 1e-9
        );
        assert_eq!(set.intervals().last().unwrap().1, SimTime::from_ns(25.0));
    }

    #[test]
    fn interval_set_intersection() {
        let a = IntervalSet::from_intervals(vec![(SimTime::from_ns(0.0), SimTime::from_ns(10.0))]);
        let b = IntervalSet::from_intervals(vec![
            (SimTime::from_ns(5.0), SimTime::from_ns(7.0)),
            (SimTime::from_ns(9.0), SimTime::from_ns(20.0)),
        ]);
        let both = a.intersect(&b);
        assert!((both.total().as_ns() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn timeline_per_resource_queries() {
        let mut g = TaskGraph::new();
        let a = g.add("a", UNIT0, ns(40.0), Region::CcDataMovement, &[]);
        let _b = g.add("b", UNIT1, ns(10.0), Region::CcDataMovement, &[]);
        let _c = g.add("c", UNIT0, ns(20.0), Region::CcDataMovement, &[a]);
        let _d = g.add("d", CPU, ns(30.0), Region::Application, &[]);
        assert_eq!(g.timeline().horizon(), SimTime::from_ns(60.0));
        assert!((g.utilization(UNIT0) - 1.0).abs() < 1e-9);
        assert!((g.utilization(UNIT1) - 10.0 / 60.0).abs() < 1e-9);
        assert!((g.utilization(CPU) - 0.5).abs() < 1e-9);
        // Unused resource.
        assert!((g.utilization(Resource::Cpu(7))).abs() < 1e-9);
    }

    /// The pipelined front-end shape: decode on the dispatcher, issue on the
    /// per-unit queue, execution on the unit. All three stages are NDP
    /// resources, so the issue queue's busy time must count toward the NDP
    /// union (and the overlap) identically under the timeline and the
    /// rescanning oracle.
    #[test]
    fn issue_queue_counts_as_ndp_in_timeline_and_oracle() {
        let iq = Resource::IssueQueue { device: 0, unit: 0 };
        let mut g = TaskGraph::new();
        let compute = g.add("app-compute", CPU, ns(100.0), Region::Application, &[]);
        let decode = g.add(
            "ndp-decode",
            Resource::Dispatcher(0),
            ns(10.0),
            Region::CcOffload,
            &[],
        );
        let issue = g.add("ndp-issue", iq, ns(25.0), Region::CcOffload, &[decode]);
        let copy = g.add(
            "ndp-copy",
            UNIT0,
            ns(40.0),
            Region::CcDataMovement,
            &[issue],
        );
        let _ = (compute, copy);
        let tl = g.timeline();
        // Dispatcher (10) + issue queue (25) + unit (40) merge into one
        // contiguous NDP busy window.
        assert!((tl.ndp().total().as_ns() - 75.0).abs() < 1e-9);
        assert!((g.utilization(iq) - 0.25).abs() < 1e-9);
        // The CPU compute covers the whole NDP window: full overlap.
        assert!((tl.overlap().as_ns() - 75.0).abs() < 1e-9);
        let timings = oracle::compute_timings(&g);
        assert_eq!(tl.ndp().total(), oracle::ndp_busy(&g, &timings));
        assert_eq!(tl.overlap(), oracle::cpu_ndp_overlap(&g, &timings));
        assert_eq!(
            g.utilization(iq),
            oracle::resource_time(&g, iq).ratio(g.makespan())
        );
    }

    /// Builds a random task graph over a mixed CPU/NDP topology.
    fn random_graph(rng: &mut impl rand::Rng, tasks: usize) -> TaskGraph {
        let resources = [
            Resource::Cpu(0),
            Resource::Cpu(1),
            Resource::NdpUnit { device: 0, unit: 0 },
            Resource::NdpUnit { device: 0, unit: 1 },
            Resource::NdpUnit { device: 1, unit: 0 },
            Resource::IssueQueue { device: 0, unit: 0 },
            Resource::IssueQueue { device: 0, unit: 1 },
            Resource::Dispatcher(0),
            Resource::ControlPath,
        ];
        let regions = Region::all();
        let mut g = TaskGraph::new();
        for i in 0..tasks {
            let resource = resources[rng.gen_range(0..resources.len())];
            let region = regions[rng.gen_range(0..regions.len())];
            // Mix zero-length barriers in.
            let duration = if rng.gen_range(0..8) == 0 {
                SimDuration::ZERO
            } else {
                SimDuration::from_ps(rng.gen_range(1..5_000))
            };
            let mut deps = Vec::new();
            if i > 0 {
                for _ in 0..rng.gen_range(0..3usize) {
                    deps.push(TaskId(rng.gen_range(0..i)));
                }
                deps.sort_unstable();
                deps.dedup();
            }
            g.add("t", resource, duration, region, &deps);
        }
        g
    }

    /// Incremental insertion must be indistinguishable from batch
    /// construction: same merged intervals, same prefix sums, same coverage
    /// deltas as a naive membership recomputation.
    #[test]
    fn incremental_insert_matches_batch_construction() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        for _round in 0..60 {
            let n = rng.gen_range(0usize..60);
            let mut incremental = IntervalSet::default();
            let mut all: Vec<(SimTime, SimTime)> = Vec::new();
            for _ in 0..n {
                let s = SimTime::from_ps(rng.gen_range(0u64..2_000));
                let e = s + SimDuration::from_ps(rng.gen_range(0u64..300));
                let mut fresh = Vec::new();
                incremental.insert(s, e, &mut fresh);
                // The coverage delta equals [s, e) minus what was covered.
                let before = IntervalSet::from_intervals(all.clone());
                let expected: u64 = e
                    .since(s)
                    .as_ps()
                    .saturating_sub(before.covered_in(s, e).as_ps());
                let got: u64 = fresh.iter().map(|&(a, b)| b.since(a).as_ps()).sum();
                assert_eq!(got, expected, "coverage delta for [{s}, {e})");
                for w in fresh.windows(2) {
                    assert!(w[0].1 <= w[1].0, "delta pieces must be disjoint+sorted");
                }
                all.push((s, e));
                let batch = IntervalSet::from_intervals(all.clone());
                assert_eq!(incremental.intervals(), batch.intervals());
                assert_eq!(incremental.total(), batch.total());
                let probe = SimTime::from_ps(rng.gen_range(0u64..2_500));
                assert_eq!(
                    incremental.covered_before(probe),
                    batch.covered_before(probe)
                );
            }
        }
    }

    /// A set trimmed below a floor answers like an untrimmed clone for
    /// every insert and query at or after the floor: the same coverage
    /// deltas, total and windowed coverage, and the clone's intervals minus
    /// those that ended before the floor.
    #[test]
    fn trimmed_interval_set_answers_like_an_untrimmed_clone() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(13);
        for round in 0..40 {
            let mut trimmed = IntervalSet::default();
            let mut clone = IntervalSet::default();
            let mut floor = 0u64;
            for _ in 0..rng.gen_range(1usize..80) {
                if rng.gen_range(0..6) == 0 {
                    floor += rng.gen_range(0u64..600);
                    trimmed.retire_before(SimTime::from_ps(floor));
                }
                let s = SimTime::from_ps(floor + rng.gen_range(0u64..1_500));
                let e = s + SimDuration::from_ps(rng.gen_range(0u64..300));
                let (mut got, mut want) = (Vec::new(), Vec::new());
                trimmed.insert(s, e, &mut got);
                clone.insert(s, e, &mut want);
                assert_eq!(got, want, "round {round}: coverage delta of [{s}, {e})");
                assert_eq!(trimmed.total(), clone.total());
                let f = SimTime::from_ps(floor);
                let kept = clone.intervals().partition_point(|&(_, end)| end < f);
                assert_eq!(trimmed.intervals(), &clone.intervals()[kept..]);
                let from = f + SimDuration::from_ps(rng.gen_range(0u64..2_000));
                let to = from + SimDuration::from_ps(rng.gen_range(0u64..2_000));
                assert_eq!(trimmed.covered_in(from, to), clone.covered_in(from, to));
            }
        }
    }

    #[test]
    #[should_panic(expected = "is below the set's floor")]
    fn interval_set_query_below_its_floor_panics() {
        let mut set = IntervalSet::default();
        set.insert(
            SimTime::from_ns(1.0),
            SimTime::from_ns(2.0),
            &mut Vec::new(),
        );
        set.retire_before(SimTime::from_ns(5.0));
        set.covered_in(SimTime::from_ns(4.0), SimTime::from_ns(6.0));
    }

    /// Prefix replay under all three adders — in-order, arrival-ordered and
    /// pinned markers (some past the last busy interval): at every sampled
    /// prefix the graph's maintained numbers must equal the from-scratch
    /// `oracle::aggregate` — makespan, busy horizon, the CPU/NDP union
    /// intervals, the overlap total, region sums, and every resource's
    /// utilization (duration sum ÷ horizon against merged coverage ÷
    /// horizon, which proves a resource never overlaps itself).
    #[test]
    fn prefix_replay_snapshot_matches_oracle_aggregation() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let in_order: [Resource; 5] = [
            Resource::Cpu(0),
            Resource::Cpu(1),
            Resource::NdpUnit { device: 0, unit: 0 },
            Resource::NdpUnit { device: 1, unit: 1 },
            Resource::ControlPath,
        ];
        let arrival: [Resource; 3] = [
            Resource::Dispatcher(0),
            Resource::IssueQueue { device: 0, unit: 0 },
            Resource::IssueQueue { device: 0, unit: 1 },
        ];
        let every: Vec<Resource> = in_order.iter().chain(&arrival).copied().collect();
        let regions = Region::all();
        let mut rng = StdRng::seed_from_u64(77);
        let mut markers_past_horizon = 0;
        for _round in 0..15 {
            let mut g = TaskGraph::new();
            let tasks = rng.gen_range(1usize..90);
            for i in 0..tasks {
                let region = regions[rng.gen_range(0..regions.len())];
                let duration = if rng.gen_range(0..8) == 0 {
                    SimDuration::ZERO
                } else {
                    SimDuration::from_ps(rng.gen_range(1..4_000))
                };
                let mut deps = Vec::new();
                if i > 0 {
                    for _ in 0..rng.gen_range(0..3usize) {
                        deps.push(TaskId(rng.gen_range(0..i)));
                    }
                    deps.sort_unstable();
                    deps.dedup();
                }
                let roll = rng.gen_range(0..20);
                if roll < 3 {
                    // An arrival marker: inside the busy span, or past the
                    // last busy interval (later tasks depending on it start
                    // no earlier).
                    let horizon = g.timeline().horizon();
                    let at = if roll == 0 {
                        horizon + SimDuration::from_ps(rng.gen_range(1..6_000))
                    } else {
                        SimTime::from_ps(rng.gen_range(0..=horizon.as_ps()))
                    };
                    if at > horizon {
                        markers_past_horizon += 1;
                    }
                    let r = every[rng.gen_range(0..every.len())];
                    g.add_pinned_marker("arrival", r, at, region);
                } else if rng.gen_bool(0.35) {
                    let r = arrival[rng.gen_range(0..arrival.len())];
                    g.add_arrival_ordered("t", r, duration, region, &deps);
                } else {
                    let r = in_order[rng.gen_range(0..in_order.len())];
                    g.add("t", r, duration, region, &deps);
                }
                if rng.gen_range(0..4) != 0 && i != tasks - 1 {
                    continue;
                }
                let full = oracle::aggregate(&g);
                let tl = g.timeline();
                assert_eq!(g.makespan(), full.makespan());
                assert_eq!(tl.horizon(), full.horizon());
                assert_eq!(tl.cpu().intervals(), full.cpu().intervals());
                assert_eq!(tl.ndp().intervals(), full.ndp().intervals());
                assert_eq!(tl.cpu().total(), full.cpu().total());
                assert_eq!(tl.ndp().total(), full.ndp().total());
                assert_eq!(tl.overlap(), full.cpu_ndp_overlap());
                for r in Region::all() {
                    assert_eq!(g.region_work(r), full.region_time(r), "{r:?}");
                }
                for &r in &every {
                    assert_eq!(g.utilization(r), full.utilization(r), "{r}");
                }
            }
        }
        assert!(
            markers_past_horizon > 0,
            "no marker landed past the last busy interval"
        );
    }

    #[test]
    fn differential_timeline_vs_rescanning_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for round in 0..40 {
            let tasks = rng.gen_range(0..120);
            let g = random_graph(&mut rng, tasks);
            let tl = g.timeline();
            let oracle_timings = oracle::compute_timings(&g);

            // Incremental timings match the original recurrence exactly.
            for (i, t) in oracle_timings.iter().enumerate() {
                assert_eq!(g.task_start(TaskId(i)), t.start, "round {round} task {i}");
                assert_eq!(g.task_finish(TaskId(i)), t.finish, "round {round} task {i}");
            }

            // Aggregate answers match the per-query rescans.
            assert_eq!(g.makespan(), oracle::makespan(&oracle_timings));
            assert_eq!(tl.cpu().total(), oracle::cpu_busy(&g, &oracle_timings));
            assert_eq!(tl.ndp().total(), oracle::ndp_busy(&g, &oracle_timings));
            assert_eq!(tl.overlap(), oracle::cpu_ndp_overlap(&g, &oracle_timings));
            for r in Region::all() {
                assert_eq!(g.region_work(r), oracle::region_time(&g, r));
            }

            // Per-resource utilization: duration sum ÷ busy horizon.
            let horizon = tl.horizon().since(SimTime::ZERO);
            for resource in [
                Resource::Cpu(0),
                Resource::Cpu(1),
                Resource::NdpUnit { device: 0, unit: 0 },
                Resource::IssueQueue { device: 0, unit: 0 },
                Resource::Dispatcher(0),
                Resource::ControlPath,
            ] {
                let expected = if horizon.is_zero() {
                    0.0
                } else {
                    oracle::resource_time(&g, resource).ratio(horizon)
                };
                assert_eq!(
                    g.utilization(resource),
                    expected,
                    "round {round} {resource}"
                );
            }
        }
    }
}
