//! The observe surface of [`NearPmSystem`]: the run report ([`RunReport`],
//! [`LatencySummary`], `report` / `report_with_trace` / `report_oracle`),
//! per-request latency recording, and the trace, task, FIFO and graph
//! counters.

use nearpm_pm::PmTraffic;
use nearpm_ppo::{PpoViolation, Trace};
use nearpm_sim::{FxHashMap, LatencyHistogram, Region, Resource, SimDuration, SimTime, TaskGraph};

use super::NearPmSystem;
use crate::config::ExecMode;

/// Per-request latency summary read off the log-bucketed
/// [`LatencyHistogram`] — present in a [`RunReport`] only when the run
/// tracked latencies
/// ([`SystemConfig::with_latency_tracking`](crate::SystemConfig::with_latency_tracking))
/// and recorded at least one request.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    /// Number of requests recorded.
    pub count: u64,
    /// Median latency (log-bucketed, ≤ 1 % relative error).
    pub p50: SimDuration,
    /// 99th-percentile latency (log-bucketed).
    pub p99: SimDuration,
    /// 99.9th-percentile latency (log-bucketed).
    pub p999: SimDuration,
    /// Exact maximum latency.
    pub max: SimDuration,
    /// Exact mean latency.
    pub mean: SimDuration,
}

impl LatencySummary {
    /// Reads a summary off a histogram; `None` when no latencies were
    /// recorded (so reports of runs that never tracked a request compare
    /// equal to historic ones).
    pub fn from_histogram(h: &LatencyHistogram) -> Option<Self> {
        if h.is_empty() {
            return None;
        }
        Some(LatencySummary {
            count: h.count(),
            p50: h.p50(),
            p99: h.p99(),
            p999: h.p999(),
            max: h.max(),
            mean: h.mean(),
        })
    }
}

/// Summary of one simulated run.
///
/// `PartialEq` compares every field (region map order-independently), which
/// is how the differential tests assert the incremental report path and the
/// oracle recompute produce byte-equal reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Execution mode of the run.
    pub mode: ExecMode,
    /// End-to-end simulated time.
    pub makespan: SimDuration,
    /// Busy time attributed to application logic (incl. its own persists).
    pub app_time: SimDuration,
    /// Busy time attributed to crash-consistency work.
    pub cc_time: SimDuration,
    /// Per-region busy time, keyed by [`Region::name`] (read it by key or
    /// sorted: the map's iteration order carries no meaning).
    pub region_time: FxHashMap<&'static str, SimDuration>,
    /// Wall-clock time during which CPU and NearPM work overlapped.
    pub cpu_ndp_overlap: SimDuration,
    /// Overlap as a fraction of the makespan (Figure 18).
    pub overlap_fraction: f64,
    /// PPO violations detected in the trace (must be empty).
    pub ppo_violations: Vec<PpoViolation>,
    /// Number of NDP persists to NDP-managed addresses that PPO allowed to
    /// be delayed past CPU program order (Invariant 2's relaxation) — the
    /// "relaxed persists" share that quantifies how much ordering freedom
    /// the partitioned model granted this run.
    pub relaxed_persists: usize,
    /// Number of trace events.
    pub trace_events: usize,
    /// Bytes moved by NearPM devices.
    pub ndp_bytes_moved: u64,
    /// Requests executed by NearPM devices.
    pub ndp_requests: u64,
    /// Aggregate PM traffic.
    pub pm_traffic: PmTraffic,
    /// Per NDP-unit utilization `((device, unit), busy/makespan)`, read off
    /// the schedule's merged busy-interval timeline. Balanced values indicate
    /// earliest-available dispatch is spreading work across units.
    pub ndp_unit_utilization: Vec<((usize, usize), f64)>,
    /// Highest request-FIFO occupancy observed on any device, modeled from
    /// the task graph's in-flight front-end window (a request occupies its
    /// slot from arrival until its issue stage hands it to a unit).
    pub fifo_high_watermark: usize,
    /// Total time hosts spent stalled at a full request FIFO, summed over
    /// devices — the backpressure the front-end exerted on the control path.
    pub fifo_stall_time: SimDuration,
    /// Number of requests that stalled at a full FIFO, summed over devices.
    pub fifo_stalls: u64,
    /// Per-request latency summary (`None` unless the run tracked
    /// latencies and recorded at least one request).
    pub request_latency: Option<LatencySummary>,
}

impl RunReport {
    /// Crash-consistency share of total busy time (Figure 1a).
    /// [`f64::NAN`] for an empty run (no busy time at all).
    pub fn cc_fraction(&self) -> f64 {
        let total = self.app_time + self.cc_time;
        self.cc_time.ratio(total)
    }

    /// Elapsed (critical-path) time attributable to crash consistency: the
    /// part of the makespan not covered by application work. In the CPU
    /// baseline this equals the crash-consistency busy time; with NearPM it
    /// shrinks further because offloaded work overlaps with the application.
    /// This is the quantity Figure 15 reports the speedup of.
    pub fn cc_elapsed(&self) -> SimDuration {
        self.makespan.saturating_sub(self.app_time)
    }

    /// Speedup of this run relative to `baseline` on end-to-end time.
    /// [`f64::NAN`] when this run is empty (a speedup over a zero makespan
    /// is undefined, not a 0x slowdown).
    pub fn speedup_over(&self, baseline: &RunReport) -> f64 {
        baseline.makespan.ratio(self.makespan)
    }

    /// Speedup of this run relative to `baseline` within the code regions
    /// that maintain crash consistency (Figure 15). [`f64::NAN`] when this
    /// run spent no elapsed time on crash consistency.
    pub fn cc_speedup_over(&self, baseline: &RunReport) -> f64 {
        baseline.cc_elapsed().ratio(self.cc_elapsed())
    }
}

impl NearPmSystem {
    /// Records one request latency into the per-request histogram (no-op
    /// unless the run tracks latencies).
    pub fn record_request_latency(&mut self, latency: SimDuration) {
        if self.config.track_latency {
            self.latency_hist.record(latency);
        }
    }

    /// Records the closed-loop span latency of every task at index `>=
    /// from` — max finish minus min start over the span, the
    /// admission-to-retire time of the operation those tasks implement.
    /// Pure observation over the timing columns; a compacting report evicts
    /// timings below the oldest task the system holds, so read a span before
    /// the next report. Returns the latency, or `None` when tracking is off
    /// or the span is empty.
    pub fn record_span_latency(&mut self, from: usize) -> Option<SimDuration> {
        if !self.config.track_latency || from >= self.graph.len() {
            return None;
        }
        let latency = self.graph.max_finish_since(from) - self.graph.min_start_since(from);
        self.latency_hist.record(latency);
        Some(latency)
    }

    /// Read-only access to the per-request latency histogram (empty unless
    /// the run tracks latencies).
    pub fn latency_histogram(&self) -> &LatencyHistogram {
        &self.latency_hist
    }

    /// Produces the run report from the system's **incrementally
    /// maintained** observability state. The task graph keeps its region and
    /// resource busy sums, makespan, and merged busy-interval timeline up to
    /// date as tasks are added; trace events carry eager timestamps; and the
    /// cached violation-level checker folds in only the events recorded
    /// since the last report. A report after k new events therefore does
    /// O(k · log n) work — no full re-aggregation, no trace re-walk — which
    /// is what makes continuous mid-run sampling affordable. Sampling never
    /// perturbs the simulated timeline — it only advances the cached
    /// checker — so a sampled run's final report is byte-identical to an
    /// unsampled one's. The retained O(n) recompute path is
    /// `NearPmSystem::report_oracle` (feature `oracle`).
    pub fn report(&mut self) -> RunReport {
        self.build_report()
    }

    /// Like [`NearPmSystem::report`] but also returns a copy of the trace
    /// for further inspection.
    pub fn report_with_trace(&mut self) -> (RunReport, Trace) {
        let report = self.build_report();
        (report, self.trace.trace().clone())
    }

    /// The report fields read straight from live device/media counters —
    /// identical in the incremental and oracle assembly paths by
    /// construction, extracted so a future field cannot desynchronize the
    /// two report shapes. Returns `(ndp_bytes_moved, ndp_requests,
    /// fifo_high_watermark, fifo_stall_time, fifo_stalls)`.
    #[allow(clippy::type_complexity)]
    fn device_report_fields(&self) -> (u64, u64, usize, SimDuration, u64) {
        let (ndp_bytes_moved, ndp_requests) = self.devices.iter().fold((0, 0), |(b, r), d| {
            (b + d.stats().bytes_moved, r + d.stats().requests)
        });
        let (fifo_high_watermark, fifo_stall_time, fifo_stalls) =
            self.devices
                .iter()
                .fold((0, SimDuration::ZERO, 0), |(hw, stall, n), d| {
                    (
                        hw.max(d.fifo_high_watermark()),
                        stall + d.fifo_stall_time(),
                        n + d.fifo_stalls(),
                    )
                });
        (
            ndp_bytes_moved,
            ndp_requests,
            fifo_high_watermark,
            fifo_stall_time,
            fifo_stalls,
        )
    }

    /// Per-unit utilization as `utilization` answers it (shared by both
    /// assembly paths; they differ only in the schedule they read).
    fn unit_utilization(
        &self,
        utilization: impl Fn(Resource) -> f64,
    ) -> Vec<((usize, usize), f64)> {
        let mut out = Vec::new();
        for dev in &self.devices {
            for unit in 0..dev.unit_count() {
                let resource = Resource::NdpUnit {
                    device: dev.id(),
                    unit,
                };
                out.push(((dev.id(), unit), utilization(resource)));
            }
        }
        out
    }

    fn build_report(&mut self) -> RunReport {
        let mut region_time = FxHashMap::default();
        let mut app_time = SimDuration::ZERO;
        let mut cc_time = SimDuration::ZERO;
        for r in Region::all() {
            let t = self.graph.region_work(r);
            if r.is_crash_consistency() {
                cc_time += t;
            } else {
                app_time += t;
            }
            region_time.insert(r.name(), t);
        }
        let makespan = self.graph.makespan();
        let cpu_ndp_overlap = self.graph.timeline().overlap();
        let overlap_fraction = if makespan.is_zero() {
            0.0
        } else {
            cpu_ndp_overlap.ratio(makespan)
        };
        let ndp_unit_utilization = self.unit_utilization(|r| self.graph.utilization(r));
        let (ndp_bytes_moved, ndp_requests, fifo_high_watermark, fifo_stall_time, fifo_stalls) =
            self.device_report_fields();
        let report = RunReport {
            mode: self.config.mode,
            makespan,
            app_time,
            cc_time,
            region_time,
            cpu_ndp_overlap,
            overlap_fraction,
            ppo_violations: self.trace.check(),
            relaxed_persists: self.trace.relaxed_persist_count(),
            trace_events: self.trace.len(),
            ndp_bytes_moved,
            ndp_requests,
            pm_traffic: self.space.traffic(),
            ndp_unit_utilization,
            fifo_high_watermark,
            fifo_stall_time,
            fifo_stalls,
            request_latency: LatencySummary::from_histogram(&self.latency_hist),
        };
        // The checker has just folded every recorded event; drop what no
        // later event can pair with (see `watermark`). Every report does
        // this, compacting or not, so the report == report_oracle gates
        // cover it.
        let w = self.watermark();
        self.trace.retire_below(w);
        if self.config.compact_trace {
            // Every report is a compaction point: the cached checker has
            // just folded the whole trace and never reads a folded event
            // again, so every event is dropped, and the task graph's
            // descriptive columns (never re-read by this incremental report
            // path) are truncated wholesale. The simulator then drops what
            // no later step reads. Every request submitted from now on
            // lands on the control path when its `cmd-issue` task finishes,
            // at or after W, so FIFO-window entries retired by W never
            // decide an admission again; busy intervals that end before W
            // are behind every later task (`watermark`); and timings below
            // the oldest task the system holds are never named again. The
            // report content is unaffected — `trace_events` counts retired
            // and live events — so a compacting run's report stays
            // byte-equal to a non-compacting one's.
            self.trace.compact();
            for dev in &mut self.devices {
                dev.retire_window_before(w);
            }
            let tasks = self.graph.len();
            self.graph.retire_tasks_before(tasks);
            let floor = self.task_floor();
            self.graph.retire_timings_before(floor);
            self.graph.retire_busy_before(w);
        }
        report
    }

    /// The retained O(n)-per-call recompute path: re-aggregates the whole
    /// task list from scratch, re-merging every resource's busy intervals
    /// (`nearpm_sim::schedule::oracle::aggregate`), and folds the whole trace
    /// once through a fresh `IncrementalChecker` (what `nearpm_ppo::check_all`
    /// does), reading both the violation list and the relaxed-persist count
    /// off that one checker.
    /// Differential tests assert the result equals [`NearPmSystem::report`]
    /// at every prefix of a run; the `report_smoke` gate and the
    /// `report_incremental` bench measure the incremental path against it.
    /// Unlike `report`, this does not advance any cached state.
    #[cfg(any(test, feature = "oracle"))]
    pub fn report_oracle(&self) -> RunReport {
        let schedule = nearpm_sim::schedule::oracle::aggregate(&self.graph);
        let mut region_time = FxHashMap::default();
        for r in Region::all() {
            region_time.insert(r.name(), schedule.region_time(r));
        }
        let ndp_unit_utilization = self.unit_utilization(|r| schedule.utilization(r));
        let (ndp_bytes_moved, ndp_requests, fifo_high_watermark, fifo_stall_time, fifo_stalls) =
            self.device_report_fields();
        let mut checker = nearpm_ppo::IncrementalChecker::new();
        RunReport {
            mode: self.config.mode,
            makespan: schedule.makespan(),
            app_time: schedule.application_time(),
            cc_time: schedule.crash_consistency_time(),
            region_time,
            cpu_ndp_overlap: schedule.cpu_ndp_overlap(),
            overlap_fraction: schedule.overlap_fraction(),
            ppo_violations: checker.check(self.trace.trace()),
            relaxed_persists: checker.relaxed_persist_count(self.trace.trace()),
            trace_events: self.trace.len(),
            ndp_bytes_moved,
            ndp_requests,
            pm_traffic: self.space.traffic(),
            ndp_unit_utilization,
            fifo_high_watermark,
            fifo_stall_time,
            fifo_stalls,
            request_latency: LatencySummary::from_histogram(&self.latency_hist),
        }
    }

    /// Total in-flight access records across all devices (diagnostics; the
    /// commit-handle release tests assert this stays bounded over long
    /// runs).
    pub fn inflight_records(&self) -> usize {
        self.devices.iter().map(|d| d.inflight_len()).sum()
    }

    /// Highest modeled request-FIFO occupancy any device reached within the
    /// simulated-time window `[from, to)` — the per-window FIFO series the
    /// `fig_timeline` figure plots next to NDP utilization.
    pub fn fifo_occupancy_in(&self, from: SimTime, to: SimTime) -> usize {
        self.devices
            .iter()
            .map(|d| d.fifo_occupancy_in(from, to))
            .max()
            .unwrap_or(0)
    }

    /// Requests admitted into any device's request FIFO within the
    /// simulated-time window `[from, to)`, summed over devices — the
    /// per-window device arrival count the open-loop driver reports next to
    /// its latency series.
    pub fn fifo_admissions_in(&self, from: SimTime, to: SimTime) -> usize {
        self.devices
            .iter()
            .map(|d| d.fifo_admissions_in(from, to))
            .sum()
    }

    /// Drops every device's FIFO residency history that no window starting
    /// at or after `floor` reads; afterwards [`NearPmSystem::fifo_occupancy_in`]
    /// and [`NearPmSystem::fifo_admissions_in`] panic on a window starting
    /// before `floor`. The open-loop driver calls it on compacting runs once
    /// every window before `floor` is answered.
    pub fn retire_fifo_history_before(&mut self, floor: SimTime) {
        for dev in &mut self.devices {
            dev.retire_fifo_history_before(floor);
        }
    }

    /// FIFO residency-history entries held, summed over devices.
    pub fn fifo_history_len(&self) -> usize {
        self.devices.iter().map(|d| d.fifo_history_len()).sum()
    }

    /// Number of PPO trace events recorded so far (diagnostics; lets
    /// sampling drivers pace themselves by event count without paying for a
    /// report).
    pub fn trace_events(&self) -> usize {
        self.trace.len()
    }

    /// Number of trace events still resident in the live vector (equals
    /// [`NearPmSystem::trace_events`] unless streaming compaction is on).
    pub fn resident_trace_events(&self) -> usize {
        self.trace.resident_events()
    }

    /// Number of trace events evicted by streaming compaction.
    pub fn retired_trace_events(&self) -> usize {
        self.trace.retired_events()
    }

    /// Number of tasks whose descriptive graph columns are still resident
    /// (equals [`NearPmSystem::task_count`] unless compaction is on).
    pub fn resident_tasks(&self) -> usize {
        self.graph.resident_tasks()
    }

    /// Number of tasks in the timing graph (diagnostics).
    pub fn task_count(&self) -> usize {
        self.graph.len()
    }

    /// Read-only access to the timing graph (diagnostics: per-task timings,
    /// per-resource utilization, the busy-interval timeline).
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;

    fn small_config(mode: ExecMode) -> SystemConfig {
        SystemConfig::for_mode(mode).with_capacity(4 << 20)
    }

    #[test]
    fn report_region_accounting() {
        let mut sys = NearPmSystem::new(small_config(ExecMode::CpuBaseline));
        let pool = sys.create_pool("p", 1 << 20).unwrap();
        let a = sys.alloc(pool, 4096, 4096).unwrap();
        let b = sys.alloc(pool, 4096, 4096).unwrap();
        sys.cpu_compute(0, 1000.0).unwrap();
        sys.cpu_copy(0, a, b, 4096, Region::CcDataMovement).unwrap();
        let report = sys.report();
        assert!(report.cc_time > SimDuration::ZERO);
        assert!(report.app_time > SimDuration::ZERO);
        assert!(report.cc_fraction() > 0.0 && report.cc_fraction() < 1.0);
        assert!(report.region_time["data-movement"] > SimDuration::ZERO);
        assert_eq!(report.mode, ExecMode::CpuBaseline);
    }

    #[test]
    fn speedup_helpers() {
        let mut base = NearPmSystem::new(small_config(ExecMode::CpuBaseline));
        let pool = base.create_pool("p", 1 << 20).unwrap();
        let a = base.alloc(pool, 4096, 4096).unwrap();
        let b = base.alloc(pool, 4096, 4096).unwrap();
        base.cpu_copy(0, a, b, 4096, Region::CcDataMovement)
            .unwrap();
        let base_report = base.report();
        assert!((base_report.speedup_over(&base_report) - 1.0).abs() < 1e-9);
        assert!((base_report.cc_speedup_over(&base_report) - 1.0).abs() < 1e-9);
    }

    /// A compacting report must keep the timing of a front-end task a later
    /// admission can still stall on, even when the thread that posted it
    /// has moved far ahead and its handle is released. Thread 1's clock
    /// holds the watermark near zero while its last task is newer than the
    /// offload's issue stage, so the task floor has to come from the
    /// device's FIFO window. The run must schedule like a non-compacting
    /// twin.
    #[test]
    fn compaction_keeps_the_fifo_window_tasks_a_later_admission_waits_for() {
        use crate::batch::OffloadBatch;
        use nearpm_device::NearPmOp;
        use nearpm_pm::AddrRange;
        let run = |compact: bool| {
            let mut sys = NearPmSystem::new(
                SystemConfig::nearpm_sd()
                    .with_capacity(4 << 20)
                    .with_cpu_threads(2)
                    .with_fifo_depth(1)
                    .with_trace_compaction(compact),
            );
            let pool = sys.create_pool("p", 1 << 20).unwrap();
            let log = sys.alloc(pool, 16 << 10, 4096).unwrap();
            sys.register_ndp_managed(AddrRange::new(log, 16 << 10));
            let obj = sys.alloc(pool, 4096, 64).unwrap();
            let undo = |slot: u64| NearPmOp::UndoLogCreate {
                src: obj,
                len: 64,
                log_meta: log.offset(slot),
                log_data: log.offset(slot + 64),
                txn_id: 0,
            };
            let mut batch = OffloadBatch::new();
            sys.offload_into(&mut batch, 0, pool, undo(0), &[]).unwrap();
            sys.release_batch(&mut batch);
            sys.cpu_compute(0, 10_000.0).unwrap();
            sys.cpu_compute(1, 1.0).unwrap();
            let first = sys.report();
            sys.offload_into(&mut batch, 1, pool, undo(4096), &[])
                .unwrap();
            sys.release_batch(&mut batch);
            (first, sys.report(), sys.watermark())
        };
        let (first, last, w) = run(true);
        assert_eq!((first.clone(), last.clone(), w), run(false));
        assert_eq!(first.fifo_stalls, 0);
        assert_eq!(
            last.fifo_stalls, 1,
            "thread 1's command must find the FIFO full"
        );
    }

    /// Recording a latency is a no-op unless the run tracks latencies, and a
    /// report carries a summary only once a request was recorded.
    #[test]
    fn latency_summary_needs_tracking_and_a_request() {
        let latency = SimDuration::from_ns(250.0);
        for track in [false, true] {
            let mut sys =
                NearPmSystem::new(small_config(ExecMode::CpuBaseline).with_latency_tracking(track));
            assert_eq!(sys.report().request_latency, None);
            sys.record_request_latency(latency);
            assert_eq!(sys.latency_histogram().count(), u64::from(track));
            let summary = sys.report().request_latency;
            assert_eq!(
                summary.as_ref().map(|s| (s.count, s.max)),
                track.then_some((1, latency))
            );
        }
    }
}
