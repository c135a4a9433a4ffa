//! The NearPM system facade: CPU model, devices, offload path, trace, report.
//!
//! [`NearPmSystem`] is the object applications and crash-consistency
//! mechanisms program against. It couples
//!
//! * a **functional** model — emulated PM ([`PmSpace`]), the CPU write-back
//!   cache, pools, and the NearPM devices that actually move bytes — with
//! * a **timing** model — every operation appends tasks to a [`TaskGraph`]
//!   which is scheduled when the run finishes — and
//! * a **PPO trace** — every memory event is recorded and checked against the
//!   PPO invariants using the timestamps the schedule produced.
//!
//! The same program, run under different [`ExecMode`]s, produces the
//! baseline, NearPM SD, NearPM MD SW-sync, and NearPM MD configurations the
//! paper evaluates.

use std::collections::HashMap;

use nearpm_device::{DeviceConfig, NearPmDevice, NearPmOp, NearPmRequest, ThreadId};
use nearpm_pm::{
    AddrRange, CpuCache, InterleaveConfig, MediaConfig, MediaError, PhysAddr, PmSpace, PmTraffic,
    PoolId, PoolRegistry, VirtAddr,
};
use nearpm_ppo::{Agent, EventKind, Interval, PpoViolation, ProcId, Sharing, Trace};
use nearpm_sim::{
    LatencyHistogram, LatencyModel, Region, Resource, SimDuration, SimTime, TaskGraph, TaskId,
};

use crate::batch::{OffloadBatch, OffloadHandle};
use crate::config::{ExecMode, SystemConfig};
use crate::crashplan::{BoundaryKind, CrashPlan};
use crate::error::{Result, SystemError};
use crate::trace::TraceBuilder;

/// File name of the geometry manifest written by
/// [`NearPmSystem::persist_to`] next to the per-device image files.
pub const MANIFEST_NAME: &str = "manifest.nearpm";

/// Parsed contents of a media manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MediaManifest {
    capacity: u64,
    devices: usize,
    granularity: u64,
    /// Checkpoint epoch counter at the time the manifest was written
    /// (0 when the image predates epochs or none have completed).
    epoch: u64,
}

impl MediaManifest {
    fn parse(text: &str) -> std::result::Result<Self, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some("nearpm-media-manifest v1") => {}
            other => return Err(format!("unsupported manifest header {other:?}")),
        }
        let (mut capacity, mut devices, mut granularity) = (None, None, None);
        let mut epoch = 0;
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once(' ')
                .ok_or_else(|| format!("malformed manifest line {line:?}"))?;
            match key {
                "capacity" => capacity = Some(parse_u64(key, value)?),
                "devices" => devices = Some(parse_u64(key, value)? as usize),
                "granularity" => granularity = Some(parse_u64(key, value)?),
                "epoch" => epoch = parse_u64(key, value)?,
                _ => {} // unknown keys are ignored for forward compatibility
            }
        }
        Ok(MediaManifest {
            capacity: capacity.ok_or("manifest missing capacity")?,
            devices: devices.ok_or("manifest missing devices")?,
            granularity: granularity.ok_or("manifest missing granularity")?,
            epoch,
        })
    }
}

fn parse_u64(key: &str, value: &str) -> std::result::Result<u64, String> {
    value
        .parse()
        .map_err(|e| format!("manifest {key} {value:?}: {e}"))
}

/// Per-request latency summary read off the log-bucketed
/// [`LatencyHistogram`] — present in a [`RunReport`] only when the run
/// tracked latencies ([`SystemConfig::with_latency_tracking`]) and recorded
/// at least one request.
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
    /// Per-region busy time.
    pub region_time: HashMap<&'static str, SimDuration>,
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

/// The simulated NearPM machine.
#[derive(Debug)]
pub struct NearPmSystem {
    config: SystemConfig,
    space: PmSpace,
    pools: PoolRegistry,
    cache: CpuCache,
    devices: Vec<NearPmDevice>,
    graph: TaskGraph,
    cpu_tail: Vec<Option<TaskId>>,
    /// Per-thread pending FIFO backpressure: when a thread's last offload
    /// found a full request FIFO, the front-end task whose retirement frees
    /// its slot. The thread's next CPU task orders after it — a full FIFO
    /// blocks the host's control path, not just the device's decode.
    fifo_stall: Vec<Option<TaskId>>,
    /// Per-thread pending open-loop admission: the zero-duration arrival
    /// marker pinned at the request's absolute arrival time. The thread's
    /// next CPU task orders after it, so service never begins before the
    /// request arrived.
    pending_admission: Vec<Option<TaskId>>,
    /// Per-request latency histogram (populated only when
    /// `config.track_latency`; observation only — never feeds scheduling).
    latency_hist: LatencyHistogram,
    trace: TraceBuilder,
    ndp_managed: Vec<AddrRange>,
    next_txn: u64,
    crashed: bool,
    recovering: bool,
    /// Armed fault-injection plan: counts crash boundaries and fires
    /// [`NearPmSystem::crash`] at the configured one.
    crash_plan: Option<CrashPlan>,
    /// Reusable staging buffer for CPU-driven copies (avoids a heap
    /// allocation per `cpu_copy`).
    scratch: Vec<u8>,
    /// Checkpoint epoch counter, mirrored durably into the media manifest
    /// whenever one exists so a reattaching process learns it without
    /// replay.
    checkpoint_epoch: u64,
    /// Directory holding the media manifest, remembered from `persist_to` /
    /// `reopen_from`; epoch updates rewrite the manifest there.
    manifest_dir: Option<std::path::PathBuf>,
}

impl NearPmSystem {
    /// Builds a system from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configured media backend cannot be created (heap media
    /// never fails); use [`NearPmSystem::try_new`] to handle backend errors.
    pub fn new(config: SystemConfig) -> Self {
        Self::try_new(config).expect("media backend construction failed")
    }

    /// Builds a system from a configuration, surfacing media-backend
    /// construction failures as [`SystemError::Media`].
    pub fn try_new(config: SystemConfig) -> Result<Self> {
        let devices_for_interleave = config.devices.max(1);
        let space = PmSpace::with_media(
            config.pm_capacity,
            InterleaveConfig::new(devices_for_interleave, config.interleave_granularity),
            &config.media,
        )?;
        Self::with_space(config, space)
    }

    fn with_space(config: SystemConfig, space: PmSpace) -> Result<Self> {
        let pools = PoolRegistry::new(config.pm_capacity);
        let devices = (0..config.devices)
            .map(|id| {
                NearPmDevice::new(DeviceConfig {
                    id,
                    units: config.units_per_device,
                    fifo_depth: config.fifo_depth,
                    decode_lanes: config.decode_lanes,
                })
            })
            .collect();
        let mut trace = TraceBuilder::new(config.devices.max(1));
        trace.set_workers(config.checker_workers);
        Ok(NearPmSystem {
            cpu_tail: vec![None; config.cpu_threads],
            fifo_stall: vec![None; config.cpu_threads],
            pending_admission: vec![None; config.cpu_threads],
            latency_hist: LatencyHistogram::new(),
            devices,
            space,
            pools,
            cache: CpuCache::new(),
            graph: TaskGraph::new(),
            trace,
            ndp_managed: Vec::new(),
            next_txn: 0,
            crashed: false,
            recovering: false,
            crash_plan: None,
            scratch: Vec::new(),
            checkpoint_epoch: 0,
            manifest_dir: None,
            config,
        })
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Execution mode.
    pub fn mode(&self) -> ExecMode {
        self.config.mode
    }

    /// Latency model in use.
    pub fn latency(&self) -> &LatencyModel {
        &self.config.latency
    }

    /// Number of NearPM devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Allocates a fresh transaction id.
    pub fn next_txn_id(&mut self) -> u64 {
        let id = self.next_txn;
        self.next_txn += 1;
        id
    }

    /// True if a crash has been injected and recovery has not started.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    // ------------------------------------------------------------------
    // Pools and address management
    // ------------------------------------------------------------------

    /// Creates a PM pool and registers its translation with every device
    /// (the `NearPM_init_device` + pool-creation flow).
    pub fn create_pool(&mut self, name: &str, size: u64) -> Result<PoolId> {
        let id = self.pools.create_pool(name, size)?;
        let pool = self.pools.pool(id)?;
        let (virt, phys, len) = (pool.virt_base(), pool.phys_base(), pool.size());
        for dev in &mut self.devices {
            dev.register_pool(id, virt, phys, len);
        }
        Ok(id)
    }

    /// Allocates `len` bytes in a pool.
    pub fn alloc(&mut self, pool: PoolId, len: u64, align: u64) -> Result<VirtAddr> {
        Ok(self.pools.pool_mut(pool)?.alloc(len, align)?)
    }

    /// Frees a pool allocation.
    pub fn free(&mut self, pool: PoolId, addr: VirtAddr) -> Result<()> {
        Ok(self.pools.pool_mut(pool)?.free(addr)?)
    }

    /// Read-only access to the pool registry.
    pub fn pools(&self) -> &PoolRegistry {
        &self.pools
    }

    /// Registers a virtual range as NDP-managed (logs, checkpoints, shadow
    /// pages). Accesses to these ranges are classified accordingly in the
    /// PPO trace and benefit from relaxed persist ordering.
    pub fn register_ndp_managed(&mut self, range: AddrRange) {
        self.ndp_managed.push(range);
    }

    /// Sharing classification of a virtual range.
    pub fn classify(&self, addr: VirtAddr, len: u64) -> Sharing {
        let probe = AddrRange::new(addr, len.max(1));
        if self.ndp_managed.iter().any(|r| r.overlaps(&probe)) {
            Sharing::NdpManaged
        } else {
            Sharing::Shared
        }
    }

    /// The device that owns the physical block backing `addr`.
    pub fn device_of(&self, addr: VirtAddr) -> Result<usize> {
        let phys = self.pools.translate(addr)?;
        Ok(self.space.device_of(phys))
    }

    /// Splits a virtual range into per-device spans `(addr, len, device)`.
    pub fn device_spans(&self, addr: VirtAddr, len: u64) -> Result<Vec<(VirtAddr, u64, usize)>> {
        let phys = self.pools.translate(addr)?;
        let spans = self.space.interleave().split(phys, len);
        let mut out = Vec::with_capacity(spans.len());
        let mut offset = 0u64;
        for s in spans {
            out.push((addr.offset(offset), s.len, s.device));
            offset += s.len;
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // CPU-side execution
    // ------------------------------------------------------------------

    fn check_not_crashed(&self) -> Result<()> {
        if self.crashed {
            Err(SystemError::Crashed)
        } else {
            Ok(())
        }
    }

    fn cpu_resource(&self, thread: usize) -> Resource {
        Resource::Cpu(thread % self.config.cpu_threads)
    }

    fn push_cpu_task(
        &mut self,
        thread: usize,
        label: &'static str,
        duration: SimDuration,
        region: Region,
        extra_deps: &[TaskId],
    ) -> TaskId {
        let thread = thread % self.config.cpu_threads;
        let mut deps: Vec<TaskId> = Vec::with_capacity(extra_deps.len() + 2);
        if let Some(tail) = self.cpu_tail[thread] {
            deps.push(tail);
        }
        if let Some(stall) = self.fifo_stall[thread].take() {
            // The thread stalled at a full request FIFO while posting its
            // previous command; it resumes when the blocking front-end stage
            // retires and frees the slot.
            deps.push(stall);
        }
        if let Some(arrival) = self.pending_admission[thread].take() {
            // Open-loop admission: service of the next request cannot begin
            // before its pinned arrival marker.
            deps.push(arrival);
        }
        deps.extend_from_slice(extra_deps);
        deps.sort_unstable();
        deps.dedup();
        let id = self
            .graph
            .add(label, self.cpu_resource(thread), duration, region, &deps);
        self.cpu_tail[thread] = Some(id);
        id
    }

    /// Earliest simulated time at which `thread`'s CPU resource is free —
    /// the open-loop driver's server-selection key (pick the thread with
    /// the smallest value, ties to the lowest index, for earliest dispatch).
    pub fn cpu_available(&self, thread: usize) -> SimTime {
        self.graph.resource_available(self.cpu_resource(thread))
    }

    /// Admits an open-loop request that arrives at absolute simulated time
    /// `at` on `thread`: pins a zero-duration arrival marker at `at` and
    /// arranges for the thread's *next* CPU task to order after it, so
    /// service never begins before the request arrived (an idle server
    /// waits; a busy server queues the request behind its current work).
    /// Returns the marker's task id — the driver measures the request span
    /// from the marker's index.
    pub fn admit_request_at(&mut self, thread: usize, at: SimTime) -> TaskId {
        let thread = thread % self.config.cpu_threads;
        let id = self.graph.add_pinned_marker(
            "open-loop arrival",
            self.cpu_resource(thread),
            at,
            Region::Application,
        );
        self.pending_admission[thread] = Some(id);
        id
    }

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
    /// Pure observation over the timing columns (which survive trace
    /// compaction in full); returns the latency, or `None` when tracking is
    /// off or the span is empty.
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

    fn host_conflicts(&mut self, phys: PhysAddr, len: u64, is_write: bool) -> Vec<TaskId> {
        let mut deps = Vec::new();
        for dev in &mut self.devices {
            deps.extend(dev.host_access_conflicts(phys, len, is_write));
        }
        deps
    }

    /// Pure application compute (no PM access).
    pub fn cpu_compute(&mut self, thread: usize, ns: f64) -> Result<TaskId> {
        self.check_not_crashed()?;
        let d = self.config.latency.cpu_compute(ns);
        Ok(self.push_cpu_task(thread, "app-compute", d, Region::Application, &[]))
    }

    /// CPU load of `len` bytes from PM.
    pub fn cpu_read(
        &mut self,
        thread: usize,
        addr: VirtAddr,
        len: usize,
        region: Region,
    ) -> Result<Vec<u8>> {
        self.check_not_crashed()?;
        let phys = self.pools.translate(addr)?;
        let deps = self.host_conflicts(phys, len as u64, false);
        let data = self.cache.load_vec(&mut self.space, phys, len);
        let duration = self.config.latency.cpu_pm_read(len as u64);
        let task = self.push_cpu_task(thread, "cpu-read", duration, region, &deps);
        let kind = if self.recovering {
            EventKind::RecoveryRead
        } else {
            EventKind::Read
        };
        let sharing = self.classify(addr, len as u64);
        self.trace.record(
            &self.graph,
            Agent::Cpu,
            kind,
            Interval::new(addr.raw(), len as u64),
            sharing,
            None,
            None,
            Some(task),
        );
        Ok(data)
    }

    /// CPU store of `data` at `addr` (visible, not yet persistent).
    pub fn cpu_write(
        &mut self,
        thread: usize,
        addr: VirtAddr,
        data: &[u8],
        region: Region,
    ) -> Result<TaskId> {
        self.check_not_crashed()?;
        let phys = self.pools.translate(addr)?;
        let deps = self.host_conflicts(phys, data.len() as u64, true);
        self.cache.store(&mut self.space, phys, data);
        let duration = SimDuration::from_ns(self.config.latency.llc_latency_ns)
            + SimDuration::from_transfer(data.len() as u64, self.config.latency.cpu_pm_write_gbps);
        let task = self.push_cpu_task(thread, "cpu-write", duration, region, &deps);
        let sharing = self.classify(addr, data.len() as u64);
        self.trace.record(
            &self.graph,
            Agent::Cpu,
            EventKind::Write,
            Interval::new(addr.raw(), data.len() as u64),
            sharing,
            None,
            None,
            Some(task),
        );
        Ok(task)
    }

    /// Persist barrier over `addr..addr+len`: write back dirty lines + fence.
    pub fn cpu_persist(
        &mut self,
        thread: usize,
        addr: VirtAddr,
        len: u64,
        region: Region,
    ) -> Result<TaskId> {
        self.check_not_crashed()?;
        let phys = self.pools.translate(addr)?;
        self.cache.flush(&mut self.space, phys, len);
        let lines = LatencyModel::cache_lines(len);
        let duration = SimDuration::from_ns(self.config.latency.clwb_issue_ns) * lines
            + SimDuration::from_ns(self.config.latency.clwb_drain_ns)
            + SimDuration::from_ns(self.config.latency.sfence_ns);
        let task = self.push_cpu_task(thread, "cpu-persist", duration, region, &[]);
        let sharing = self.classify(addr, len);
        self.trace.record(
            &self.graph,
            Agent::Cpu,
            EventKind::Persist,
            Interval::new(addr.raw(), len),
            sharing,
            None,
            None,
            Some(task),
        );
        self.note_boundary(BoundaryKind::Persist);
        Ok(task)
    }

    /// Store followed by persist (the common "update in place" step).
    pub fn cpu_write_persist(
        &mut self,
        thread: usize,
        addr: VirtAddr,
        data: &[u8],
        region: Region,
    ) -> Result<TaskId> {
        self.cpu_write(thread, addr, data, region)?;
        self.cpu_persist(thread, addr, data.len() as u64, region)
    }

    /// CPU-driven PM-to-PM copy with persist of the destination. This is the
    /// data-movement core of the CPU baseline's crash-consistency work.
    pub fn cpu_copy(
        &mut self,
        thread: usize,
        src: VirtAddr,
        dst: VirtAddr,
        len: u64,
        region: Region,
    ) -> Result<TaskId> {
        self.check_not_crashed()?;
        let src_phys = self.pools.translate(src)?;
        let dst_phys = self.pools.translate(dst)?;
        let mut deps = self.host_conflicts(src_phys, len, false);
        deps.extend(self.host_conflicts(dst_phys, len, true));
        // Reuse the per-system scratch buffer instead of allocating a fresh
        // vector for every copy.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.resize(len as usize, 0);
        self.cache.load(&mut self.space, src_phys, &mut scratch);
        self.cache.store(&mut self.space, dst_phys, &scratch);
        self.scratch = scratch;
        self.cache.flush(&mut self.space, dst_phys, len);
        let duration = self.config.latency.cpu_pm_copy(len);
        let task = self.push_cpu_task(thread, "cpu-copy", duration, region, &deps);
        let src_sharing = self.classify(src, len);
        let dst_sharing = self.classify(dst, len);
        self.trace.record(
            &self.graph,
            Agent::Cpu,
            EventKind::Read,
            Interval::new(src.raw(), len),
            src_sharing,
            None,
            None,
            Some(task),
        );
        self.trace.record(
            &self.graph,
            Agent::Cpu,
            EventKind::Write,
            Interval::new(dst.raw(), len),
            dst_sharing,
            None,
            None,
            Some(task),
        );
        self.trace.record(
            &self.graph,
            Agent::Cpu,
            EventKind::Persist,
            Interval::new(dst.raw(), len),
            dst_sharing,
            None,
            None,
            Some(task),
        );
        self.note_boundary(BoundaryKind::Persist);
        Ok(task)
    }

    /// A CPU-side busy-wait / bookkeeping task attributed to a CC region.
    pub fn cpu_overhead(
        &mut self,
        thread: usize,
        label: &'static str,
        ns: f64,
        region: Region,
    ) -> Result<TaskId> {
        self.check_not_crashed()?;
        Ok(self.push_cpu_task(thread, label, SimDuration::from_ns(ns), region, &[]))
    }

    // ------------------------------------------------------------------
    // Offload path
    // ------------------------------------------------------------------

    /// Posts a crash-consistency primitive to the device owning its payload
    /// and records it in `batch`, optionally adding extra ordering
    /// dependencies (used by the delayed-synchronization commit path). This
    /// is the one posting primitive: a transaction phase posts every one of
    /// its offloads into the batch first, and only then materializes a
    /// completion point over the whole group
    /// ([`NearPmSystem::sw_sync_batch`] /
    /// [`NearPmSystem::delayed_sync_batch`]).
    ///
    /// `extra_deps` are **device-side** ordering constraints: the command is
    /// posted over the control path immediately (the CPU does not wait), and
    /// the device defers the request's issue stage until they complete —
    /// the paper's delayed sync keeps synchronization off the CPU's critical
    /// path by letting the near-memory handler do the waiting.
    pub fn offload_into(
        &mut self,
        batch: &mut OffloadBatch,
        thread: usize,
        pool: PoolId,
        op: NearPmOp,
        extra_deps: &[TaskId],
    ) -> Result<()> {
        self.check_not_crashed()?;
        if self.devices.is_empty() {
            return Err(SystemError::NoDevices);
        }
        // Determine the owning device from the first operand range.
        let primary = op
            .write_ranges()
            .first()
            .map(|(a, _)| *a)
            .or_else(|| op.read_ranges().first().map(|(a, _)| *a));
        let device = match primary {
            Some(addr) => {
                let phys = self.pools.translate(addr)?;
                self.space.device_of(phys) % self.devices.len()
            }
            None => {
                // No operand pins the request to a device: send it to the
                // device whose dispatcher frees first (deterministic ties
                // toward the lowest index), mirroring the units'
                // earliest-available policy.
                (0..self.devices.len())
                    .min_by_key(|&d| (self.graph.resource_available(Resource::Dispatcher(d)), d))
                    .expect("checked non-empty above")
            }
        };

        // Command issue on the CPU (posted MMIO write over the control path;
        // device-side ordering deps do not hold the CPU up).
        let issue = self.push_cpu_task(
            thread,
            "cmd-issue",
            self.config.latency.cmd_issue(),
            Region::CcOffload,
            &[],
        );
        let proc = self.trace.new_proc();
        self.trace.record(
            &self.graph,
            Agent::Cpu,
            EventKind::Offload,
            Interval::new(0, 0),
            Sharing::Shared,
            Some(proc),
            None,
            Some(issue),
        );

        // The CPU-visible side of the data must be written back before the
        // device reads it (Invariant 2 implementation: "writing back all
        // updates to PM on the CPU side before invoking an NDP procedure").
        let read_ranges = op.read_ranges();
        for (addr, len) in &read_ranges {
            let phys = self.pools.translate(*addr)?;
            self.cache.flush(&mut self.space, phys, *len);
        }

        let request = NearPmRequest::new(pool, ThreadId(thread as u32), op);
        let exec = {
            let dev = &mut self.devices[device];
            dev.submit_ordered(
                request,
                &mut self.space,
                &mut self.graph,
                &self.config.latency,
                &[issue],
                extra_deps,
            )?
        };
        if exec.stall_dep.is_some() {
            // The command found the FIFO full: the posting thread is blocked
            // on the control path until the slot frees.
            self.fifo_stall[thread % self.config.cpu_threads] = exec.stall_dep;
        }

        // Record the device-side accesses in the PPO trace. Reads are
        // timestamped at the issue stage (where operand translation and the
        // conflict check complete), writes/persists at the final task.
        for (v, _p, len) in &exec.reads {
            let sharing = self.classify(*v, *len);
            self.trace.record(
                &self.graph,
                Agent::Ndp(device),
                EventKind::Read,
                Interval::new(v.raw(), *len),
                sharing,
                Some(proc),
                None,
                Some(exec.issue),
            );
        }
        for (v, _p, len) in &exec.writes {
            let sharing = self.classify(*v, *len);
            self.trace.record(
                &self.graph,
                Agent::Ndp(device),
                EventKind::Write,
                Interval::new(v.raw(), *len),
                sharing,
                Some(proc),
                None,
                Some(exec.finish),
            );
            self.trace.record(
                &self.graph,
                Agent::Ndp(device),
                EventKind::Persist,
                Interval::new(v.raw(), *len),
                sharing,
                Some(proc),
                None,
                Some(exec.finish),
            );
        }

        batch.push(OffloadHandle {
            proc,
            device,
            request: exec.request,
            finish: exec.finish,
            bytes: exec.bytes_moved,
        });
        self.note_boundary(BoundaryKind::Offload);
        Ok(())
    }

    /// Software (CPU-polling) synchronization over a posted group: the CPU
    /// polls a completion flag on every device the group touched before
    /// proceeding. This is the `NearPM MD SW-sync` commit path. Returns
    /// `None` without adding any task when the group is empty (a phase that
    /// posted nothing needs no completion point).
    pub fn sw_sync_batch(&mut self, thread: usize, batch: &OffloadBatch) -> Result<Option<TaskId>> {
        if batch.is_empty() {
            return Ok(None);
        }
        self.check_not_crashed()?;
        let deps: Vec<TaskId> = batch.handles().iter().map(|h| h.finish).collect();
        let duration = self.config.latency.cpu_poll() * batch.devices().len() as u64;
        let task = self.push_cpu_task(thread, "sw-sync", duration, Region::CcSync, &deps);
        self.record_sync_events(batch, task);
        self.note_boundary(BoundaryKind::Sync);
        Ok(Some(task))
    }

    /// Records the trace side of a synchronization point: one **proc-scoped**
    /// `Sync` event per participating (device, procedure) pair, so Invariant
    /// 3 guarantees exactly the procedures of the synchronized group — a
    /// sync never vouches for unrelated late work, and a participating
    /// procedure's late write can no longer hide behind the unscoped
    /// temporal under-approximation.
    fn record_sync_events(&mut self, batch: &OffloadBatch, task: TaskId) {
        let mut pairs: Vec<(usize, ProcId)> =
            batch.handles().iter().map(|h| (h.device, h.proc)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        let sync = self.trace.new_sync();
        for (device, proc) in pairs {
            self.trace.record(
                &self.graph,
                Agent::Ndp(device),
                EventKind::Sync,
                Interval::new(0, 0),
                Sharing::NdpManaged,
                Some(proc),
                Some(sync),
                Some(task),
            );
        }
    }

    /// Delayed near-memory synchronization over a posted group: the
    /// multi-device handlers exchange completion notifications off the CPU's
    /// critical path. Returns the barrier task that the commit phase's log
    /// deletion / page switch must order after, or `None` without adding any
    /// task when the group is empty.
    pub fn delayed_sync_batch(&mut self, batch: &OffloadBatch) -> Result<Option<TaskId>> {
        if batch.is_empty() {
            return Ok(None);
        }
        self.check_not_crashed()?;
        if self.devices.is_empty() {
            return Err(SystemError::NoDevices);
        }
        let deps: Vec<TaskId> = batch.handles().iter().map(|h| h.finish).collect();
        let anchor = batch.devices()[0];
        // The completion exchange runs near memory on the anchor device's
        // front-end — on the earliest-available issue queue, NOT on the
        // shared dispatcher: a sync waiting for unit work would otherwise
        // head-of-line block every later request's decode behind it, which
        // is exactly the fig20 multithread collapse.
        let units = self.devices[anchor].unit_count().max(1);
        // `min_by_key` keeps the first minimum, so ties break toward the
        // lowest unit index and the choice stays deterministic.
        let sync_resource = (0..units)
            .map(|unit| Resource::IssueQueue {
                device: anchor,
                unit,
            })
            .min_by_key(|r| self.graph.resource_available(*r))
            .expect("a device has at least one unit");
        let task = self.graph.add_arrival_ordered(
            "md-sync",
            sync_resource,
            self.config.latency.notify(),
            Region::CcSync,
            &deps,
        );
        self.record_sync_events(batch, task);
        self.note_boundary(BoundaryKind::Sync);
        Ok(Some(task))
    }

    /// Releases the in-flight ordering records of a whole posted group and
    /// clears it, leaving the batch ready for the next transaction.
    pub fn release_batch(&mut self, batch: &mut OffloadBatch) {
        let emptied = !batch.is_empty();
        for h in batch.handles() {
            if let Some(dev) = self.devices.get_mut(h.device) {
                dev.release_request(h.request);
            }
        }
        batch.clear();
        if emptied {
            self.note_boundary(BoundaryKind::CommitRetire);
        }
    }

    /// Releases the handles in `batch` whose device-side execution has
    /// **retired** — finished no later than every thread's current point in
    /// simulated time — keeping the rest grouped for a later call. Returns
    /// how many were released.
    ///
    /// This is the commit-handle release path: the `CommitLog` offloads a
    /// transaction posts at commit used to be dropped without ever being
    /// released, so their in-flight records accumulated for the whole run.
    /// Releasing at the *next* transaction's begin bounds the table — and
    /// restricting the release to handles that finished no later than the
    /// **minimum over every active thread's** clock keeps the modeled
    /// timing bit-identical: any future consumer of an in-flight record's
    /// conflict dependency (a CPU access of an active thread, or a device
    /// stage reached through some thread's command-issue task) starts at or
    /// after its thread's current time, which is at or after that minimum,
    /// so dropping the record can never move a start time. Threads that
    /// have never issued a task are excluded from the bar — counting them
    /// would pin it at time zero and silently defeat the release in
    /// configurations with idle threads; the corner this concedes (a thread
    /// issuing its *first* task later, at an earlier simulated time, that
    /// conflicts with a released commit record) cannot arise for the
    /// per-thread log arenas the commit batches cover. A still-executing
    /// commit (e.g. one held up by a delayed multi-device sync) keeps its
    /// records until a later begin observes its retirement.
    pub fn release_batch_retired(&mut self, batch: &mut OffloadBatch) -> usize {
        let now = self
            .cpu_tail
            .iter()
            .flatten()
            .map(|&t| self.graph.task_finish(t))
            .min()
            .unwrap_or(SimTime::ZERO);
        let graph = &self.graph;
        let devices = &mut self.devices;
        let mut released = 0;
        batch.retain(|h| {
            if graph.task_finish(h.finish) <= now {
                if let Some(dev) = devices.get_mut(h.device) {
                    dev.release_request(h.request);
                }
                released += 1;
                false
            } else {
                true
            }
        });
        if released > 0 {
            self.note_boundary(BoundaryKind::CommitRetire);
        }
        released
    }

    // ------------------------------------------------------------------
    // Crash and recovery
    // ------------------------------------------------------------------

    /// Records one crash boundary and fires the armed [`CrashPlan`] when it
    /// matches. Called as the **last** action of every boundary primitive:
    /// the primitive's full effect (media mutation, trace events) is already
    /// applied when the crash hits, so the triggering call still returns
    /// `Ok` and every subsequent operation fails with
    /// [`SystemError::Crashed`].
    fn note_boundary(&mut self, kind: BoundaryKind) {
        if self.crashed {
            return;
        }
        if let Some(plan) = self.crash_plan.as_mut() {
            if plan.note(kind) {
                self.crash();
            }
        }
    }

    /// Arms a fault-injection plan. Boundaries are counted from this point
    /// on, so arming *after* setup (pool creation, mkfs-style
    /// initialization) scopes the plan to the workload proper. Arm
    /// [`CrashPlan::count_only`] to enumerate a run's boundaries without
    /// crashing.
    pub fn arm_crash_plan(&mut self, plan: CrashPlan) {
        self.crash_plan = Some(plan);
    }

    /// Disarms and returns the current plan (its counters and fired flag
    /// intact), leaving the system free of fault injection.
    pub fn disarm_crash_plan(&mut self) -> Option<CrashPlan> {
        self.crash_plan.take()
    }

    /// The armed plan, if any (inspect counters without disarming).
    pub fn crash_plan(&self) -> Option<&CrashPlan> {
        self.crash_plan.as_ref()
    }

    /// Injects a failure: **all** volatile state is lost — dirty CPU cache
    /// lines, every device's queued FIFO requests and in-flight access
    /// table, and pending host-side FIFO-stall dependencies. The PM media
    /// survives. Idempotent: crashing an already-crashed system changes
    /// nothing.
    pub fn crash(&mut self) {
        if self.crashed {
            return;
        }
        self.cache.crash();
        for dev in &mut self.devices {
            dev.crash();
        }
        for stall in &mut self.fifo_stall {
            *stall = None;
        }
        for pending in &mut self.pending_admission {
            *pending = None;
        }
        let marker = self.cpu_tail.iter().flatten().copied().max();
        self.trace.record(
            &self.graph,
            Agent::Cpu,
            EventKind::Failure,
            Interval::new(0, 0),
            Sharing::Shared,
            None,
            None,
            marker,
        );
        self.crashed = true;
        self.recovering = false;
    }

    /// Begins recovery after a crash: the system becomes usable again and
    /// subsequent CPU reads are recorded as recovery reads until
    /// [`NearPmSystem::finish_recovery`] is called.
    ///
    /// Returns [`SystemError::NotCrashed`] when the system is running
    /// normally — recovery on a healthy system is a caller bug, not a
    /// silent no-op. Calling it again *while already recovering* is allowed
    /// (recovery code may be re-entered after a crash during recovery).
    pub fn begin_recovery(&mut self) -> Result<()> {
        if !self.crashed && !self.recovering {
            return Err(SystemError::NotCrashed);
        }
        self.crashed = false;
        self.recovering = true;
        Ok(())
    }

    /// Marks recovery complete; subsequent reads are ordinary reads again.
    pub fn finish_recovery(&mut self) {
        self.recovering = false;
    }

    /// Direct read of the persistent image, bypassing the (now empty) CPU
    /// cache — what recovery code sees immediately after a restart.
    pub fn persistent_read(&mut self, addr: VirtAddr, len: usize) -> Result<Vec<u8>> {
        let phys = self.pools.translate(addr)?;
        Ok(self.space.read_vec(phys, len))
    }

    /// Starts recording every media mutation (see
    /// [`nearpm_pm::PmSpace::enable_write_log`]). Call right after
    /// construction so the log is a complete history of the image.
    pub fn enable_media_write_log(&mut self) {
        self.space.enable_write_log();
    }

    /// Number of recorded media mutations (0 when logging is off).
    pub fn media_write_log_len(&self) -> usize {
        self.space.write_log_len()
    }

    /// Differential replay check: true iff replaying the recorded media
    /// write log onto a fresh zeroed space reproduces the current persistent
    /// image byte for byte. False when logging was never enabled.
    pub fn verify_write_log_replay(&self) -> bool {
        self.space.replay_matches()
    }

    /// Digest of the whole persistent image in O(pages written) (see
    /// [`nearpm_pm::PmSpace::content_digest`]): equal images digest equal,
    /// whatever their write history.
    pub fn media_digest(&self) -> u64 {
        self.space.content_digest()
    }

    /// Borrow of one backing device's full media image (diagnostics and the
    /// pipelined-vs-serial differential tests, which assert byte equality of
    /// the whole persistent image).
    pub fn device_media(&self, device: usize) -> &[u8] {
        self.space.device_contents(device)
    }

    /// Number of backing media devices (≥ 1 even in the CPU baseline, where
    /// the PM is still interleaved storage without NearPM logic).
    pub fn media_count(&self) -> usize {
        self.space.interleave().devices
    }

    /// Owned copy of one backing device's full media image; works for every
    /// storage engine (unlike [`NearPmSystem::device_media`], which needs a
    /// contiguous in-RAM image) and does not perturb traffic statistics.
    pub fn device_image(&self, device: usize) -> Vec<u8> {
        self.space.device_image(device)
    }

    /// The storage engine backing the PM media.
    pub fn media_kind(&self) -> nearpm_pm::MediaKind {
        self.space.media_kind()
    }

    /// RAM currently held resident by the media backends (0 for file-backed
    /// devices, whose images live in their files).
    pub fn media_resident_bytes(&self) -> usize {
        self.space.resident_bytes()
    }

    /// Flushes every media backend to durable storage (fsync for
    /// file-backed devices; no-op for volatile engines).
    pub fn sync_media(&mut self) -> Result<()> {
        Ok(self.space.sync_all()?)
    }

    // ------------------------------------------------------------------
    // Restartable runs: persist / reopen
    // ------------------------------------------------------------------

    /// Writes the device geometry manifest and every device's full media
    /// image into `dir`, so a fresh process can attach with
    /// [`NearPmSystem::reopen_from`]. Works from any storage engine (a
    /// heap-backed run can be checkpointed to disk); for a file-backed
    /// space whose images already live in `dir` the image bytes are simply
    /// rewritten in place. Only the *persistence domain* is saved —
    /// volatile state (dirty cache lines, device FIFOs) is deliberately
    /// not, exactly as a real power failure would leave things.
    pub fn persist_to(&mut self, dir: &std::path::Path) -> Result<()> {
        std::fs::create_dir_all(dir)
            .map_err(|e| MediaError::io(format!("create image dir {}", dir.display()), e))?;
        let devices = self.space.interleave().devices;
        let file_cfg = MediaConfig::File {
            dir: dir.to_path_buf(),
        };
        let in_place = self.space.media_config() == &file_cfg;
        for d in 0..devices {
            if in_place {
                continue; // the files already hold the image
            }
            let path = dir.join(MediaConfig::device_file_name(d));
            let image = self.space.device_image(d);
            std::fs::write(&path, &image)
                .map_err(|e| MediaError::io(format!("write image {}", path.display()), e))?;
        }
        self.space.sync_all()?;
        // The manifest is written last: its presence marks a complete image.
        self.write_manifest(dir)?;
        self.manifest_dir = Some(dir.to_path_buf());
        Ok(())
    }

    /// The serialized manifest for the current geometry and epoch.
    fn manifest_text(&self) -> String {
        format!(
            "nearpm-media-manifest v1\ncapacity {}\ndevices {}\ngranularity {}\nepoch {}\n",
            self.config.pm_capacity,
            self.space.interleave().devices,
            self.config.interleave_granularity,
            self.checkpoint_epoch,
        )
    }

    /// Durably (re)writes the manifest in `dir` via a temp file and rename,
    /// so a crash mid-write leaves either the old manifest or the new one —
    /// never a torn file.
    fn write_manifest(&self, dir: &std::path::Path) -> Result<()> {
        use std::io::Write;
        let manifest = dir.join(MANIFEST_NAME);
        let tmp = dir.join(format!("{MANIFEST_NAME}.tmp"));
        let mut f = std::fs::File::create(&tmp)
            .map_err(|e| MediaError::io(format!("create manifest {}", tmp.display()), e))?;
        f.write_all(self.manifest_text().as_bytes())
            .and_then(|()| f.sync_all())
            .map_err(|e| MediaError::io(format!("write manifest {}", tmp.display()), e))?;
        drop(f);
        std::fs::rename(&tmp, &manifest)
            .map_err(|e| MediaError::io(format!("install manifest {}", manifest.display()), e))?;
        Ok(())
    }

    /// The checkpoint epoch most recently made durable (0 until a
    /// checkpointing mechanism advances it). After
    /// [`NearPmSystem::reopen_from`] this is read back from the manifest, so
    /// reattachment does not need a replay pass to rediscover it.
    pub fn checkpoint_epoch(&self) -> u64 {
        self.checkpoint_epoch
    }

    /// Records a completed checkpoint epoch. When the system has a media
    /// manifest on disk (after [`NearPmSystem::persist_to`] or
    /// [`NearPmSystem::reopen_from`]), the manifest is atomically rewritten
    /// so the epoch survives process death alongside the images it
    /// describes; otherwise the epoch is tracked in the persistence-domain
    /// model only.
    pub fn set_checkpoint_epoch(&mut self, epoch: u64) -> Result<()> {
        self.checkpoint_epoch = epoch;
        if let Some(dir) = self.manifest_dir.clone() {
            self.write_manifest(&dir)?;
        }
        Ok(())
    }

    /// Attaches a fresh system to the media images a previous process left
    /// in `dir` (written by [`NearPmSystem::persist_to`], or by a
    /// file-backed run that died). The manifest's geometry must match
    /// `config`; the images are opened file-backed without zeroing.
    ///
    /// The reopened system starts in the **crashed** state with a recorded
    /// failure event, mirroring [`NearPmSystem::crash`]: whatever volatile
    /// state the previous process had is gone, and callers must run their
    /// recovery path (`begin_recovery` → mechanism recovery →
    /// `finish_recovery`) before normal operation — the same protocol the
    /// in-process crash-point explorer proves invariants against.
    pub fn reopen_from(mut config: SystemConfig, dir: &std::path::Path) -> Result<Self> {
        let manifest_path = dir.join(MANIFEST_NAME);
        let text = std::fs::read_to_string(&manifest_path)
            .map_err(|e| MediaError::io(format!("read manifest {}", manifest_path.display()), e))?;
        let manifest = MediaManifest::parse(&text)
            .map_err(|msg| MediaError::msg(format!("{}: {msg}", manifest_path.display())))?;
        let devices_for_interleave = config.devices.max(1);
        if manifest.capacity != config.pm_capacity
            || manifest.devices != devices_for_interleave
            || manifest.granularity != config.interleave_granularity
        {
            return Err(SystemError::Media {
                message: format!(
                    "manifest geometry mismatch: image has capacity={} devices={} \
                     granularity={}, config wants capacity={} devices={} granularity={}",
                    manifest.capacity,
                    manifest.devices,
                    manifest.granularity,
                    config.pm_capacity,
                    devices_for_interleave,
                    config.interleave_granularity
                ),
            });
        }
        let media = MediaConfig::File {
            dir: dir.to_path_buf(),
        };
        let space = PmSpace::reopen(
            config.pm_capacity,
            InterleaveConfig::new(devices_for_interleave, config.interleave_granularity),
            &media,
        )?;
        config.media = media;
        let mut sys = Self::with_space(config, space)?;
        sys.checkpoint_epoch = manifest.epoch;
        sys.manifest_dir = Some(dir.to_path_buf());
        // The previous process's volatile state is gone; surface that as a
        // crash so recovery-protocol checks behave exactly as after an
        // in-process failure.
        sys.crash();
        Ok(sys)
    }

    // ------------------------------------------------------------------
    // Reporting
    // ------------------------------------------------------------------

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
        let mut region_time = HashMap::new();
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
        if self.config.compact_trace {
            // Every report is a compaction point: the cached checker has
            // just folded the whole trace, so everything its parked state
            // can no longer reference is evicted into the sealed summary,
            // and the task graph's descriptive columns (never re-read by
            // this incremental report path) are truncated wholesale. The
            // report content is unaffected — totals come from
            // retired + live — so a compacting run's report stays
            // byte-equal to a non-compacting one's.
            self.trace.compact();
            let tasks = self.graph.len();
            self.graph.retire_tasks_before(tasks);
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
        let mut region_time = HashMap::new();
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

    fn small_config(mode: ExecMode) -> SystemConfig {
        SystemConfig::for_mode(mode).with_capacity(4 << 20)
    }

    #[test]
    fn cpu_write_persist_survives_crash_unflushed_does_not() {
        let mut sys = NearPmSystem::new(small_config(ExecMode::CpuBaseline));
        let pool = sys.create_pool("p", 1 << 20).unwrap();
        let a = sys.alloc(pool, 64, 64).unwrap();
        let b = sys.alloc(pool, 64, 64).unwrap();
        sys.cpu_write_persist(0, a, &[1; 16], Region::AppPersist)
            .unwrap();
        sys.cpu_write(0, b, &[2; 16], Region::AppPersist).unwrap();
        sys.crash();
        assert!(sys.is_crashed());
        assert!(sys.cpu_read(0, a, 16, Region::Application).is_err());
        sys.begin_recovery().unwrap();
        assert_eq!(sys.persistent_read(a, 16).unwrap(), vec![1; 16]);
        assert_eq!(sys.persistent_read(b, 16).unwrap(), vec![0; 16]);
    }

    #[test]
    fn recovery_on_a_healthy_system_is_a_typed_error() {
        let mut sys = NearPmSystem::new(small_config(ExecMode::CpuBaseline));
        assert_eq!(sys.begin_recovery().unwrap_err(), SystemError::NotCrashed);
        // Mid-recovery re-entry is allowed (crash during recovery).
        sys.crash();
        sys.begin_recovery().unwrap();
        sys.begin_recovery().unwrap();
        sys.finish_recovery();
        assert_eq!(sys.begin_recovery().unwrap_err(), SystemError::NotCrashed);
    }

    #[test]
    fn operations_mid_crash_return_crashed_not_panic() {
        let mut sys = NearPmSystem::new(small_config(ExecMode::NearPmSd));
        let pool = sys.create_pool("p", 1 << 20).unwrap();
        let a = sys.alloc(pool, 4096, 4096).unwrap();
        sys.crash();
        assert_eq!(
            sys.cpu_write(0, a, &[1; 8], Region::AppPersist)
                .unwrap_err(),
            SystemError::Crashed
        );
        assert_eq!(
            sys.cpu_persist(0, a, 8, Region::AppPersist).unwrap_err(),
            SystemError::Crashed
        );
        assert_eq!(
            sys.cpu_copy(0, a, a.offset(2048), 64, Region::CcDataMovement)
                .unwrap_err(),
            SystemError::Crashed
        );
        assert_eq!(
            sys.offload_into(
                &mut OffloadBatch::new(),
                0,
                pool,
                NearPmOp::ShadowCopy {
                    src: a,
                    dst: a.offset(2048),
                    len: 64,
                },
                &[],
            )
            .unwrap_err(),
            SystemError::Crashed
        );
        assert_eq!(sys.cpu_compute(0, 1.0).unwrap_err(), SystemError::Crashed);
        // persistent_read intentionally works while crashed (recovery code
        // inspects the image before begin_recovery).
        assert!(sys.persistent_read(a, 8).is_ok());
    }

    #[test]
    fn crash_plan_fires_at_the_requested_persist() {
        let mut sys = NearPmSystem::new(small_config(ExecMode::CpuBaseline));
        let pool = sys.create_pool("p", 1 << 20).unwrap();
        let a = sys.alloc(pool, 4096, 64).unwrap();
        sys.arm_crash_plan(CrashPlan::at_persist(1));
        // Persist #0: survives. Persist #1: the crash fires after the full
        // effect applied, so the call itself still returns Ok.
        sys.cpu_write_persist(0, a, &[1; 8], Region::AppPersist)
            .unwrap();
        assert!(!sys.is_crashed());
        sys.cpu_write_persist(0, a.offset(64), &[2; 8], Region::AppPersist)
            .unwrap();
        assert!(sys.is_crashed());
        let plan = sys.disarm_crash_plan().unwrap();
        assert!(plan.fired());
        assert_eq!(plan.observed_of(BoundaryKind::Persist), 2);
        // Both persists hit the media before the crash.
        assert_eq!(sys.persistent_read(a, 8).unwrap(), vec![1; 8]);
        assert_eq!(sys.persistent_read(a.offset(64), 8).unwrap(), vec![2; 8]);
    }

    #[test]
    fn crash_drops_device_fifo_and_inflight_state() {
        let mut sys = NearPmSystem::new(
            SystemConfig::nearpm_sd()
                .with_capacity(4 << 20)
                .with_fifo_depth(2),
        );
        let pool = sys.create_pool("p", 1 << 20).unwrap();
        let log_area = sys.alloc(pool, 64 << 10, 4096).unwrap();
        sys.register_ndp_managed(AddrRange::new(log_area, 64 << 10));
        let obj = sys.alloc(pool, 4096, 64).unwrap();
        let txn = sys.next_txn_id();
        // Conflicting burst: backs the FIFO up and accumulates in-flight
        // records that are never released.
        for _ in 0..8u64 {
            sys.offload_into(
                &mut OffloadBatch::new(),
                0,
                pool,
                NearPmOp::UndoLogCreate {
                    src: obj,
                    len: 64,
                    log_meta: log_area,
                    log_data: log_area.offset(64),
                    txn_id: txn,
                },
                &[],
            )
            .unwrap();
        }
        assert!(sys.inflight_records() > 0);
        sys.crash();
        assert_eq!(
            sys.inflight_records(),
            0,
            "in-flight tables are volatile and must not survive a crash"
        );
        // Post-recovery accesses see no stale conflict dependencies.
        sys.begin_recovery().unwrap();
        sys.finish_recovery();
        sys.cpu_write_persist(0, obj, &[9; 8], Region::AppPersist)
            .unwrap();
        assert_eq!(sys.persistent_read(obj, 8).unwrap(), vec![9; 8]);
    }

    #[test]
    fn media_write_log_replay_matches_after_a_run() {
        let mut sys = NearPmSystem::new(small_config(ExecMode::NearPmSd));
        sys.enable_media_write_log();
        let pool = sys.create_pool("p", 1 << 20).unwrap();
        let obj = sys.alloc(pool, 4096, 64).unwrap();
        let log_area = sys.alloc(pool, 4096, 4096).unwrap();
        sys.register_ndp_managed(AddrRange::new(log_area, 4096));
        sys.cpu_write_persist(0, obj, &[7; 64], Region::AppPersist)
            .unwrap();
        let txn = sys.next_txn_id();
        sys.offload_into(
            &mut OffloadBatch::new(),
            0,
            pool,
            NearPmOp::UndoLogCreate {
                src: obj,
                len: 64,
                log_meta: log_area,
                log_data: log_area.offset(64),
                txn_id: txn,
            },
            &[],
        )
        .unwrap();
        sys.cpu_write_persist(0, obj, &[9; 64], Region::AppPersist)
            .unwrap();
        assert!(sys.media_write_log_len() > 0);
        assert!(sys.verify_write_log_replay());
    }

    #[test]
    fn baseline_offload_is_rejected() {
        let mut sys = NearPmSystem::new(small_config(ExecMode::CpuBaseline));
        let pool = sys.create_pool("p", 1 << 20).unwrap();
        let a = sys.alloc(pool, 64, 64).unwrap();
        let err = sys
            .offload_into(
                &mut OffloadBatch::new(),
                0,
                pool,
                NearPmOp::ShadowCopy {
                    src: a,
                    dst: a.offset(4096),
                    len: 64,
                },
                &[],
            )
            .unwrap_err();
        assert_eq!(err, SystemError::NoDevices);
    }

    #[test]
    fn offloaded_undo_log_produces_valid_ppo_trace() {
        let mut sys = NearPmSystem::new(small_config(ExecMode::NearPmSd));
        let pool = sys.create_pool("p", 1 << 20).unwrap();
        let obj = sys.alloc(pool, 64, 64).unwrap();
        let log_area = sys.alloc(pool, 4096, 4096).unwrap();
        sys.register_ndp_managed(AddrRange::new(log_area, 4096));

        // Initialize the object.
        sys.cpu_write_persist(0, obj, &[7; 64], Region::AppPersist)
            .unwrap();

        // Offload undo-log creation, then update in place.
        let txn = sys.next_txn_id();
        let mut batch = OffloadBatch::new();
        sys.offload_into(
            &mut batch,
            0,
            pool,
            NearPmOp::UndoLogCreate {
                src: obj,
                len: 64,
                log_meta: log_area,
                log_data: log_area.offset(64),
                txn_id: txn,
            },
            &[],
        )
        .unwrap();
        sys.cpu_write_persist(0, obj, &[9; 64], Region::AppPersist)
            .unwrap();
        sys.release_batch(&mut batch);

        // Functional: the log holds the old value, the object the new one.
        assert_eq!(
            sys.persistent_read(log_area.offset(64), 64).unwrap(),
            vec![7; 64]
        );
        let report = sys.report();
        assert!(
            report.ppo_violations.is_empty(),
            "{:?}",
            report.ppo_violations
        );
        assert!(report.makespan > SimDuration::ZERO);
        assert_eq!(report.ndp_requests, 1);
        assert_eq!(report.ndp_bytes_moved, 64);
    }

    #[test]
    fn classification_uses_registered_ranges() {
        let mut sys = NearPmSystem::new(small_config(ExecMode::NearPmSd));
        let pool = sys.create_pool("p", 1 << 20).unwrap();
        let a = sys.alloc(pool, 4096, 4096).unwrap();
        assert_eq!(sys.classify(a, 64), Sharing::Shared);
        sys.register_ndp_managed(AddrRange::new(a, 4096));
        assert_eq!(sys.classify(a, 64), Sharing::NdpManaged);
        assert_eq!(sys.classify(a.offset(8192), 64), Sharing::Shared);
    }

    #[test]
    fn sw_sync_and_delayed_sync_order_after_offloads() {
        for mode in [ExecMode::NearPmMdSync, ExecMode::NearPmMd] {
            let mut sys = NearPmSystem::new(small_config(mode));
            let pool = sys.create_pool("p", 1 << 20).unwrap();
            let obj = sys.alloc(pool, 8192, 4096).unwrap();
            let log_area = sys.alloc(pool, 16384, 4096).unwrap();
            sys.register_ndp_managed(AddrRange::new(log_area, 16384));
            sys.cpu_write_persist(0, obj, &[3; 128], Region::AppPersist)
                .unwrap();

            let txn = sys.next_txn_id();
            let spans = sys.device_spans(obj, 8192).unwrap();
            assert!(spans.len() >= 2, "object should span both devices");
            let mut batch = OffloadBatch::new();
            for (i, (addr, len, _dev)) in spans.into_iter().enumerate() {
                let slot = log_area.offset(i as u64 * 8192);
                sys.offload_into(
                    &mut batch,
                    0,
                    pool,
                    NearPmOp::UndoLogCreate {
                        src: addr,
                        len: len.min(4096),
                        log_meta: slot,
                        log_data: slot.offset(64),
                        txn_id: txn,
                    },
                    &[],
                )
                .unwrap();
            }
            let sync_task = if mode == ExecMode::NearPmMdSync {
                sys.sw_sync_batch(0, &batch).unwrap()
            } else {
                sys.delayed_sync_batch(&batch).unwrap()
            }
            .expect("a non-empty group gets a sync task");
            sys.release_batch(&mut batch);
            let report = sys.report();
            assert!(
                report.ppo_violations.is_empty(),
                "{:?}",
                report.ppo_violations
            );
            // The sync task exists in the graph.
            assert!(sync_task.index() < sys.task_count());
        }
    }

    /// A burst of offloads deeper than the FIFO must surface backpressure in
    /// the run report: the modeled occupancy saturates at the depth and the
    /// overflowing requests accumulate stall time.
    #[test]
    fn report_surfaces_fifo_backpressure_under_bursts() {
        let mut sys = NearPmSystem::new(
            SystemConfig::nearpm_sd()
                .with_capacity(4 << 20)
                .with_fifo_depth(2),
        );
        let pool = sys.create_pool("p", 1 << 20).unwrap();
        let log_area = sys.alloc(pool, 64 << 10, 4096).unwrap();
        sys.register_ndp_managed(AddrRange::new(log_area, 64 << 10));
        let obj = sys.alloc(pool, 4096, 64).unwrap();
        let txn = sys.next_txn_id();
        // Eight commands burst from the same thread into the SAME log slot:
        // the write-write conflicts chain each request's issue stage behind
        // the previous execution, so the front-end backs up into the FIFO
        // (depth 2) faster than the ~260 ns command-issue spacing drains it.
        for _ in 0..8u64 {
            sys.offload_into(
                &mut OffloadBatch::new(),
                0,
                pool,
                NearPmOp::UndoLogCreate {
                    src: obj,
                    len: 64,
                    log_meta: log_area,
                    log_data: log_area.offset(64),
                    txn_id: txn,
                },
                &[],
            )
            .unwrap();
        }
        let report = sys.report();
        assert_eq!(report.fifo_high_watermark, 2);
        assert!(report.fifo_stalls > 0);
        assert!(report.fifo_stall_time > SimDuration::ZERO);
        assert!(report.ppo_violations.is_empty());

        // The prototype's 32-deep FIFO absorbs the same burst without stalls.
        let mut easy = NearPmSystem::new(SystemConfig::nearpm_sd().with_capacity(4 << 20));
        let pool = easy.create_pool("p", 1 << 20).unwrap();
        let log_area = easy.alloc(pool, 64 << 10, 4096).unwrap();
        easy.register_ndp_managed(AddrRange::new(log_area, 64 << 10));
        let obj = easy.alloc(pool, 4096, 64).unwrap();
        let txn = easy.next_txn_id();
        for _ in 0..8u64 {
            easy.offload_into(
                &mut OffloadBatch::new(),
                0,
                pool,
                NearPmOp::UndoLogCreate {
                    src: obj,
                    len: 64,
                    log_meta: log_area,
                    log_data: log_area.offset(64),
                    txn_id: txn,
                },
                &[],
            )
            .unwrap();
        }
        let easy_report = easy.report();
        assert_eq!(easy_report.fifo_stalls, 0);
        assert!(easy_report.fifo_high_watermark <= 8);
    }

    /// Backpressure must reach the host: when a thread's command finds the
    /// request FIFO full, the thread's next CPU task may start only after
    /// the front-end stage that frees the slot retires. With a deep FIFO the
    /// same program's trailing CPU task starts strictly earlier.
    #[test]
    fn full_fifo_blocks_the_posting_thread() {
        let run = |depth: usize| {
            let mut sys = NearPmSystem::new(
                SystemConfig::nearpm_sd()
                    .with_capacity(4 << 20)
                    .with_fifo_depth(depth),
            );
            let pool = sys.create_pool("p", 1 << 20).unwrap();
            let log_area = sys.alloc(pool, 64 << 10, 4096).unwrap();
            sys.register_ndp_managed(AddrRange::new(log_area, 64 << 10));
            let obj = sys.alloc(pool, 4096, 64).unwrap();
            let txn = sys.next_txn_id();
            // Conflicting burst into one slot: each request's issue stage
            // chains behind the previous execution, backing up the FIFO.
            for _ in 0..8u64 {
                sys.offload_into(
                    &mut OffloadBatch::new(),
                    0,
                    pool,
                    NearPmOp::UndoLogCreate {
                        src: obj,
                        len: 64,
                        log_meta: log_area,
                        log_data: log_area.offset(64),
                        txn_id: txn,
                    },
                    &[],
                )
                .unwrap();
            }
            let after = sys.cpu_compute(0, 10.0).unwrap();
            let start = sys.graph().task_start(after);
            (sys.report(), start)
        };
        let (shallow_report, shallow_start) = run(2);
        let (deep_report, deep_start) = run(32);
        assert!(shallow_report.fifo_stalls > 0);
        assert_eq!(deep_report.fifo_stalls, 0);
        assert!(
            shallow_start > deep_start,
            "the stalled thread's next task must start later \
             ({shallow_start} vs {deep_start})"
        );
        assert!(shallow_report.ppo_violations.is_empty());
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

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("nearpm-sys-test-{}-{tag}", std::process::id()))
    }

    #[test]
    fn manifest_parses_and_rejects_garbage() {
        let m = MediaManifest::parse(
            "nearpm-media-manifest v1\ncapacity 100\ndevices 2\ngranularity 4096\n",
        )
        .unwrap();
        assert_eq!(
            m,
            MediaManifest {
                capacity: 100,
                devices: 2,
                granularity: 4096,
                // Pre-epoch manifests read back as epoch 0.
                epoch: 0
            }
        );
        let m = MediaManifest::parse(
            "nearpm-media-manifest v1\ncapacity 100\ndevices 2\ngranularity 4096\nepoch 7\n",
        )
        .unwrap();
        assert_eq!(m.epoch, 7);
        assert!(MediaManifest::parse("not a manifest").is_err());
        assert!(MediaManifest::parse("nearpm-media-manifest v1\ncapacity 100\n").is_err());
        assert!(MediaManifest::parse(
            "nearpm-media-manifest v1\ncapacity x\ndevices 2\ngranularity 4096"
        )
        .is_err());
    }

    #[test]
    fn persist_and_reopen_restores_the_image_as_crashed() {
        let dir = temp_dir("persist");
        let cfg = small_config(ExecMode::NearPmMd);
        let mut sys = NearPmSystem::new(cfg.clone());
        let pool = sys.create_pool("p", 1 << 20).unwrap();
        let a = sys.alloc(pool, 4096, 64).unwrap();
        sys.cpu_write_persist(0, a, &[7; 128], Region::AppPersist)
            .unwrap();
        sys.persist_to(&dir).unwrap();
        let images: Vec<_> = (0..sys.media_count())
            .map(|d| sys.device_image(d))
            .collect();
        drop(sys);

        let mut reopened = NearPmSystem::reopen_from(cfg.clone(), &dir).unwrap();
        assert_eq!(reopened.media_kind(), nearpm_pm::MediaKind::File);
        // The reopened system starts crashed, with the image intact.
        assert!(reopened.is_crashed());
        for (d, img) in images.iter().enumerate() {
            assert_eq!(&reopened.device_image(d), img, "device {d}");
        }
        // The recovery protocol works exactly as after an in-process crash.
        reopened.create_pool("p", 1 << 20).unwrap();
        assert_eq!(reopened.persistent_read(a, 128).unwrap(), vec![7; 128]);
        reopened.begin_recovery().unwrap();
        reopened.finish_recovery();
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_epoch_round_trips_through_the_manifest() {
        let dir = temp_dir("epoch");
        let cfg = small_config(ExecMode::NearPmMd);
        let mut sys = NearPmSystem::new(cfg.clone());
        assert_eq!(sys.checkpoint_epoch(), 0);
        sys.persist_to(&dir).unwrap();
        // Epoch advances rewrite the on-disk manifest in place (atomically),
        // so a reattaching process reads the epoch back without replay.
        sys.set_checkpoint_epoch(3).unwrap();
        drop(sys);
        let reopened = NearPmSystem::reopen_from(cfg.clone(), &dir).unwrap();
        assert_eq!(reopened.checkpoint_epoch(), 3);
        // No stray temp file is left behind by the rename protocol.
        assert!(!dir.join(format!("{MANIFEST_NAME}.tmp")).exists());
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_rejects_geometry_mismatch_and_missing_manifest() {
        let dir = temp_dir("mismatch");
        let cfg = small_config(ExecMode::NearPmMd);
        let missing = NearPmSystem::reopen_from(cfg.clone(), &dir).unwrap_err();
        assert!(matches!(missing, SystemError::Media { .. }), "{missing}");
        let mut sys = NearPmSystem::new(cfg.clone());
        sys.persist_to(&dir).unwrap();
        let err = NearPmSystem::reopen_from(cfg.clone().with_capacity(8 << 20), &dir).unwrap_err();
        match err {
            SystemError::Media { message } => {
                assert!(message.contains("geometry mismatch"), "{message}")
            }
            other => panic!("unexpected error {other:?}"),
        }
        drop(sys);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_backed_system_is_durable_without_persist_to() {
        // A file-backed run's media writes land in the files as they happen;
        // persist_to only adds the manifest. This is the property the
        // kill-at-boundary restart harness relies on.
        let dir = temp_dir("durable");
        let cfg =
            small_config(ExecMode::NearPmSd).with_media(MediaConfig::File { dir: dir.clone() });
        let mut sys = NearPmSystem::new(cfg.clone());
        let pool = sys.create_pool("p", 1 << 20).unwrap();
        let a = sys.alloc(pool, 4096, 64).unwrap();
        sys.cpu_write_persist(0, a, &[0xCD; 64], Region::AppPersist)
            .unwrap();
        sys.persist_to(&dir).unwrap();
        let phys_image = sys.device_image(0);
        drop(sys); // no clean shutdown of the media beyond the manifest

        let reopened = NearPmSystem::reopen_from(cfg, &dir).unwrap();
        assert_eq!(reopened.device_image(0), phys_image);
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn try_new_surfaces_backend_failures() {
        // A file path that cannot be created (parent is a file, not a dir).
        let bogus = temp_dir("not-a-dir-file");
        std::fs::write(&bogus, b"x").unwrap();
        let cfg = small_config(ExecMode::CpuBaseline).with_media(MediaConfig::File {
            dir: bogus.join("sub"),
        });
        let err = NearPmSystem::try_new(cfg).unwrap_err();
        assert!(matches!(err, SystemError::Media { .. }), "{err}");
        std::fs::remove_file(&bogus).unwrap();
    }

    #[test]
    fn media_accessors_report_backend_state() {
        let mut sys =
            NearPmSystem::new(small_config(ExecMode::NearPmMd).with_media(MediaConfig::Sparse));
        assert_eq!(sys.media_kind(), nearpm_pm::MediaKind::Sparse);
        assert_eq!(sys.media_resident_bytes(), 0);
        let pool = sys.create_pool("p", 1 << 20).unwrap();
        let a = sys.alloc(pool, 4096, 64).unwrap();
        sys.cpu_write_persist(0, a, &[1; 64], Region::AppPersist)
            .unwrap();
        assert!(sys.media_resident_bytes() > 0);
        sys.sync_media().unwrap();
    }
}
