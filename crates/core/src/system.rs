//! The NearPM system facade: CPU model, devices, offload path, crash and
//! recovery.
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
//!
//! Two surfaces live in child modules, as further `impl NearPmSystem`
//! blocks: `persist` holds the on-disk image format (`persist_to`,
//! `reopen_from`, the manifest and its checkpoint epoch), persistent reads,
//! the media write log and the media accessors; `report` holds
//! [`RunReport`], [`LatencySummary`], latency recording and the trace,
//! task, FIFO and graph counters.

mod persist;
mod report;

use std::collections::BTreeMap;

pub use persist::MANIFEST_NAME;
pub use report::{LatencySummary, RunReport};

use nearpm_device::{DeviceConfig, NearPmDevice, NearPmOp, NearPmRequest, ThreadId};
use nearpm_pm::{
    AddrRange, CpuCache, InterleaveConfig, PhysAddr, PmSpace, PoolId, PoolRegistry, VirtAddr,
};
use nearpm_ppo::{Agent, EventKind, Interval, ProcId, Sharing};
use nearpm_sim::{
    LatencyHistogram, LatencyModel, Region, Resource, SimDuration, SimTime, TaskGraph, TaskId,
};

use crate::batch::{OffloadBatch, OffloadHandle};
use crate::config::{ExecMode, SystemConfig};
use crate::crashplan::{BoundaryKind, CrashPlan};
use crate::error::{Result, SystemError};
use crate::trace::TraceBuilder;

/// Buffers owned by the system and reused by every primitive, so a posted
/// command or a CPU access allocates nothing in steady state. Each is taken
/// out of the system while a primitive fills it and put back after.
#[derive(Debug, Default)]
struct Scratch {
    /// Staging buffer for CPU-driven copies.
    bytes: Vec<u8>,
    /// Dependency list of the CPU task being added.
    cpu_deps: Vec<TaskId>,
    /// Tasks a primitive collects before adding its own: in-flight
    /// conflicts of a CPU access, or the handles a sync waits for.
    deps: Vec<TaskId>,
    /// A sync point's (device, procedure) pairs, sorted and deduplicated.
    sync_pairs: Vec<(usize, ProcId)>,
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
    /// Finish time of every posted offload handle not yet released, keyed
    /// with its procedure so equal finishes stay distinct, mapped to the
    /// handle's final task: the handle half of [`NearPmSystem::watermark`]
    /// and of the task floor. `offload_into` adds, `release_batch` and
    /// `release_batch_retired` remove.
    posted: BTreeMap<(SimTime, ProcId), TaskId>,
    /// Per-request latency histogram (populated only when
    /// `config.track_latency`; observation only — never feeds scheduling).
    latency_hist: LatencyHistogram,
    trace: TraceBuilder,
    /// NDP-managed ranges, sorted by start and coalesced: no two overlap or
    /// touch, so [`NearPmSystem::classify`] is a binary search.
    ndp_managed: Vec<AddrRange>,
    next_txn: u64,
    crashed: bool,
    recovering: bool,
    /// Armed fault-injection plan: counts crash boundaries and fires
    /// [`NearPmSystem::crash`] at the configured one.
    crash_plan: Option<CrashPlan>,
    /// Buffers the primitives reuse instead of allocating per call.
    scratch: Scratch,
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
        Ok(NearPmSystem {
            cpu_tail: vec![None; config.cpu_threads],
            fifo_stall: vec![None; config.cpu_threads],
            pending_admission: vec![None; config.cpu_threads],
            posted: BTreeMap::new(),
            latency_hist: LatencyHistogram::new(),
            devices,
            space,
            pools,
            cache: CpuCache::new(),
            graph: TaskGraph::new(),
            trace: TraceBuilder::new(config.devices.max(1)),
            ndp_managed: Vec::new(),
            next_txn: 0,
            crashed: false,
            recovering: false,
            crash_plan: None,
            scratch: Scratch::default(),
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

    /// Registers a virtual range as NDP-managed (logs, checkpoints, shadow
    /// pages). Accesses to these ranges are classified accordingly in the
    /// PPO trace and benefit from relaxed persist ordering.
    ///
    /// The range is merged with every registered range it overlaps or
    /// touches; an empty range manages no byte and is ignored.
    pub fn register_ndp_managed(&mut self, range: AddrRange) {
        if range.len == 0 {
            return;
        }
        let (mut start, mut end) = (range.start, range.end());
        let first = self.ndp_managed.partition_point(|r| r.end() < start);
        let mut last = first;
        while let Some(r) = self.ndp_managed.get(last).filter(|r| r.start <= end) {
            start = start.min(r.start);
            end = end.max(r.end());
            last += 1;
        }
        let merged = AddrRange::new(start, end.offset_from(start));
        self.ndp_managed
            .splice(first..last, std::iter::once(merged));
    }

    /// Sharing classification of a virtual range (a zero-length range is
    /// classified by its first byte).
    pub fn classify(&self, addr: VirtAddr, len: u64) -> Sharing {
        let probe = AddrRange::new(addr, len.max(1));
        // The first range ending past the probe's start is the only one
        // that can overlap it.
        let i = self.ndp_managed.partition_point(|r| r.end() <= addr);
        match self.ndp_managed.get(i) {
            Some(r) if r.overlaps(&probe) => Sharing::NdpManaged,
            _ => Sharing::Shared,
        }
    }

    /// The device that owns the physical block backing `addr`.
    pub fn device_of(&self, addr: VirtAddr) -> Result<usize> {
        let phys = self.pools.translate(addr)?;
        Ok(self.space.device_of(phys))
    }

    /// Splits a virtual range into per-device spans `(addr, len, device)`,
    /// in address order.
    pub fn device_spans(
        &self,
        addr: VirtAddr,
        len: u64,
    ) -> Result<impl Iterator<Item = (VirtAddr, u64, usize)>> {
        let phys = self.pools.translate(addr)?;
        let mut offset = 0u64;
        Ok(self
            .space
            .interleave()
            .split(phys, len)
            .into_iter()
            .map(move |s| {
                let span = (addr.offset(offset), s.len, s.device);
                offset += s.len;
                span
            }))
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
        let mut deps = std::mem::take(&mut self.scratch.cpu_deps);
        deps.clear();
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
        self.scratch.cpu_deps = deps;
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

    /// Appends to `deps` the in-flight device accesses a host access to
    /// `phys..phys+len` must wait for (possibly repeated; the CPU task's
    /// dependency list is sorted and deduplicated).
    fn host_conflicts(&self, phys: PhysAddr, len: u64, is_write: bool, deps: &mut Vec<TaskId>) {
        for dev in &self.devices {
            dev.host_access_conflicts(phys, len, is_write, deps);
        }
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
        let mut deps = std::mem::take(&mut self.scratch.deps);
        deps.clear();
        self.host_conflicts(phys, len as u64, false, &mut deps);
        let data = self.cache.load_vec(&mut self.space, phys, len);
        let duration = self.config.latency.cpu_pm_read(len as u64);
        let task = self.push_cpu_task(thread, "cpu-read", duration, region, &deps);
        self.scratch.deps = deps;
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
        let mut deps = std::mem::take(&mut self.scratch.deps);
        deps.clear();
        self.host_conflicts(phys, data.len() as u64, true, &mut deps);
        self.cache.store(&mut self.space, phys, data);
        let duration = SimDuration::from_ns(self.config.latency.llc_latency_ns)
            + SimDuration::from_transfer(data.len() as u64, self.config.latency.cpu_pm_write_gbps);
        let task = self.push_cpu_task(thread, "cpu-write", duration, region, &deps);
        self.scratch.deps = deps;
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
        let mut deps = std::mem::take(&mut self.scratch.deps);
        deps.clear();
        self.host_conflicts(src_phys, len, false, &mut deps);
        self.host_conflicts(dst_phys, len, true, &mut deps);
        let mut bytes = std::mem::take(&mut self.scratch.bytes);
        bytes.resize(len as usize, 0);
        self.cache.load(&mut self.space, src_phys, &mut bytes);
        self.cache.store(&mut self.space, dst_phys, &bytes);
        self.scratch.bytes = bytes;
        self.cache.flush(&mut self.space, dst_phys, len);
        let duration = self.config.latency.cpu_pm_copy(len);
        let task = self.push_cpu_task(thread, "cpu-copy", duration, region, &deps);
        self.scratch.deps = deps;
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
            .next()
            .or_else(|| op.read_ranges().next())
            .map(|(a, _)| a);
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
        for (addr, len) in op.read_ranges() {
            let phys = self.pools.translate(addr)?;
            self.cache.flush(&mut self.space, phys, len);
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
        let (reads, writes) = self.devices[device].executed_ranges();
        for &(v, _p, len) in reads {
            let sharing = self.classify(v, len);
            self.trace.record(
                &self.graph,
                Agent::Ndp(device),
                EventKind::Read,
                Interval::new(v.raw(), len),
                sharing,
                Some(proc),
                None,
                Some(exec.issue),
            );
        }
        for &(v, _p, len) in writes {
            let sharing = self.classify(v, len);
            self.trace.record(
                &self.graph,
                Agent::Ndp(device),
                EventKind::Write,
                Interval::new(v.raw(), len),
                sharing,
                Some(proc),
                None,
                Some(exec.finish),
            );
            self.trace.record(
                &self.graph,
                Agent::Ndp(device),
                EventKind::Persist,
                Interval::new(v.raw(), len),
                sharing,
                Some(proc),
                None,
                Some(exec.finish),
            );
        }

        self.posted
            .insert((self.graph.task_finish(exec.finish), proc), exec.finish);
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
        let mut deps = std::mem::take(&mut self.scratch.deps);
        deps.clear();
        deps.extend(batch.handles().iter().map(|h| h.finish));
        let pairs = self.sync_pairs(batch);
        let devices = pairs.chunk_by(|a, b| a.0 == b.0).count();
        let duration = self.config.latency.cpu_poll() * devices as u64;
        let task = self.push_cpu_task(thread, "sw-sync", duration, Region::CcSync, &deps);
        self.scratch.deps = deps;
        self.record_sync_events(pairs, task);
        self.note_boundary(BoundaryKind::Sync);
        Ok(Some(task))
    }

    /// The batch's (device, procedure) pairs, sorted and deduplicated, in
    /// the reusable scratch buffer; [`NearPmSystem::record_sync_events`]
    /// hands it back.
    fn sync_pairs(&mut self, batch: &OffloadBatch) -> Vec<(usize, ProcId)> {
        let mut pairs = std::mem::take(&mut self.scratch.sync_pairs);
        pairs.clear();
        pairs.extend(batch.handles().iter().map(|h| (h.device, h.proc)));
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// Records the trace side of a synchronization point: one **proc-scoped**
    /// `Sync` event per participating (device, procedure) pair, so Invariant
    /// 3 guarantees exactly the procedures of the synchronized group — a
    /// sync never vouches for unrelated late work, and a participating
    /// procedure's late write can no longer hide behind the unscoped
    /// temporal under-approximation.
    fn record_sync_events(&mut self, pairs: Vec<(usize, ProcId)>, task: TaskId) {
        let sync = self.trace.new_sync();
        for &(device, proc) in &pairs {
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
        self.scratch.sync_pairs = pairs;
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
        let mut deps = std::mem::take(&mut self.scratch.deps);
        deps.clear();
        deps.extend(batch.handles().iter().map(|h| h.finish));
        let pairs = self.sync_pairs(batch);
        // The lowest device the group touched (pairs sort by device first).
        let anchor = pairs[0].0;
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
        self.scratch.deps = deps;
        self.record_sync_events(pairs, task);
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
            self.posted
                .remove(&(self.graph.task_finish(h.finish), h.proc));
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
        let posted = &mut self.posted;
        let mut released = 0;
        batch.retain(|h| {
            let finish = graph.task_finish(h.finish);
            if finish <= now {
                if let Some(dev) = devices.get_mut(h.device) {
                    dev.release_request(h.request);
                }
                posted.remove(&(finish, h.proc));
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

    /// A simulated time W that bounds what the run adds from now on: every
    /// later task with a non-zero duration depends on a task finishing at
    /// or after W, so it starts at or after W, and no later trace event is
    /// stamped below W. W is the minimum of every CPU thread's last-task
    /// finish (zero while a thread has none) and the finish of every posted
    /// offload handle not yet released. Each report hands it to the PPO
    /// checker, which then drops the state no later event can pair with; a
    /// compacting report also drops the busy intervals and FIFO-window
    /// entries that end before it.
    ///
    /// Why it holds. Task times never change once added, so it suffices to
    /// go through the tasks a primitive can add:
    ///
    /// * a CPU task (an access, a copy, compute or overhead, `cmd-issue`,
    ///   `sw-sync`) depends on its thread's last task;
    /// * on the device, decode depends on the new `cmd-issue` task, issue on
    ///   decode, and the unit micro-ops on issue;
    /// * `md-sync` depends only on its batch's handles, and
    ///   [`TaskGraph::add_arrival_ordered`] may place it in a gap before
    ///   every thread's clock — thread clocks alone are not a bound. Its
    ///   handles are posted and not yet released (a release takes them out
    ///   of the batch), so each finishes at or after W;
    /// * the rest have zero duration: the open-loop arrival marker, pinned
    ///   at its arrival wherever the clocks are, and barriers. Neither
    ///   reserves a busy interval nor stamps an event.
    ///
    /// Every event is stamped at the finish of a task its own primitive
    /// adds, so at or after that task's start, except the failure marker,
    /// which takes one thread's last task (at least W) or, with no CPU task
    /// at all, the end of time.
    ///
    /// W never falls: a thread's next task finishes after its last one, and
    /// a new handle finishes after its `cmd-issue` task. A batch cleared
    /// without a release (crash recovery does this) keeps its handles in the
    /// set, which only holds W back.
    pub fn watermark(&self) -> SimTime {
        let tails = self
            .cpu_tail
            .iter()
            .map(|tail| tail.map_or(SimTime::ZERO, |t| self.graph.task_finish(t)));
        let posted = self
            .posted
            .first_key_value()
            .map(|(&(finish, _), _)| finish);
        tails.chain(posted).min().unwrap_or(SimTime::ZERO)
    }

    /// The oldest task the system can still name, and so read the timing
    /// of: each thread's last task, pending FIFO stall and pending
    /// admission marker, every posted handle not yet released, and each
    /// device's FIFO-window and in-flight entries. Every task added from
    /// now on depends only on these or on tasks added after them (a
    /// mechanism names only handles of its own unreleased batches and the
    /// sync tasks of the operation it is running). The graph's length when
    /// the system holds no task.
    pub(crate) fn task_floor(&self) -> usize {
        let threads = self
            .cpu_tail
            .iter()
            .chain(&self.fifo_stall)
            .chain(&self.pending_admission)
            .flatten()
            .copied();
        let devices = self.devices.iter().filter_map(NearPmDevice::oldest_task);
        threads
            .chain(self.posted.values().copied())
            .chain(devices)
            .map(TaskId::index)
            .min()
            .unwrap_or(self.graph.len())
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use nearpm_pm::MediaConfig;

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

    /// `classify` over the sorted, coalesced ranges answers like a linear
    /// scan of every raw registration, for overlapping, adjacent, duplicate
    /// and empty registrations made in random order, probed at every range
    /// edge with zero and non-zero lengths.
    #[test]
    fn classify_matches_a_scan_of_the_raw_registrations() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sys = NearPmSystem::new(small_config(ExecMode::NearPmSd));
            let mut raw: Vec<AddrRange> = Vec::new();
            for _ in 0..rng.gen_range(1..40usize) {
                let range = match (rng.gen_range(0..4u32), raw.last().copied()) {
                    // Adjacent to, or a duplicate of, an earlier registration.
                    (0, Some(prev)) => AddrRange::new(prev.end(), rng.gen_range(0..300)),
                    (1, Some(prev)) => prev,
                    _ => {
                        AddrRange::new(VirtAddr(rng.gen_range(0..20_000)), rng.gen_range(0..2_000))
                    }
                };
                raw.push(range);
            }
            // Register in an order unrelated to the generation order.
            for i in (1..raw.len()).rev() {
                raw.swap(i, rng.gen_range(0..=i));
            }
            for r in &raw {
                sys.register_ndp_managed(*r);
            }
            let scan = |addr: VirtAddr, len: u64| {
                let probe = AddrRange::new(addr, len.max(1));
                if raw.iter().any(|r| r.overlaps(&probe)) {
                    Sharing::NdpManaged
                } else {
                    Sharing::Shared
                }
            };
            let mut probes: Vec<u64> = vec![0, 30_000];
            for r in &raw {
                let (s, e) = (r.start.raw(), r.end().raw());
                probes.extend([s.saturating_sub(1), s, s + 1, e.saturating_sub(1), e, e + 1]);
            }
            for &p in &probes {
                for len in [0, 1, 2, 64, 700] {
                    let addr = VirtAddr(p);
                    assert_eq!(
                        sys.classify(addr, len),
                        scan(addr, len),
                        "seed {seed}: {addr} len {len}"
                    );
                }
            }
        }
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
            let spans: Vec<_> = sys.device_spans(obj, 8192).unwrap().collect();
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

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("nearpm-sys-test-{}-{tag}", std::process::id()))
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
}
