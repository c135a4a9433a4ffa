//! The NearPM device model: front-end, dispatcher, units, recovery state.
//!
//! A [`NearPmDevice`] assembles the components of Figure 8:
//!
//! * the request FIFO fed by the host control path,
//! * the dispatcher, which decodes requests, translates their operands
//!   through the address-mapping table, and checks the in-flight access
//!   table for conflicts,
//! * the NearPM units, which execute the data-intensive micro-operations
//!   (metadata generation, DMA copy, log reset) against the PM media,
//! * the persistence-domain state (FIFO + in-flight table) that survives a
//!   failure and is replayed by the hardware recovery procedure.
//!
//! The device is driven synchronously by the host-side model in
//! `nearpm-core`: functional effects are applied immediately; timing is
//! captured by the tasks the device appends to the shared [`TaskGraph`].

use nearpm_pm::{PhysAddr, PmSpace, PoolId, VirtAddr};
use nearpm_sim::{LatencyModel, Region, Resource, SimDuration, SimTime, TaskGraph, TaskId};

use crate::address_map::{AddressMappingTable, TranslateError};
use crate::fifo::{FifoFull, RequestFifo};
use crate::inflight::{InFlightEntry, InFlightTable};
use crate::request::{MicroOp, NearPmRequest, RequestId, ThreadId};
use crate::unit::NearPmUnit;

/// Static configuration of one NearPM device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceConfig {
    /// Device index in the system.
    pub id: usize,
    /// Number of NearPM units (4 in the prototype).
    pub units: usize,
    /// Request-FIFO depth (32 in the prototype).
    pub fifo_depth: usize,
    /// Parallel decode lanes in the front-end (1 in the prototype). Lane 0
    /// is the classic dispatcher resource; extra lanes let decode of
    /// independent requests overlap when many clients contend one device.
    pub decode_lanes: usize,
}

impl DeviceConfig {
    /// Prototype configuration for device `id`: 4 units, 32-entry FIFO,
    /// earliest-available dispatch, a single decode lane.
    pub fn prototype(id: usize) -> Self {
        DeviceConfig {
            id,
            units: 4,
            fifo_depth: crate::fifo::DEFAULT_FIFO_DEPTH,
            decode_lanes: 1,
        }
    }

    /// Overrides the number of decode lanes (at least 1).
    pub fn with_decode_lanes(mut self, lanes: usize) -> Self {
        self.decode_lanes = lanes.max(1);
        self
    }
}

/// Errors surfaced by the device model.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceError {
    /// The request FIFO is full.
    FifoFull,
    /// An operand address failed translation.
    Translate(TranslateError),
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::FifoFull => write!(f, "request FIFO full"),
            DeviceError::Translate(e) => write!(f, "address translation failed: {e}"),
        }
    }
}

impl std::error::Error for DeviceError {}

impl From<FifoFull> for DeviceError {
    fn from(_: FifoFull) -> Self {
        DeviceError::FifoFull
    }
}

impl From<TranslateError> for DeviceError {
    fn from(e: TranslateError) -> Self {
        DeviceError::Translate(e)
    }
}

/// Result of executing one request on the device.
#[derive(Debug, Clone)]
pub struct ExecutedRequest {
    /// Request identifier.
    pub request: RequestId,
    /// Device that executed it.
    pub device: usize,
    /// Unit that executed it.
    pub unit: usize,
    /// Decode task on the shared dispatcher (the dispatcher frees when it
    /// retires).
    pub dispatch: TaskId,
    /// Issue task on the unit's issue queue (operand translation + conflict
    /// check).
    pub issue: TaskId,
    /// Final task of the execution; later work that must order after this
    /// request depends on it.
    pub finish: TaskId,
    /// When the request arrived at a **full** FIFO: the front-end task whose
    /// retirement freed its slot. The host's control path is blocked until
    /// then — the submitter must order the posting thread's subsequent work
    /// after this task (backpressure on the host, not just on the decode).
    pub stall_dep: Option<TaskId>,
    /// Payload bytes moved.
    pub bytes_moved: u64,
}

/// Aggregate device statistics.
#[derive(Debug, Clone, Default)]
pub struct DeviceStats {
    /// Total requests executed.
    pub requests: u64,
    /// Total payload bytes moved.
    pub bytes_moved: u64,
    /// Conflicts detected against in-flight accesses.
    pub conflicts: u64,
}

/// Persistence-domain image of the device front-end, written back to PM on a
/// failure and restored by the hardware recovery procedure (Section 5.3.3).
#[derive(Debug, Clone)]
pub struct DevicePersistentState {
    /// Queued (not yet executed) requests.
    pub fifo: Vec<(RequestId, NearPmRequest)>,
    /// In-flight access records.
    pub inflight: Vec<InFlightEntry>,
}

/// A translated operand range: virtual start, physical start, length.
type OperandRange = (VirtAddr, PhysAddr, u64);

/// Buffers the execution of one request fills, owned by the device and
/// reused by the next request so the offload path allocates nothing per
/// request.
#[derive(Debug, Clone, Default)]
struct ExecScratch {
    /// Translated ranges the last executed request read.
    reads: Vec<OperandRange>,
    /// Translated ranges the last executed request wrote.
    writes: Vec<OperandRange>,
    /// The decoded micro-op program.
    program: Vec<MicroOp>,
    /// In-flight conflicts the issue stage waits for.
    conflicts: Vec<TaskId>,
    /// Dependency list of the front-end stage being added.
    stage_deps: Vec<TaskId>,
}

/// One NearPM device.
#[derive(Debug, Clone)]
pub struct NearPmDevice {
    config: DeviceConfig,
    fifo: RequestFifo,
    map: AddressMappingTable,
    inflight: InFlightTable,
    units: Vec<NearPmUnit>,
    stats: DeviceStats,
    scratch: ExecScratch,
}

impl NearPmDevice {
    /// Creates a device from its configuration.
    pub fn new(config: DeviceConfig) -> Self {
        assert!(config.units >= 1, "a device needs at least one unit");
        NearPmDevice {
            config,
            fifo: RequestFifo::new(config.fifo_depth),
            map: AddressMappingTable::new(),
            inflight: InFlightTable::new(),
            units: (0..config.units)
                .map(|u| NearPmUnit::new(config.id, u))
                .collect(),
            stats: DeviceStats::default(),
            scratch: ExecScratch::default(),
        }
    }

    /// Device index.
    pub fn id(&self) -> usize {
        self.config.id
    }

    /// Number of execution units.
    pub fn unit_count(&self) -> usize {
        self.units.len()
    }

    /// Device statistics.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Number of queued (not yet executed) requests.
    pub fn pending(&self) -> usize {
        self.fifo.len()
    }

    /// Maximum FIFO occupancy observed (modeled from the task graph's
    /// in-flight decode window).
    pub fn fifo_high_watermark(&self) -> usize {
        self.fifo.high_watermark()
    }

    /// Total time hosts stalled at this device's full FIFO.
    pub fn fifo_stall_time(&self) -> SimDuration {
        self.fifo.stall_time()
    }

    /// Number of requests that stalled at this device's full FIFO.
    pub fn fifo_stalls(&self) -> u64 {
        self.fifo.stalls()
    }

    /// Highest modeled FIFO occupancy within the simulated-time window
    /// `[from, to)` (post-run per-window analysis).
    pub fn fifo_occupancy_in(&self, from: SimTime, to: SimTime) -> usize {
        self.fifo.occupancy_in(from, to)
    }

    /// Number of requests admitted into this device's FIFO within the
    /// simulated-time window `[from, to)`.
    pub fn fifo_admissions_in(&self, from: SimTime, to: SimTime) -> usize {
        self.fifo.admissions_in(from, to)
    }

    /// Drops the FIFO residency history no window starting at or after
    /// `floor` reads: the entries that retired before it. An entry retired
    /// before a window starts neither arrived in it nor held a slot during
    /// it. Afterwards [`NearPmDevice::fifo_occupancy_in`] and
    /// [`NearPmDevice::fifo_admissions_in`] panic on a window starting
    /// before `floor`. Floors only move forward.
    pub fn retire_fifo_history_before(&mut self, floor: SimTime) {
        self.fifo.retire_history_before(floor);
    }

    /// Number of FIFO residency-history entries held.
    pub fn fifo_history_len(&self) -> usize {
        self.fifo.history_len()
    }

    /// Drops the FIFO occupancy-window entries that retired at or before
    /// `w`, given that every request submitted from now on lands on the
    /// control path at or after `w`: such an admission counts only entries
    /// that retire after it.
    pub fn retire_window_before(&mut self, w: SimTime) {
        self.fifo.retire_window_before(w);
    }

    /// The oldest task the device still holds and may hand out as a
    /// dependency: a FIFO-window entry's front-end task or an in-flight
    /// access's completion task.
    pub fn oldest_task(&self) -> Option<TaskId> {
        self.fifo
            .oldest_task()
            .into_iter()
            .chain(self.inflight.oldest_task())
            .min()
    }

    /// The dispatcher's scheduling resource (decode lane 0).
    pub fn dispatcher_resource(&self) -> Resource {
        Resource::Dispatcher(self.config.id)
    }

    /// The scheduling resource of decode lane `lane`. Lane 0 is the classic
    /// dispatcher, so a single-lane device's schedule is unchanged by the
    /// lane plumbing.
    fn decode_lane_resource(&self, lane: usize) -> Resource {
        if lane == 0 {
            Resource::Dispatcher(self.config.id)
        } else {
            Resource::DispatcherLane {
                device: self.config.id,
                lane,
            }
        }
    }

    /// Installs the address-mapping entry for a pool (called at
    /// `NearPM_init_device` / pool-creation time).
    pub fn register_pool(
        &mut self,
        pool: PoolId,
        virt_base: VirtAddr,
        phys_base: PhysAddr,
        size: u64,
    ) {
        self.map.register_pool(pool, virt_base, phys_base, size);
    }

    /// Installs a thread-local mapping.
    pub fn register_thread_pool(
        &mut self,
        pool: PoolId,
        thread: ThreadId,
        virt_base: VirtAddr,
        phys_base: PhysAddr,
        size: u64,
    ) {
        self.map
            .register_thread_pool(pool, thread, virt_base, phys_base, size);
    }

    /// Enqueues a request without executing it (step 1a of the execution
    /// flow). Used by the recovery tests to model requests still sitting in
    /// the FIFO when a failure hits.
    pub fn enqueue(&mut self, request: NearPmRequest) -> Result<RequestId, DeviceError> {
        Ok(self.fifo.push(request)?)
    }

    /// Enqueues and immediately executes a request, returning its execution
    /// record. `issue_deps` are the tasks that must precede the dispatch
    /// (typically the CPU's command-issue task on the control path).
    pub fn submit(
        &mut self,
        request: NearPmRequest,
        space: &mut PmSpace,
        graph: &mut TaskGraph,
        model: &LatencyModel,
        issue_deps: &[TaskId],
    ) -> Result<ExecutedRequest, DeviceError> {
        self.submit_ordered(request, space, graph, model, issue_deps, &[])
    }

    /// Like [`NearPmDevice::submit`], with additional **device-side**
    /// ordering dependencies: the command is posted (and decoded) without
    /// waiting for them, but its issue stage — and so its execution — orders
    /// after every task in `order_deps`. This is how the delayed
    /// multi-device synchronization defers a commit's log deletion until the
    /// near-memory handlers agree, without stalling the control path.
    pub fn submit_ordered(
        &mut self,
        request: NearPmRequest,
        space: &mut PmSpace,
        graph: &mut TaskGraph,
        model: &LatencyModel,
        issue_deps: &[TaskId],
        order_deps: &[TaskId],
    ) -> Result<ExecutedRequest, DeviceError> {
        self.enqueue(request)?;
        let (id, request) = self.fifo.pop().expect("request was just enqueued");
        self.execute(id, request, space, graph, model, issue_deps, order_deps)
    }

    /// Pops and executes the oldest queued request (steps 2a–8a).
    pub fn process_one(
        &mut self,
        space: &mut PmSpace,
        graph: &mut TaskGraph,
        model: &LatencyModel,
        issue_deps: &[TaskId],
    ) -> Option<Result<ExecutedRequest, DeviceError>> {
        let (id, request) = self.fifo.pop()?;
        Some(self.execute(id, request, space, graph, model, issue_deps, &[]))
    }

    /// Executes every queued request in FIFO order (used by recovery replay).
    pub fn drain(
        &mut self,
        space: &mut PmSpace,
        graph: &mut TaskGraph,
        model: &LatencyModel,
        issue_deps: &[TaskId],
    ) -> Vec<Result<ExecutedRequest, DeviceError>> {
        let mut out = Vec::new();
        while let Some(r) = self.process_one(space, graph, model, issue_deps) {
            out.push(r);
        }
        out
    }

    /// The translated (virtual, physical, length) ranges the most recently
    /// executed request read and wrote, in operand order. Valid until the
    /// device executes its next request.
    pub fn executed_ranges(&self) -> (&[OperandRange], &[OperandRange]) {
        (&self.scratch.reads, &self.scratch.writes)
    }

    /// Translates the request's operand ranges and decodes its micro-op
    /// program into the scratch buffers (steps 2a/3a, functional half:
    /// effects are applied immediately, timing is modeled by the front-end
    /// stages).
    fn translate_and_decode(&mut self, request: &NearPmRequest) -> Result<(), DeviceError> {
        let (map, s) = (&self.map, &mut self.scratch);
        let translate = |v| map.translate(request.pool, request.thread, v);
        s.reads.clear();
        for (v, len) in request.op.read_ranges() {
            s.reads.push((v, translate(v)?, len));
        }
        s.writes.clear();
        for (v, len) in request.op.write_ranges() {
            s.writes.push((v, translate(v)?, len));
        }
        request.op.decode_into(&mut s.program, translate)?;
        Ok(())
    }

    /// Step 4a: conflict check of the translated ranges against in-flight
    /// accesses. Leaves the finish tasks the request must order after in
    /// the scratch `conflicts`, sorted and deduplicated.
    fn conflict_check(&mut self) {
        let s = &mut self.scratch;
        s.conflicts.clear();
        for &(_, p, len) in &s.reads {
            self.inflight.conflicts(p, len, false, &mut s.conflicts);
        }
        for &(_, p, len) in &s.writes {
            self.inflight.conflicts(p, len, true, &mut s.conflicts);
        }
        s.conflicts.sort_unstable();
        s.conflicts.dedup();
        if !s.conflicts.is_empty() {
            self.stats.conflicts += 1;
        }
    }

    /// Runs the decoded micro-op program on one unit, chaining each micro-op
    /// after the previous one starting from `first_dep`. Returns the final
    /// task of the execution.
    fn run_program(
        &mut self,
        unit_index: usize,
        space: &mut PmSpace,
        graph: &mut TaskGraph,
        model: &LatencyModel,
        first_dep: TaskId,
    ) -> TaskId {
        let unit = &mut self.units[unit_index];
        let mut last = first_dep;
        for op in &self.scratch.program {
            last = unit.execute_micro(space, graph, model, op, &[last]);
        }
        unit.complete_request();
        last
    }

    /// Tracks the request's translated accesses in the in-flight table until
    /// the host releases them (at transaction commit), and accounts the
    /// statistics.
    fn track_request(&mut self, id: RequestId, request: &NearPmRequest, finish: TaskId) -> u64 {
        let reads = self.scratch.reads.iter().map(|r| (r, false));
        let accesses = reads.chain(self.scratch.writes.iter().map(|w| (w, true)));
        for (&(_, p, len), is_write) in accesses {
            self.inflight.insert(InFlightEntry {
                request: id,
                start: p,
                len,
                is_write,
                completes_at: finish,
            });
        }
        let bytes = request.op.bytes_moved();
        self.stats.requests += 1;
        self.stats.bytes_moved += bytes;
        bytes
    }

    /// Executes one request through the pipelined front-end:
    ///
    /// 1. **FIFO admission** — the request occupies a FIFO slot from its
    ///    arrival over the control path until the front-end hands it to a
    ///    unit; a full FIFO stalls the host until the oldest blocking entry
    ///    frees a slot (real backpressure, surfaced via the FIFO's stall
    ///    statistics).
    /// 2. **Decode** on the shared dispatcher — a short stage that pops the
    ///    FIFO and decodes the command word; the dispatcher frees as soon as
    ///    it retires, so it no longer serializes the whole front-end.
    /// 3. **Issue** on the chosen unit's issue queue — operand translation
    ///    and the in-flight conflict check; a conflicting request waits here,
    ///    overlapping with decode and execution of requests on sibling units
    ///    instead of blocking them behind the dispatcher.
    /// 4. **Execution** of the decoded micro-op program on the unit.
    ///
    /// The decode and issue stages are scheduled in **arrival order** on
    /// their resources ([`TaskGraph::add_arrival_ordered`]): the graph is
    /// built in program order, thread by thread, so a command posted late in
    /// one thread's transaction must not head-of-line block other threads'
    /// earlier-arriving commands on the nearly idle front-end.
    #[allow(clippy::too_many_arguments)]
    fn execute(
        &mut self,
        id: RequestId,
        request: NearPmRequest,
        space: &mut PmSpace,
        graph: &mut TaskGraph,
        model: &LatencyModel,
        issue_deps: &[TaskId],
        order_deps: &[TaskId],
    ) -> Result<ExecutedRequest, DeviceError> {
        self.translate_and_decode(&request)?;
        self.conflict_check();

        // FIFO admission at the time the command lands on the control path.
        let arrival = issue_deps
            .iter()
            .map(|d| graph.task_finish(*d))
            .max()
            .unwrap_or(SimTime::ZERO);
        let admission = self.fifo.admit(arrival);
        let mut stage_deps = std::mem::take(&mut self.scratch.stage_deps);
        stage_deps.clear();
        stage_deps.extend_from_slice(issue_deps);
        stage_deps.extend(admission.slot_dep);
        stage_deps.sort_unstable();
        stage_deps.dedup();
        // With multiple decode lanes the front-end steers the command to the
        // lane whose timeline frees first (ties toward lane 0, so assignment
        // stays deterministic and single-lane behavior is bit-identical).
        let lane = if self.config.decode_lanes > 1 {
            (0..self.config.decode_lanes)
                .min_by_key(|&l| (graph.resource_available(self.decode_lane_resource(l)), l))
                .expect("a device has at least one decode lane")
        } else {
            0
        };
        let decode = graph.add_arrival_ordered(
            "ndp-decode",
            self.decode_lane_resource(lane),
            model.ndp_decode(),
            Region::CcOffload,
            &stage_deps,
        );

        // Step 6a: hand the request to a unit. Earliest-available dispatch
        // ranks units by when both the unit and its issue queue free (read
        // from the incrementally maintained schedule; ties break toward the
        // lowest index, so assignment stays deterministic).
        let unit_index = (0..self.units.len())
            .min_by_key(|&u| {
                let unit_free = self.units[u].busy_until(graph);
                let queue_free = graph.resource_available(self.units[u].issue_queue());
                (unit_free.max(queue_free), u)
            })
            .expect("a device has at least one unit");

        stage_deps.clear();
        stage_deps.push(decode);
        stage_deps.extend_from_slice(&self.scratch.conflicts);
        stage_deps.extend_from_slice(order_deps);
        stage_deps.sort_unstable();
        stage_deps.dedup();
        let issue = graph.add_arrival_ordered(
            "ndp-issue",
            self.units[unit_index].issue_queue(),
            model.ndp_issue(),
            Region::CcOffload,
            &stage_deps,
        );
        self.scratch.stage_deps = stage_deps;
        // The request's FIFO slot frees when the front-end hands it to the
        // unit (a conflict wait at the issue queue backs the FIFO up).
        self.fifo
            .record_front_end(issue, arrival, graph.task_finish(issue));

        let finish = self.run_program(unit_index, space, graph, model, issue);
        let bytes = self.track_request(id, &request, finish);

        Ok(ExecutedRequest {
            request: id,
            device: self.config.id,
            unit: unit_index,
            dispatch: decode,
            issue,
            finish,
            stall_dep: admission.slot_dep,
            bytes_moved: bytes,
        })
    }

    /// Conflict check for a *host* memory access (steps 1b–3b): appends to
    /// `deps` the tasks the host access must wait for, possibly repeated
    /// (the caller sorts and deduplicates). Nothing appended means no
    /// buffering is needed.
    pub fn host_access_conflicts(
        &self,
        addr: PhysAddr,
        len: u64,
        is_write: bool,
        deps: &mut Vec<TaskId>,
    ) {
        self.inflight.conflicts(addr, len, is_write, deps);
    }

    /// Releases the in-flight records of a request once the host no longer
    /// needs ordering against it (at transaction commit).
    pub fn release_request(&mut self, request: RequestId) {
        self.inflight.complete_request(request);
    }

    /// Number of in-flight access records (diagnostics).
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// Drops every piece of volatile front-end state on a power failure:
    /// queued FIFO requests and the in-flight access table. The functional
    /// effect of already-posted offloads is not rolled back — media mutations
    /// apply at post time and live in the persistence domain — but nothing
    /// queued or tracked in device SRAM survives. (A battery-backed
    /// configuration would instead use [`NearPmDevice::crash_snapshot`] /
    /// [`NearPmDevice::restore`].)
    pub fn crash(&mut self) {
        self.fifo.clear();
        self.inflight.clear();
    }

    /// Captures the persistence-domain image of the front-end.
    pub fn crash_snapshot(&self) -> DevicePersistentState {
        DevicePersistentState {
            fifo: self.fifo.snapshot(),
            inflight: self.inflight.snapshot(),
        }
    }

    /// Hardware recovery step 1: restore the persistence-domain structures
    /// from the reserved PM region. Step 2 (replaying the requests) is
    /// performed by calling [`NearPmDevice::drain`].
    pub fn restore(&mut self, state: DevicePersistentState) {
        self.fifo.restore(state.fifo);
        self.inflight = InFlightTable::new();
        for e in state.inflight {
            self.inflight.insert(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::LogEntryHeader;
    use crate::request::NearPmOp;

    fn setup() -> (NearPmDevice, PmSpace, TaskGraph, LatencyModel) {
        let mut dev = NearPmDevice::new(DeviceConfig::prototype(0));
        let space = PmSpace::single(1 << 20);
        // One pool covering the whole space: virtual 0x1000_0000 → physical 0.
        dev.register_pool(PoolId(0), VirtAddr(0x1000_0000), PhysAddr(0), 1 << 20);
        (dev, space, TaskGraph::new(), LatencyModel::default())
    }

    fn undolog_req(src_off: u64, len: u64, log_off: u64, txn: u64) -> NearPmRequest {
        NearPmRequest::new(
            PoolId(0),
            ThreadId(0),
            NearPmOp::UndoLogCreate {
                src: VirtAddr(0x1000_0000 + src_off),
                len,
                log_meta: VirtAddr(0x1000_0000 + log_off),
                log_data: VirtAddr(0x1000_0000 + log_off + 64),
                txn_id: txn,
            },
        )
    }

    #[test]
    fn undo_log_create_copies_data_and_writes_header() {
        let (mut dev, mut space, mut graph, model) = setup();
        space.write(PhysAddr(0x100), &[0xAA; 128]);
        let exec = dev
            .submit(
                undolog_req(0x100, 128, 0x8000, 7),
                &mut space,
                &mut graph,
                &model,
                &[],
            )
            .unwrap();
        // Log data copied.
        assert_eq!(space.read_vec(PhysAddr(0x8000 + 64), 128), vec![0xAA; 128]);
        // Header decodable and points at the source.
        let header = LogEntryHeader::decode(&space.read_vec(PhysAddr(0x8000), 40)).unwrap();
        assert_eq!(header.target, VirtAddr(0x1000_0100));
        assert_eq!(header.len, 128);
        assert_eq!(header.txn_id, 7);
        assert_eq!(exec.bytes_moved, 128);
        assert_eq!(dev.stats().requests, 1);
        // Timing: the request occupies a dispatcher and a unit.
        assert!(graph.task_finish(exec.finish) > graph.task_start(exec.dispatch));
    }

    #[test]
    fn commit_log_resets_headers() {
        let (mut dev, mut space, mut graph, model) = setup();
        space.write(PhysAddr(0x100), &[1; 64]);
        dev.submit(
            undolog_req(0x100, 64, 0x8000, 1),
            &mut space,
            &mut graph,
            &model,
            &[],
        )
        .unwrap();
        assert!(LogEntryHeader::decode(&space.read_vec(PhysAddr(0x8000), 40)).is_some());
        let commit = NearPmRequest::new(
            PoolId(0),
            ThreadId(0),
            NearPmOp::CommitLog {
                entries: vec![VirtAddr(0x1000_8000)],
                txn_id: 1,
            },
        );
        dev.submit(commit, &mut space, &mut graph, &model, &[])
            .unwrap();
        assert!(LogEntryHeader::decode(&space.read_vec(PhysAddr(0x8000), 40)).is_none());
    }

    #[test]
    fn shadow_copy_and_apply_redo_log() {
        let (mut dev, mut space, mut graph, model) = setup();
        space.write(PhysAddr(0x4000), &[3; 4096]);
        let shadow = NearPmRequest::new(
            PoolId(0),
            ThreadId(0),
            NearPmOp::ShadowCopy {
                src: VirtAddr(0x1000_4000),
                dst: VirtAddr(0x1002_0000),
                len: 4096,
            },
        );
        dev.submit(shadow, &mut space, &mut graph, &model, &[])
            .unwrap();
        assert_eq!(space.read_vec(PhysAddr(0x2_0000), 4096), vec![3; 4096]);

        space.write(PhysAddr(0x9000), &[9; 256]);
        let apply = NearPmRequest::new(
            PoolId(0),
            ThreadId(0),
            NearPmOp::ApplyRedoLog {
                log_data: VirtAddr(0x1000_9000),
                dst: VirtAddr(0x1000_0400),
                len: 256,
            },
        );
        dev.submit(apply, &mut space, &mut graph, &model, &[])
            .unwrap();
        assert_eq!(space.read_vec(PhysAddr(0x400), 256), vec![9; 256]);
    }

    #[test]
    fn host_conflict_detected_until_release() {
        let (mut dev, mut space, mut graph, model) = setup();
        let exec = dev
            .submit(
                undolog_req(0x100, 64, 0x8000, 1),
                &mut space,
                &mut graph,
                &model,
                &[],
            )
            .unwrap();
        // The device kept the request's translated ranges.
        let (reads, writes) = dev.executed_ranges();
        assert_eq!(reads, [(VirtAddr(0x1000_0100), PhysAddr(0x100), 64)]);
        assert_eq!(writes.len(), 2);
        let conflicts = |dev: &NearPmDevice, addr: u64| {
            let mut deps = Vec::new();
            dev.host_access_conflicts(PhysAddr(addr), 64, true, &mut deps);
            deps
        };
        // The host reads the logged source range: conflicts with the NDP read?
        // Reads don't conflict with reads, but a host *write* to the source does.
        assert_eq!(conflicts(&dev, 0x100), vec![exec.finish]);
        // A host access to an unrelated range does not conflict.
        assert!(conflicts(&dev, 0x40000).is_empty());
        dev.release_request(exec.request);
        assert!(conflicts(&dev, 0x100).is_empty());
        assert_eq!(dev.inflight_len(), 0);
    }

    #[test]
    fn earliest_available_dispatch_spreads_requests_across_units() {
        let (mut dev, mut space, mut graph, model) = setup();
        let mut units_used = Vec::new();
        for i in 0..4 {
            let exec = dev
                .submit(
                    undolog_req(0x1000 + i * 0x100, 64, 0x8000 + i * 0x200, i),
                    &mut space,
                    &mut graph,
                    &model,
                    &[],
                )
                .unwrap();
            units_used.push(exec.unit);
        }
        // Each request occupies a unit, so the next one picks the next idle
        // unit; ties break toward the lowest index, making the order
        // deterministic.
        assert_eq!(units_used, vec![0, 1, 2, 3]);
    }

    #[test]
    fn earliest_available_reuses_the_unit_that_frees_first() {
        let (mut dev, mut space, mut graph, model) = setup();
        // One huge copy on unit 0, three tiny ones on units 1-3.
        space.write(PhysAddr(0), &[1; 64 << 10]);
        let shadow = |src: u64, dst: u64, len: u64| {
            NearPmRequest::new(
                PoolId(0),
                ThreadId(0),
                NearPmOp::ShadowCopy {
                    src: VirtAddr(0x1000_0000 + src),
                    dst: VirtAddr(0x1000_0000 + dst),
                    len,
                },
            )
        };
        let big = dev
            .submit(
                shadow(0, 0x8_0000, 64 << 10),
                &mut space,
                &mut graph,
                &model,
                &[],
            )
            .unwrap();
        assert_eq!(big.unit, 0);
        for i in 0..3u64 {
            let small = dev
                .submit(
                    shadow(i * 0x100, 0x4_0000 + i * 0x100, 64),
                    &mut space,
                    &mut graph,
                    &model,
                    &[],
                )
                .unwrap();
            assert_eq!(small.unit, i as usize + 1);
        }
        // Unit 0 is still grinding through the 64 kB DMA; the next request
        // lands on whichever small-copy unit freed first, not back on unit 0.
        let next = dev
            .submit(
                shadow(0x1000, 0x5_0000, 64),
                &mut space,
                &mut graph,
                &model,
                &[],
            )
            .unwrap();
        assert_eq!(
            next.unit, 1,
            "unit 1 frees first; unit 0 is still busy with the large copy"
        );
    }

    /// A conflicting request must wait for the in-flight access it conflicts
    /// with — but on its unit's issue queue, not on the shared dispatcher:
    /// decode retires (and the dispatcher frees) while the conflict is still
    /// pending.
    #[test]
    fn conflict_wait_blocks_the_issue_stage_not_the_dispatcher() {
        let (mut dev, mut space, mut graph, model) = setup();
        space.write(PhysAddr(0), &[4; 16 << 10]);
        let shadow = |src: u64, dst: u64| {
            NearPmRequest::new(
                PoolId(0),
                ThreadId(0),
                NearPmOp::ShadowCopy {
                    src: VirtAddr(0x1000_0000 + src),
                    dst: VirtAddr(0x1000_0000 + dst),
                    len: 16 << 10,
                },
            )
        };
        let a = dev
            .submit(shadow(0, 0x8_0000), &mut space, &mut graph, &model, &[])
            .unwrap();
        // B reads A's destination: a read-after-write conflict.
        let b = dev
            .submit(
                shadow(0x8_0000, 0x4_0000),
                &mut space,
                &mut graph,
                &model,
                &[],
            )
            .unwrap();
        let a_finish = graph.task_finish(a.finish);
        // Decode (and the dispatcher) retires long before A's DMA finishes…
        assert!(
            graph.task_finish(b.dispatch) < a_finish,
            "decode must not wait for the conflicting request"
        );
        // …while the issue stage (and so the execution) orders after it.
        assert!(
            graph.task_finish(b.issue) >= a_finish,
            "the conflict wait must gate the issue stage"
        );
        assert_eq!(dev.stats().conflicts, 1);
    }

    /// The pipelined front-end holds the dispatcher only for the short decode
    /// stage; translation/conflict checking occupies the per-unit issue
    /// queue.
    #[test]
    fn dispatcher_frees_after_decode() {
        let (mut dev, mut space, mut graph, model) = setup();
        space.write(PhysAddr(0x100), &[1; 64]);
        let exec = dev
            .submit(
                undolog_req(0x100, 64, 0x8000, 1),
                &mut space,
                &mut graph,
                &model,
                &[],
            )
            .unwrap();
        let busy = |resource: Resource| -> SimDuration {
            graph
                .tasks()
                .filter(|t| t.resource == resource)
                .map(|t| t.duration)
                .sum()
        };
        assert_eq!(busy(dev.dispatcher_resource()), model.ndp_decode());
        assert_eq!(
            busy(Resource::IssueQueue {
                device: 0,
                unit: exec.unit,
            }),
            model.ndp_issue()
        );
    }

    /// A burst deeper than the FIFO stalls the host: the modeled occupancy
    /// saturates at the depth and the overflowing requests' decodes order
    /// after the decode whose retirement frees their slot.
    #[test]
    fn fifo_backpressure_stalls_bursts_deeper_than_the_depth() {
        let config = DeviceConfig {
            id: 0,
            units: 4,
            fifo_depth: 2,
            decode_lanes: 1,
        };
        let mut dev = NearPmDevice::new(config);
        let mut space = PmSpace::single(1 << 20);
        dev.register_pool(PoolId(0), VirtAddr(0x1000_0000), PhysAddr(0), 1 << 20);
        let mut graph = TaskGraph::new();
        let model = LatencyModel::default();
        let mut execs = Vec::new();
        for i in 0..5u64 {
            let exec = dev
                .submit(
                    undolog_req(0x1000 + i * 0x100, 64, 0x8000 + i * 0x200, i),
                    &mut space,
                    &mut graph,
                    &model,
                    &[],
                )
                .unwrap();
            execs.push(exec);
        }
        assert_eq!(dev.fifo_high_watermark(), 2);
        assert_eq!(dev.fifo_stalls(), 3, "requests 3-5 all found the FIFO full");
        assert!(dev.fifo_stall_time() > nearpm_sim::SimDuration::ZERO);
        // Request 2 (0-based) waits for request 0's decode to retire.
        assert!(graph.task_start(execs[2].dispatch) >= graph.task_finish(execs[0].dispatch));
    }

    /// fig19-shaped regression: a burst of independent log creations posted
    /// back to back (the split-phase transaction pipeline's posting pattern)
    /// must finish strictly faster as units are added — 1 → 2 → 4 units.
    /// With a single contended unit the requests serialize; sibling units
    /// absorb the overlap.
    #[test]
    fn unit_scaling_shrinks_batched_burst_makespan() {
        let run = |units: usize| {
            let config = DeviceConfig {
                id: 0,
                units,
                fifo_depth: crate::fifo::DEFAULT_FIFO_DEPTH,
                decode_lanes: 1,
            };
            let mut dev = NearPmDevice::new(config);
            let mut space = PmSpace::single(4 << 20);
            dev.register_pool(PoolId(0), VirtAddr(0x1000_0000), PhysAddr(0), 4 << 20);
            let mut graph = TaskGraph::new();
            let model = LatencyModel::default();
            for i in 0..12u64 {
                // Disjoint sources and log slots: no conflicts, pure
                // capacity scaling.
                dev.submit(
                    undolog_req(0x1000 + i * 0x2000, 1024, 0x10_0000 + i * 0x1000, i),
                    &mut space,
                    &mut graph,
                    &model,
                    &[],
                )
                .unwrap();
            }
            graph.makespan()
        };
        let one = run(1);
        let two = run(2);
        let four = run(4);
        assert!(
            two < one,
            "2 units must beat 1 on a batched burst ({two} vs {one})"
        );
        assert!(
            four < two,
            "4 units must beat 2 on a batched burst ({four} vs {two})"
        );
    }

    #[test]
    fn translation_failure_surfaces() {
        let (mut dev, mut space, mut graph, model) = setup();
        let bad = NearPmRequest::new(
            PoolId(3),
            ThreadId(0),
            NearPmOp::ShadowCopy {
                src: VirtAddr(0x1000_0000),
                dst: VirtAddr(0x1000_1000),
                len: 64,
            },
        );
        let err = dev
            .submit(bad, &mut space, &mut graph, &model, &[])
            .unwrap_err();
        assert!(matches!(err, DeviceError::Translate(_)));
    }

    #[test]
    fn crash_snapshot_preserves_queued_requests_for_replay() {
        let (mut dev, mut space, mut graph, model) = setup();
        space.write(PhysAddr(0x100), &[5; 64]);
        // Enqueue but do not execute: the request is only in the FIFO when the
        // failure hits.
        dev.enqueue(undolog_req(0x100, 64, 0x8000, 2)).unwrap();
        let snapshot = dev.crash_snapshot();
        assert_eq!(snapshot.fifo.len(), 1);

        // "Reboot": a fresh device restores the persistence-domain image and
        // replays the request.
        let mut dev2 = NearPmDevice::new(DeviceConfig::prototype(0));
        dev2.register_pool(PoolId(0), VirtAddr(0x1000_0000), PhysAddr(0), 1 << 20);
        dev2.restore(snapshot);
        assert_eq!(dev2.pending(), 1);
        let results = dev2.drain(&mut space, &mut graph, &model, &[]);
        assert_eq!(results.len(), 1);
        assert!(results[0].is_ok());
        // The replayed log creation is visible in PM.
        assert_eq!(space.read_vec(PhysAddr(0x8000 + 64), 64), vec![5; 64]);
    }
}
