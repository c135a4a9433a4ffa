//! Workload specifications and the execution engine.
//!
//! The evaluation (Table 4) covers nine PM workloads. Each is described by a
//! [`WorkloadSpec`] capturing its per-operation footprint — how much
//! application compute it performs, and which persistent objects of which
//! sizes it updates per operation — derived from the workload's structure:
//! TPCC/TATP transactions, the PMDK example stores' node updates, and the
//! YCSB-driven key-value servers. The [`Runner`] executes a request stream
//! under any (mechanism, execution-mode) combination and returns the
//! system's [`RunReport`], from which every figure of the evaluation is
//! derived.

use nearpm_cc::{Checkpoint, Mechanism, RedoLog, ShadowPaging, UndoLog};
use nearpm_core::{
    ExecMode, MediaConfig, NearPmSystem, PoolId, Result, RunReport, SystemConfig, VirtAddr,
};
use nearpm_sim::PM_PAGE;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gen::{TatpGenerator, TatpTxn, TpccGenerator, TpccTxn, YcsbGenerator, YcsbOp, Zipfian};

/// The nine evaluated workloads (Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// TPC-C transactions (from the SFR suite).
    Tpcc,
    /// TATP transactions (from the SFR suite).
    Tatp,
    /// PMDK example B-tree, random 64 B inserts.
    Btree,
    /// PMDK example red-black tree, random 64 B inserts.
    Rbtree,
    /// PMDK example skip list, random 64 B inserts.
    Skiplist,
    /// PMDK example hash map, random 64 B inserts.
    Hashmap,
    /// Memcached (PM port), 100 % write YCSB.
    Memcached,
    /// Redis (PM port), 100 % write YCSB.
    Redis,
    /// PmemKV (B+-tree backend), pmemkv-bench input.
    Pmemkv,
    /// Synthetic metadata-ops stream (beyond the paper): tiny 64 B updates
    /// with minimal compute, so each offloaded primitive's device program is
    /// dominated by metadata generation rather than DMA. The command rate
    /// per unit of device work is the highest of any workload, which makes
    /// the request-FIFO depth the binding resource — the fig21 sweep uses it
    /// to expose the control path's depth-4/8 knee that the long unit
    /// programs of memcached/redis hide. Not part of [`Workload::all`] (it
    /// is not one of the paper's nine Table 4 workloads).
    MetaOps,
}

impl Workload {
    /// All workloads in the paper's figure order.
    pub fn all() -> [Workload; 9] {
        [
            Workload::Tpcc,
            Workload::Tatp,
            Workload::Btree,
            Workload::Rbtree,
            Workload::Skiplist,
            Workload::Hashmap,
            Workload::Memcached,
            Workload::Redis,
            Workload::Pmemkv,
        ]
    }

    /// Short name used in figures.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Tpcc => "tpcc",
            Workload::Tatp => "tatp",
            Workload::Btree => "btree",
            Workload::Rbtree => "rbtree",
            Workload::Skiplist => "skiplist",
            Workload::Hashmap => "hashmap",
            Workload::Memcached => "memcached",
            Workload::Redis => "redis",
            Workload::Pmemkv => "pmemkv",
            Workload::MetaOps => "metaops",
        }
    }

    /// The per-operation footprint of the workload.
    pub fn spec(self) -> WorkloadSpec {
        match self {
            // TPC-C new-order/payment touch several rows per transaction.
            Workload::Tpcc => WorkloadSpec::new(self, 3600.0, &[(8, 128), (1, 512)], 4096),
            // TATP transactions update one tiny row: almost no room for
            // intra-transaction parallelism (the paper calls this out).
            Workload::Tatp => WorkloadSpec::new(self, 700.0, &[(1, 64)], 8192),
            Workload::Btree => WorkloadSpec::new(self, 900.0, &[(2, 256), (1, 64)], 4096),
            Workload::Rbtree => WorkloadSpec::new(self, 1000.0, &[(3, 128), (1, 64)], 4096),
            Workload::Skiplist => WorkloadSpec::new(self, 800.0, &[(2, 128), (1, 64)], 4096),
            Workload::Hashmap => WorkloadSpec::new(self, 600.0, &[(1, 128), (1, 64)], 4096),
            Workload::Memcached => WorkloadSpec::new(self, 1700.0, &[(1, 1024), (1, 64)], 2048),
            Workload::Redis => WorkloadSpec::new(self, 1900.0, &[(1, 512), (2, 64)], 2048),
            Workload::Pmemkv => WorkloadSpec::new(self, 1100.0, &[(1, 512), (1, 256)], 4096),
            // Pure metadata ops: one 64 B update behind ~150 ns of compute over a
            // small (512-object) working set.
            // The device program is a header write plus a single-cache-line
            // copy, so commands arrive much faster than units drain work
            // elsewhere — the FIFO, not the units, is what saturates.
            Workload::MetaOps => WorkloadSpec::new(self, 150.0, &[(1, 64)], 512),
        }
    }
}

/// Per-operation footprint of one workload.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Which workload this is.
    pub workload: Workload,
    /// Application compute per operation (ns), excluding crash consistency.
    pub compute_ns: f64,
    /// `(count, bytes)` persistent updates per operation.
    pub updates: Vec<(u32, u64)>,
    /// Number of distinct persistent objects in the working set.
    pub working_set: usize,
}

impl WorkloadSpec {
    fn new(
        workload: Workload,
        compute_ns: f64,
        updates: &[(u32, u64)],
        working_set: usize,
    ) -> Self {
        WorkloadSpec {
            workload,
            compute_ns,
            updates: updates.to_vec(),
            working_set,
        }
    }

    /// Bytes of persistent data updated per operation.
    pub fn bytes_per_op(&self) -> u64 {
        self.updates.iter().map(|(c, b)| *c as u64 * b).sum()
    }

    /// Largest single update size.
    pub fn max_update(&self) -> u64 {
        self.updates.iter().map(|(_, b)| *b).max().unwrap_or(64)
    }
}

/// Which transaction pipeline drives the crash-consistency mechanisms.
///
/// The selection only changes mechanisms whose per-site flow interleaves
/// CPU work and waits with the posting — today that is shadow paging (one
/// `ShadowPaging::update_many` over all of an operation's sites vs one
/// `update`, a one-site `update_many`, per site). Logging and checkpointing
/// post their offload groups split-phase under both settings (their
/// per-txn/per-epoch batches never wait mid-phase), so the pipelined and
/// per-site runs are identical there by construction; the differential
/// tests cover them as an invariance check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TxnPipeline {
    /// Split-phase (post-all / complete-later): every offload of an
    /// operation's phase is posted before the first wait — shadow paging
    /// batches all of an operation's page copies through
    /// `ShadowPaging::update_many`.
    #[default]
    SplitPhase,
    /// Serial oracle: one update site per call, each driven to completion
    /// before the next (the pre-pipelining behavior). The per-site reference
    /// of the pipeline differential — both pipelines produce byte-identical
    /// PM images and equal PPO violation lists; only the modeled overlap
    /// differs.
    SerialOracle,
}

/// Options of one workload run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Execution mode (baseline / SD / MD-sync / MD).
    pub mode: ExecMode,
    /// Crash-consistency mechanism.
    pub mechanism: Mechanism,
    /// Number of operations (transactions / requests) to execute.
    pub operations: usize,
    /// Number of application threads (Figure 20 sweep).
    pub threads: usize,
    /// NearPM units per device (Figure 19 sweep).
    pub units_per_device: usize,
    /// Request-FIFO depth per device; `None` keeps the prototype's 32
    /// (Figure 21 sweep).
    pub fifo_depth: Option<usize>,
    /// Transaction pipeline (split-phase by default; serial oracle for
    /// differential tests).
    pub pipeline: TxnPipeline,
    /// RNG seed.
    pub seed: u64,
    /// Storage engine backing the PM media (heap by default).
    pub media: MediaConfig,
    /// Decode lanes per device front-end (1 in the prototype).
    pub decode_lanes: usize,
    /// Stream-compact the PPO trace at every report/sample (off by
    /// default; incompatible with whole-trace oracles).
    pub compact_trace: bool,
    /// Record per-operation latencies into the system's histogram and
    /// surface them as `RunReport::request_latency` (off by default;
    /// observation only — schedules stay byte-identical).
    pub track_latency: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            mode: ExecMode::CpuBaseline,
            mechanism: Mechanism::Logging,
            operations: 64,
            threads: 1,
            units_per_device: 4,
            fifo_depth: None,
            pipeline: TxnPipeline::SplitPhase,
            seed: 1,
            media: MediaConfig::default(),
            decode_lanes: 1,
            compact_trace: false,
            track_latency: false,
        }
    }
}

impl RunOptions {
    /// Convenience constructor.
    pub fn new(mode: ExecMode, mechanism: Mechanism, operations: usize) -> Self {
        RunOptions {
            mode,
            mechanism,
            operations,
            ..Default::default()
        }
    }

    /// Overrides the thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Overrides the per-device unit count.
    pub fn with_units(mut self, units: usize) -> Self {
        self.units_per_device = units.max(1);
        self
    }

    /// Overrides the request-FIFO depth of every device.
    pub fn with_fifo_depth(mut self, depth: usize) -> Self {
        self.fifo_depth = Some(depth.max(1));
        self
    }

    /// Overrides the transaction pipeline.
    pub fn with_pipeline(mut self, pipeline: TxnPipeline) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the media storage engine (heap by default).
    pub fn with_media(mut self, media: MediaConfig) -> Self {
        self.media = media;
        self
    }

    /// Overrides the decode-lane count of every device front-end.
    pub fn with_decode_lanes(mut self, lanes: usize) -> Self {
        self.decode_lanes = lanes.max(1);
        self
    }

    /// Enables streaming trace compaction at every report/sample.
    pub fn with_trace_compaction(mut self, compact: bool) -> Self {
        self.compact_trace = compact;
        self
    }

    /// Enables per-operation latency tracking (observation only).
    pub fn with_latency_tracking(mut self, track: bool) -> Self {
        self.track_latency = track;
        self
    }
}

/// Per-thread crash-consistency state.
enum ThreadMechanism {
    Logging(UndoLog),
    Checkpointing(Checkpoint),
    Shadow(ShadowPaging),
    RedoLogging(RedoLog),
}

/// Per-thread workload state: working-set objects and request generators.
pub(crate) struct ThreadState {
    mechanism: ThreadMechanism,
    objects: Vec<VirtAddr>,
    pages: usize,
    ycsb: YcsbGenerator,
    tpcc: TpccGenerator,
    tatp: TatpGenerator,
    keys: Zipfian,
    rng: StdRng,
    ops_done: usize,
    /// The current operation's update sites, reused across operations.
    sites: Vec<(VirtAddr, u64)>,
    /// The value an update writes, reused across updates.
    value: Vec<u8>,
}

/// `len` copies of `byte` in `buf`, reusing its allocation.
fn fill(buf: &mut Vec<u8>, byte: u8, len: u64) -> &[u8] {
    buf.clear();
    buf.resize(len as usize, byte);
    buf
}

/// Executes a workload under a given configuration.
pub struct Runner {
    spec: WorkloadSpec,
    options: RunOptions,
}

impl Runner {
    /// Creates a runner for `workload` with `options`.
    pub fn new(workload: Workload, options: RunOptions) -> Self {
        Runner {
            spec: workload.spec(),
            options,
        }
    }

    /// Runs the workload and returns the system report.
    pub fn run(&self) -> Result<RunReport> {
        let (report, _sys) = self.run_with_system()?;
        Ok(report)
    }

    /// Runs the workload, returning both the report and the system (for
    /// tests that want to inspect the persistent image afterwards).
    pub fn run_with_system(&self) -> Result<(RunReport, NearPmSystem)> {
        self.run_with_system_observed(|_, _| {})
    }

    /// Runs the workload, sampling a mid-run [`RunReport`] every
    /// `sample_every` operations via [`NearPmSystem::report`] — the in-run
    /// time-series driving. Sampling is pure observation (it only advances
    /// the cached checker), so the final report is identical to an
    /// unsampled run's; a differential test pins this.
    pub fn run_sampled(
        &self,
        sample_every: usize,
    ) -> Result<(Vec<RunReport>, RunReport, NearPmSystem)> {
        let every = sample_every.max(1);
        let mut samples = Vec::new();
        let (report, sys) = self.run_with_system_observed(|sys, done| {
            if done % every == 0 {
                samples.push(sys.report());
            }
        })?;
        Ok((samples, report, sys))
    }

    /// [`Runner::run_with_system`] with an observation hook called after
    /// every completed operation (`observe(&mut sys, ops_done)`).
    pub fn run_with_system_observed(
        &self,
        mut observe: impl FnMut(&mut NearPmSystem, usize),
    ) -> Result<(RunReport, NearPmSystem)> {
        let o = &self.options;
        let mut sys = self.build_system()?;
        let mut threads = self.setup_threads(&mut sys)?;

        // Round-robin the operations over the threads (a closed-loop client
        // per thread).
        for op in 0..o.operations {
            let t = op % o.threads;
            let span_start = sys.task_count();
            self.run_one_op(&mut sys, &mut threads[t], t)?;
            // Pure observation (no-op unless latency tracking is on): the
            // op's admission-to-retire time is the span of the tasks it
            // just added.
            sys.record_span_latency(span_start);
            observe(&mut sys, op + 1);
        }

        self.finish_epochs(&mut sys, &mut threads);
        Ok((sys.report(), sys))
    }

    /// Builds the configured system for this runner's options (shared by the
    /// closed loop here and the open-loop driver).
    pub(crate) fn build_system(&self) -> Result<NearPmSystem> {
        let o = &self.options;
        let mut config = SystemConfig::for_mode(o.mode)
            .with_units(o.units_per_device)
            .with_cpu_threads(o.threads)
            .with_capacity(Self::CAPACITY)
            .with_media(o.media.clone())
            .with_decode_lanes(o.decode_lanes)
            .with_trace_compaction(o.compact_trace)
            .with_latency_tracking(o.track_latency);
        if let Some(depth) = o.fifo_depth {
            config = config.with_fifo_depth(depth);
        }
        NearPmSystem::try_new(config)
    }

    /// Emulated PM capacity every run provisions.
    const CAPACITY: u64 = 96 << 20;

    /// Allocates pools, working-set objects, mechanism state, and request
    /// generators for every thread (shared by the closed loop and the
    /// open-loop driver).
    pub(crate) fn setup_threads(&self, sys: &mut NearPmSystem) -> Result<Vec<ThreadState>> {
        let o = &self.options;
        let capacity = Self::CAPACITY;

        // Redis shares one pool among all threads; Memcached and the rest use
        // one pool per thread (Section 8.3.1).
        let shared_pool = self.spec.workload == Workload::Redis || o.threads == 1;
        let pool_size = (capacity / (o.threads as u64 + 1)).min(32 << 20);
        let mut pools: Vec<PoolId> = Vec::new();
        if shared_pool {
            pools.push(sys.create_pool("pm-pool", pool_size)?);
        } else {
            for t in 0..o.threads {
                pools.push(sys.create_pool(&format!("pm-pool-{t}"), pool_size)?);
            }
        }

        // Per-thread state.
        let per_thread_objects = (self.spec.working_set / o.threads).max(16);
        let mut threads: Vec<ThreadState> = Vec::with_capacity(o.threads);
        for t in 0..o.threads {
            let pool = pools[if shared_pool { 0 } else { t }];
            let obj_size = self.spec.max_update().max(64);
            let mut objects = Vec::with_capacity(per_thread_objects);
            for _ in 0..per_thread_objects {
                objects.push(sys.alloc(pool, obj_size, 64)?);
            }
            let arena_pages = 48 / o.threads.max(1) + 16;
            let mechanism = match o.mechanism {
                Mechanism::Logging => {
                    ThreadMechanism::Logging(UndoLog::new(sys, pool, t, arena_pages)?)
                }
                Mechanism::Checkpointing => {
                    ThreadMechanism::Checkpointing(Checkpoint::new(sys, pool, t, arena_pages)?)
                }
                Mechanism::ShadowPaging => {
                    let pages = (per_thread_objects / 8).clamp(4, 32);
                    // Each logical page permanently binds one spare on its
                    // home device (flip-flop placement), so the arena must
                    // hold at least `pages` slots per device even when every
                    // page lands on the same one (the baseline's single
                    // virtual device).
                    ThreadMechanism::Shadow(ShadowPaging::new(
                        sys,
                        pool,
                        t,
                        pages,
                        arena_pages.max(pages),
                    )?)
                }
                Mechanism::RedoLogging => {
                    ThreadMechanism::RedoLogging(RedoLog::new(sys, pool, t, arena_pages)?)
                }
            };
            let seed = o.seed ^ (t as u64).wrapping_mul(0x9E37_79B9);
            threads.push(ThreadState {
                mechanism,
                objects,
                pages: (per_thread_objects / 8).clamp(4, 32),
                ycsb: YcsbGenerator::write_only(
                    per_thread_objects as u64,
                    self.spec.max_update(),
                    seed,
                ),
                tpcc: TpccGenerator::new(seed),
                tatp: TatpGenerator::new(per_thread_objects as u64, seed),
                keys: Zipfian::new(per_thread_objects as u64, seed),
                rng: StdRng::seed_from_u64(seed),
                ops_done: 0,
                sites: Vec::new(),
                value: Vec::new(),
            });
        }
        Ok(threads)
    }

    /// Closes out open checkpoint epochs so their work is fully accounted
    /// (call once after the last operation).
    pub(crate) fn finish_epochs(&self, sys: &mut NearPmSystem, threads: &mut [ThreadState]) {
        for state in threads.iter_mut() {
            if let ThreadMechanism::Checkpointing(ckpt) = &mut state.mechanism {
                let _ = ckpt.advance_epoch(sys);
            }
        }
    }

    /// Runs one workload operation on one thread.
    pub(crate) fn run_one_op(
        &self,
        sys: &mut NearPmSystem,
        state: &mut ThreadState,
        thread: usize,
    ) -> Result<()> {
        // Determine the update sites and compute burst for this operation.
        let mut update_sites = std::mem::take(&mut state.sites);
        let compute_ns = self.op_shape(state, &mut update_sites);
        state.ops_done += 1;

        match &mut state.mechanism {
            ThreadMechanism::Logging(undo) => {
                undo.begin(sys)?;
                // Log every to-be-updated range first (independent logging
                // operations can proceed in parallel on NearPM).
                for (addr, len) in &update_sites {
                    undo.log_range(sys, *addr, *len)?;
                }
                sys.cpu_compute(thread, compute_ns)?;
                for (addr, len) in &update_sites {
                    let val = fill(&mut state.value, state.rng.gen(), *len);
                    undo.update(sys, *addr, val)?;
                }
                undo.commit(sys)?;
            }
            ThreadMechanism::Checkpointing(ckpt) => {
                // Checkpoint snapshots already post split-phase (no wait
                // until the epoch boundary), so both pipelines drive the
                // identical task graph here; the pipeline option only
                // restructures mechanisms with per-site waits (shadow
                // paging below).
                let addrs: Vec<VirtAddr> = update_sites.iter().map(|(addr, _)| *addr).collect();
                ckpt.touch_many(sys, &addrs)?;
                sys.cpu_compute(thread, compute_ns)?;
                for (addr, len) in &update_sites {
                    let val = fill(&mut state.value, state.rng.gen(), *len);
                    ckpt.update(sys, *addr, val)?;
                }
                // Epoch boundary every 16 operations.
                if state.ops_done.is_multiple_of(16) {
                    ckpt.advance_epoch(sys)?;
                }
            }
            ThreadMechanism::RedoLogging(redo) => {
                redo.begin(sys)?;
                // Redo logging computes the new values first, stages them
                // into the log, and applies in place only at commit.
                sys.cpu_compute(thread, compute_ns)?;
                for (addr, len) in &update_sites {
                    let val = fill(&mut state.value, state.rng.gen(), *len);
                    redo.stage(sys, *addr, val)?;
                }
                redo.commit(sys)?;
            }
            ThreadMechanism::Shadow(shadow) => {
                sys.cpu_compute(thread, compute_ns)?;
                let sites: Vec<(usize, u64, Vec<u8>)> = update_sites
                    .iter()
                    .map(|(addr, len)| {
                        let page_idx = (addr.raw() as usize / 64) % state.pages;
                        let offset = (addr.raw() % (PM_PAGE - len)) & !63;
                        (page_idx, offset, vec![state.rng.gen::<u8>(); *len as usize])
                    })
                    .collect();
                match self.options.pipeline {
                    TxnPipeline::SplitPhase => {
                        // All of the operation's page copies in flight
                        // together, one synchronization per round.
                        shadow.update_many(sys, &sites)?;
                    }
                    TxnPipeline::SerialOracle => {
                        for (page_idx, offset, val) in &sites {
                            shadow.update(sys, *page_idx, *offset, val)?;
                        }
                    }
                }
            }
        }
        state.sites = update_sites;
        Ok(())
    }

    /// Chooses the update sites (into `sites`, replacing its contents) and
    /// returns the compute burst for the next operation of this workload.
    fn op_shape(&self, state: &mut ThreadState, sites: &mut Vec<(VirtAddr, u64)>) -> f64 {
        sites.clear();
        let mut compute = self.spec.compute_ns;
        match self.spec.workload {
            Workload::Tpcc => match state.tpcc.next_txn() {
                TpccTxn::NewOrder { lines } => {
                    compute *= 1.2;
                    for _ in 0..lines.min(8) {
                        sites.push(self.pick(state, 128));
                    }
                    sites.push(self.pick(state, 512));
                }
                TpccTxn::Payment => {
                    for _ in 0..3 {
                        sites.push(self.pick(state, 128));
                    }
                }
                TpccTxn::Delivery => {
                    compute *= 0.8;
                    sites.push(self.pick(state, 128));
                }
            },
            Workload::Tatp => match state.tatp.next_txn() {
                TatpTxn::UpdateSubscriber { .. } => sites.push(self.pick(state, 64)),
                TatpTxn::UpdateLocation { .. } => sites.push(self.pick(state, 64)),
            },
            Workload::Memcached | Workload::Redis => match state.ycsb.next_op() {
                YcsbOp::Update { value_size, .. } => {
                    for (count, bytes) in &self.spec.updates {
                        for _ in 0..*count {
                            let b = if *bytes >= 512 {
                                value_size.max(*bytes)
                            } else {
                                *bytes
                            };
                            sites.push(self.pick(state, b));
                        }
                    }
                }
                YcsbOp::Read { .. } => {
                    sites.push(self.pick(state, 64));
                }
            },
            _ => {
                for (count, bytes) in &self.spec.updates {
                    for _ in 0..*count {
                        sites.push(self.pick(state, *bytes));
                    }
                }
            }
        }
        compute
    }

    fn pick(&self, state: &mut ThreadState, len: u64) -> (VirtAddr, u64) {
        let idx = state.keys.next_key() as usize % state.objects.len();
        let len = len.min(self.spec.max_update().max(64));
        (state.objects[idx], len)
    }
}

/// Convenience: run one workload / mechanism / mode combination.
pub fn run(
    workload: Workload,
    mechanism: Mechanism,
    mode: ExecMode,
    operations: usize,
) -> Result<RunReport> {
    Runner::new(workload, RunOptions::new(mode, mechanism, operations)).run()
}

/// Reusable multi-client closed-loop driving, extracted from the hand-rolled
/// fig20 sweep so every figure can load the devices the same way.
///
/// `clients` closed-loop clients (one per CPU thread) each execute
/// `ops_per_client` operations of the workload through the shared [`Runner`];
/// NearPM runs are compared against an **equal-client** CPU baseline, so a
/// comparison's speedup is also its normalized throughput (equal work on both
/// sides). The unit-count and FIFO-depth knobs make this the engine of the
/// fig19 units×clients sweep and the fig21 FIFO-depth sweep as well.
#[derive(Debug, Clone)]
pub struct MultiClientHarness {
    workload: Workload,
    mechanism: Mechanism,
    clients: usize,
    ops_per_client: usize,
    units_per_device: usize,
    fifo_depth: Option<usize>,
    decode_lanes: usize,
    seed: u64,
    track_latency: bool,
}

/// A NearPM run and the equal-client CPU baseline it is measured against.
#[derive(Debug, Clone)]
pub struct HarnessComparison {
    /// Equal-client CPU-baseline report.
    pub baseline: RunReport,
    /// The NearPM-mode report.
    pub nearpm: RunReport,
}

impl HarnessComparison {
    /// End-to-end speedup of the NearPM run over the equal-client baseline.
    /// Both sides execute identical work, so this is also the normalized
    /// throughput figure 20 reports.
    pub fn speedup(&self) -> f64 {
        self.nearpm.speedup_over(&self.baseline)
    }
}

impl MultiClientHarness {
    /// Harness for one workload/mechanism pair: 1 client, 32 ops/client,
    /// prototype units (4) and FIFO depth (32), seed 1.
    pub fn new(workload: Workload, mechanism: Mechanism) -> Self {
        MultiClientHarness {
            workload,
            mechanism,
            clients: 1,
            ops_per_client: 32,
            units_per_device: 4,
            fifo_depth: None,
            decode_lanes: 1,
            seed: 1,
            track_latency: false,
        }
    }

    /// Number of concurrent closed-loop clients.
    pub fn with_clients(mut self, clients: usize) -> Self {
        self.clients = clients.max(1);
        self
    }

    /// Operations each client executes.
    pub fn with_ops_per_client(mut self, ops: usize) -> Self {
        self.ops_per_client = ops.max(1);
        self
    }

    /// NearPM units per device (fig19 sweep).
    pub fn with_units(mut self, units: usize) -> Self {
        self.units_per_device = units.max(1);
        self
    }

    /// Request-FIFO depth per device (fig21 sweep).
    pub fn with_fifo_depth(mut self, depth: usize) -> Self {
        self.fifo_depth = Some(depth.max(1));
        self
    }

    /// Decode lanes per device front-end (1 by default; 2 gives each device
    /// a second decode stage for heavy multi-client loads).
    pub fn with_decode_lanes(mut self, lanes: usize) -> Self {
        self.decode_lanes = lanes.max(1);
        self
    }

    /// RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables per-operation latency tracking on every run this harness
    /// drives (off by default; observation only).
    pub fn with_latency_tracking(mut self, track: bool) -> Self {
        self.track_latency = track;
        self
    }

    /// The run options this harness drives `mode` with.
    pub fn options(&self, mode: ExecMode) -> RunOptions {
        let mut o = RunOptions::new(mode, self.mechanism, self.ops_per_client * self.clients)
            .with_threads(self.clients)
            .with_units(self.units_per_device)
            .with_decode_lanes(self.decode_lanes)
            .with_seed(self.seed)
            .with_latency_tracking(self.track_latency);
        if let Some(depth) = self.fifo_depth {
            o = o.with_fifo_depth(depth);
        }
        o
    }

    /// Runs the workload under `mode` with this harness's client load.
    pub fn run_mode(&self, mode: ExecMode) -> Result<RunReport> {
        Runner::new(self.workload, self.options(mode)).run()
    }

    /// Runs the equal-client CPU baseline. It does not depend on the
    /// unit-count, FIFO-depth or decode-lane knobs, so a sweep over those
    /// runs it once and compares every level against it.
    pub fn baseline(&self) -> Result<RunReport> {
        self.run_mode(ExecMode::CpuBaseline)
    }

    /// Runs `mode` and the equal-client baseline, pairing them for
    /// normalized-throughput / speedup reporting.
    pub fn compare(&self, mode: ExecMode) -> Result<HarnessComparison> {
        Ok(HarnessComparison {
            baseline: self.baseline()?,
            nearpm: self.run_mode(mode)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_specs_are_populated() {
        for w in Workload::all() {
            let s = w.spec();
            assert!(s.compute_ns > 0.0);
            assert!(s.bytes_per_op() > 0);
            assert!(!w.name().is_empty());
        }
        // TATP is the smallest-footprint workload.
        assert!(Workload::Tatp.spec().bytes_per_op() <= Workload::Tpcc.spec().bytes_per_op());
    }

    #[test]
    fn every_workload_runs_under_every_mechanism() {
        for w in [Workload::Tatp, Workload::Hashmap, Workload::Redis] {
            for m in Mechanism::all_extended() {
                let report = run(w, m, ExecMode::NearPmMd, 8).unwrap();
                assert!(report.ppo_violations.is_empty(), "{w:?}/{m:?}");
                assert!(report.makespan.as_ns() > 0.0);
            }
        }
    }

    /// Latency tracking is pure observation: every non-latency report field
    /// is identical with and without it, and the tracked run records
    /// exactly one latency per operation.
    #[test]
    fn latency_tracking_is_pure_observation() {
        let opts = RunOptions::new(ExecMode::NearPmMd, Mechanism::Logging, 24)
            .with_threads(2)
            .with_seed(7);
        let plain = Runner::new(Workload::Memcached, opts.clone())
            .run()
            .unwrap();
        let tracked = Runner::new(Workload::Memcached, opts.with_latency_tracking(true))
            .run()
            .unwrap();
        let summary = tracked.request_latency.clone().expect("tracked summary");
        assert_eq!(summary.count, 24);
        assert!(summary.p50 <= summary.p99 && summary.p99 <= summary.p999);
        assert!(summary.p999.as_ns() > 0.0);
        let mut scrubbed = tracked;
        scrubbed.request_latency = None;
        assert_eq!(scrubbed, plain);
    }

    #[test]
    fn nearpm_md_beats_baseline_on_logging_workloads() {
        for w in [Workload::Tpcc, Workload::Btree, Workload::Memcached] {
            let base = run(w, Mechanism::Logging, ExecMode::CpuBaseline, 24).unwrap();
            let md = run(w, Mechanism::Logging, ExecMode::NearPmMd, 24).unwrap();
            let speedup = md.speedup_over(&base);
            assert!(speedup > 1.0, "{w:?}: end-to-end speedup {speedup}");
            let cc_speedup = md.cc_speedup_over(&base);
            assert!(cc_speedup > 1.5, "{w:?}: cc speedup {cc_speedup}");
        }
    }

    #[test]
    fn baseline_cc_overhead_is_substantial() {
        let base = run(
            Workload::Btree,
            Mechanism::ShadowPaging,
            ExecMode::CpuBaseline,
            24,
        )
        .unwrap();
        assert!(base.cc_fraction() > 0.3, "{}", base.cc_fraction());
    }

    /// An epoch of multi-thread TPCC can snapshot more pages than a
    /// thread's initial checkpoint arena holds; the arena grows from the
    /// thread's pool instead of failing the run.
    #[test]
    fn multithreaded_tpcc_checkpointing_runs_clean() {
        for mode in [ExecMode::CpuBaseline, ExecMode::NearPmSd] {
            for threads in [2usize, 4, 8, 16] {
                let opts = RunOptions::new(mode, Mechanism::Checkpointing, 256)
                    .with_threads(threads)
                    .with_seed(1);
                let report = Runner::new(Workload::Tpcc, opts)
                    .run()
                    .unwrap_or_else(|e| panic!("{mode:?} × {threads} threads: {e}"));
                assert!(
                    report.ppo_violations.is_empty(),
                    "{mode:?} × {threads} threads: {:?}",
                    report.ppo_violations
                );
            }
        }
    }

    #[test]
    fn multithreaded_run_produces_valid_report() {
        let opts = RunOptions::new(ExecMode::NearPmMd, Mechanism::Logging, 32).with_threads(4);
        let report = Runner::new(Workload::Memcached, opts).run().unwrap();
        assert!(report.ppo_violations.is_empty());
        assert!(report.makespan.as_ns() > 0.0);
    }

    /// fig20 regression (the paper's multithread claim): NearPM MD must stay
    /// at or above the equal-thread CPU baseline's throughput at 8 and 16
    /// threads. With the single-stage front-end this dropped to ~0.2-0.5x —
    /// the dispatcher serialized decode, conflict waits, and sync behind one
    /// resource. The full mechanism/workload matrix is asserted by the
    /// release-mode `fig20_multithread` figure; this in-tree test covers the
    /// worst regressing combination at reduced ops.
    #[test]
    fn fig20_shape_normalized_throughput_at_scale() {
        for threads in [8usize, 16] {
            let ops = 16 * threads;
            let base = Runner::new(
                Workload::Memcached,
                RunOptions::new(ExecMode::CpuBaseline, Mechanism::Logging, ops)
                    .with_threads(threads),
            )
            .run()
            .unwrap();
            let md = Runner::new(
                Workload::Memcached,
                RunOptions::new(ExecMode::NearPmMd, Mechanism::Logging, ops).with_threads(threads),
            )
            .run()
            .unwrap();
            let norm = base.makespan.ratio(md.makespan);
            assert!(
                norm >= 1.0,
                "memcached/logging at {threads} threads: {norm:.3}x normalized throughput"
            );
            assert!(md.ppo_violations.is_empty());
        }
    }

    /// The harness must drive exactly the run the hand-rolled option builder
    /// drives: same options → same deterministic report.
    #[test]
    fn harness_matches_hand_rolled_options() {
        let harness = MultiClientHarness::new(Workload::Memcached, Mechanism::Logging)
            .with_clients(4)
            .with_ops_per_client(8)
            .with_units(2)
            .with_seed(3);
        let by_harness = harness.run_mode(ExecMode::NearPmMd).unwrap();
        let by_hand = Runner::new(
            Workload::Memcached,
            RunOptions::new(ExecMode::NearPmMd, Mechanism::Logging, 32)
                .with_threads(4)
                .with_units(2)
                .with_seed(3),
        )
        .run()
        .unwrap();
        assert_eq!(by_harness.makespan, by_hand.makespan);
        assert_eq!(by_harness.ndp_bytes_moved, by_hand.ndp_bytes_moved);
    }

    #[test]
    fn harness_comparison_reports_speedup_over_equal_client_baseline() {
        let cmp = MultiClientHarness::new(Workload::Memcached, Mechanism::Logging)
            .with_clients(4)
            .with_ops_per_client(8)
            .compare(ExecMode::NearPmMd)
            .unwrap();
        assert!(cmp.baseline.makespan.as_ns() > 0.0);
        assert!(cmp.nearpm.ppo_violations.is_empty());
        assert!(cmp.speedup() > 0.0);
        // Equal work on both sides: speedup is the normalized throughput.
        assert!((cmp.speedup() - cmp.baseline.makespan.ratio(cmp.nearpm.makespan)).abs() < 1e-12);
    }

    /// The FIFO-depth override must reach the device model: occupancy is
    /// capped at the configured depth, and a contended shallow FIFO stalls.
    #[test]
    fn fifo_depth_override_reaches_the_devices() {
        let report = MultiClientHarness::new(Workload::Memcached, Mechanism::Logging)
            .with_clients(8)
            .with_ops_per_client(8)
            .with_fifo_depth(2)
            .run_mode(ExecMode::NearPmMd)
            .unwrap();
        assert!(report.fifo_high_watermark <= 2);
        assert!(report.ppo_violations.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Runner::new(
            Workload::Hashmap,
            RunOptions::new(ExecMode::NearPmSd, Mechanism::Logging, 16).with_seed(5),
        )
        .run()
        .unwrap();
        let b = Runner::new(
            Workload::Hashmap,
            RunOptions::new(ExecMode::NearPmSd, Mechanism::Logging, 16).with_seed(5),
        )
        .run()
        .unwrap();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.ndp_bytes_moved, b.ndp_bytes_moved);
    }
}
