//! Synthetic PPO traces and task graphs at evaluation scale.
//!
//! The checker benchmarks need traces with the *shape* of a fig16 end-to-end
//! run (per-transaction offload → NDP read → NDP log write/persist → CPU
//! update/persist, with occasional multi-device syncs and a crash/recovery
//! tail) but with a controllable event count, so that the incremental
//! checker can be compared against the naive oracles at 100k+ events. The scheduler
//! benchmarks similarly need task graphs with the shape of a fig18 run
//! (offloaded undo-log transactions overlapping CPU work across two devices)
//! at a controllable task count. Generation is fully deterministic — no RNG
//! — so benchmark runs are reproducible.

use std::collections::HashMap;

use nearpm_core::{AddrRange, ExecMode, NearPmOp, NearPmSystem, OffloadBatch, SystemConfig};
use nearpm_ppo::{Agent, EventKind, Interval, ProcId, Sharing, Trace};
use nearpm_sim::schedule::oracle;
use nearpm_sim::{Region, Resource, SimDuration, TaskGraph};

/// Shape of a synthetic undo-log trace.
#[derive(Debug, Clone, Copy)]
pub struct SyntheticTraceSpec {
    /// Stop once at least this many events are recorded.
    pub target_events: usize,
    /// Number of NearPM devices transactions round-robin over.
    pub devices: usize,
    /// Distinct shared objects (reuse forces interval-index collisions).
    pub objects: u64,
    /// Distinct NDP-managed log slots.
    pub log_slots: u64,
    /// Record a multi-device sync for the first `sync_txns` transactions
    /// (early syncs keep the naive oracle's cubic sync check affordable
    /// while still exercising the path at scale).
    pub sync_txns: u64,
    /// Number of recovery-read events appended (after a failure event) as
    /// the trace's recovery tail.
    pub recovery_reads: usize,
}

impl SyntheticTraceSpec {
    /// A fig16-shaped trace with the given event count.
    pub fn fig16(target_events: usize) -> Self {
        SyntheticTraceSpec {
            target_events,
            devices: 2,
            objects: 4096,
            log_slots: 1024,
            sync_txns: 32,
            recovery_reads: 512,
        }
    }
}

/// Generates a PPO-clean trace with the transaction shape of the fig16
/// end-to-end workloads. The trace verifies cleanly under both `check_all`
/// and the naive oracles, so benchmark comparisons measure checking speed,
/// not violation-reporting throughput ([`perturbed_undo_log_trace`] adds
/// the violations).
pub fn synthetic_undo_log_trace(spec: SyntheticTraceSpec) -> Trace {
    let mut t = Trace::new(spec.devices);
    let mut ts: u64 = 100;
    let mut txn: u64 = 0;
    // Leave room for the failure/recovery tail.
    let body_events = spec.target_events.saturating_sub(spec.recovery_reads + 1);
    while t.len() < body_events {
        let obj = Interval::new(0x10_0000 + (txn % spec.objects) * 0x100, 64);
        let log = Interval::new(0x4000_0000 + (txn % spec.log_slots) * 0x100, 64);
        let dev = Agent::Ndp((txn % spec.devices as u64) as usize);
        let p = t.new_proc();

        // CPU offloads undo-log creation for this transaction.
        t.record(
            Agent::Cpu,
            EventKind::Offload,
            Interval::new(0, 0),
            Sharing::Shared,
            Some(p),
            None,
            ts,
        );
        // The device reads the shared object and persists the log copy.
        t.record(
            dev,
            EventKind::Read,
            obj,
            Sharing::Shared,
            Some(p),
            None,
            ts + 10,
        );
        t.record_write_persist(dev, log, Sharing::NdpManaged, Some(p), ts + 20);
        // The CPU then updates the object in place and persists it.
        t.record(
            Agent::Cpu,
            EventKind::Write,
            obj,
            Sharing::Shared,
            None,
            None,
            ts + 30,
        );
        t.record(
            Agent::Cpu,
            EventKind::Persist,
            obj,
            Sharing::Shared,
            None,
            None,
            ts + 40,
        );
        if txn < spec.sync_txns {
            let s = t.new_sync();
            t.record(
                dev,
                EventKind::Sync,
                Interval::new(0, 0),
                Sharing::NdpManaged,
                Some(p),
                Some(s),
                ts + 50,
            );
        }
        ts += 60;
        txn += 1;
    }

    // Crash, then a recovery pass re-reading a slice of the logs.
    t.record(
        Agent::Cpu,
        EventKind::Failure,
        Interval::new(0, 0),
        Sharing::Shared,
        None,
        None,
        ts,
    );
    for i in 0..spec.recovery_reads as u64 {
        let log = Interval::new(0x4000_0000 + (i % spec.log_slots) * 0x100, 64);
        t.record(
            Agent::Ndp((i % spec.devices as u64) as usize),
            EventKind::RecoveryRead,
            log,
            Sharing::NdpManaged,
            None,
            None,
            ts + 10 + i,
        );
    }
    t
}

/// Re-records `clean` — a trace from [`synthetic_undo_log_trace`] — with
/// deterministic timestamp perturbations that break PPO, so the checkers can
/// be compared on violation reporting at scale, not just on clean traces.
/// Event order, agents, intervals, and ids are unchanged; only timestamps
/// move:
///
/// * every 97th transaction's CPU update is stamped just before its NDP
///   read of the same object (Invariant 1: a `SharedOrderViolation`);
/// * transactions 3, 11, 19, … that record a proc-scoped sync have their
///   log persist stamped just after that sync (Invariant 3: an
///   `UnpersistedBeforeSync`).
pub fn perturbed_undo_log_trace(clean: &Trace) -> Trace {
    let sync_ts: HashMap<ProcId, u64> = clean
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::Sync)
        .filter_map(|e| Some((e.proc?, e.timestamp_ps)))
        .collect();
    let devices = clean
        .events()
        .iter()
        .filter_map(|e| match e.agent {
            Agent::Ndp(d) => Some(d + 1),
            Agent::Cpu => None,
        })
        .max()
        .unwrap_or(1);
    let mut t = Trace::new(devices);
    let mut txn: Option<u64> = None;
    let mut ndp_read_ts = 0;
    for e in clean.events() {
        let mut ts = e.timestamp_ps;
        match (e.agent, e.kind) {
            (Agent::Cpu, EventKind::Offload) => txn = Some(txn.map_or(0, |n| n + 1)),
            (Agent::Ndp(_), EventKind::Read) => ndp_read_ts = ts,
            (Agent::Cpu, EventKind::Write) if txn.is_some_and(|n| n % 97 == 96) => {
                ts = ndp_read_ts.saturating_sub(1);
            }
            (Agent::Ndp(_), EventKind::Persist) if txn.is_some_and(|n| n % 8 == 3) => {
                if let Some(&sync) = e.proc.and_then(|p| sync_ts.get(&p)) {
                    ts = sync + 1;
                }
            }
            _ => {}
        }
        t.record(e.agent, e.kind, e.interval, e.sharing, e.proc, e.sync, ts);
    }
    t
}

/// Builds a deterministic task graph with the shape of a fig18 NearPM MD
/// run: per transaction, CPU compute overlaps an offloaded undo-log creation
/// through the pipelined device front-end (decode on the shared dispatcher →
/// issue on the unit's issue queue → metadata → DMA copy on the unit),
/// followed by the in-place CPU update/persist; every fourth transaction
/// commits with a log reset. Copy sizes alternate between small (64 B) and
/// large (16 kB) so unit assignment matters. Built with in-order `add` (one
/// producer thread, so insertion order equals arrival order), keeping the
/// graph inside `schedule::oracle`'s contract. Stops once at least
/// `target_tasks` tasks exist.
pub fn synthetic_fig18_graph(target_tasks: usize) -> TaskGraph {
    const DEVICES: usize = 2;
    const UNITS: usize = 4;
    let ns = SimDuration::from_ns;
    let mut g = TaskGraph::new();
    let mut txn = 0u64;
    let mut cpu_tail = None;
    while g.len() < target_tasks {
        let device = (txn as usize) % DEVICES;
        let unit_index = ((txn / DEVICES as u64) as usize) % UNITS;
        let unit = Resource::NdpUnit {
            device,
            unit: unit_index,
        };
        let issue_queue = Resource::IssueQueue {
            device,
            unit: unit_index,
        };
        let deps: Vec<_> = cpu_tail.into_iter().collect();
        let compute = g.add(
            "app-compute",
            Resource::Cpu(0),
            ns(600.0 + (txn % 7) as f64 * 90.0),
            Region::Application,
            &deps,
        );
        let cmd = g.add(
            "cmd-issue",
            Resource::Cpu(0),
            ns(60.0),
            Region::CcOffload,
            &[compute],
        );
        let decode = g.add(
            "ndp-decode",
            Resource::Dispatcher(device),
            ns(8.0),
            Region::CcOffload,
            &[cmd],
        );
        let issue = g.add(
            "ndp-issue",
            issue_queue,
            ns(17.0),
            Region::CcOffload,
            &[decode],
        );
        let meta = g.add("ndp-metadata", unit, ns(30.0), Region::CcMetadata, &[issue]);
        // Mixed copy sizes: mostly small log copies, every third a large one.
        let copy_ns = if txn.is_multiple_of(3) { 2_000.0 } else { 64.0 };
        let copy = g.add(
            "ndp-copy",
            unit,
            ns(copy_ns),
            Region::CcDataMovement,
            &[meta],
        );
        let update = g.add(
            "cpu-update",
            Resource::Cpu(0),
            ns(110.0),
            Region::AppPersist,
            &[copy],
        );
        let persist = g.add(
            "cpu-persist",
            Resource::Cpu(0),
            ns(140.0),
            Region::AppPersist,
            &[update],
        );
        cpu_tail = Some(persist);
        if txn % 4 == 3 {
            let reset = g.add(
                "ndp-log-reset",
                unit,
                ns(40.0),
                Region::CcLogReset,
                &[persist],
            );
            let _ = reset;
        }
        txn += 1;
    }
    g
}

/// Builds and drives a **live** fig20-shaped NearPM MD run: `threads`
/// closed-loop clients round-robin over undo-log-style transactions
/// (compute → offloaded log create → in-place update/persist, a delayed
/// multi-device sync every third transaction) until the PPO trace holds at
/// least `target_events` events. `observe(&mut sys, txn_index)` runs after
/// every transaction — the hook the `report_smoke` gate samples from.
/// Fully deterministic (no RNG), and every transaction releases its handle,
/// so the in-flight table stays bounded at any scale.
pub fn drive_fig20_system(
    threads: usize,
    target_events: usize,
    observe: impl FnMut(&mut NearPmSystem, usize),
) -> NearPmSystem {
    drive_fig20_system_configured(threads, target_events, |c| c, observe)
}

/// [`drive_fig20_system`] with a hook over the [`SystemConfig`] before the
/// system is built — how the `report_smoke` gate drives the **same**
/// deterministic run a second time with streaming trace compaction (and a
/// checker worker pool) enabled, so the two runs' final reports can be
/// compared byte for byte.
pub fn drive_fig20_system_configured(
    threads: usize,
    target_events: usize,
    configure: impl FnOnce(SystemConfig) -> SystemConfig,
    mut observe: impl FnMut(&mut NearPmSystem, usize),
) -> NearPmSystem {
    // Working-set sizing follows the fig20 workloads (hundreds of objects
    // per client): accesses rotate over enough distinct ranges that interval
    // overlap stays sparse, as it is in the real runs.
    const OBJS_PER_THREAD: u64 = 32;
    const OBJ_SIZE: u64 = 1024;
    const SLOTS_PER_THREAD: u64 = 16;
    let mut sys = NearPmSystem::new(configure(
        SystemConfig::for_mode(ExecMode::NearPmMd)
            .with_cpu_threads(threads)
            .with_capacity(64 << 20),
    ));
    let pool = sys.create_pool("fig20-shape", 32 << 20).expect("pool");
    let mut objs = Vec::with_capacity(threads);
    let mut logs = Vec::with_capacity(threads);
    for _ in 0..threads {
        objs.push(
            sys.alloc(pool, OBJS_PER_THREAD * OBJ_SIZE, 64)
                .expect("obj arena"),
        );
        let log = sys
            .alloc(pool, SLOTS_PER_THREAD * 4096, 4096)
            .expect("log area");
        sys.register_ndp_managed(AddrRange::new(log, SLOTS_PER_THREAD * 4096));
        logs.push(log);
    }

    let mut txn = 0usize;
    let mut batch = OffloadBatch::with_capacity(1);
    while sys.trace_events() < target_events {
        let t = txn % threads;
        let obj = objs[t].offset(((txn as u64 / 3) % OBJS_PER_THREAD) * OBJ_SIZE);
        let slot = logs[t].offset((txn as u64 % SLOTS_PER_THREAD) * 4096);
        sys.cpu_compute(t, 300.0 + (txn % 7) as f64 * 45.0)
            .expect("compute");
        let id = sys.next_txn_id();
        sys.offload_into(
            &mut batch,
            t,
            pool,
            NearPmOp::UndoLogCreate {
                src: obj,
                len: 256,
                log_meta: slot,
                log_data: slot.offset(64),
                txn_id: id,
            },
            &[],
        )
        .expect("offload");
        sys.cpu_write_persist(t, obj, &[txn as u8; 256], Region::AppPersist)
            .expect("update");
        if txn % 3 == 2 {
            sys.delayed_sync_batch(&batch).expect("sync");
        }
        sys.release_batch(&mut batch);
        txn += 1;
        observe(&mut sys, txn);
    }
    sys
}

/// The schedule-analysis battery a report or figure regeneration reads:
/// makespan, CPU/NDP busy and overlap, every region's busy time, and
/// per-resource utilization. Answered from the task graph's incrementally
/// maintained sums and [`Timeline`](nearpm_sim::Timeline). Returns a
/// picosecond checksum so benchmark loops cannot be optimized away.
pub fn timeline_schedule_analysis(graph: &TaskGraph) -> u64 {
    let tl = graph.timeline();
    let mut acc = graph.makespan().as_ps();
    acc += tl.cpu().total().as_ps() + tl.ndp().total().as_ps() + tl.overlap().as_ps();
    for r in Region::all() {
        acc += graph.region_work(r).as_ps();
    }
    for resource in analysis_resources() {
        acc += (graph.utilization(resource) * 1e6) as u64;
    }
    acc
}

/// The same battery answered by the retained pre-timeline implementation:
/// timings re-derived with the original recurrence, then every query a
/// rescan of the task list with per-query sort/merge.
pub fn rescanning_schedule_analysis(graph: &TaskGraph) -> u64 {
    let timings = oracle::compute_timings(graph);
    let makespan = oracle::makespan(&timings);
    let mut acc = makespan.as_ps();
    acc += oracle::cpu_busy(graph, &timings).as_ps()
        + oracle::ndp_busy(graph, &timings).as_ps()
        + oracle::cpu_ndp_overlap(graph, &timings).as_ps();
    for r in Region::all() {
        acc += oracle::region_time(graph, r).as_ps();
    }
    for resource in analysis_resources() {
        acc += (oracle::resource_time(graph, resource).ratio(makespan) * 1e6) as u64;
    }
    acc
}

/// Resources the analysis battery inspects (the fig18 topology).
fn analysis_resources() -> Vec<Resource> {
    let mut out = vec![Resource::Cpu(0), Resource::ControlPath];
    for device in 0..2 {
        out.push(Resource::Dispatcher(device));
        for unit in 0..4 {
            out.push(Resource::IssueQueue { device, unit });
            out.push(Resource::NdpUnit { device, unit });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nearpm_ppo::{check_all, invariants::oracle, PpoViolation};

    #[test]
    fn synthetic_trace_hits_target_size_and_is_clean() {
        let spec = SyntheticTraceSpec::fig16(20_000);
        let t = synthetic_undo_log_trace(spec);
        assert!(t.len() >= 20_000, "only {} events", t.len());
        assert!(t.len() < 21_000, "overshot: {} events", t.len());
        let violations = check_all(&t);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn synthetic_trace_agrees_with_oracle_at_modest_scale() {
        let t = synthetic_undo_log_trace(SyntheticTraceSpec::fig16(4_000));
        assert_eq!(check_all(&t), oracle::check_all(&t));
    }

    #[test]
    fn perturbed_trace_breaks_ordering_and_sync_and_agrees_with_oracle() {
        let clean = synthetic_undo_log_trace(SyntheticTraceSpec::fig16(4_000));
        let t = perturbed_undo_log_trace(&clean);
        assert_eq!(t.len(), clean.len());
        let violations = check_all(&t);
        assert_eq!(violations, oracle::check_all(&t));
        let count = |pred: fn(&PpoViolation) -> bool| violations.iter().filter(|v| pred(v)).count();
        // One ordering violation per 97 transactions, and one sync violation
        // for each of the synced transactions 3, 11, 19, 27.
        let txns = t
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Offload)
            .count();
        let shared = count(|v| matches!(v, PpoViolation::SharedOrderViolation { .. }));
        let unpersisted = count(|v| matches!(v, PpoViolation::UnpersistedBeforeSync { .. }));
        assert_eq!(shared, txns / 97);
        assert_eq!(unpersisted, 4);
        assert_eq!(violations.len(), shared + unpersisted, "{violations:?}");
    }
}
