//! Pinned benchmark inputs and where each came from. A change to any value
//! here is a change to the benchmark, not to the system under test.

/// Median wall time of one `hostref` probe over 228 probes on the host the
/// reference figures were taken on (2-vCPU KVM guest, Intel Xeon):
/// throughput is stated at this host speed.
pub const HOST_PROBE_NOMINAL_S: f64 = 0.0195;

/// Seed the reference figures and digests below were taken at.
pub const RUN_SEED: u64 = 1;

/// Held-out seed: run clean once when the benchmark was defined and not used
/// since; reserved for confirming later performance claims.
pub const HELD_OUT_SEED: u64 = 104_729;

/// Paper Fig. 16 averages, NearPM MD end-to-end speedup over the CPU
/// baseline, for undo logging / checkpointing / shadow paging.
pub const PAPER_FIG16_MD: [f64; 3] = [1.35, 1.22, 1.33];

/// Paper Fig. 15 averages, speedup inside the crash-consistency code
/// regions, same mechanism order.
pub const PAPER_FIG15_CC: [f64; 3] = [6.9, 4.3, 9.8];

/// Operations per run of the fig16-closed matrix.
pub const FIG16_OPS: usize = 1024;

/// Closed-loop service rate μ (op/s) of Memcached, undo logging, NearPM MD,
/// 4 server threads, seed 1, measured over 4096 operations as
/// `ops / makespan` (the calibration the open-loop smoke gate uses).
pub const OPENLOOP_MU: f64 = 1_144_222.0;

/// Share of μ the open loop offers.
pub const OPENLOOP_FRACTION: f64 = 0.7;

/// Offered Poisson rate of the openloop-memcached workload (op/s): an
/// absolute number, `OPENLOOP_FRACTION × OPENLOOP_MU`, deliberately not
/// recalibrated per commit so a model change moves latency instead of being
/// normalised away.
pub const OPENLOOP_RATE: f64 = 800_955.0;

/// Requests per open-loop run.
pub const OPENLOOP_OPS: usize = 50_000;

/// Simulated server threads of the open loop.
pub const OPENLOOP_THREADS: usize = 4;

/// Latency windows of the open loop (each one an incremental PPO fold and,
/// with compaction on, a compaction point).
pub const OPENLOOP_WINDOWS: usize = 16;

/// Committed units per crash-exploration cell.
pub const CRASH_UNITS: usize = 3;

/// PM capacity and pool size of every explorer system
/// (`nearpm_workloads::crashpoint`), used by the standalone set-up probe.
pub const CRASH_CAPACITY: u64 = 32 << 20;
pub const CRASH_POOL: u64 = 16 << 20;

/// Simulated-output digests at [`RUN_SEED`] when the benchmark was defined.
/// A run at that seed prints whether it still matches: a change meant only
/// to speed up the simulator must keep these.
pub const REFERENCE_DIGESTS: [(&str, u64); 3] = [
    ("fig16-closed", 0x15f1_9c71_9e3f_d430),
    ("openloop-memcached", 0x05c6_ee4f_3e96_5c06),
    ("crash-matrix", 0xbdc5_9962_f5c1_3cdc),
];
