//! # nearpm-workloads — evaluation workloads
//!
//! The nine PM workloads of the paper's evaluation (Table 4): TPCC and TATP
//! transaction processing, the four PMDK example key-value structures
//! (btree, rbtree, skiplist, hashmap), the Redis- and Memcached-like key-value
//! servers driven by 100 %-write YCSB, and PmemKV.
//!
//! Each workload runs under any combination of crash-consistency mechanism
//! (logging, checkpointing, shadow paging) and execution mode (CPU baseline,
//! NearPM SD, NearPM MD SW-sync, NearPM MD), producing the
//! [`RunReport`](nearpm_core::RunReport)s from which the benchmark harness in
//! `nearpm-bench` regenerates every figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crashpoint;
pub mod gen;
pub mod openloop;
pub mod restart;
pub mod runner;

pub use crashpoint::{
    explore, explore_matrix, CcMech, ExplorationReport, ExplorerConfig, PipelineMode,
};
pub use gen::{TatpGenerator, TatpTxn, TpccGenerator, TpccTxn, YcsbGenerator, YcsbOp, Zipfian};
pub use openloop::{
    run_open_loop, run_open_loop_observed, ArrivalGen, ArrivalProcess, LatencyWindow,
    OpenLoopOptions, OpenLoopReport,
};
pub use restart::{
    child_main, count_boundaries, drop_and_reopen, verify_restarted_recovery, RestartOutcome,
    RestartSpec, CHILD_ENV,
};
pub use runner::{
    run, HarnessComparison, MultiClientHarness, RunOptions, Runner, TxnPipeline, Workload,
    WorkloadSpec,
};
