//! # nearpm-core — the NearPM system
//!
//! Public API of the NearPM reproduction: a simulated machine that couples an
//! emulated persistent memory (`nearpm-pm`), one or more NearPM devices
//! (`nearpm-device`), a CPU execution model, and a PPO trace (`nearpm-ppo`),
//! all timed through the task-graph scheduler of `nearpm-sim`.
//!
//! The central type is [`NearPmSystem`]. Programs (the crash-consistency
//! mechanisms in `nearpm-cc`, the key-value stores in `nearpm-kv`, and the
//! evaluation workloads in `nearpm-workloads`) issue CPU reads/writes/persist
//! barriers and offload crash-consistency primitives; the system returns a
//! [`RunReport`] with the end-to-end time, the crash-consistency breakdown,
//! CPU/NDP overlap, and the PPO-violation check of the recorded trace.
//!
//! The system's methods sit in three files: `system.rs` (set-up, CPU
//! execution, the offload path, crash and recovery), `system/persist.rs`
//! (the on-disk image format behind `persist_to` / `reopen_from`,
//! persistent reads, the media write log and media accessors) and
//! `system/report.rs` (the run report and the counters it reads).
//!
//! ```
//! use nearpm_core::{ExecMode, NearPmSystem, SystemConfig};
//! use nearpm_sim::Region;
//!
//! let mut sys = NearPmSystem::new(SystemConfig::baseline().with_capacity(1 << 20));
//! let pool = sys.create_pool("quickstart", 64 * 1024).unwrap();
//! let obj = sys.alloc(pool, 64, 64).unwrap();
//! sys.cpu_write_persist(0, obj, b"hello", Region::AppPersist).unwrap();
//! let report = sys.report();
//! assert!(report.ppo_violations.is_empty());
//! assert_eq!(report.mode, ExecMode::CpuBaseline);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod config;
pub mod crashplan;
pub mod error;
pub mod system;
pub mod trace;

pub use batch::OffloadBatch;
pub use config::{ExecMode, SystemConfig};
pub use crashplan::{BoundaryKind, CrashPlan};
pub use error::{Result, SystemError};
pub use system::{LatencySummary, NearPmSystem, RunReport, MANIFEST_NAME};
pub use trace::TraceBuilder;

// Re-export the types callers need to drive the system.
pub use nearpm_device::{NearPmOp, ThreadId};
pub use nearpm_pm::{AddrRange, MediaConfig, MediaKind, PhysAddr, PoolId, VirtAddr};
pub use nearpm_ppo::Sharing;
pub use nearpm_sim::{LatencyModel, Region, SimDuration};
