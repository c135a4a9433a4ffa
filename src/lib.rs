//! # nearpm — near-data processing for storage-class applications
//!
//! Facade crate of the NearPM reproduction (EuroSys 2023). It re-exports the
//! workspace crates so that applications can depend on a single crate:
//!
//! * [`core`] — the [`NearPmSystem`] facade: configuration, CPU model,
//!   offload path, PPO trace, run reports.
//! * [`cc`] — crash-consistency mechanisms (undo/redo logging,
//!   checkpointing, shadow paging) with CPU and NearPM backends.
//! * [`pmdk`] — a PMDK-like transactional object layer.
//! * [`kv`] — crash-consistent key-value structures.
//! * [`workloads`] — the nine evaluation workloads and their generators.
//! * [`sim`], [`pm`], [`ppo`], [`device`] — the simulation, emulated-PM,
//!   ordering-model, and hardware-model substrates.
//!
//! See `examples/` for runnable end-to-end programs and `crates/bench` for
//! the binaries that regenerate every figure of the paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use nearpm_cc as cc;
pub use nearpm_core as core;
pub use nearpm_device as device;
pub use nearpm_kv as kv;
pub use nearpm_pm as pm;
pub use nearpm_pmdk as pmdk;
pub use nearpm_ppo as ppo;
pub use nearpm_sim as sim;
pub use nearpm_workloads as workloads;

// Convenience re-exports of the most common entry points.
pub use nearpm_cc::{Checkpoint, Mechanism, RedoLog, ShadowPaging, UndoLog};
pub use nearpm_core::{ExecMode, NearPmSystem, RunReport, SystemConfig};
pub use nearpm_workloads::{RunOptions, Runner, Workload};
