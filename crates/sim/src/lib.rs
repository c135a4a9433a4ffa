//! # nearpm-sim — simulation substrate for NearPM
//!
//! This crate provides the discrete-event timing substrate that the NearPM
//! reproduction is built on:
//!
//! * [`SimTime`] / [`SimDuration`] — picosecond-precision simulated time.
//! * [`LatencyModel`] — latency/bandwidth parameters of the evaluation
//!   platform (PM latency, PCIe / AXI bandwidth, NearPM unit clock, flush and
//!   fence costs), defaulting to the paper's FPGA prototype.
//! * [`Resource`] — the exclusive execution resources of the platform: CPU
//!   threads, NearPM units, per-device dispatchers and issue queues, and the
//!   host↔device control path.
//! * [`TaskGraph`] / [`TaskRef`] / [`Region`] — the task-DAG representation
//!   (a struct-of-arrays arena) that every crash-consistency operation and
//!   application step is lowered to. The graph schedules each task as it is
//!   added and maintains what the reports read: per-region and per-resource
//!   busy sums, the makespan, and per-resource utilization.
//! * [`Timeline`] / [`IntervalSet`] — the graph's merged CPU and NDP busy
//!   intervals, their running overlap total (the Figure 18 parallelism
//!   numerator), and the busy horizon.
//! * [`hist`] — the log-bucketed [`LatencyHistogram`] (≤ 1 % relative error,
//!   O(1) record) behind the open-loop driver's p50/p99/p999 tail-latency
//!   reporting, with the exact sorted-percentile oracle for differentials.
//!
//! Performance results in the rest of the workspace are *derived exclusively*
//! from task graphs scheduled by this crate; no wall-clock measurement of the
//! simulator itself leaks into reported figures.
//!
//! ## Example
//!
//! ```
//! use nearpm_sim::{LatencyModel, Region, Resource, SimTime, TaskGraph};
//!
//! let model = LatencyModel::default();
//! let mut graph = TaskGraph::new();
//!
//! // A NearPM unit copies 4 kB to an undo log while the CPU keeps computing.
//! let log = graph.add(
//!     "undo-log copy",
//!     Resource::NdpUnit { device: 0, unit: 0 },
//!     model.ndp_copy(4096),
//!     Region::CcDataMovement,
//!     &[],
//! );
//! let compute = graph.add(
//!     "application logic",
//!     Resource::Cpu(0),
//!     model.cpu_compute(500.0),
//!     Region::Application,
//!     &[],
//! );
//! // The in-place update persists only after the log copy (PPO shared-address
//! // ordering) and after the application produced the new value.
//! let update = graph.add(
//!     "in-place update",
//!     Resource::Cpu(0),
//!     model.cpu_inplace_update(64),
//!     Region::AppPersist,
//!     &[log, compute],
//! );
//!
//! // The update ends the schedule, and the log copy overlapped CPU work.
//! assert_eq!(graph.makespan(), graph.task_finish(update).since(SimTime::ZERO));
//! assert!(graph.timeline().overlap().as_ns() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod latency;
pub mod resource;
pub mod schedule;
pub mod task;
pub mod time;

pub use hist::{exact_percentile, LatencyHistogram};
pub use latency::{LatencyModel, CACHE_LINE, PM_PAGE};
pub use resource::Resource;
pub use schedule::{IntervalSet, Timeline};
pub use task::{Region, TaskGraph, TaskId, TaskRef};
pub use time::{SimDuration, SimTime};
