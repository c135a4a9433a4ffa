//! # nearpm-ppo — Partitioned Persist Ordering
//!
//! Formal-model companion of the NearPM system: the event-trace
//! representation of a partitioned (CPU + multiple NearPM devices) execution
//! and checkers for the four PPO invariants defined in Section 4 of the
//! paper:
//!
//! 1. **Read-write ordering** — accesses to CPU/NDP *shared* addresses follow
//!    program order across the offload boundary; accesses to NDP-*managed*
//!    addresses only follow program order within their NDP procedure.
//! 2. **Persistence** — persists to shared addresses follow program order
//!    across the boundary; persists to NDP-managed addresses may be delayed.
//! 3. **Persist before synchronization** — every NDP write issued before a
//!    multi-device synchronization event has persisted when the
//!    synchronization completes.
//! 4. **Failure-recovery** — recovery reads only data that persisted before
//!    the failure.
//!
//! There is one checking implementation, [`IncrementalChecker`]: it folds
//! the events appended since its previous call, so a system re-checking its
//! growing trace at every report pays for each event once. [`check_all`] is
//! the same fold over a whole trace in one batch. The naive rescanning
//! checkers in `invariants::oracle` (feature `oracle`) are the independent
//! reference the differential tests and smoke gates compare against.
//!
//! ## Example
//!
//! ```
//! use nearpm_ppo::{
//!     check_all, Agent, EventKind, Interval, Sharing, Trace,
//! };
//!
//! let mut trace = Trace::new(1);
//! let proc_id = trace.new_proc();
//! let object = Interval::new(0x1000, 64);
//! let undo_log = Interval::new(0x8000, 64);
//!
//! // CPU offloads undo-log creation; the device copies the old value into
//! // the (NDP-managed) log; only then does the CPU update the object.
//! trace.record(Agent::Cpu, EventKind::Offload, Interval::new(0, 0), Sharing::Shared, Some(proc_id), None, 100);
//! trace.record(Agent::Ndp(0), EventKind::Read, object, Sharing::Shared, Some(proc_id), None, 200);
//! trace.record_write_persist(Agent::Ndp(0), undo_log, Sharing::NdpManaged, Some(proc_id), 300);
//! trace.record(Agent::Cpu, EventKind::Write, object, Sharing::Shared, None, None, 400);
//! trace.record(Agent::Cpu, EventKind::Persist, object, Sharing::Shared, None, None, 420);
//!
//! assert!(check_all(&trace).is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod differential;
pub mod event;
mod incremental;
mod index;
pub mod invariants;
mod minmap;

pub use event::{Agent, EventKind, Interval, PpoEvent, ProcId, Sharing, SyncId, Trace};
pub use incremental::IncrementalChecker;
pub use invariants::{check_all, PpoViolation};
