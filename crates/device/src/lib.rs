//! # nearpm-device — NearPM hardware model
//!
//! A functional + timing model of the NearPM device described in Section 5 of
//! the paper. One [`NearPmDevice`] contains:
//!
//! * a bounded [`RequestFifo`] fed by the host control path,
//! * an [`AddressMappingTable`] for near-memory virtual→physical translation
//!   of command operands (one entry per pool / thread),
//! * an [`InFlightTable`] used by the dispatcher to detect conflicts between
//!   NDP procedures and incoming host accesses (PPO Invariant 1),
//! * several [`NearPmUnit`]s, each with a metadata generator, load/store
//!   unit, and DMA engine, executing the crash-consistency primitives,
//! * persistence-domain snapshot/restore of the front-end structures plus
//!   FIFO replay, modelling the hardware recovery procedure.
//!
//! Multi-device coordination (duplicated commands, delayed synchronization)
//! is orchestrated by `nearpm-core`, which records every device access in
//! the `nearpm-ppo` trace the PPO checker verifies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address_map;
pub mod device;
pub mod fifo;
pub mod inflight;
pub mod metadata;
pub mod request;
pub mod unit;

pub use address_map::{AddressMappingTable, TranslateError};
pub use device::{
    DeviceConfig, DeviceError, DevicePersistentState, DeviceStats, ExecutedRequest, NearPmDevice,
};
pub use fifo::{FifoFull, RequestFifo, DEFAULT_FIFO_DEPTH};
pub use inflight::{InFlightEntry, InFlightTable};
pub use metadata::{EntryState, LogEntryHeader, LOG_ENTRY_HEADER_LEN, LOG_ENTRY_MAGIC};
pub use request::{MicroOp, NearPmOp, NearPmRequest, RequestId, ThreadId};
pub use unit::{NearPmUnit, UnitStats};
