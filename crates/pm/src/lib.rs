//! # nearpm-pm — emulated persistent memory
//!
//! Functional emulation of the persistent-memory substrate that NearPM runs
//! on. The paper's prototype emulates PM with FPGA on-board DRAM; this crate
//! emulates it with plain memory while preserving the property that actually
//! matters for crash consistency: the difference between *volatile* state
//! (CPU cache lines that have not been written back) and the *persistence
//! domain* (the PM media), and the fact that a persistent object may be
//! interleaved across multiple PM devices.
//!
//! Components:
//!
//! * [`PmMedia`] — the persistent byte store of one device, with traffic
//!   statistics.
//! * [`PmSpace`] — the machine-wide physical PM space: all device media
//!   behind an [`InterleaveConfig`].
//! * [`CpuCache`] — the volatile write-back cache between CPU stores and the
//!   persistence domain; a simulated crash discards its dirty lines.
//! * [`PoolRegistry`] / [`Pool`] — PMDK-style pools with per-pool virtual
//!   bases, physical extents, translation offsets, and a free-list allocator.
//! * Address types: [`VirtAddr`], [`PhysAddr`], [`AddrRange`], [`PoolId`].
//!
//! ## Example
//!
//! ```
//! use nearpm_pm::{CpuCache, InterleaveConfig, PmSpace, PoolRegistry};
//!
//! // Two interleaved PM devices of 1 MiB total, as in the prototype.
//! let mut space = PmSpace::new(1 << 20, InterleaveConfig::new(2, 4096));
//! let mut pools = PoolRegistry::new(space.capacity());
//! let mut cache = CpuCache::new();
//!
//! let pool = pools.create_pool("store", 64 * 1024).unwrap();
//! let obj = pools.pool_mut(pool).unwrap().alloc(64, 64).unwrap();
//! let phys = pools.translate(obj).unwrap();
//!
//! // A store is visible but not durable until flushed.
//! cache.store(&mut space, phys, b"hello persistent world");
//! cache.flush(&mut space, phys, 22);
//! assert_eq!(&space.read_vec(phys, 5), b"hello");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod alloc;
pub mod cache;
pub mod interleave;
pub mod media;
pub mod pool;
pub mod space;

pub use addr::{AddrRange, PhysAddr, PoolId, VirtAddr};
pub use alloc::{AllocError, FreeListAllocator};
pub use cache::{CacheStats, CpuCache, LINE};
pub use interleave::{
    DeviceList, DeviceSpan, InlineVec, InterleaveConfig, SpanVec, DEFAULT_INTERLEAVE,
};
pub use media::{MediaConfig, MediaError, MediaKind, PmMedia};
pub use pool::{Pool, PoolError, PoolRegistry, POOL_VIRT_BASE, POOL_VIRT_SPACING};
pub use space::{PmSpace, PmTraffic};
