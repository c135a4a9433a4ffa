//! Address-mapping table: near-memory virtual→physical translation.
//!
//! Command operands carry virtual addresses. Translating them on the device
//! avoids a round trip to the host MMU: because PM libraries allocate pools
//! whose internal addresses are all `base + offset`, storing one translation
//! offset per pool (and per thread for thread-local pools) is sufficient
//! (paper Section 5.4). Entries are installed at pool-creation time.

use nearpm_pm::{PhysAddr, PoolId, VirtAddr};
use nearpm_sim::FxHashMap;

use crate::request::ThreadId;

/// Translation errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranslateError {
    /// No entry exists for the pool (and thread).
    MissingEntry {
        /// Pool the request referenced.
        pool: PoolId,
    },
    /// The virtual address does not fall inside the registered pool range.
    OutOfRange {
        /// Pool the request referenced.
        pool: PoolId,
        /// Offending virtual address.
        addr: VirtAddr,
    },
}

impl std::fmt::Display for TranslateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TranslateError::MissingEntry { pool } => {
                write!(f, "no address-mapping entry for {pool}")
            }
            TranslateError::OutOfRange { pool, addr } => {
                write!(f, "address {addr} outside registered range of {pool}")
            }
        }
    }
}

impl std::error::Error for TranslateError {}

/// One address-mapping entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MapEntry {
    virt_base: VirtAddr,
    phys_base: PhysAddr,
    size: u64,
}

/// The per-device address-mapping table.
///
/// Multi-device note: each device stores the mapping for the whole pool; the
/// interleaver (not the mapping table) decides which device serves which
/// block, exactly as in the paper's multi-device translation scheme.
#[derive(Debug, Clone, Default)]
pub struct AddressMappingTable {
    entries: FxHashMap<(PoolId, Option<ThreadId>), MapEntry>,
}

impl AddressMappingTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        AddressMappingTable::default()
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Installs (or replaces) the mapping for a pool.
    pub fn register_pool(
        &mut self,
        pool: PoolId,
        virt_base: VirtAddr,
        phys_base: PhysAddr,
        size: u64,
    ) {
        self.entries.insert(
            (pool, None),
            MapEntry {
                virt_base,
                phys_base,
                size,
            },
        );
    }

    /// Installs a thread-local mapping (used when a multithreaded application
    /// gives each thread its own pool region).
    pub fn register_thread_pool(
        &mut self,
        pool: PoolId,
        thread: ThreadId,
        virt_base: VirtAddr,
        phys_base: PhysAddr,
        size: u64,
    ) {
        self.entries.insert(
            (pool, Some(thread)),
            MapEntry {
                virt_base,
                phys_base,
                size,
            },
        );
    }

    /// Translates `addr` for a request from `(pool, thread)`.
    ///
    /// Thread-specific entries take precedence over the pool-wide entry, and
    /// the pool-wide entry is the fallback, mirroring "in addition to the
    /// pool ID, thread ID is also used for indexing".
    pub fn translate(
        &self,
        pool: PoolId,
        thread: ThreadId,
        addr: VirtAddr,
    ) -> Result<PhysAddr, TranslateError> {
        let entry = self
            .entries
            .get(&(pool, Some(thread)))
            .or_else(|| self.entries.get(&(pool, None)))
            .ok_or(TranslateError::MissingEntry { pool })?;
        let offset = addr
            .raw()
            .checked_sub(entry.virt_base.raw())
            .ok_or(TranslateError::OutOfRange { pool, addr })?;
        if offset >= entry.size {
            return Err(TranslateError::OutOfRange { pool, addr });
        }
        Ok(entry.phys_base.offset(offset))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_translation() {
        let mut t = AddressMappingTable::new();
        t.register_pool(PoolId(0), VirtAddr(0x1000_0000), PhysAddr(0x0), 0x10000);
        let p = t
            .translate(PoolId(0), ThreadId(0), VirtAddr(0x1000_0040))
            .unwrap();
        assert_eq!(p, PhysAddr(0x40));
    }

    #[test]
    fn missing_pool_and_out_of_range_errors() {
        let mut t = AddressMappingTable::new();
        assert!(matches!(
            t.translate(PoolId(3), ThreadId(0), VirtAddr(0x0)),
            Err(TranslateError::MissingEntry { .. })
        ));
        t.register_pool(PoolId(0), VirtAddr(0x1000), PhysAddr(0x0), 0x100);
        assert!(matches!(
            t.translate(PoolId(0), ThreadId(0), VirtAddr(0x2000)),
            Err(TranslateError::OutOfRange { .. })
        ));
        assert!(matches!(
            t.translate(PoolId(0), ThreadId(0), VirtAddr(0xfff)),
            Err(TranslateError::OutOfRange { .. })
        ));
    }

    #[test]
    fn thread_entry_takes_precedence() {
        let mut t = AddressMappingTable::new();
        t.register_pool(PoolId(0), VirtAddr(0x1000), PhysAddr(0x0), 0x1000);
        t.register_thread_pool(
            PoolId(0),
            ThreadId(5),
            VirtAddr(0x1000),
            PhysAddr(0x8000),
            0x1000,
        );
        let default = t
            .translate(PoolId(0), ThreadId(1), VirtAddr(0x1010))
            .unwrap();
        let thread5 = t
            .translate(PoolId(0), ThreadId(5), VirtAddr(0x1010))
            .unwrap();
        assert_eq!(default, PhysAddr(0x10));
        assert_eq!(thread5, PhysAddr(0x8010));
    }

    #[test]
    fn footprint_stays_small() {
        let mut t = AddressMappingTable::new();
        for i in 0..16 {
            t.register_pool(PoolId(i), VirtAddr(0x1000 * i as u64), PhysAddr(0), 0x1000);
        }
        // The paper budgets 432 bytes for the table; 16 entries of two base
        // addresses and a size stay within it.
        assert_eq!(t.len(), 16);
        assert!(t.len() * std::mem::size_of::<MapEntry>() <= 432);
        assert!(!t.is_empty());
    }
}
