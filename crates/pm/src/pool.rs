//! PM pools and virtual→physical translation.
//!
//! PM libraries allocate persistent memory as *pools*; every address inside a
//! pool is the pool's base address plus an offset. NearPM exploits this to
//! translate command operands near memory: it only needs the per-pool
//! (virtual base − physical base) offset (paper Section 5.4). This module
//! provides the host-side source of truth for that mapping: a
//! [`PoolRegistry`] assigns each pool a physical extent of the emulated PM
//! space and a distinct virtual base, plus a per-pool byte allocator.

use crate::addr::{AddrRange, PhysAddr, PoolId, VirtAddr};
use crate::alloc::{AllocError, FreeListAllocator};

/// Spacing between the virtual bases of consecutive pools (4 GiB), large
/// enough that pools can never overlap in the virtual address space.
pub const POOL_VIRT_SPACING: u64 = 1 << 32;

/// Base of the virtual address region used for PM pools.
pub const POOL_VIRT_BASE: u64 = 0x1000_0000_0000;

/// Errors returned by pool management.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// The physical PM space cannot fit another pool of the requested size.
    NoSpace {
        /// Requested pool size.
        requested: u64,
        /// Remaining unreserved physical bytes.
        available: u64,
    },
    /// A pool with this name already exists.
    DuplicateName(String),
    /// The pool id is unknown.
    UnknownPool(PoolId),
    /// The virtual address does not belong to any pool.
    Unmapped(VirtAddr),
    /// Allocation inside the pool failed.
    Alloc(AllocError),
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::NoSpace {
                requested,
                available,
            } => write!(
                f,
                "not enough PM for pool: requested {requested}, available {available}"
            ),
            PoolError::DuplicateName(n) => write!(f, "pool name already exists: {n}"),
            PoolError::UnknownPool(id) => write!(f, "unknown pool: {id}"),
            PoolError::Unmapped(a) => write!(f, "address not mapped by any pool: {a}"),
            PoolError::Alloc(e) => write!(f, "pool allocation failed: {e}"),
        }
    }
}

impl std::error::Error for PoolError {}

impl From<AllocError> for PoolError {
    fn from(e: AllocError) -> Self {
        PoolError::Alloc(e)
    }
}

/// One PM pool: a named, contiguous physical extent with a fixed virtual base.
#[derive(Debug, Clone)]
pub struct Pool {
    id: PoolId,
    name: String,
    virt_base: VirtAddr,
    phys_base: PhysAddr,
    size: u64,
    allocator: FreeListAllocator,
}

impl Pool {
    /// Pool identifier.
    pub fn id(&self) -> PoolId {
        self.id
    }

    /// Pool name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Virtual base address of the pool.
    pub fn virt_base(&self) -> VirtAddr {
        self.virt_base
    }

    /// Physical base address of the pool.
    pub fn phys_base(&self) -> PhysAddr {
        self.phys_base
    }

    /// Pool size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The translation offset `virtual base − physical base` that NearPM's
    /// address-mapping table stores for this pool.
    pub fn translation_offset(&self) -> i128 {
        self.virt_base.raw() as i128 - self.phys_base.raw() as i128
    }

    /// Virtual address range covered by the pool.
    pub fn virt_range(&self) -> AddrRange {
        AddrRange::new(self.virt_base, self.size)
    }

    /// True if `addr` lies inside the pool.
    pub fn contains(&self, addr: VirtAddr) -> bool {
        self.virt_range().contains(addr)
    }

    /// Translates a virtual address inside this pool to its physical address.
    pub fn translate(&self, addr: VirtAddr) -> Option<PhysAddr> {
        if self.contains(addr) {
            Some(self.phys_base.offset(addr.offset_from(self.virt_base)))
        } else {
            None
        }
    }

    /// Translates a physical address back to the pool's virtual space, if it
    /// belongs to this pool.
    pub fn translate_back(&self, addr: PhysAddr) -> Option<VirtAddr> {
        let off = addr.raw().checked_sub(self.phys_base.raw())?;
        if off < self.size {
            Some(self.virt_base.offset(off))
        } else {
            None
        }
    }

    /// Allocates `len` bytes with the given alignment inside the pool,
    /// returning the virtual address of the allocation.
    pub fn alloc(&mut self, len: u64, align: u64) -> Result<VirtAddr, PoolError> {
        let off = self.allocator.alloc(len, align)?;
        Ok(self.virt_base.offset(off))
    }

    /// Frees an allocation previously returned by [`Pool::alloc`].
    pub fn free(&mut self, addr: VirtAddr) -> Result<(), PoolError> {
        let off = addr.offset_from(self.virt_base);
        self.allocator.free(off)?;
        Ok(())
    }

    /// Bytes currently allocated in the pool.
    pub fn allocated_bytes(&self) -> u64 {
        self.allocator.allocated_bytes()
    }

    /// True if the byte range is covered by live allocations.
    pub fn is_allocated(&self, addr: VirtAddr, len: u64) -> bool {
        if !self.contains(addr) {
            return false;
        }
        self.allocator
            .is_allocated(addr.offset_from(self.virt_base), len)
    }
}

/// Registry of all pools, plus the physical-space reservation cursor.
#[derive(Debug, Clone)]
pub struct PoolRegistry {
    pools: Vec<Pool>,
    phys_capacity: u64,
    phys_cursor: u64,
}

impl PoolRegistry {
    /// Creates a registry managing a physical space of `phys_capacity` bytes.
    pub fn new(phys_capacity: u64) -> Self {
        PoolRegistry {
            pools: Vec::new(),
            phys_capacity,
            phys_cursor: 0,
        }
    }

    /// Total physical capacity managed.
    pub fn phys_capacity(&self) -> u64 {
        self.phys_capacity
    }

    /// Physical bytes not yet reserved by any pool.
    pub fn phys_available(&self) -> u64 {
        self.phys_capacity - self.phys_cursor
    }

    /// Creates a pool of `size` bytes. The pool's physical extent is carved
    /// from the unreserved physical space; its virtual base is derived from
    /// its index so that pools never overlap virtually.
    pub fn create_pool(&mut self, name: &str, size: u64) -> Result<PoolId, PoolError> {
        if self.pools.iter().any(|p| p.name == name) {
            return Err(PoolError::DuplicateName(name.to_string()));
        }
        // Align pool extents to 4 kB so interleaving blocks never straddle
        // pool boundaries mid-page.
        let size = size.div_ceil(4096) * 4096;
        if size > self.phys_available() {
            return Err(PoolError::NoSpace {
                requested: size,
                available: self.phys_available(),
            });
        }
        let id = PoolId(self.pools.len() as u32);
        let phys_base = PhysAddr(self.phys_cursor);
        self.phys_cursor += size;
        let virt_base = VirtAddr(POOL_VIRT_BASE + id.0 as u64 * POOL_VIRT_SPACING);
        self.pools.push(Pool {
            id,
            name: name.to_string(),
            virt_base,
            phys_base,
            size,
            allocator: FreeListAllocator::new(size),
        });
        Ok(id)
    }

    /// Access a pool by id.
    pub fn pool(&self, id: PoolId) -> Result<&Pool, PoolError> {
        self.pools
            .get(id.0 as usize)
            .ok_or(PoolError::UnknownPool(id))
    }

    /// Mutable access to a pool by id.
    pub fn pool_mut(&mut self, id: PoolId) -> Result<&mut Pool, PoolError> {
        self.pools
            .get_mut(id.0 as usize)
            .ok_or(PoolError::UnknownPool(id))
    }

    /// All pools.
    pub fn pools(&self) -> &[Pool] {
        &self.pools
    }

    /// Number of pools.
    pub fn len(&self) -> usize {
        self.pools.len()
    }

    /// True if no pools exist.
    pub fn is_empty(&self) -> bool {
        self.pools.is_empty()
    }

    /// Finds the pool containing a virtual address.
    pub fn pool_of(&self, addr: VirtAddr) -> Result<&Pool, PoolError> {
        self.pools
            .iter()
            .find(|p| p.contains(addr))
            .ok_or(PoolError::Unmapped(addr))
    }

    /// Translates a virtual address to a physical address.
    pub fn translate(&self, addr: VirtAddr) -> Result<PhysAddr, PoolError> {
        self.pool_of(addr)
            .map(|p| p.translate(addr).expect("contained"))
    }

    /// Translates a physical address back to a virtual address, if any pool
    /// covers it.
    pub fn translate_back(&self, addr: PhysAddr) -> Option<VirtAddr> {
        self.pools.iter().find_map(|p| p.translate_back(addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_pool_and_translate() {
        let mut reg = PoolRegistry::new(1 << 20);
        let id = reg.create_pool("store", 64 * 1024).unwrap();
        let pool = reg.pool(id).unwrap();
        assert_eq!(pool.name(), "store");
        assert_eq!(pool.size(), 64 * 1024);
        assert_eq!(pool.phys_base(), PhysAddr(0));
        assert_eq!(pool.virt_base(), VirtAddr(POOL_VIRT_BASE));

        let v = pool.virt_base().offset(100);
        assert_eq!(reg.translate(v).unwrap(), PhysAddr(100));
        assert_eq!(reg.translate_back(PhysAddr(100)), Some(v));
    }

    #[test]
    fn second_pool_gets_distinct_bases() {
        let mut reg = PoolRegistry::new(1 << 20);
        let a = reg.create_pool("a", 4096).unwrap();
        let b = reg.create_pool("b", 4096).unwrap();
        let pa = reg.pool(a).unwrap();
        let pb = reg.pool(b).unwrap();
        assert_eq!(pb.phys_base(), PhysAddr(4096));
        assert_eq!(
            pb.virt_base().raw() - pa.virt_base().raw(),
            POOL_VIRT_SPACING
        );
        assert_ne!(pa.translation_offset(), pb.translation_offset());
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut reg = PoolRegistry::new(1 << 20);
        reg.create_pool("x", 4096).unwrap();
        assert!(matches!(
            reg.create_pool("x", 4096),
            Err(PoolError::DuplicateName(_))
        ));
    }

    #[test]
    fn pool_size_rounds_to_pages_and_space_is_limited() {
        let mut reg = PoolRegistry::new(8192);
        let id = reg.create_pool("a", 5000).unwrap();
        assert_eq!(reg.pool(id).unwrap().size(), 8192);
        assert!(matches!(
            reg.create_pool("b", 1),
            Err(PoolError::NoSpace { .. })
        ));
    }

    #[test]
    fn alloc_and_free_inside_pool() {
        let mut reg = PoolRegistry::new(1 << 20);
        let id = reg.create_pool("kv", 64 * 1024).unwrap();
        let pool = reg.pool_mut(id).unwrap();
        let a = pool.alloc(256, 64).unwrap();
        let b = pool.alloc(256, 64).unwrap();
        assert_ne!(a, b);
        assert!(pool.contains(a));
        assert!(pool.is_allocated(a, 256));
        assert!(!pool.is_allocated(a, 64 * 1024));
        pool.free(a).unwrap();
        assert!(!pool.is_allocated(a, 1));
        assert_eq!(pool.allocated_bytes(), 256);
    }

    #[test]
    fn unmapped_address_reported() {
        let reg = PoolRegistry::new(1 << 20);
        assert!(matches!(
            reg.translate(VirtAddr(0xdead)),
            Err(PoolError::Unmapped(_))
        ));
        assert_eq!(reg.translate_back(PhysAddr(0)), None);
    }

    #[test]
    fn unknown_pool_reported() {
        let reg = PoolRegistry::new(4096);
        assert!(matches!(
            reg.pool(PoolId(9)),
            Err(PoolError::UnknownPool(_))
        ));
    }

    #[test]
    fn translation_offset_matches_definition() {
        let mut reg = PoolRegistry::new(1 << 20);
        let a = reg.create_pool("a", 8192).unwrap();
        let b = reg.create_pool("b", 8192).unwrap();
        for id in [a, b] {
            let p = reg.pool(id).unwrap();
            let v = p.virt_base().offset(1234);
            let phys = p.translate(v).unwrap();
            // phys = virt - offset, by the paper's translation rule.
            assert_eq!(phys.raw() as i128, v.raw() as i128 - p.translation_offset());
        }
    }
}
