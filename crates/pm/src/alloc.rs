//! A simple first-fit free-list allocator used inside PM pools.
//!
//! The allocator manages byte offsets inside one pool. It is intentionally
//! straightforward: a sorted free list with coalescing on free, first-fit
//! allocation with configurable alignment. PMDK's real allocator is far more
//! elaborate, but the workloads only need correct, non-overlapping
//! allocations with deterministic behaviour.

/// Allocation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// Not enough contiguous free space for the request.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
    },
    /// A free was attempted on an offset that is not currently allocated.
    InvalidFree {
        /// Offset passed to `free`.
        offset: u64,
    },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::OutOfMemory { requested } => {
                write!(f, "out of pool memory (requested {requested} bytes)")
            }
            AllocError::InvalidFree { offset } => {
                write!(f, "invalid free at offset {offset:#x}")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// First-fit free-list allocator over a contiguous byte region.
#[derive(Debug, Clone)]
pub struct FreeListAllocator {
    capacity: u64,
    /// Sorted, non-adjacent free extents: (offset, len).
    free: Vec<(u64, u64)>,
    /// Live allocations: (offset, len), kept sorted by offset.
    allocated: Vec<(u64, u64)>,
}

impl FreeListAllocator {
    /// Creates an allocator managing offsets `0..capacity`.
    pub fn new(capacity: u64) -> Self {
        FreeListAllocator {
            capacity,
            free: if capacity > 0 {
                vec![(0, capacity)]
            } else {
                vec![]
            },
            allocated: Vec::new(),
        }
    }

    /// Total managed capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated.iter().map(|(_, l)| l).sum()
    }

    /// Bytes currently free.
    pub fn free_bytes(&self) -> u64 {
        self.free.iter().map(|(_, l)| l).sum()
    }

    /// Number of live allocations.
    pub fn live_allocations(&self) -> usize {
        self.allocated.len()
    }

    /// Allocates `len` bytes aligned to `align` (power of two, at least 1).
    /// Returns the offset of the allocation.
    pub fn alloc(&mut self, len: u64, align: u64) -> Result<u64, AllocError> {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let len = len.max(1);
        for i in 0..self.free.len() {
            let (start, flen) = self.free[i];
            let aligned = (start + align - 1) & !(align - 1);
            let pad = aligned - start;
            if flen >= pad + len {
                // Carve [aligned, aligned+len) out of this extent.
                self.free.remove(i);
                if pad > 0 {
                    self.free.insert(i, (start, pad));
                }
                let tail_start = aligned + len;
                let tail_len = flen - pad - len;
                // Both lists are sorted by offset, so the insertion points
                // are binary searches: workloads populate a pool with
                // thousands of objects, one `alloc` each.
                if tail_len > 0 {
                    let pos = self.free.partition_point(|(s, _)| *s <= tail_start);
                    self.free.insert(pos, (tail_start, tail_len));
                }
                let pos = self.allocated.partition_point(|(s, _)| *s <= aligned);
                self.allocated.insert(pos, (aligned, len));
                return Ok(aligned);
            }
        }
        Err(AllocError::OutOfMemory { requested: len })
    }

    /// Frees the allocation starting at `offset`.
    pub fn free(&mut self, offset: u64) -> Result<(), AllocError> {
        let idx = self
            .allocated
            .iter()
            .position(|(s, _)| *s == offset)
            .ok_or(AllocError::InvalidFree { offset })?;
        let (start, len) = self.allocated.remove(idx);
        // Insert into the free list keeping it sorted, then coalesce.
        let pos = self
            .free
            .iter()
            .position(|(s, _)| *s > start)
            .unwrap_or(self.free.len());
        self.free.insert(pos, (start, len));
        self.coalesce();
        Ok(())
    }

    /// Size of the live allocation at `offset`, if any.
    pub fn allocation_len(&self, offset: u64) -> Option<u64> {
        self.allocated
            .iter()
            .find(|(s, _)| *s == offset)
            .map(|(_, l)| *l)
    }

    /// True if `offset..offset+len` lies entirely inside live allocations.
    pub fn is_allocated(&self, offset: u64, len: u64) -> bool {
        self.allocated
            .iter()
            .any(|(s, l)| offset >= *s && offset + len <= *s + *l)
    }

    fn coalesce(&mut self) {
        let mut i = 0;
        while i + 1 < self.free.len() {
            let (s0, l0) = self.free[i];
            let (s1, l1) = self.free[i + 1];
            if s0 + l0 == s1 {
                self.free[i] = (s0, l0 + l1);
                self.free.remove(i + 1);
            } else {
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_alloc_free_cycle() {
        let mut a = FreeListAllocator::new(1024);
        let x = a.alloc(100, 1).unwrap();
        let y = a.alloc(100, 1).unwrap();
        assert_ne!(x, y);
        assert_eq!(a.allocated_bytes(), 200);
        assert_eq!(a.live_allocations(), 2);
        a.free(x).unwrap();
        assert_eq!(a.allocated_bytes(), 100);
        a.free(y).unwrap();
        assert_eq!(a.free_bytes(), 1024);
        // After freeing everything the free list coalesces to one extent.
        assert_eq!(a.free, vec![(0, 1024)]);
    }

    #[test]
    fn alignment_respected() {
        let mut a = FreeListAllocator::new(4096);
        let _ = a.alloc(10, 1).unwrap();
        let x = a.alloc(64, 64).unwrap();
        assert_eq!(x % 64, 0);
        let y = a.alloc(1, 256).unwrap();
        assert_eq!(y % 256, 0);
    }

    #[test]
    fn out_of_memory_reported() {
        let mut a = FreeListAllocator::new(128);
        assert!(a.alloc(100, 1).is_ok());
        let err = a.alloc(100, 1).unwrap_err();
        assert!(matches!(err, AllocError::OutOfMemory { requested: 100 }));
    }

    #[test]
    fn invalid_free_reported() {
        let mut a = FreeListAllocator::new(128);
        let x = a.alloc(16, 1).unwrap();
        assert!(matches!(a.free(x + 1), Err(AllocError::InvalidFree { .. })));
        a.free(x).unwrap();
        assert!(matches!(a.free(x), Err(AllocError::InvalidFree { .. })));
    }

    #[test]
    fn zero_length_requests_round_up_to_one() {
        let mut a = FreeListAllocator::new(16);
        let x = a.alloc(0, 1).unwrap();
        assert_eq!(a.allocation_len(x), Some(1));
    }

    #[test]
    fn reuse_after_free_with_coalescing() {
        let mut a = FreeListAllocator::new(300);
        let x = a.alloc(100, 1).unwrap();
        let y = a.alloc(100, 1).unwrap();
        let z = a.alloc(100, 1).unwrap();
        a.free(y).unwrap();
        a.free(x).unwrap();
        // x and y coalesce into a 200-byte extent that can serve a 150-byte request.
        let w = a.alloc(150, 1).unwrap();
        assert!(w < z);
        assert!(a.is_allocated(w, 150));
    }

    #[test]
    fn is_allocated_checks_containment() {
        let mut a = FreeListAllocator::new(256);
        let x = a.alloc(64, 1).unwrap();
        assert!(a.is_allocated(x, 64));
        assert!(a.is_allocated(x + 10, 20));
        assert!(!a.is_allocated(x + 10, 64));
        assert!(!a.is_allocated(200, 1));
    }

    #[test]
    fn allocations_never_overlap_under_stress() {
        let mut a = FreeListAllocator::new(1 << 16);
        let mut live: Vec<(u64, u64)> = Vec::new();
        // Deterministic pseudo-random sequence without external crates.
        let mut state = 0x12345678u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..2000 {
            if next() % 3 != 0 || live.is_empty() {
                let len = next() % 500 + 1;
                let align = 1 << (next() % 7);
                if let Ok(off) = a.alloc(len, align) {
                    for (s, l) in &live {
                        assert!(off + len <= *s || *s + *l <= off, "overlap detected");
                    }
                    live.push((off, len));
                }
            } else {
                let idx = (next() % live.len() as u64) as usize;
                let (off, _) = live.swap_remove(idx);
                a.free(off).unwrap();
            }
        }
        let allocated: u64 = live.iter().map(|(_, l)| l).sum();
        assert_eq!(a.allocated_bytes(), allocated);
    }
}
