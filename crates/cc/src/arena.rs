//! NDP-managed log arena.
//!
//! Logs, checkpoints, and shadow pages live in PM regions that only the crash
//! consistency machinery (CPU-baseline or NearPM) touches; the application
//! never reads them outside recovery. The arena reserves such regions per
//! device — a slot's header and data always live on the same device as each
//! other — registers them as NDP-managed with the system (so PPO applies the
//! relaxed persist ordering), and hands out / recycles fixed-size slots.

use nearpm_core::{AddrRange, NearPmSystem, PoolId, Result, SystemError, VirtAddr};
use nearpm_sim::PM_PAGE;

/// Size of one header slot in the arena (the 40-byte header rounded up to a
/// cache line).
pub const HEADER_SLOT: u64 = 64;

/// One acquired log/checkpoint slot: a header line plus a data page, both on
/// the same device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogSlot {
    /// Address of the entry header.
    pub meta: VirtAddr,
    /// Address of the data area (one 4 kB page).
    pub data: VirtAddr,
    /// Device the slot lives on.
    pub device: usize,
}

/// Per-pool arena of NDP-managed slots.
#[derive(Debug, Clone)]
pub struct LogArena {
    pool: PoolId,
    /// Free slots per device (header and data pre-paired).
    free: Vec<Vec<LogSlot>>,
    /// Every slot ever created (scanned by recovery).
    all_slots: Vec<(VirtAddr, VirtAddr, usize)>,
}

impl LogArena {
    /// Reserves an arena with `pages_per_device` data pages (plus header
    /// space) on each device, registering every reserved range as
    /// NDP-managed.
    pub fn new(sys: &mut NearPmSystem, pool: PoolId, pages_per_device: usize) -> Result<Self> {
        let devices = sys.device_count().max(1);
        let mut arena = LogArena {
            pool,
            free: vec![Vec::new(); devices],
            all_slots: Vec::new(),
        };
        arena.grow(sys, pages_per_device)?;
        Ok(arena)
    }

    /// Reserves `pages_per_device` more data pages, with fresh header pages
    /// for them, on each device and adds them to the free lists and the
    /// scan list. Fails with the pool's allocation error when the pool
    /// cannot supply the pages.
    pub fn grow(&mut self, sys: &mut NearPmSystem, pages_per_device: usize) -> Result<()> {
        let pool = self.pool;
        let devices = self.free.len();
        let mut data_pages: Vec<Vec<VirtAddr>> = vec![Vec::new(); devices];
        let mut header_pages: Vec<Vec<VirtAddr>> = vec![Vec::new(); devices];

        // Header pages: each 4 kB page yields 64 header slots.
        let header_pages_needed = pages_per_device.div_ceil((PM_PAGE / HEADER_SLOT) as usize);
        let mut guard = 0;
        while header_pages.iter().any(|v| v.len() < header_pages_needed)
            || data_pages.iter().any(|v| v.len() < pages_per_device)
        {
            guard += 1;
            if guard > devices * (header_pages_needed + pages_per_device) * 4 + 64 {
                return Err(SystemError::LogArenaFull { pool });
            }
            let page = sys.alloc(pool, PM_PAGE, PM_PAGE)?;
            let dev = sys.device_of(page)?.min(devices - 1);
            sys.register_ndp_managed(AddrRange::new(page, PM_PAGE));
            if header_pages[dev].len() < header_pages_needed {
                header_pages[dev].push(page);
            } else {
                data_pages[dev].push(page);
            }
        }

        // Pre-pair header slot i with data page i on each device; the pairing
        // is fixed for the lifetime of the arena so recovery can scan it.
        for dev in 0..devices {
            let mut header_slots = header_pages[dev].iter().flat_map(|page| {
                (0..(PM_PAGE / HEADER_SLOT)).map(move |i| page.offset(i * HEADER_SLOT))
            });
            for data in &data_pages[dev] {
                let meta = header_slots.next().expect("enough header slots");
                let slot = LogSlot {
                    meta,
                    data: *data,
                    device: dev,
                };
                self.free[dev].push(slot);
                self.all_slots.push((meta, *data, dev));
            }
        }
        Ok(())
    }

    /// The pool the arena belongs to.
    pub fn pool(&self) -> PoolId {
        self.pool
    }

    /// Acquires a slot on `device` (clamped to the available devices).
    pub fn acquire(&mut self, device: usize) -> Result<LogSlot> {
        let dev = device.min(self.free.len() - 1);
        self.free[dev]
            .pop()
            .ok_or(SystemError::LogArenaFull { pool: self.pool })
    }

    /// Returns a slot to the free lists.
    pub fn release(&mut self, slot: LogSlot) {
        self.free[slot.device].push(slot);
    }

    /// Free slots remaining on `device`.
    pub fn free_slots(&self, device: usize) -> usize {
        let dev = device.min(self.free.len() - 1);
        self.free[dev].len()
    }

    /// Every (header, data, device) pairing the arena has ever created; the
    /// recovery procedures scan this list for valid entries.
    pub fn scan_list(&self) -> &[(VirtAddr, VirtAddr, usize)] {
        &self.all_slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nearpm_core::{ExecMode, SystemConfig};

    fn system(mode: ExecMode) -> (NearPmSystem, PoolId) {
        let mut sys = NearPmSystem::new(SystemConfig::for_mode(mode).with_capacity(8 << 20));
        let pool = sys.create_pool("arena-test", 4 << 20).unwrap();
        (sys, pool)
    }

    #[test]
    fn arena_slots_are_ndp_managed_and_on_the_right_device() {
        let (mut sys, pool) = system(ExecMode::NearPmMd);
        let mut arena = LogArena::new(&mut sys, pool, 8).unwrap();
        for dev in 0..sys.device_count() {
            assert!(arena.free_slots(dev) >= 8);
            let slot = arena.acquire(dev).unwrap();
            assert_eq!(slot.device, dev);
            assert_eq!(sys.device_of(slot.data).unwrap(), dev);
            assert_eq!(sys.device_of(slot.meta).unwrap(), dev);
            assert_eq!(
                sys.classify(slot.data, 64),
                nearpm_core::Sharing::NdpManaged
            );
        }
    }

    #[test]
    fn acquire_release_cycle() {
        let (mut sys, pool) = system(ExecMode::NearPmSd);
        let mut arena = LogArena::new(&mut sys, pool, 2).unwrap();
        let before = arena.free_slots(0);
        let a = arena.acquire(0).unwrap();
        let b = arena.acquire(0).unwrap();
        assert_ne!(a, b);
        assert_eq!(arena.free_slots(0), before - 2);
        arena.release(a);
        arena.release(b);
        assert_eq!(arena.free_slots(0), before);
    }

    #[test]
    fn exhaustion_is_reported() {
        let (mut sys, pool) = system(ExecMode::NearPmSd);
        let mut arena = LogArena::new(&mut sys, pool, 1).unwrap();
        let n = arena.free_slots(0);
        for _ in 0..n {
            arena.acquire(0).unwrap();
        }
        assert!(matches!(
            arena.acquire(0),
            Err(SystemError::LogArenaFull { .. })
        ));
    }

    #[test]
    fn baseline_mode_uses_single_virtual_device() {
        let (mut sys, pool) = system(ExecMode::CpuBaseline);
        let mut arena = LogArena::new(&mut sys, pool, 4).unwrap();
        let slot = arena.acquire(0).unwrap();
        assert_eq!(slot.device, 0);
        assert!(!arena.scan_list().is_empty());
    }
}
