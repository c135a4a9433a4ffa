//! Page-granular crash-consistency mechanisms: checkpointing and shadow
//! paging.
//!
//! Both operate at 4 kB page granularity, as in the paper's evaluation:
//!
//! * **Checkpointing** keeps a snapshot of each page taken before its first
//!   update in the current epoch; recovery restores the snapshots of the
//!   epoch that was in progress when the failure hit.
//! * **Shadow paging** redirects updates to a freshly copied shadow page and
//!   atomically switches a page-table entry at commit; recovery needs no data
//!   movement because the page table always references a complete page.

use std::collections::BTreeMap;

use nearpm_core::{
    ExecMode, NearPmOp, NearPmSystem, OffloadBatch, PoolId, Region, Result, SystemError, VirtAddr,
};
use nearpm_device::{EntryState, LogEntryHeader};
use nearpm_sim::{FxHashSet, PM_PAGE};

use crate::arena::{LogArena, LogSlot};

/// Checkpointing mechanism (4 kB pages, epoch-based).
#[derive(Debug)]
pub struct Checkpoint {
    pool: PoolId,
    thread: usize,
    arena: LogArena,
    /// Pages per device the arena was created with, and grows by when an
    /// epoch snapshots more pages than it has free.
    pages_per_device: usize,
    epoch: u64,
    /// Pages checkpointed in the current epoch: page base → slot. Kept in
    /// page order: an epoch's end hands the slots back to the arena's LIFO
    /// free lists in this order, which decides the slot each page of the
    /// next epoch takes.
    snapshots: BTreeMap<u64, LogSlot>,
    /// The epoch's in-flight snapshot offloads, posted split-phase; the
    /// epoch boundary synchronizes and releases the group as a whole.
    batch: OffloadBatch,
    epochs_completed: u64,
}

impl Checkpoint {
    /// Creates a checkpointing manager.
    pub fn new(
        sys: &mut NearPmSystem,
        pool: PoolId,
        thread: usize,
        pages_per_device: usize,
    ) -> Result<Self> {
        Ok(Checkpoint {
            pool,
            thread,
            arena: LogArena::new(sys, pool, pages_per_device)?,
            pages_per_device,
            epoch: 0,
            snapshots: BTreeMap::new(),
            batch: OffloadBatch::new(),
            epochs_completed: 0,
        })
    }

    /// Re-creates a checkpoint manager over an existing persistent image
    /// after a process restart: same allocation sequence as
    /// [`Checkpoint::new`] (arena and marker land at the same addresses, and
    /// the constructor writes nothing, so it also works on a still-crashed
    /// system) with the epoch counter read back from the system's persistent
    /// metadata (the media manifest, kept current by
    /// [`Checkpoint::advance_epoch`]). No replay of the pre-crash run is
    /// needed to learn which epoch was in flight, so
    /// [`Checkpoint::recover`] restores that epoch's snapshots and not a
    /// committed predecessor's. The reattached arena holds the initial
    /// slots only, so a restarted process can recover only runs whose
    /// epochs never grew the arena.
    pub fn reattach(
        sys: &mut NearPmSystem,
        pool: PoolId,
        thread: usize,
        pages_per_device: usize,
    ) -> Result<Self> {
        let epoch = sys.checkpoint_epoch();
        let mut ck = Self::new(sys, pool, thread, pages_per_device)?;
        ck.epoch = epoch;
        ck.epochs_completed = epoch;
        Ok(ck)
    }

    /// Current epoch number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of completed epochs.
    pub fn epochs_completed(&self) -> u64 {
        self.epochs_completed
    }

    fn page_base(addr: VirtAddr) -> VirtAddr {
        VirtAddr(addr.raw() & !(PM_PAGE - 1))
    }

    /// Must be called before updating any byte of the page containing `addr`:
    /// on the first touch in an epoch the page is snapshotted
    /// (`NearPM_ckpoint_create` or a CPU copy preceded by fault handling).
    pub fn touch(&mut self, sys: &mut NearPmSystem, addr: VirtAddr) -> Result<()> {
        let page = Self::page_base(addr);
        if self.snapshots.contains_key(&page.raw()) {
            return Ok(());
        }
        // The write-protection fault that detects the first touch is handled
        // on the CPU in both configurations.
        let latency = sys.latency().clone();
        sys.cpu_overhead(
            self.thread,
            "page-fault",
            latency.cpu_page_fault_ns,
            Region::CcPageFault,
        )?;
        let device = sys.device_of(page)?;
        let slot = self.acquire_slot(sys, device)?;
        if sys.mode().uses_ndp() {
            // Split-phase posting: the snapshot joins the epoch's batch
            // without materializing a wait.
            sys.offload_into(
                &mut self.batch,
                self.thread,
                self.pool,
                NearPmOp::CheckpointCreate {
                    src: page,
                    len: PM_PAGE,
                    ckpt_meta: slot.meta,
                    ckpt_data: slot.data,
                    epoch: self.epoch,
                },
                &[],
            )?;
        } else {
            // Data first, then the header: the `Active` header is what makes
            // recovery restore the slot, so persisting it before the page
            // contents land would let a crash between the two restore
            // garbage over the home page. (The NDP path is one functionally
            // atomic request.)
            sys.cpu_copy(
                self.thread,
                page,
                slot.data,
                PM_PAGE,
                Region::CcDataMovement,
            )?;
            let header = LogEntryHeader::active(page, PM_PAGE, self.epoch);
            sys.cpu_write(self.thread, slot.meta, &header.encode(), Region::CcMetadata)?;
            sys.cpu_persist(self.thread, slot.meta, 64, Region::CcMetadata)?;
        }
        self.snapshots.insert(page.raw(), slot);
        Ok(())
    }

    /// Takes a snapshot slot on `device`. An epoch may snapshot more distinct
    /// pages than the arena was sized for, so an exhausted arena grows from
    /// the pool by its initial size; a run that never exhausts it keeps its
    /// address layout. A pool that cannot supply the pages leaves the arena
    /// full.
    fn acquire_slot(&mut self, sys: &mut NearPmSystem, device: usize) -> Result<LogSlot> {
        if self.arena.free_slots(device) == 0
            && self.arena.grow(sys, self.pages_per_device).is_err()
        {
            return Err(SystemError::LogArenaFull { pool: self.pool });
        }
        self.arena.acquire(device)
    }

    /// Split-phase form of [`Checkpoint::touch`] over several addresses: the
    /// first-touch snapshot of every page is posted into the epoch's batch
    /// back to back, before any of them is waited on.
    pub fn touch_many(&mut self, sys: &mut NearPmSystem, addrs: &[VirtAddr]) -> Result<()> {
        for addr in addrs {
            self.touch(sys, *addr)?;
        }
        Ok(())
    }

    /// Application update of checkpointed data.
    pub fn update(&mut self, sys: &mut NearPmSystem, addr: VirtAddr, data: &[u8]) -> Result<()> {
        debug_assert!(
            self.snapshots.contains_key(&Self::page_base(addr).raw()),
            "update of a page that was not checkpointed this epoch"
        );
        sys.cpu_write_persist(self.thread, addr, data, Region::AppPersist)?;
        Ok(())
    }

    /// Ends the current epoch: the snapshots become obsolete and their slots
    /// are recycled. Mode-specific synchronization takes the whole epoch's
    /// posted group at once, mirroring the logging paths.
    pub fn advance_epoch(&mut self, sys: &mut NearPmSystem) -> Result<()> {
        match sys.mode() {
            ExecMode::CpuBaseline | ExecMode::NearPmSd => {}
            ExecMode::NearPmMdSync => {
                sys.sw_sync_batch(self.thread, &self.batch)?;
            }
            ExecMode::NearPmMd => {
                sys.delayed_sync_batch(&self.batch)?;
            }
        }
        sys.release_batch(&mut self.batch);
        for (_page, slot) in std::mem::take(&mut self.snapshots) {
            self.arena.release(slot);
        }
        self.epoch += 1;
        self.epochs_completed += 1;
        // The bump only happens after the epoch's synchronization succeeded
        // (a crash mid-sync propagates above), so recording it durably here
        // is exactly the commit point a restarted process must see.
        sys.set_checkpoint_epoch(self.epoch)?;
        Ok(())
    }

    /// Recovery: restores every page snapshotted in the interrupted epoch,
    /// resetting each entry's header once its page is restored so a second
    /// pass finds nothing to do (idempotence). The restore-then-reset order
    /// is crash-safe: a crash between the two leaves the header `Active` and
    /// the next pass restores the same snapshot again — a no-op.
    /// Returns the number of pages restored.
    pub fn recover(&mut self, sys: &mut NearPmSystem) -> Result<usize> {
        sys.begin_recovery()?;
        let mut restored = 0;
        for (meta, data, _dev) in self.arena.scan_list().to_vec() {
            let header_bytes = sys.persistent_read(meta, 64)?;
            if let Some(header) = LogEntryHeader::decode(&header_bytes) {
                if header.state == EntryState::Active && header.txn_id == self.epoch {
                    let snapshot = sys.persistent_read(data, header.len as usize)?;
                    sys.cpu_read(
                        self.thread,
                        data,
                        header.len as usize,
                        Region::CcDataMovement,
                    )?;
                    sys.cpu_write_persist(
                        self.thread,
                        header.target,
                        &snapshot,
                        Region::CcDataMovement,
                    )?;
                    sys.cpu_write_persist(
                        self.thread,
                        meta,
                        &LogEntryHeader::reset_image(),
                        Region::CcLogReset,
                    )?;
                    restored += 1;
                }
            }
        }
        for (_page, slot) in std::mem::take(&mut self.snapshots) {
            self.arena.release(slot);
        }
        self.batch.clear();
        sys.finish_recovery();
        Ok(restored)
    }
}

/// Shadow-paging mechanism: a persistent page table redirects reads to the
/// current version of each logical page; updates build a shadow copy and
/// switch the table entry atomically.
#[derive(Debug)]
pub struct ShadowPaging {
    pool: PoolId,
    thread: usize,
    arena: LogArena,
    /// Persistent page-table base: `pages` entries of 8 bytes each.
    table: VirtAddr,
    /// Cached copy of the table (the persistent copy is authoritative).
    entries: Vec<VirtAddr>,
    /// Per-logical-page bound spare: acquired from the arena on the page's
    /// first update and owned by that page forever after — every switch
    /// makes the old home page the new spare, so each logical page
    /// flip-flops between two fixed physical pages. No slot ever returns to
    /// the shared free list, which keeps shadow placement deterministic and
    /// identical between the serial and pipelined paths (raw-media
    /// differentials are exact, not just logical-page ones).
    spares: Vec<Option<LogSlot>>,
    switches: u64,
}

impl ShadowPaging {
    /// Creates a shadow-paging manager over `pages` logical pages, allocating
    /// the initial pages and the persistent page table from the pool.
    pub fn new(
        sys: &mut NearPmSystem,
        pool: PoolId,
        thread: usize,
        pages: usize,
        spare_pages_per_device: usize,
    ) -> Result<Self> {
        let table = sys.alloc(pool, (pages as u64) * 8, 64)?;
        let mut entries = Vec::with_capacity(pages);
        for i in 0..pages {
            let page = sys.alloc(pool, PM_PAGE, PM_PAGE)?;
            entries.push(page);
            sys.cpu_write_persist(
                thread,
                table.offset(i as u64 * 8),
                &page.raw().to_le_bytes(),
                Region::AppPersist,
            )?;
        }
        Ok(ShadowPaging {
            pool,
            thread,
            arena: LogArena::new(sys, pool, spare_pages_per_device)?,
            table,
            entries,
            spares: vec![None; pages],
            switches: 0,
        })
    }

    /// Re-creates a shadow-paging manager over an existing persistent image
    /// after a process restart: performs the same allocation sequence as
    /// [`ShadowPaging::new`] (so the table, initial pages, and arena land at
    /// the same addresses) but writes nothing — the system may still be in
    /// the crashed state, and the persistent page table is authoritative.
    /// Callers must run [`ShadowPaging::recover`] before reading pages; the
    /// cached entries are stale until then.
    pub fn reattach(
        sys: &mut NearPmSystem,
        pool: PoolId,
        thread: usize,
        pages: usize,
        spare_pages_per_device: usize,
    ) -> Result<Self> {
        let table = sys.alloc(pool, (pages as u64) * 8, 64)?;
        let mut entries = Vec::with_capacity(pages);
        for _ in 0..pages {
            entries.push(sys.alloc(pool, PM_PAGE, PM_PAGE)?);
        }
        Ok(ShadowPaging {
            pool,
            thread,
            arena: LogArena::new(sys, pool, spare_pages_per_device)?,
            table,
            entries,
            spares: vec![None; pages],
            switches: 0,
        })
    }

    /// Returns the shadow slot for logical page `idx`, binding a fresh spare
    /// from the arena (on the page's home device) the first time the page is
    /// updated. The first update of each page acquires in site order on both
    /// the serial and pipelined paths, so the binding — and therefore the
    /// raw media layout — is identical between them.
    fn shadow_slot(&mut self, sys: &mut NearPmSystem, idx: usize) -> Result<LogSlot> {
        if let Some(slot) = self.spares[idx] {
            return Ok(slot);
        }
        let device = sys.device_of(self.entries[idx])?;
        let slot = self.arena.acquire(device)?;
        self.spares[idx] = Some(slot);
        Ok(slot)
    }

    /// Number of logical pages.
    pub fn page_count(&self) -> usize {
        self.entries.len()
    }

    /// Number of page switches committed.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Current physical location of logical page `idx` (from the persistent
    /// table, so recovery tests can verify the mapping survived).
    pub fn page_addr(&mut self, sys: &mut NearPmSystem, idx: usize) -> Result<VirtAddr> {
        let bytes = sys.persistent_read(self.table.offset(idx as u64 * 8), 8)?;
        Ok(VirtAddr(u64::from_le_bytes(
            bytes.try_into().expect("8 bytes"),
        )))
    }

    /// Reads `len` bytes at `offset` inside logical page `idx`.
    pub fn read(
        &mut self,
        sys: &mut NearPmSystem,
        idx: usize,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>> {
        let page = self.entries[idx];
        sys.cpu_read(self.thread, page.offset(offset), len, Region::Application)
    }

    /// Updates `data` at `offset` inside logical page `idx` crash-consistently:
    /// shadow-copy the page, apply the update to the shadow, persist it, and
    /// switch the page-table entry.
    ///
    /// This is a one-site [`ShadowPaging::update_many`]: the update runs
    /// fault → copy → write → sync → switch to completion before the call
    /// returns, so a sequence of calls drives one site at a time (the serial
    /// shape the crash explorer and the runner's per-site pipeline use).
    pub fn update(
        &mut self,
        sys: &mut NearPmSystem,
        idx: usize,
        offset: u64,
        data: &[u8],
    ) -> Result<()> {
        self.update_many(sys, &[(idx, offset, data)])
    }

    /// Updates several sites split-phase (post-all / complete-later) — the
    /// pipelined transaction path.
    ///
    /// The sites are partitioned into rounds of **distinct** logical pages
    /// (a second update of the same page must copy the already-switched
    /// version, so it waits for the next round). Within a round:
    ///
    /// 1. every page's fault handling + shadow copy is posted back to back,
    ///    so all of the round's copies are in flight together;
    /// 2. the new values land in the shadows (each write is ordered after
    ///    its own copy by the in-flight conflict check, overlapping with the
    ///    sibling copies);
    /// 3. **one** mode-specific synchronization covers the whole group;
    /// 4. the page-table entries switch.
    pub fn update_many<D: AsRef<[u8]>>(
        &mut self,
        sys: &mut NearPmSystem,
        sites: &[(usize, u64, D)],
    ) -> Result<()> {
        let mut order: Vec<usize> = (0..sites.len()).collect();
        while !order.is_empty() {
            let mut round = Vec::new();
            let mut later = Vec::new();
            let mut seen = FxHashSet::default();
            for i in order {
                if seen.insert(sites[i].0) {
                    round.push(i);
                } else {
                    later.push(i);
                }
            }
            self.update_round(sys, sites, &round)?;
            order = later;
        }
        Ok(())
    }

    /// One round of [`ShadowPaging::update_many`]: `round` indexes sites
    /// with pairwise-distinct logical pages.
    fn update_round<D: AsRef<[u8]>>(
        &mut self,
        sys: &mut NearPmSystem,
        sites: &[(usize, u64, D)],
        round: &[usize],
    ) -> Result<()> {
        let latency = sys.latency().clone();
        let mut batch = OffloadBatch::with_capacity(round.len());
        let mut slots: Vec<LogSlot> = Vec::with_capacity(round.len());

        // Phase 1: fault handling + shadow copy per page, all posted before
        // any wait is materialized.
        for &i in round {
            let (idx, offset, ref data) = sites[i];
            let data = data.as_ref();
            assert!(
                offset + data.len() as u64 <= PM_PAGE,
                "update crosses page boundary"
            );
            let old_page = self.entries[idx];
            let slot = self.shadow_slot(sys, idx)?;
            sys.cpu_overhead(
                self.thread,
                "page-fault",
                latency.cpu_page_fault_ns,
                Region::CcPageFault,
            )?;
            if sys.mode().uses_ndp() {
                sys.offload_into(
                    &mut batch,
                    self.thread,
                    self.pool,
                    NearPmOp::ShadowCopy {
                        src: old_page,
                        dst: slot.data,
                        len: PM_PAGE,
                    },
                    &[],
                )?;
            } else {
                sys.cpu_copy(
                    self.thread,
                    old_page,
                    slot.data,
                    PM_PAGE,
                    Region::CcDataMovement,
                )?;
            }
            slots.push(slot);
        }

        // Phase 2: the new values land in the shadow pages (the conflict
        // with each in-flight shadow copy orders them correctly).
        for (k, &i) in round.iter().enumerate() {
            let (_, offset, ref data) = sites[i];
            sys.cpu_write_persist(
                self.thread,
                slots[k].data.offset(offset),
                data.as_ref(),
                Region::AppPersist,
            )?;
        }

        // Phase 3: one mode-specific synchronization over the whole group
        // before any page switch.
        match sys.mode() {
            ExecMode::NearPmMdSync => {
                sys.sw_sync_batch(self.thread, &batch)?;
            }
            ExecMode::NearPmMd => {
                sys.delayed_sync_batch(&batch)?;
            }
            _ => {}
        }

        // Phase 4: switch the page-table entries (8-byte atomic persists);
        // the old pages become the spares for later updates.
        for (k, &i) in round.iter().enumerate() {
            let (idx, _, _) = sites[i];
            let shadow = slots[k].data;
            sys.cpu_write_persist(
                self.thread,
                self.table.offset(idx as u64 * 8),
                &shadow.raw().to_le_bytes(),
                Region::CcCommit,
            )?;
            let old_page = self.entries[idx];
            self.spares[idx] = Some(LogSlot {
                meta: slots[k].meta,
                data: old_page,
                device: slots[k].device,
            });
            self.entries[idx] = shadow;
            self.switches += 1;
        }
        sys.release_batch(&mut batch);
        Ok(())
    }

    /// Recovery: re-reads the persistent page table; every entry references a
    /// complete page by construction. Returns the recovered mapping.
    pub fn recover(&mut self, sys: &mut NearPmSystem) -> Result<Vec<VirtAddr>> {
        sys.begin_recovery()?;
        let mut mapping = Vec::with_capacity(self.entries.len());
        for i in 0..self.entries.len() {
            let bytes = sys.persistent_read(self.table.offset(i as u64 * 8), 8)?;
            let addr = VirtAddr(u64::from_le_bytes(bytes.try_into().expect("8 bytes")));
            mapping.push(addr);
        }
        self.entries = mapping.clone();
        sys.finish_recovery();
        Ok(mapping)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nearpm_core::{ExecMode, SystemConfig};

    fn setup(mode: ExecMode) -> (NearPmSystem, PoolId) {
        let mut sys = NearPmSystem::new(SystemConfig::for_mode(mode).with_capacity(32 << 20));
        let pool = sys.create_pool("pages-test", 16 << 20).unwrap();
        (sys, pool)
    }

    #[test]
    fn checkpoint_commit_and_crash_recovery() {
        for mode in ExecMode::all() {
            let (mut sys, pool) = setup(mode);
            let data = sys.alloc(pool, 2 * PM_PAGE, PM_PAGE).unwrap();
            sys.cpu_write_persist(0, data, &vec![1u8; PM_PAGE as usize], Region::AppPersist)
                .unwrap();
            let mut ckpt = Checkpoint::new(&mut sys, pool, 0, 8).unwrap();

            // Epoch 0: update the page, then complete the epoch.
            ckpt.touch(&mut sys, data).unwrap();
            ckpt.update(&mut sys, data, &[2u8; 128]).unwrap();
            ckpt.advance_epoch(&mut sys).unwrap();
            assert_eq!(ckpt.epochs_completed(), 1);

            // Epoch 1: update again, crash before the epoch completes.
            ckpt.touch(&mut sys, data).unwrap();
            ckpt.update(&mut sys, data, &[3u8; 128]).unwrap();
            sys.crash();
            let restored = ckpt.recover(&mut sys).unwrap();
            assert_eq!(restored, 1, "mode {:?}", mode);
            // The page is back to its epoch-0 committed contents.
            assert_eq!(sys.persistent_read(data, 128).unwrap(), vec![2u8; 128]);
            assert_eq!(
                sys.persistent_read(data.offset(128), 16).unwrap(),
                vec![1u8; 16]
            );
        }
    }

    #[test]
    fn reattach_reads_epoch_from_system_metadata() {
        let (mut sys, pool) = setup(ExecMode::NearPmSd);
        let data = sys.alloc(pool, PM_PAGE, PM_PAGE).unwrap();
        let mut ckpt = Checkpoint::new(&mut sys, pool, 0, 4).unwrap();
        for _ in 0..3 {
            ckpt.touch(&mut sys, data).unwrap();
            ckpt.update(&mut sys, data, &[2u8; 64]).unwrap();
            ckpt.advance_epoch(&mut sys).unwrap();
        }
        // Each completed epoch lands in the system's persistent metadata…
        assert_eq!(sys.checkpoint_epoch(), 3);
        // …so a reattached manager resumes at the right epoch without being
        // told (no replay of the pre-crash run required).
        let ck2 = Checkpoint::reattach(&mut sys, pool, 0, 4).unwrap();
        assert_eq!(ck2.epoch(), 3);
        assert_eq!(ck2.epochs_completed(), 3);
    }

    /// An epoch that touches more pages than the arena holds grows the
    /// arena, and recovery restores every snapshot, grown slots included.
    #[test]
    fn checkpoint_arena_grows_within_an_epoch_and_recovers() {
        for mode in [ExecMode::CpuBaseline, ExecMode::NearPmSd] {
            let (mut sys, pool) = setup(mode);
            let data = sys.alloc(pool, 6 * PM_PAGE, PM_PAGE).unwrap();
            let pages: Vec<VirtAddr> = (0..6).map(|i| data.offset(i * PM_PAGE)).collect();
            for &page in &pages {
                sys.cpu_write_persist(0, page, &[1u8; 64], Region::AppPersist)
                    .unwrap();
            }
            let mut ckpt = Checkpoint::new(&mut sys, pool, 0, 2).unwrap();
            ckpt.touch_many(&mut sys, &pages).unwrap();
            for &page in &pages {
                ckpt.update(&mut sys, page, &[2u8; 64]).unwrap();
            }
            sys.crash();
            assert_eq!(ckpt.recover(&mut sys).unwrap(), 6, "{mode:?}");
            for &page in &pages {
                assert_eq!(sys.persistent_read(page, 64).unwrap(), vec![1u8; 64]);
            }
        }
    }

    /// A pool too small to grow the arena still reports a full arena.
    #[test]
    fn checkpoint_arena_that_cannot_grow_is_full() {
        let mut sys =
            NearPmSystem::new(SystemConfig::for_mode(ExecMode::NearPmSd).with_capacity(8 << 20));
        let pool = sys.create_pool("tiny", 16 * PM_PAGE).unwrap();
        let data = sys.alloc(pool, 8 * PM_PAGE, PM_PAGE).unwrap();
        let mut ckpt = Checkpoint::new(&mut sys, pool, 0, 2).unwrap();
        let touched: Vec<Result<()>> = (0..8)
            .map(|i| ckpt.touch(&mut sys, data.offset(i * PM_PAGE)))
            .collect();
        assert!(touched[..2].iter().all(|r| r.is_ok()));
        assert!(
            touched
                .iter()
                .any(|r| matches!(r, Err(SystemError::LogArenaFull { .. }))),
            "{touched:?}"
        );
    }

    #[test]
    fn checkpoint_only_snapshots_first_touch_per_epoch() {
        let (mut sys, pool) = setup(ExecMode::NearPmSd);
        let data = sys.alloc(pool, PM_PAGE, PM_PAGE).unwrap();
        let mut ckpt = Checkpoint::new(&mut sys, pool, 0, 4).unwrap();
        ckpt.touch(&mut sys, data).unwrap();
        ckpt.touch(&mut sys, data.offset(100)).unwrap();
        ckpt.touch(&mut sys, data.offset(2000)).unwrap();
        let report = sys.report();
        // Only one checkpoint-create offload despite three touches.
        assert_eq!(report.ndp_requests, 1);
    }

    #[test]
    fn shadow_paging_update_and_recovery_all_modes() {
        for mode in ExecMode::all() {
            let (mut sys, pool) = setup(mode);
            let mut shadow = ShadowPaging::new(&mut sys, pool, 0, 4, 8).unwrap();
            assert_eq!(shadow.page_count(), 4);
            // Initialize page 2 and update it.
            let p2 = shadow.entries[2];
            sys.cpu_write_persist(0, p2, &vec![5u8; PM_PAGE as usize], Region::AppPersist)
                .unwrap();
            shadow.update(&mut sys, 2, 64, &[9u8; 32]).unwrap();
            assert_eq!(shadow.switches(), 1);

            // The logical page now shows the new data at offset 64 and the old
            // data elsewhere.
            assert_eq!(shadow.read(&mut sys, 2, 64, 32).unwrap(), vec![9u8; 32]);
            assert_eq!(shadow.read(&mut sys, 2, 0, 32).unwrap(), vec![5u8; 32]);

            // Crash and recover: the persistent page table still references a
            // complete page with the committed update.
            sys.crash();
            let mapping = shadow.recover(&mut sys).unwrap();
            let page2 = mapping[2];
            assert_eq!(
                sys.persistent_read(page2.offset(64), 32).unwrap(),
                vec![9u8; 32]
            );
            assert_eq!(sys.persistent_read(page2, 32).unwrap(), vec![5u8; 32]);
            assert!(sys.report().ppo_violations.is_empty(), "mode {:?}", mode);
        }
    }

    #[test]
    fn shadow_paging_crash_mid_update_preserves_old_page() {
        let (mut sys, pool) = setup(ExecMode::NearPmMd);
        let mut shadow = ShadowPaging::new(&mut sys, pool, 0, 2, 8).unwrap();
        let p0 = shadow.entries[0];
        sys.cpu_write_persist(0, p0, &vec![7u8; PM_PAGE as usize], Region::AppPersist)
            .unwrap();
        let before = shadow.page_addr(&mut sys, 0).unwrap();

        // Start an update but crash before the page switch: copy the page and
        // write into the shadow, then fail.
        let device = sys.device_of(p0).unwrap();
        let slot = shadow.arena.acquire(device).unwrap();
        sys.offload_into(
            &mut OffloadBatch::new(),
            0,
            pool,
            NearPmOp::ShadowCopy {
                src: p0,
                dst: slot.data,
                len: PM_PAGE,
            },
            &[],
        )
        .unwrap();
        sys.cpu_write(0, slot.data.offset(8), &[1u8; 8], Region::AppPersist)
            .unwrap();
        sys.crash();

        let mapping = shadow.recover(&mut sys).unwrap();
        assert_eq!(
            mapping[0], before,
            "page table must still reference the old page"
        );
        assert_eq!(sys.persistent_read(mapping[0], 32).unwrap(), vec![7u8; 32]);
    }

    /// Differential: one multi-site `update_many` call and the same sites
    /// driven one per `update` call must produce byte-identical logical page
    /// contents and equal switch counts in every mode — even when the site
    /// list revisits the same logical page (which the multi-site call must
    /// chain across rounds, not collapse). Only the modeled overlap may
    /// differ.
    #[test]
    fn shadow_update_many_matches_serial_oracle_with_duplicate_pages() {
        for mode in ExecMode::all() {
            let run = |pipelined: bool| {
                let (mut sys, pool) = setup(mode);
                let mut shadow = ShadowPaging::new(&mut sys, pool, 0, 4, 16).unwrap();
                for i in 0..4 {
                    let page = shadow.entries[i];
                    sys.cpu_write_persist(
                        0,
                        page,
                        &vec![i as u8 + 1; PM_PAGE as usize],
                        Region::AppPersist,
                    )
                    .unwrap();
                }
                // Page 0 is updated three times (twice at overlapping
                // offsets): the pipelined path must preserve per-page order.
                let sites: Vec<(usize, u64, Vec<u8>)> = vec![
                    (0, 64, vec![0xA1; 32]),
                    (2, 0, vec![0xB2; 64]),
                    (0, 128, vec![0xC3; 32]),
                    (3, 256, vec![0xD4; 16]),
                    (0, 64, vec![0xE5; 16]),
                ];
                if pipelined {
                    shadow.update_many(&mut sys, &sites).unwrap();
                } else {
                    for (idx, offset, data) in &sites {
                        shadow.update(&mut sys, *idx, *offset, data).unwrap();
                    }
                }
                let report = sys.report();
                assert!(report.ppo_violations.is_empty(), "mode {mode:?}");
                let mut pages = Vec::new();
                for i in 0..4 {
                    pages.push(shadow.read(&mut sys, i, 0, PM_PAGE as usize).unwrap());
                }
                (pages, shadow.switches(), report.makespan)
            };
            let (pipe_pages, pipe_switches, pipe_makespan) = run(true);
            let (serial_pages, serial_switches, serial_makespan) = run(false);
            assert_eq!(
                pipe_pages, serial_pages,
                "mode {mode:?}: logical page contents diverged"
            );
            assert_eq!(pipe_switches, serial_switches, "mode {mode:?}");
            assert!(
                pipe_makespan <= serial_makespan,
                "mode {mode:?}: pipelining must not slow the txn down \
                 ({pipe_makespan} vs {serial_makespan})"
            );
        }
    }

    #[test]
    fn nearpm_is_faster_for_page_mechanisms() {
        let run = |mode: ExecMode| {
            let (mut sys, pool) = setup(mode);
            let data = sys.alloc(pool, 4 * PM_PAGE, PM_PAGE).unwrap();
            let mut ckpt = Checkpoint::new(&mut sys, pool, 0, 16).unwrap();
            for e in 0..4u64 {
                for p in 0..4u64 {
                    let page = data.offset(p * PM_PAGE);
                    ckpt.touch(&mut sys, page).unwrap();
                    sys.cpu_compute(0, 500.0).unwrap();
                    ckpt.update(&mut sys, page.offset(e * 64), &[e as u8; 64])
                        .unwrap();
                }
                ckpt.advance_epoch(&mut sys).unwrap();
            }
            sys.report()
        };
        let base = run(ExecMode::CpuBaseline);
        let md = run(ExecMode::NearPmMd);
        assert!(md.makespan < base.makespan);
        assert!(md.cc_time < base.cc_time);
    }
}
