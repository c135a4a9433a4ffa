//! Undo- and redo-logging crash-consistency mechanisms.
//!
//! Both mechanisms expose the same transaction shape the paper's Figure 14
//! shows — the only difference between the CPU baseline and the NearPM
//! configurations is *where* the primitive operations (metadata generation,
//! data copy, log reset) execute and which synchronization the commit path
//! uses:
//!
//! * **Baseline** — everything runs on the CPU with strict persist ordering.
//! * **NearPM SD** — primitives offload to one device; the CPU's in-place
//!   update is ordered after the log copy by the in-flight access table.
//! * **NearPM MD SW-sync** — two devices; the CPU polls both before commit.
//! * **NearPM MD** — two devices; cross-device synchronization is delayed and
//!   handled near memory, keeping it off the CPU's critical path.
//!
//! Both mechanisms are built on the split-phase [`OffloadBatch`] pipeline:
//! every offload of a transaction phase (all log creates, all redo applies)
//! is posted into the group **before** the first completion point, and the
//! mode-specific commit synchronization takes the whole group at once — in
//! NearPM MD its barrier is threaded into the `CommitLog` reset commands as a
//! device-side ordering dependency (Figure 12: log deletion orders after the
//! cross-device sync without the CPU waiting).

use nearpm_core::{
    ExecMode, NearPmOp, NearPmSystem, OffloadBatch, PoolId, Region, Result, VirtAddr,
};
use nearpm_device::{EntryState, LogEntryHeader};
use nearpm_sim::{TaskId, PM_PAGE};

use crate::arena::{LogArena, LogSlot};

/// Maximum bytes protected by one log slot (one data page).
pub const MAX_LOG_CHUNK: u64 = PM_PAGE;

#[derive(Debug, Clone)]
struct ActiveEntry {
    slot: LogSlot,
    target: VirtAddr,
    len: u64,
}

/// Undo-logging transactions.
#[derive(Debug)]
pub struct UndoLog {
    pool: PoolId,
    thread: usize,
    arena: LogArena,
    /// Persistent commit-marker slot (64 bytes, [`LogEntryHeader`] format).
    /// Commit persists the marker **after** the home updates and log entries
    /// are durable and **before** the entry resets; recovery reads it to
    /// tell a mid-reset commit (complete the resets, keep the new values)
    /// from an uncommitted transaction (roll back). Without it a crash
    /// between two reset commands left some entries reset and some Active,
    /// and recovery rolled back only the Active ones — a torn image mixing
    /// old and new data.
    marker: VirtAddr,
    active: Vec<ActiveEntry>,
    /// The transaction's in-flight log creates, posted split-phase: every
    /// `log_range` offload joins the group, and commit synchronizes/releases
    /// the group as a whole.
    batch: OffloadBatch,
    /// The `CommitLog` offloads posted at commit. Their handles used to be
    /// dropped, so their in-flight records accumulated for the whole run;
    /// the next transaction's `begin` now releases every commit whose
    /// device-side execution has retired, bounding the in-flight table.
    commit_batch: OffloadBatch,
    txn: Option<u64>,
    committed_txns: u64,
}

impl UndoLog {
    /// Creates an undo-log manager backed by a fresh arena.
    pub fn new(
        sys: &mut NearPmSystem,
        pool: PoolId,
        thread: usize,
        pages_per_device: usize,
    ) -> Result<Self> {
        Ok(UndoLog {
            pool,
            thread,
            arena: LogArena::new(sys, pool, pages_per_device)?,
            marker: sys.alloc(pool, 64, 64)?,
            active: Vec::new(),
            batch: OffloadBatch::new(),
            commit_batch: OffloadBatch::new(),
            txn: None,
            committed_txns: 0,
        })
    }

    /// Number of committed transactions.
    pub fn committed(&self) -> u64 {
        self.committed_txns
    }

    /// Begins a transaction, first releasing the in-flight records of every
    /// previous commit whose device-side execution has retired (the
    /// commit-handle release that bounds the in-flight table over long
    /// runs).
    pub fn begin(&mut self, sys: &mut NearPmSystem) -> Result<u64> {
        assert!(self.txn.is_none(), "transaction already open");
        sys.release_batch_retired(&mut self.commit_batch);
        let id = sys.next_txn_id();
        self.txn = Some(id);
        Ok(id)
    }

    /// Logs the current contents of `addr..addr+len` before the caller
    /// updates it in place (`NearPM_undolg_create` or its CPU equivalent).
    pub fn log_range(&mut self, sys: &mut NearPmSystem, addr: VirtAddr, len: u64) -> Result<()> {
        let txn = self.txn.expect("log_range outside a transaction");
        // Split at device boundaries and at the slot capacity; each chunk
        // takes one log slot on its device.
        for (span_start, span_len, device) in sys.device_spans(addr, len)? {
            let mut off = 0;
            while off < span_len {
                let chunk = (span_len - off).min(MAX_LOG_CHUNK);
                let start = span_start.offset(off);
                off += chunk;
                self.log_chunk(sys, txn, start, chunk, device)?;
            }
        }
        Ok(())
    }

    /// Logs one chunk that fits a log slot on `device`.
    fn log_chunk(
        &mut self,
        sys: &mut NearPmSystem,
        txn: u64,
        start: VirtAddr,
        chunk: u64,
        device: usize,
    ) -> Result<()> {
        let slot = self.arena.acquire(device)?;
        if sys.mode().uses_ndp() {
            // Split-phase posting: the log create joins the txn's batch
            // without materializing any wait — every logged range of the
            // transaction is in flight together.
            sys.offload_into(
                &mut self.batch,
                self.thread,
                self.pool,
                NearPmOp::UndoLogCreate {
                    src: start,
                    len: chunk,
                    log_meta: slot.meta,
                    log_data: slot.data,
                    txn_id: txn,
                },
                &[],
            )?;
        } else {
            // CPU baseline: generate metadata, copy old data, then
            // persist the header. The data copy comes FIRST: the header
            // flipping to `Active` is what makes recovery trust the
            // slot, so persisting it before the old data lands would
            // let a crash between the two roll garbage back into the
            // home location. (The NDP path is a single functionally
            // atomic request and has no such window.)
            let latency = sys.latency().clone();
            sys.cpu_overhead(
                self.thread,
                "cpu-metadata",
                latency.cpu_metadata_ns,
                Region::CcMetadata,
            )?;
            sys.cpu_copy(self.thread, start, slot.data, chunk, Region::CcDataMovement)?;
            let header = LogEntryHeader::active(start, chunk, txn);
            sys.cpu_write(self.thread, slot.meta, &header.encode(), Region::CcMetadata)?;
            sys.cpu_persist(self.thread, slot.meta, 64, Region::CcMetadata)?;
        }
        self.active.push(ActiveEntry {
            slot,
            target: start,
            len: chunk,
        });
        Ok(())
    }

    /// In-place update of previously logged data (application persist).
    pub fn update(&mut self, sys: &mut NearPmSystem, addr: VirtAddr, data: &[u8]) -> Result<()> {
        sys.cpu_write_persist(self.thread, addr, data, Region::AppPersist)?;
        Ok(())
    }

    /// Commits the transaction: ensures all log entries are durable (mode-
    /// specific synchronization over the whole posted group), persists the
    /// commit marker, deletes the logs, and clears the marker.
    ///
    /// Marker protocol (the torn-commit fix): once the marker carrying this
    /// transaction's id is durable, the transaction is committed — a crash
    /// anywhere among the entry resets recovers by *completing* the resets.
    /// Before the marker, a crash rolls the transaction back. Either way the
    /// image is all-old or all-new, never a mix.
    pub fn commit(&mut self, sys: &mut NearPmSystem) -> Result<()> {
        let txn = self.txn.take().expect("commit without begin");

        // Phase 1: mode-specific synchronization — every log entry (and the
        // in-place updates, persisted as they happened) is durable.
        let mut reset_dep: Option<TaskId> = None;
        match sys.mode() {
            ExecMode::CpuBaseline | ExecMode::NearPmSd => {}
            ExecMode::NearPmMdSync => {
                // CPU-polling software synchronization before the commit; the
                // commit commands issue after it on the CPU, so no device-side
                // dependency is needed.
                sys.sw_sync_batch(self.thread, &self.batch)?;
            }
            ExecMode::NearPmMd => {
                // Delayed near-memory synchronization over the group; log
                // deletion depends on it but the CPU does not wait.
                reset_dep = sys.delayed_sync_batch(&self.batch)?;
            }
        }

        // Phase 2: persist the commit marker (point of no return).
        let marker = LogEntryHeader::active(VirtAddr(0), 0, txn);
        sys.cpu_write_persist(
            self.thread,
            self.marker,
            &marker.encode(),
            Region::CcMetadata,
        )?;

        // Phase 3: reset the log entries.
        match sys.mode() {
            ExecMode::CpuBaseline => {
                let latency = sys.latency().clone();
                for e in &self.active {
                    sys.cpu_overhead(
                        self.thread,
                        "cpu-log-reset",
                        latency.cpu_log_reset_ns,
                        Region::CcLogReset,
                    )?;
                    sys.cpu_write(
                        self.thread,
                        e.slot.meta,
                        &LogEntryHeader::reset_image(),
                        Region::CcLogReset,
                    )?;
                    sys.cpu_persist(self.thread, e.slot.meta, 64, Region::CcLogReset)?;
                }
            }
            _ => self.offload_commit(sys, reset_dep.as_slice())?,
        }

        // Phase 4: clear the marker — the commit is fully retired.
        sys.cpu_write_persist(
            self.thread,
            self.marker,
            &LogEntryHeader::reset_image(),
            Region::CcLogReset,
        )?;

        sys.release_batch(&mut self.batch);
        for e in self.active.drain(..) {
            self.arena.release(e.slot);
        }
        self.committed_txns += 1;
        Ok(())
    }

    fn offload_commit(&mut self, sys: &mut NearPmSystem, deps: &[TaskId]) -> Result<()> {
        let txn = self.committed_txns;
        // Group entries by device, one commit command per device in device
        // order (the memory controller duplicates commands for objects
        // spanning devices).
        for dev in 0..sys.device_count() {
            let entries: Vec<VirtAddr> = self
                .active
                .iter()
                .filter(|e| e.slot.device == dev)
                .map(|e| e.slot.meta)
                .collect();
            if entries.is_empty() {
                continue;
            }
            sys.offload_into(
                &mut self.commit_batch,
                self.thread,
                self.pool,
                NearPmOp::CommitLog {
                    entries,
                    txn_id: txn,
                },
                deps,
            )?;
        }
        Ok(())
    }

    /// Recovery: reads the commit marker first. Entries of a transaction
    /// whose marker was durable at the crash were *committing* — their home
    /// locations already hold the new values, so recovery completes the
    /// interrupted resets. Every other `Active` entry is rolled back by
    /// copying the logged old data to its home location. Returns the number
    /// of entries rolled back.
    pub fn recover(&mut self, sys: &mut NearPmSystem) -> Result<usize> {
        sys.begin_recovery()?;
        let committing = LogEntryHeader::decode(&sys.persistent_read(self.marker, 64)?)
            .filter(|h| h.state == EntryState::Active)
            .map(|h| h.txn_id);
        let mut rolled_back = 0;
        for (meta, data, _dev) in self.arena.scan_list().to_vec() {
            let header_bytes = sys.persistent_read(meta, 64)?;
            if let Some(header) = LogEntryHeader::decode(&header_bytes) {
                if header.state == EntryState::Active {
                    if committing != Some(header.txn_id) {
                        let old = sys.persistent_read(data, header.len as usize)?;
                        sys.cpu_read(
                            self.thread,
                            data,
                            header.len as usize,
                            Region::CcDataMovement,
                        )?;
                        sys.cpu_write_persist(
                            self.thread,
                            header.target,
                            &old,
                            Region::CcDataMovement,
                        )?;
                        rolled_back += 1;
                    }
                    // Reset the entry (completing the commit for marked
                    // transactions) so recovery is idempotent either way.
                    sys.cpu_write_persist(
                        self.thread,
                        meta,
                        &LogEntryHeader::reset_image(),
                        Region::CcLogReset,
                    )?;
                }
            }
        }
        // Clear the marker last: once every entry of the marked transaction
        // is reset, the commit is retired. (A crash between the resets and
        // this clear leaves a marker with no matching entries — the next
        // recovery pass finds nothing Active and just clears it again.)
        if committing.is_some() {
            sys.cpu_write_persist(
                self.thread,
                self.marker,
                &LogEntryHeader::reset_image(),
                Region::CcLogReset,
            )?;
        }
        // Any slots that belonged to the interrupted transaction are free
        // again; the batch's handles died with the crashed transaction, and
        // the previous commits' ordering records are moot after a restart.
        for e in self.active.drain(..) {
            self.arena.release(e.slot);
        }
        self.batch.clear();
        sys.release_batch(&mut self.commit_batch);
        self.txn = None;
        sys.finish_recovery();
        Ok(rolled_back)
    }
}

/// Redo-logging transactions: updates are staged in a redo log first and
/// applied to the home locations at commit.
#[derive(Debug)]
pub struct RedoLog {
    pool: PoolId,
    thread: usize,
    arena: LogArena,
    /// Persistent commit-marker slot ([`LogEntryHeader`] format). Redo
    /// commit persists the marker **before** the first apply touches a home
    /// location: once durable, recovery rolls the transaction *forward* by
    /// re-applying the staged entries (idempotent — the log holds the full
    /// new data). Without it a crash mid-applies left homes partially
    /// updated while recovery discarded the log — a torn image.
    marker: VirtAddr,
    staged: Vec<ActiveEntry>,
    /// The commit phase's in-flight `ApplyRedoLog` offloads, posted
    /// split-phase before the mode-specific synchronization.
    batch: OffloadBatch,
    /// The `CommitLog` reset offloads posted at commit, released (once
    /// retired) at the next transaction's begin — see [`UndoLog`].
    commit_batch: OffloadBatch,
    txn: Option<u64>,
    committed_txns: u64,
}

impl RedoLog {
    /// Creates a redo-log manager backed by a fresh arena.
    pub fn new(
        sys: &mut NearPmSystem,
        pool: PoolId,
        thread: usize,
        pages_per_device: usize,
    ) -> Result<Self> {
        Ok(RedoLog {
            pool,
            thread,
            arena: LogArena::new(sys, pool, pages_per_device)?,
            marker: sys.alloc(pool, 64, 64)?,
            staged: Vec::new(),
            batch: OffloadBatch::new(),
            commit_batch: OffloadBatch::new(),
            txn: None,
            committed_txns: 0,
        })
    }

    /// Number of committed transactions.
    pub fn committed(&self) -> u64 {
        self.committed_txns
    }

    /// Begins a transaction, first releasing the in-flight records of every
    /// previous commit whose device-side execution has retired.
    pub fn begin(&mut self, sys: &mut NearPmSystem) -> Result<u64> {
        assert!(self.txn.is_none(), "transaction already open");
        sys.release_batch_retired(&mut self.commit_batch);
        let id = sys.next_txn_id();
        self.txn = Some(id);
        Ok(id)
    }

    /// Stages `data` to be written to `addr` at commit. The redo-log entry is
    /// created by the CPU (Figure 14c/d): metadata + new value, persisted.
    pub fn stage(&mut self, sys: &mut NearPmSystem, addr: VirtAddr, data: &[u8]) -> Result<()> {
        let txn = self.txn.expect("stage outside a transaction");
        assert!(
            data.len() as u64 <= MAX_LOG_CHUNK,
            "staged update too large"
        );
        let device = sys.device_of(addr)?;
        let slot = self.arena.acquire(device)?;
        let latency = sys.latency().clone();
        sys.cpu_overhead(
            self.thread,
            "cpu-metadata",
            latency.cpu_metadata_ns,
            Region::CcMetadata,
        )?;
        let header = LogEntryHeader::active(addr, data.len() as u64, txn);
        sys.cpu_write(self.thread, slot.meta, &header.encode(), Region::CcMetadata)?;
        sys.cpu_persist(self.thread, slot.meta, 64, Region::CcMetadata)?;
        sys.cpu_write(self.thread, slot.data, data, Region::CcDataMovement)?;
        sys.cpu_persist(
            self.thread,
            slot.data,
            data.len() as u64,
            Region::CcDataMovement,
        )?;
        self.staged.push(ActiveEntry {
            slot,
            target: addr,
            len: data.len() as u64,
        });
        Ok(())
    }

    /// Commits: applies every staged entry to its home location
    /// (`NearPM_applylog` or a CPU copy), synchronizes according to the mode,
    /// and resets the log.
    ///
    /// Split-phase structure: **all** applies are posted into the batch
    /// before the synchronization point, and in NearPM MD the delayed-sync
    /// barrier is threaded into the `CommitLog` reset commands as a
    /// device-side ordering dependency, so the log reset is ordered after the
    /// cross-device sync exactly as Figure 12 requires (previously the
    /// barrier was computed but not passed, leaving the reset unordered).
    pub fn commit(&mut self, sys: &mut NearPmSystem) -> Result<()> {
        let txn = self.txn.take().expect("commit without begin");

        // Commit marker FIRST (the torn-applies fix): every staged entry is
        // already durable, so once the marker is durable the transaction is
        // committed — a crash anywhere among the applies or resets recovers
        // by re-applying the log (idempotent). Before the marker, no home
        // location has been touched and recovery discards the log.
        let marker = LogEntryHeader::active(VirtAddr(0), 0, txn);
        sys.cpu_write_persist(
            self.thread,
            self.marker,
            &marker.encode(),
            Region::CcMetadata,
        )?;

        if sys.mode().uses_ndp() {
            for e in &self.staged {
                sys.offload_into(
                    &mut self.batch,
                    self.thread,
                    self.pool,
                    NearPmOp::ApplyRedoLog {
                        log_data: e.slot.data,
                        dst: e.target,
                        len: e.len,
                    },
                    &[],
                )?;
            }
        } else {
            for e in &self.staged {
                sys.cpu_copy(
                    self.thread,
                    e.slot.data,
                    e.target,
                    e.len,
                    Region::CcDataMovement,
                )?;
            }
        }

        let mut reset_deps: Vec<TaskId> = Vec::new();
        match sys.mode() {
            ExecMode::CpuBaseline | ExecMode::NearPmSd => {}
            ExecMode::NearPmMdSync => {
                // The CPU polls the devices; the reset commands issue after
                // the poll on the CPU, so no device-side dependency is needed.
                sys.sw_sync_batch(self.thread, &self.batch)?;
            }
            ExecMode::NearPmMd => {
                // The near-memory barrier the log reset must order after.
                reset_deps.extend(sys.delayed_sync_batch(&self.batch)?);
            }
        }

        // Reset the log entries, ordered after the delayed sync (if any).
        if sys.mode().uses_ndp() {
            let devices: Vec<usize> = {
                let mut d: Vec<usize> = self.staged.iter().map(|e| e.slot.device).collect();
                d.sort_unstable();
                d.dedup();
                d
            };
            for dev in devices {
                let entries: Vec<VirtAddr> = self
                    .staged
                    .iter()
                    .filter(|e| e.slot.device == dev)
                    .map(|e| e.slot.meta)
                    .collect();
                sys.offload_into(
                    &mut self.commit_batch,
                    self.thread,
                    self.pool,
                    NearPmOp::CommitLog {
                        entries,
                        txn_id: self.committed_txns,
                    },
                    &reset_deps,
                )?;
            }
        } else {
            let latency = sys.latency().clone();
            for e in &self.staged {
                sys.cpu_overhead(
                    self.thread,
                    "cpu-log-reset",
                    latency.cpu_log_reset_ns,
                    Region::CcLogReset,
                )?;
                sys.cpu_write(
                    self.thread,
                    e.slot.meta,
                    &LogEntryHeader::reset_image(),
                    Region::CcLogReset,
                )?;
                sys.cpu_persist(self.thread, e.slot.meta, 64, Region::CcLogReset)?;
            }
        }

        // Clear the marker — the commit is fully retired.
        sys.cpu_write_persist(
            self.thread,
            self.marker,
            &LogEntryHeader::reset_image(),
            Region::CcLogReset,
        )?;

        sys.release_batch(&mut self.batch);
        for e in self.staged.drain(..) {
            self.arena.release(e.slot);
        }
        self.committed_txns += 1;
        Ok(())
    }

    /// Recovery: reads the commit marker first. Entries of a transaction
    /// whose marker was durable at the crash are rolled **forward** — the
    /// staged new data is re-applied to the home locations (idempotent) and
    /// the entries reset. Every other `Active` entry is discarded (its home
    /// location was never touched). Returns how many entries were processed
    /// (discarded or rolled forward).
    pub fn recover(&mut self, sys: &mut NearPmSystem) -> Result<usize> {
        sys.begin_recovery()?;
        let committing = LogEntryHeader::decode(&sys.persistent_read(self.marker, 64)?)
            .filter(|h| h.state == EntryState::Active)
            .map(|h| h.txn_id);
        let mut processed = 0;
        for (meta, data, _dev) in self.arena.scan_list().to_vec() {
            let header_bytes = sys.persistent_read(meta, 64)?;
            if let Some(header) = LogEntryHeader::decode(&header_bytes) {
                if header.state == EntryState::Active {
                    if committing == Some(header.txn_id) {
                        // Roll forward: the log holds the full new data.
                        let new = sys.persistent_read(data, header.len as usize)?;
                        sys.cpu_read(
                            self.thread,
                            data,
                            header.len as usize,
                            Region::CcDataMovement,
                        )?;
                        sys.cpu_write_persist(
                            self.thread,
                            header.target,
                            &new,
                            Region::CcDataMovement,
                        )?;
                    }
                    sys.cpu_write_persist(
                        self.thread,
                        meta,
                        &LogEntryHeader::reset_image(),
                        Region::CcLogReset,
                    )?;
                    processed += 1;
                }
            }
        }
        if committing.is_some() {
            sys.cpu_write_persist(
                self.thread,
                self.marker,
                &LogEntryHeader::reset_image(),
                Region::CcLogReset,
            )?;
        }
        for e in self.staged.drain(..) {
            self.arena.release(e.slot);
        }
        self.batch.clear();
        sys.release_batch(&mut self.commit_batch);
        self.txn = None;
        sys.finish_recovery();
        Ok(processed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nearpm_core::{ExecMode, SystemConfig};

    fn setup(mode: ExecMode) -> (NearPmSystem, PoolId, VirtAddr) {
        let mut sys = NearPmSystem::new(SystemConfig::for_mode(mode).with_capacity(16 << 20));
        let pool = sys.create_pool("log-test", 8 << 20).unwrap();
        let obj = sys.alloc(pool, 8192, 4096).unwrap();
        sys.cpu_write_persist(0, obj, &vec![0xAB; 8192], Region::AppPersist)
            .unwrap();
        (sys, pool, obj)
    }

    #[test]
    fn undo_log_commit_keeps_new_value_all_modes() {
        for mode in ExecMode::all() {
            let (mut sys, pool, obj) = setup(mode);
            let mut undo = UndoLog::new(&mut sys, pool, 0, 8).unwrap();
            undo.begin(&mut sys).unwrap();
            undo.log_range(&mut sys, obj, 128).unwrap();
            undo.update(&mut sys, obj, &[0xCD; 128]).unwrap();
            undo.commit(&mut sys).unwrap();
            assert_eq!(undo.committed(), 1);
            assert_eq!(
                sys.persistent_read(obj, 128).unwrap(),
                vec![0xCD; 128],
                "mode {:?}",
                mode
            );
            let report = sys.report();
            assert!(
                report.ppo_violations.is_empty(),
                "{mode:?}: {:?}",
                report.ppo_violations
            );
        }
    }

    #[test]
    fn undo_log_crash_before_commit_rolls_back() {
        for mode in ExecMode::all() {
            let (mut sys, pool, obj) = setup(mode);
            let mut undo = UndoLog::new(&mut sys, pool, 0, 8).unwrap();
            undo.begin(&mut sys).unwrap();
            undo.log_range(&mut sys, obj, 256).unwrap();
            undo.update(&mut sys, obj, &[0xEE; 256]).unwrap();
            // Crash before commit: the update must be rolled back.
            sys.crash();
            let rolled = undo.recover(&mut sys).unwrap();
            assert!(rolled >= 1, "mode {:?}", mode);
            assert_eq!(
                sys.persistent_read(obj, 256).unwrap(),
                vec![0xAB; 256],
                "mode {:?}",
                mode
            );
        }
    }

    #[test]
    fn undo_log_crash_after_commit_keeps_update() {
        let (mut sys, pool, obj) = setup(ExecMode::NearPmMd);
        let mut undo = UndoLog::new(&mut sys, pool, 0, 8).unwrap();
        undo.begin(&mut sys).unwrap();
        undo.log_range(&mut sys, obj, 64).unwrap();
        undo.update(&mut sys, obj, &[0x11; 64]).unwrap();
        undo.commit(&mut sys).unwrap();
        sys.crash();
        let rolled = undo.recover(&mut sys).unwrap();
        assert_eq!(rolled, 0);
        assert_eq!(sys.persistent_read(obj, 64).unwrap(), vec![0x11; 64]);
    }

    #[test]
    fn undo_log_multi_device_object_spans_both_devices() {
        let (mut sys, pool, obj) = setup(ExecMode::NearPmMd);
        let mut undo = UndoLog::new(&mut sys, pool, 0, 8).unwrap();
        undo.begin(&mut sys).unwrap();
        // 8 kB object spans both interleaved devices.
        undo.log_range(&mut sys, obj, 8192).unwrap();
        undo.update(&mut sys, obj, &vec![0x77; 8192]).unwrap();
        undo.commit(&mut sys).unwrap();
        let report = sys.report();
        assert!(report.ppo_violations.is_empty());
        // Both devices executed requests.
        assert!(report.ndp_requests >= 3); // 2+ log creates + commits
        assert_eq!(sys.persistent_read(obj, 8192).unwrap(), vec![0x77; 8192]);
    }

    #[test]
    fn redo_log_commit_applies_staged_updates() {
        for mode in ExecMode::all() {
            let (mut sys, pool, obj) = setup(mode);
            let mut redo = RedoLog::new(&mut sys, pool, 0, 8).unwrap();
            redo.begin(&mut sys).unwrap();
            redo.stage(&mut sys, obj, &[0x42; 64]).unwrap();
            redo.stage(&mut sys, obj.offset(4096), &[0x43; 64]).unwrap();
            // Home locations untouched before commit.
            assert_eq!(sys.persistent_read(obj, 64).unwrap(), vec![0xAB; 64]);
            redo.commit(&mut sys).unwrap();
            assert_eq!(sys.persistent_read(obj, 64).unwrap(), vec![0x42; 64]);
            assert_eq!(
                sys.persistent_read(obj.offset(4096), 64).unwrap(),
                vec![0x43; 64]
            );
            assert!(sys.report().ppo_violations.is_empty(), "mode {:?}", mode);
        }
    }

    /// ROADMAP-flagged bugfix regression: in NearPM MD the `CommitLog` reset
    /// commands must be ordered **after** the delayed-sync barrier on the
    /// device side (Figure 12). Before the fix, `RedoLog::commit` computed
    /// the barrier but posted the resets with no dependency, so a reset
    /// could start while the cross-device sync was still in flight.
    #[test]
    fn redo_md_commit_orders_log_reset_after_delayed_sync() {
        let (mut sys, pool, obj) = setup(ExecMode::NearPmMd);
        let mut redo = RedoLog::new(&mut sys, pool, 0, 8).unwrap();
        redo.begin(&mut sys).unwrap();
        // Two staged updates on different devices force a cross-device sync.
        redo.stage(&mut sys, obj, &[0x42; 64]).unwrap();
        redo.stage(&mut sys, obj.offset(4096), &[0x43; 64]).unwrap();
        redo.commit(&mut sys).unwrap();

        let graph = sys.graph();
        let sync_finish = graph
            .tasks()
            .filter(|t| t.label == "md-sync")
            .map(|t| graph.task_finish(t.id))
            .max()
            .expect("MD commit must post a delayed sync");
        let resets: Vec<_> = graph
            .tasks()
            .filter(|t| t.label == "ndp-log-reset")
            .map(|t| t.id)
            .collect();
        assert!(!resets.is_empty(), "commit must reset the log entries");
        for id in resets {
            assert!(
                graph.task_start(id) >= sync_finish,
                "log reset starts before the delayed-sync barrier completes"
            );
        }
        assert!(sys.report().ppo_violations.is_empty());
    }

    /// Redo-specific recovery: a crash **between the delayed sync and the
    /// commit's log reset** leaves every staged entry `Active` while the
    /// applies have already reached the home locations. Recovery must keep
    /// the applied values (redo entries are idempotent to discard once
    /// applied), reset the entries, and leave the log usable.
    #[test]
    fn redo_crash_between_delayed_sync_and_commit_recovers() {
        let (mut sys, pool, obj) = setup(ExecMode::NearPmMd);
        let mut redo = RedoLog::new(&mut sys, pool, 0, 8).unwrap();
        redo.begin(&mut sys).unwrap();
        redo.stage(&mut sys, obj, &[0x42; 64]).unwrap();
        redo.stage(&mut sys, obj.offset(4096), &[0x43; 64]).unwrap();

        // Drive the commit path manually up to (and including) the delayed
        // sync, then crash before the CommitLog resets are posted.
        let staged: Vec<(VirtAddr, VirtAddr, u64)> = redo
            .staged
            .iter()
            .map(|e| (e.slot.data, e.target, e.len))
            .collect();
        let mut batch = OffloadBatch::new();
        for (log_data, dst, len) in staged {
            sys.offload_into(
                &mut batch,
                0,
                pool,
                NearPmOp::ApplyRedoLog { log_data, dst, len },
                &[],
            )
            .unwrap();
        }
        sys.delayed_sync_batch(&batch).unwrap().unwrap();
        sys.crash();

        // The applies reached the persistence domain before the failure
        // (persistent_read works while crashed — it is what recovery sees).
        assert_eq!(sys.persistent_read(obj, 64).unwrap(), vec![0x42; 64]);

        // Both entries were still Active (the reset never ran): recovery
        // resets them without touching the applied home locations.
        let discarded = redo.recover(&mut sys).unwrap();
        assert_eq!(discarded, 2);
        assert_eq!(sys.persistent_read(obj, 64).unwrap(), vec![0x42; 64]);
        assert_eq!(
            sys.persistent_read(obj.offset(4096), 64).unwrap(),
            vec![0x43; 64]
        );
        // Idempotent: recovery after a second crash finds nothing Active.
        sys.crash();
        assert_eq!(redo.recover(&mut sys).unwrap(), 0);

        // The log is fully usable for the next transaction.
        redo.begin(&mut sys).unwrap();
        redo.stage(&mut sys, obj, &[0x55; 64]).unwrap();
        redo.commit(&mut sys).unwrap();
        assert_eq!(sys.persistent_read(obj, 64).unwrap(), vec![0x55; 64]);
        assert!(sys.report().ppo_violations.is_empty());
    }

    #[test]
    fn redo_log_crash_before_commit_discards_staged() {
        let (mut sys, pool, obj) = setup(ExecMode::NearPmSd);
        let mut redo = RedoLog::new(&mut sys, pool, 0, 8).unwrap();
        redo.begin(&mut sys).unwrap();
        redo.stage(&mut sys, obj, &[0x99; 64]).unwrap();
        sys.crash();
        let discarded = redo.recover(&mut sys).unwrap();
        assert_eq!(discarded, 1);
        // Home location unchanged.
        assert_eq!(sys.persistent_read(obj, 64).unwrap(), vec![0xAB; 64]);
    }

    /// ROADMAP commit-handle release: the `CommitLog` offloads posted by
    /// `UndoLog::commit` / `RedoLog::commit` used to drop their handles, so
    /// one in-flight record per commit per device accumulated for the whole
    /// run. With the retired-release at the next `begin`, a long run's
    /// in-flight table stays bounded by the work genuinely in flight.
    #[test]
    fn commit_records_are_released_and_inflight_table_stays_bounded() {
        const TXNS: u64 = 64;
        for mode in [ExecMode::NearPmSd, ExecMode::NearPmMd] {
            let (mut sys, pool, obj) = setup(mode);
            let mut undo = UndoLog::new(&mut sys, pool, 0, 8).unwrap();
            let mut peak = 0usize;
            for i in 0..TXNS {
                undo.begin(&mut sys).unwrap();
                let site = obj.offset((i % 2) * 4096);
                undo.log_range(&mut sys, site, 256).unwrap();
                undo.update(&mut sys, site, &[i as u8; 256]).unwrap();
                undo.commit(&mut sys).unwrap();
                peak = peak.max(sys.inflight_records());
            }
            assert!(
                peak <= 16,
                "{mode:?}: in-flight table peaked at {peak} records over {TXNS} txns \
                 — commit handles are leaking again"
            );
            assert!(sys.report().ppo_violations.is_empty(), "mode {mode:?}");

            let mut redo = RedoLog::new(&mut sys, pool, 0, 8).unwrap();
            let mut peak = 0usize;
            for i in 0..TXNS {
                redo.begin(&mut sys).unwrap();
                redo.stage(&mut sys, obj.offset((i % 2) * 4096), &[i as u8; 64])
                    .unwrap();
                redo.commit(&mut sys).unwrap();
                peak = peak.max(sys.inflight_records());
            }
            assert!(
                peak <= 16,
                "{mode:?}: redo in-flight table peaked at {peak} records over {TXNS} txns"
            );
            assert!(sys.report().ppo_violations.is_empty(), "mode {mode:?}");
        }
    }

    /// The retirement bar is the minimum over threads that have issued
    /// work: configured-but-idle CPU threads must not pin it at time zero
    /// and silently defeat the release (the table would leak exactly as
    /// before the fix).
    #[test]
    fn idle_threads_do_not_block_commit_record_release() {
        let mut sys = NearPmSystem::new(
            SystemConfig::for_mode(ExecMode::NearPmMd)
                .with_cpu_threads(4)
                .with_capacity(16 << 20),
        );
        let pool = sys.create_pool("idle-threads", 8 << 20).unwrap();
        let obj = sys.alloc(pool, 8192, 4096).unwrap();
        sys.cpu_write_persist(0, obj, &vec![0xAB; 8192], Region::AppPersist)
            .unwrap();
        // Only thread 0 ever runs transactions; threads 1-3 stay idle.
        let mut undo = UndoLog::new(&mut sys, pool, 0, 8).unwrap();
        let mut peak = 0usize;
        for i in 0..64u64 {
            undo.begin(&mut sys).unwrap();
            let site = obj.offset((i % 2) * 4096);
            undo.log_range(&mut sys, site, 256).unwrap();
            undo.update(&mut sys, site, &[i as u8; 256]).unwrap();
            undo.commit(&mut sys).unwrap();
            peak = peak.max(sys.inflight_records());
        }
        assert!(
            peak <= 16,
            "idle threads pinned the retirement bar: in-flight table peaked at {peak}"
        );
        assert!(sys.report().ppo_violations.is_empty());
    }

    #[test]
    fn nearpm_modes_are_faster_than_baseline_for_logging() {
        let run = |mode: ExecMode| {
            let (mut sys, pool, obj) = setup(mode);
            let mut undo = UndoLog::new(&mut sys, pool, 0, 16).unwrap();
            for i in 0..8u64 {
                undo.begin(&mut sys).unwrap();
                undo.log_range(&mut sys, obj.offset((i % 2) * 4096), 1024)
                    .unwrap();
                sys.cpu_compute(0, 400.0).unwrap();
                undo.update(&mut sys, obj.offset((i % 2) * 4096), &[i as u8; 1024])
                    .unwrap();
                undo.commit(&mut sys).unwrap();
            }
            sys.report()
        };
        let base = run(ExecMode::CpuBaseline);
        let sd = run(ExecMode::NearPmSd);
        let md = run(ExecMode::NearPmMd);
        assert!(sd.makespan < base.makespan, "SD should beat baseline");
        assert!(md.makespan < base.makespan, "MD should beat baseline");
        assert!(sd.cc_time < base.cc_time);
    }
}
