//! Split-phase (post-all / complete-later) offload groups.
//!
//! A crash-consistency transaction typically issues several independent
//! NearPM primitives per phase — one undo-log creation per logged range, one
//! shadow copy per touched page — and only *then* needs a completion point
//! (the mode-specific commit synchronization). [`OffloadBatch`] is the one
//! shape of that flow: a phase posts every offload into a batch
//! (`NearPmSystem::offload_into`), completes the whole group through one
//! mode-specific sync (`sw_sync_batch`, CPU polling; `delayed_sync_batch`,
//! near-memory delayed sync), and retires the group's in-flight ordering
//! records together (`release_batch` / `release_batch_retired`). A single
//! offload is a batch of one.
//!
//! The batch is purely a host-side grouping: each posted command still
//! crosses the control path individually (one posted MMIO write per
//! command), so the device-side task structure of a batch of N offloads is
//! identical to N individually posted offloads. What the group changes is
//! the *shape of the transaction code built on it*: mechanisms stop
//! interleaving offload posting with CPU bookkeeping and waits, so all of a
//! phase's device work is in flight together and overlaps across units and
//! devices.

use nearpm_device::RequestId;
use nearpm_ppo::ProcId;
use nearpm_sim::TaskId;

/// One posted offload, as its batch tracks it.
#[derive(Debug)]
pub(crate) struct OffloadHandle {
    /// PPO procedure id.
    pub(crate) proc: ProcId,
    /// Device that executed the request.
    pub(crate) device: usize,
    /// Request id on that device.
    pub(crate) request: RequestId,
    /// Final task of the device-side execution.
    pub(crate) finish: TaskId,
    /// Payload bytes moved.
    pub(crate) bytes: u64,
}

/// A group of in-flight offloaded procedures, posted together in one
/// split-phase transaction phase and synchronized/released as a unit.
#[derive(Debug, Default)]
pub struct OffloadBatch {
    handles: Vec<OffloadHandle>,
}

impl OffloadBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        OffloadBatch {
            handles: Vec::new(),
        }
    }

    /// Creates an empty batch with room for `n` offloads.
    pub fn with_capacity(n: usize) -> Self {
        OffloadBatch {
            handles: Vec::with_capacity(n),
        }
    }

    /// Adds an in-flight offload to the group.
    pub(crate) fn push(&mut self, handle: OffloadHandle) {
        self.handles.push(handle);
    }

    /// Number of offloads in the group.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// True if no offloads have been posted into the group.
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// The grouped handles, in posting order.
    pub(crate) fn handles(&self) -> &[OffloadHandle] {
        &self.handles
    }

    /// Total payload bytes moved by the group's offloads.
    pub fn bytes(&self) -> u64 {
        self.handles.iter().map(|h| h.bytes).sum()
    }

    /// Retains only the handles `keep` approves of, dropping the rest (the
    /// retired-release path walks the group and keeps what is still in
    /// flight).
    pub(crate) fn retain(&mut self, keep: impl FnMut(&OffloadHandle) -> bool) {
        self.handles.retain(keep);
    }

    /// Forgets the grouped handles (after the owning transaction released
    /// them), leaving the batch ready for the next phase.
    pub fn clear(&mut self) {
        self.handles.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecMode, NearPmSystem, SystemConfig};
    use nearpm_device::NearPmOp;
    use nearpm_pm::AddrRange;
    use nearpm_sim::Region;

    #[test]
    fn batch_groups_posted_offloads_by_device() {
        let mut sys =
            NearPmSystem::new(SystemConfig::for_mode(ExecMode::NearPmMd).with_capacity(8 << 20));
        let pool = sys.create_pool("p", 4 << 20).unwrap();
        let obj = sys.alloc(pool, 8192, 4096).unwrap();
        let log_area = sys.alloc(pool, 32768, 4096).unwrap();
        sys.register_ndp_managed(AddrRange::new(log_area, 32768));
        sys.cpu_write_persist(0, obj, &[1; 128], Region::AppPersist)
            .unwrap();

        let mut batch = OffloadBatch::with_capacity(2);
        assert!(batch.is_empty());
        let txn = sys.next_txn_id();
        // The 8 kB object spans both interleaved devices; one log create per
        // device-local span lands the batch on both devices.
        for (i, (addr, len, _dev)) in sys.device_spans(obj, 8192).unwrap().enumerate() {
            let slot = log_area.offset(i as u64 * 4096);
            sys.offload_into(
                &mut batch,
                0,
                pool,
                NearPmOp::UndoLogCreate {
                    src: addr,
                    len: len.min(2048),
                    log_meta: slot,
                    log_data: slot.offset(64),
                    txn_id: txn,
                },
                &[],
            )
            .unwrap();
        }
        assert_eq!(batch.len(), 2);
        let devices: Vec<usize> = batch.handles().iter().map(|h| h.device).collect();
        assert_eq!(devices, [0, 1]);
        assert_eq!(batch.bytes(), 4096);

        // The whole group synchronizes and releases as a unit.
        let barrier = sys.delayed_sync_batch(&batch).unwrap();
        assert!(barrier.is_some());
        sys.release_batch(&mut batch);
        assert!(batch.is_empty());
        let report = sys.report();
        assert!(report.ppo_violations.is_empty());
        assert_eq!(report.ndp_requests, 2);
    }

    #[test]
    fn empty_batch_sync_is_a_no_op() {
        let mut sys =
            NearPmSystem::new(SystemConfig::for_mode(ExecMode::NearPmMd).with_capacity(4 << 20));
        let mut batch = OffloadBatch::new();
        assert_eq!(sys.sw_sync_batch(0, &batch).unwrap(), None);
        assert_eq!(sys.delayed_sync_batch(&batch).unwrap(), None);
        sys.release_batch(&mut batch);
        assert_eq!(
            sys.task_count(),
            0,
            "no task may be added for an empty group"
        );
    }
}
