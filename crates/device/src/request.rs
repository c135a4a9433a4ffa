//! NearPM requests: the command format of the control path.
//!
//! The software interface (Table 2 of the paper) issues commands whose
//! operands are **virtual addresses** plus pool and thread identifiers. The
//! dispatcher inside the device translates the operands to physical addresses
//! via the address-mapping table before execution. This module defines both
//! the raw (virtual-address) request and its decoded (physical-address) form,
//! plus the micro-operations a NearPM unit executes.

use nearpm_pm::{PhysAddr, PoolId, VirtAddr};

use crate::metadata::LogEntryHeader;

/// Identifier of an application thread, used to select the per-thread log
/// region and to index the address-mapping table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ThreadId(pub u32);

/// Monotonically increasing identifier assigned to every request accepted by
/// a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

/// A crash-consistency primitive offloaded to NearPM (Table 2).
///
/// Log/checkpoint destinations are chosen by the PM library on the host (as
/// PMDK does for its per-transaction log offsets) and carried in the request
/// so that the device's metadata generator and DMA engine know where to
/// place recovery data. Destinations always point into NDP-managed regions.
#[derive(Debug, Clone, PartialEq)]
pub enum NearPmOp {
    /// `NearPM_undolg_create`: generate metadata and copy `len` bytes of old
    /// data from `src` into the undo-log slot at `log_meta`/`log_data`.
    UndoLogCreate {
        /// Virtual address of the data about to be overwritten.
        src: VirtAddr,
        /// Length of the logged range in bytes.
        len: u64,
        /// Destination of the log-entry header.
        log_meta: VirtAddr,
        /// Destination of the logged data bytes.
        log_data: VirtAddr,
        /// Transaction the entry belongs to.
        txn_id: u64,
    },
    /// `NearPM_applylog`: apply a redo log by copying `len` bytes from the
    /// log back to the home location.
    ApplyRedoLog {
        /// Virtual address of the redo-log data.
        log_data: VirtAddr,
        /// Home location to apply the log to.
        dst: VirtAddr,
        /// Length in bytes.
        len: u64,
    },
    /// `NearPM_commit_log`: mark a transaction's log entries committed and
    /// reset (delete) them.
    CommitLog {
        /// Log-entry headers to reset.
        entries: Vec<VirtAddr>,
        /// Transaction being committed.
        txn_id: u64,
    },
    /// `NearPM_ckpoint_create`: generate metadata and copy an existing page
    /// into the checkpoint area before it is updated.
    CheckpointCreate {
        /// Virtual address of the page to snapshot.
        src: VirtAddr,
        /// Length (typically 4 kB).
        len: u64,
        /// Destination of the checkpoint-entry header.
        ckpt_meta: VirtAddr,
        /// Destination of the snapshot bytes.
        ckpt_data: VirtAddr,
        /// Checkpoint epoch.
        epoch: u64,
    },
    /// `NearPM_shadowcpy`: copy an existing page to its shadow page before
    /// the application writes the new version.
    ShadowCopy {
        /// Virtual address of the original page.
        src: VirtAddr,
        /// Virtual address of the shadow page.
        dst: VirtAddr,
        /// Length (typically 4 kB).
        len: u64,
    },
}

impl NearPmOp {
    /// Short mnemonic used in traces and statistics.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            NearPmOp::UndoLogCreate { .. } => "undolog_create",
            NearPmOp::ApplyRedoLog { .. } => "applylog",
            NearPmOp::CommitLog { .. } => "commit_log",
            NearPmOp::CheckpointCreate { .. } => "ckpoint_create",
            NearPmOp::ShadowCopy { .. } => "shadowcpy",
        }
    }

    /// Number of payload bytes the operation moves.
    pub fn bytes_moved(&self) -> u64 {
        match self {
            NearPmOp::UndoLogCreate { len, .. }
            | NearPmOp::ApplyRedoLog { len, .. }
            | NearPmOp::CheckpointCreate { len, .. }
            | NearPmOp::ShadowCopy { len, .. } => *len,
            NearPmOp::CommitLog { .. } => 0,
        }
    }

    /// Virtual operand ranges the operation *reads* (shared application data
    /// or log data): one range, none for a commit.
    pub fn read_ranges(&self) -> impl Iterator<Item = (VirtAddr, u64)> {
        let range = match self {
            NearPmOp::UndoLogCreate { src, len, .. }
            | NearPmOp::CheckpointCreate { src, len, .. }
            | NearPmOp::ShadowCopy { src, len, .. } => Some((*src, *len)),
            NearPmOp::ApplyRedoLog { log_data, len, .. } => Some((*log_data, *len)),
            NearPmOp::CommitLog { .. } => None,
        };
        range.into_iter()
    }

    /// Virtual operand ranges the operation *writes*: header then data for a
    /// log or checkpoint entry, the destination for a copy, and one header
    /// per entry for a commit.
    pub fn write_ranges(&self) -> impl Iterator<Item = (VirtAddr, u64)> + '_ {
        const HEADER: u64 = crate::metadata::LOG_ENTRY_HEADER_LEN as u64;
        let (fixed, headers) = match self {
            NearPmOp::UndoLogCreate {
                log_meta: meta,
                log_data: data,
                len,
                ..
            }
            | NearPmOp::CheckpointCreate {
                ckpt_meta: meta,
                ckpt_data: data,
                len,
                ..
            } => ([Some((*meta, HEADER)), Some((*data, *len))], &[][..]),
            NearPmOp::ApplyRedoLog { dst, len, .. } | NearPmOp::ShadowCopy { dst, len, .. } => {
                ([Some((*dst, *len)), None], &[][..])
            }
            NearPmOp::CommitLog { entries, .. } => ([None, None], entries.as_slice()),
        };
        fixed
            .into_iter()
            .flatten()
            .chain(headers.iter().map(|&entry| (entry, HEADER)))
    }

    /// Decodes the operation into the physical micro-op program a NearPM
    /// unit executes, translating every operand through `translate`. The
    /// program replaces `program`'s contents (a caller-owned buffer, reused
    /// across requests); on a translation failure its contents are
    /// unspecified.
    pub fn decode_into<E>(
        &self,
        program: &mut Vec<MicroOp>,
        mut translate: impl FnMut(VirtAddr) -> Result<PhysAddr, E>,
    ) -> Result<(), E> {
        program.clear();
        match self {
            NearPmOp::UndoLogCreate {
                src,
                len,
                log_meta: meta,
                log_data: data,
                txn_id: seq,
            }
            | NearPmOp::CheckpointCreate {
                src,
                len,
                ckpt_meta: meta,
                ckpt_data: data,
                epoch: seq,
            } => {
                let src_p = translate(*src)?;
                let meta_p = translate(*meta)?;
                let data_p = translate(*data)?;
                program.push(MicroOp::WriteHeader {
                    dst: meta_p,
                    header: LogEntryHeader::active(*src, *len, *seq),
                });
                program.push(MicroOp::Copy {
                    src: src_p,
                    dst: data_p,
                    len: *len,
                });
            }
            NearPmOp::ApplyRedoLog {
                log_data: src,
                dst,
                len,
            }
            | NearPmOp::ShadowCopy { src, dst, len } => {
                let src_p = translate(*src)?;
                let dst_p = translate(*dst)?;
                program.push(MicroOp::Copy {
                    src: src_p,
                    dst: dst_p,
                    len: *len,
                });
            }
            NearPmOp::CommitLog { entries, .. } => {
                for entry in entries {
                    program.push(MicroOp::ResetHeader {
                        dst: translate(*entry)?,
                    });
                }
            }
        }
        Ok(())
    }
}

/// A request as issued by the host over the control path.
#[derive(Debug, Clone, PartialEq)]
pub struct NearPmRequest {
    /// Pool the operands belong to.
    pub pool: PoolId,
    /// Issuing application thread.
    pub thread: ThreadId,
    /// The operation.
    pub op: NearPmOp,
}

impl NearPmRequest {
    /// Creates a request.
    pub fn new(pool: PoolId, thread: ThreadId, op: NearPmOp) -> Self {
        NearPmRequest { pool, thread, op }
    }
}

/// A physical copy/metadata micro-operation produced by decoding a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroOp {
    /// Copy `len` bytes from `src` to `dst` using the DMA engine.
    Copy {
        /// Physical source.
        src: PhysAddr,
        /// Physical destination.
        dst: PhysAddr,
        /// Bytes to copy.
        len: u64,
    },
    /// Write a log/checkpoint entry header at `dst`.
    WriteHeader {
        /// Physical destination of the header.
        dst: PhysAddr,
        /// Header contents generated by the metadata generator.
        header: LogEntryHeader,
    },
    /// Reset (invalidate) the header at `dst`.
    ResetHeader {
        /// Physical location of the header.
        dst: PhysAddr,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: u64) -> VirtAddr {
        VirtAddr(x)
    }

    #[test]
    fn mnemonics_and_bytes() {
        let op = NearPmOp::UndoLogCreate {
            src: v(0x1000),
            len: 256,
            log_meta: v(0x8000),
            log_data: v(0x8040),
            txn_id: 1,
        };
        assert_eq!(op.mnemonic(), "undolog_create");
        assert_eq!(op.bytes_moved(), 256);
        let commit = NearPmOp::CommitLog {
            entries: vec![v(0x8000)],
            txn_id: 1,
        };
        assert_eq!(commit.bytes_moved(), 0);
        assert_eq!(commit.mnemonic(), "commit_log");
    }

    #[test]
    fn read_and_write_ranges() {
        let op = NearPmOp::UndoLogCreate {
            src: v(0x1000),
            len: 128,
            log_meta: v(0x8000),
            log_data: v(0x8040),
            txn_id: 0,
        };
        assert_eq!(op.read_ranges().collect::<Vec<_>>(), [(v(0x1000), 128)]);
        assert_eq!(
            op.write_ranges().collect::<Vec<_>>(),
            [(v(0x8000), 40), (v(0x8040), 128)]
        );

        let shadow = NearPmOp::ShadowCopy {
            src: v(0x2000),
            dst: v(0x3000),
            len: 4096,
        };
        assert_eq!(
            shadow.read_ranges().collect::<Vec<_>>(),
            [(v(0x2000), 4096)]
        );
        assert_eq!(
            shadow.write_ranges().collect::<Vec<_>>(),
            [(v(0x3000), 4096)]
        );
        let commit = NearPmOp::CommitLog {
            entries: vec![v(0x8000), v(0x8100)],
            txn_id: 0,
        };
        assert_eq!(commit.read_ranges().count(), 0);
        assert_eq!(
            commit.write_ranges().collect::<Vec<_>>(),
            [(v(0x8000), 40), (v(0x8100), 40)]
        );
    }

    #[test]
    fn decode_produces_the_micro_op_program() {
        // Identity-ish translation: virtual 0x1000_0000 + x -> physical x.
        let xlate = |a: VirtAddr| -> Result<PhysAddr, ()> { Ok(PhysAddr(a.raw() & 0xFFFF)) };
        let op = NearPmOp::UndoLogCreate {
            src: v(0x1000_0100),
            len: 128,
            log_meta: v(0x1000_8000),
            log_data: v(0x1000_8040),
            txn_id: 9,
        };
        let mut prog = Vec::new();
        op.decode_into(&mut prog, xlate).unwrap();
        assert_eq!(
            prog,
            vec![
                MicroOp::WriteHeader {
                    dst: PhysAddr(0x8000),
                    header: LogEntryHeader::active(v(0x1000_0100), 128, 9),
                },
                MicroOp::Copy {
                    src: PhysAddr(0x100),
                    dst: PhysAddr(0x8040),
                    len: 128,
                },
            ]
        );
        let commit = NearPmOp::CommitLog {
            entries: vec![v(0x1000_8000), v(0x1000_8100)],
            txn_id: 9,
        };
        // The buffer is reused: the commit's program replaces the log's.
        commit.decode_into(&mut prog, xlate).unwrap();
        assert_eq!(
            prog,
            vec![
                MicroOp::ResetHeader {
                    dst: PhysAddr(0x8000)
                },
                MicroOp::ResetHeader {
                    dst: PhysAddr(0x8100)
                },
            ]
        );
        // Translation failures surface instead of producing a partial program.
        let fail = |_: VirtAddr| -> Result<PhysAddr, &'static str> { Err("unmapped") };
        assert_eq!(op.decode_into(&mut prog, fail), Err("unmapped"));
    }

    #[test]
    fn request_construction() {
        let r = NearPmRequest::new(
            PoolId(1),
            ThreadId(2),
            NearPmOp::ApplyRedoLog {
                log_data: v(0x9000),
                dst: v(0x1000),
                len: 64,
            },
        );
        assert_eq!(r.pool, PoolId(1));
        assert_eq!(r.thread, ThreadId(2));
        assert_eq!(r.op.bytes_moved(), 64);
    }
}
