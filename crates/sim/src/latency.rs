//! Latency and bandwidth model of the evaluation platform.
//!
//! The defaults mirror the prototype in the paper (Section 7 / Table 3):
//! PM emulated with on-board DRAM at 436 ns access latency, a PCIe 3.0 x8
//! link (8 GB/s) between the host and the NearPM devices, an internal AXI
//! interconnect of 4 GB/s shared by the four NearPM units of a device, and
//! NearPM units clocked at 300 MHz.
//!
//! All figure-producing code derives task durations exclusively from this
//! model, so a single struct captures every knob a sensitivity study needs.

use crate::time::SimDuration;

/// Size of a CPU cache line in bytes.
pub const CACHE_LINE: u64 = 64;

/// Size of a PM page used by checkpointing and shadow paging (4 kB).
pub const PM_PAGE: u64 = 4096;

/// Latency/bandwidth parameters of the simulated platform.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyModel {
    /// Latency of a CPU load that misses to the emulated PM (ns).
    pub pm_read_latency_ns: f64,
    /// Latency of a CPU load served from the last-level cache (ns).
    pub llc_latency_ns: f64,

    /// Sustained bandwidth of CPU-driven reads from PM (GB/s).
    pub cpu_pm_read_gbps: f64,
    /// Sustained bandwidth of CPU-driven writes to PM (GB/s).
    pub cpu_pm_write_gbps: f64,
    /// Host PCIe link bandwidth (GB/s); PCIe 3.0 x8 in the prototype.
    pub pcie_gbps: f64,
    /// Internal AXI bandwidth shared by the NearPM units of one device (GB/s).
    pub axi_gbps: f64,
    /// Bandwidth of the NearPM DMA engine to the local PM media (GB/s).
    pub ndp_pm_gbps: f64,

    /// Issue cost of one cache-line write-back instruction (`clwb`), ns.
    /// Write-backs pipeline, so only the issue cost scales with line count.
    pub clwb_issue_ns: f64,
    /// Drain cost paid once per persist barrier for the last outstanding
    /// write-back to reach the persistence domain, ns.
    pub clwb_drain_ns: f64,
    /// Cost of a persist fence (`sfence`) in ns.
    pub sfence_ns: f64,
    /// CPU cycles' worth of work to generate log/checkpoint metadata (ns).
    pub cpu_metadata_ns: f64,
    /// Cost on the CPU of resetting/deleting a log entry (ns, excluding flush).
    pub cpu_log_reset_ns: f64,
    /// Cost of a minor page-fault + copy-on-write bookkeeping on the CPU (ns).
    pub cpu_page_fault_ns: f64,

    /// Cost of issuing one NearPM command over the control path (MMIO write, ns).
    pub ndp_cmd_issue_ns: f64,
    /// Clock frequency of a NearPM unit (MHz).
    pub ndp_unit_mhz: f64,
    /// Cycles the shared dispatcher holds a request: pop from the FIFO and
    /// decode the command word. The dispatcher frees as soon as this stage
    /// retires.
    pub ndp_decode_cycles: u64,
    /// Cycles the per-unit issue queue spends translating the operands and
    /// checking the in-flight access table, overlapping with execution on the
    /// other units.
    pub ndp_issue_cycles: u64,
    /// Cycles spent by the metadata generator per log/checkpoint entry.
    pub ndp_metadata_cycles: u64,
    /// Cycles spent resetting (deleting) one log entry near memory.
    pub ndp_log_reset_cycles: u64,
    /// Fixed DMA engine setup cycles per copy.
    pub ndp_dma_setup_cycles: u64,
    /// Access latency from a NearPM unit to its local PM media (ns). Much
    /// smaller than the host's 436 ns because the unit sits in the PM
    /// controller.
    pub ndp_pm_latency_ns: f64,

    /// One CPU polling round when software-synchronizing with a device (ns).
    pub cpu_poll_ns: f64,
    /// Latency of a completion notification between devices or back to the
    /// host (ns). Used by the multi-device handler.
    pub ndp_notify_ns: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            pm_read_latency_ns: 436.0,
            llc_latency_ns: 22.0,

            cpu_pm_read_gbps: 6.0,
            cpu_pm_write_gbps: 3.0,
            pcie_gbps: 8.0,
            axi_gbps: 4.0,
            ndp_pm_gbps: 14.0,

            clwb_issue_ns: 3.0,
            clwb_drain_ns: 60.0,
            sfence_ns: 30.0,
            cpu_metadata_ns: 180.0,
            cpu_log_reset_ns: 140.0,
            cpu_page_fault_ns: 1350.0,

            ndp_cmd_issue_ns: 260.0,
            ndp_unit_mhz: 300.0,
            ndp_decode_cycles: 4,
            ndp_issue_cycles: 8,
            ndp_metadata_cycles: 24,
            ndp_log_reset_cycles: 16,
            ndp_dma_setup_cycles: 20,
            ndp_pm_latency_ns: 96.0,

            cpu_poll_ns: 420.0,
            ndp_notify_ns: 180.0,
        }
    }
}

impl LatencyModel {
    /// Number of cache lines covering `bytes`.
    pub fn cache_lines(bytes: u64) -> u64 {
        bytes.div_ceil(CACHE_LINE).max(1)
    }

    /// Number of 4 kB pages covering `bytes`.
    pub fn pages(bytes: u64) -> u64 {
        bytes.div_ceil(PM_PAGE).max(1)
    }

    /// One NearPM-unit cycle count expressed as a duration.
    pub fn ndp_cycles(&self, cycles: u64) -> SimDuration {
        SimDuration::from_cycles(cycles, self.ndp_unit_mhz)
    }

    /// Time for the CPU to read `bytes` from PM into its caches.
    pub fn cpu_pm_read(&self, bytes: u64) -> SimDuration {
        SimDuration::from_ns(self.pm_read_latency_ns)
            + SimDuration::from_transfer(bytes, self.cpu_pm_read_gbps)
    }

    /// Time for the CPU to write `bytes` to PM and make them persistent
    /// (streaming store + pipelined per-line write-backs + drain + fence).
    pub fn cpu_pm_persist_write(&self, bytes: u64) -> SimDuration {
        let lines = Self::cache_lines(bytes);
        SimDuration::from_transfer(bytes, self.cpu_pm_write_gbps)
            + SimDuration::from_ns(self.clwb_issue_ns) * lines
            + SimDuration::from_ns(self.clwb_drain_ns)
            + SimDuration::from_ns(self.sfence_ns)
    }

    /// Time for the CPU to copy `bytes` from one PM location to another and
    /// persist the destination. This is the data-movement core of CPU-side
    /// logging, checkpointing, and shadow paging.
    pub fn cpu_pm_copy(&self, bytes: u64) -> SimDuration {
        self.cpu_pm_read(bytes) + self.cpu_pm_persist_write(bytes)
    }

    /// Time for the CPU to update `bytes` of PM in place (application-visible
    /// store + persist), assuming the destination line is already cached.
    pub fn cpu_inplace_update(&self, bytes: u64) -> SimDuration {
        let lines = Self::cache_lines(bytes);
        SimDuration::from_ns(self.llc_latency_ns)
            + SimDuration::from_transfer(bytes, self.cpu_pm_write_gbps)
            + SimDuration::from_ns(self.clwb_issue_ns) * lines
            + SimDuration::from_ns(self.clwb_drain_ns)
            + SimDuration::from_ns(self.sfence_ns)
    }

    /// Time for one NearPM unit to copy `bytes` between two locations of its
    /// local PM media (DMA setup + near-memory read/write at DMA bandwidth).
    pub fn ndp_copy(&self, bytes: u64) -> SimDuration {
        self.ndp_cycles(self.ndp_dma_setup_cycles)
            + SimDuration::from_ns(self.ndp_pm_latency_ns)
            + SimDuration::from_transfer(bytes, self.ndp_pm_gbps)
    }

    /// Time for a NearPM unit to generate metadata for one log/checkpoint
    /// entry and persist it locally.
    pub fn ndp_metadata(&self) -> SimDuration {
        self.ndp_cycles(self.ndp_metadata_cycles) + SimDuration::from_ns(self.ndp_pm_latency_ns)
    }

    /// Time for a NearPM unit to reset/delete one log entry.
    pub fn ndp_log_reset(&self) -> SimDuration {
        self.ndp_cycles(self.ndp_log_reset_cycles) + SimDuration::from_ns(self.ndp_pm_latency_ns)
    }

    /// Total front-end time of one request: decode on the dispatcher plus
    /// translation and conflict check on the issue queue. This is the
    /// per-command front-end cost of the analytic microbenchmark.
    pub fn ndp_dispatch(&self) -> SimDuration {
        self.ndp_decode() + self.ndp_issue()
    }

    /// Time the shared dispatcher holds a request in the pipelined front-end
    /// (FIFO pop + command decode).
    pub fn ndp_decode(&self) -> SimDuration {
        self.ndp_cycles(self.ndp_decode_cycles)
    }

    /// Time the per-unit issue queue spends on operand translation and the
    /// in-flight conflict check in the pipelined front-end.
    pub fn ndp_issue(&self) -> SimDuration {
        self.ndp_cycles(self.ndp_issue_cycles)
    }

    /// Cost on the CPU of issuing one NearPM command (posted MMIO write over
    /// the control path).
    pub fn cmd_issue(&self) -> SimDuration {
        SimDuration::from_ns(self.ndp_cmd_issue_ns)
    }

    /// One CPU polling round while waiting for a device completion flag.
    pub fn cpu_poll(&self) -> SimDuration {
        SimDuration::from_ns(self.cpu_poll_ns)
    }

    /// Completion-notification latency between devices / back to the host.
    pub fn notify(&self) -> SimDuration {
        SimDuration::from_ns(self.ndp_notify_ns)
    }

    /// Pure application compute+DRAM time modeled per workload operation.
    pub fn cpu_compute(&self, ns: f64) -> SimDuration {
        SimDuration::from_ns(ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_platform() {
        let m = LatencyModel::default();
        assert_eq!(m.pm_read_latency_ns, 436.0);
        assert_eq!(m.pcie_gbps, 8.0);
        assert_eq!(m.axi_gbps, 4.0);
        assert_eq!(m.ndp_unit_mhz, 300.0);
    }

    #[test]
    fn cache_line_and_page_rounding() {
        assert_eq!(LatencyModel::cache_lines(1), 1);
        assert_eq!(LatencyModel::cache_lines(64), 1);
        assert_eq!(LatencyModel::cache_lines(65), 2);
        assert_eq!(LatencyModel::cache_lines(0), 1);
        assert_eq!(LatencyModel::pages(1), 1);
        assert_eq!(LatencyModel::pages(4096), 1);
        assert_eq!(LatencyModel::pages(4097), 2);
    }

    #[test]
    fn ndp_copy_is_faster_than_cpu_copy_for_large_transfers() {
        let m = LatencyModel::default();
        for shift in 6..=14 {
            let bytes = 1u64 << shift; // 64 B .. 16 kB
            let cpu = m.cpu_pm_copy(bytes);
            let ndp = m.ndp_copy(bytes) + m.cmd_issue();
            assert!(
                cpu > ndp,
                "expected NDP copy faster at {} bytes: cpu={} ndp={}",
                bytes,
                cpu,
                ndp
            );
        }
    }

    #[test]
    fn copy_speedup_grows_with_size() {
        let m = LatencyModel::default();
        let speedup = |bytes: u64| {
            let cpu = m.cpu_pm_copy(bytes).as_ns();
            let ndp = (m.ndp_copy(bytes) + m.cmd_issue() + m.ndp_dispatch()).as_ns();
            cpu / ndp
        };
        let s64 = speedup(64);
        let s16k = speedup(16 * 1024);
        assert!(s64 < s16k, "speedup must grow with size: {s64} vs {s16k}");
        // Figure 17 band: ~1.1x at 64 B and ~5.6x at 16 kB.
        assert!(s64 > 1.0 && s64 < 2.5, "64 B speedup out of band: {s64}");
        assert!(
            s16k > 3.5 && s16k < 8.0,
            "16 kB speedup out of band: {s16k}"
        );
    }

    #[test]
    fn ndp_cycle_durations() {
        let m = LatencyModel::default();
        // 300 MHz => 3.333 ns per cycle.
        assert!((m.ndp_cycles(3).as_ns() - 10.0).abs() < 0.01);
        assert!(m.ndp_dispatch() > SimDuration::ZERO);
        assert!(m.ndp_metadata() > SimDuration::ZERO);
        assert!(m.ndp_log_reset() > SimDuration::ZERO);
    }

    #[test]
    fn pipelined_front_end_preserves_total_dispatch_work() {
        // The decode + issue split re-stages the monolithic 12-cycle
        // dispatch. At the default model the two stage durations sum
        // without rounding loss to the 12-cycle budget, so the analytic
        // Figure 17 front-end cost is unchanged; decode is the short stage
        // that frees the shared dispatcher.
        let m = LatencyModel::default();
        assert_eq!(m.ndp_decode_cycles + m.ndp_issue_cycles, 12);
        assert_eq!(m.ndp_dispatch(), m.ndp_cycles(12));
        assert!(m.ndp_decode() < m.ndp_issue());
    }

    #[test]
    fn clone_preserves_all_fields() {
        let m = LatencyModel::default();
        let m2 = m.clone();
        assert_eq!(m, m2);
    }
}
