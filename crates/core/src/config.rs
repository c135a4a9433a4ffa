//! System configuration: execution modes and platform parameters.

use nearpm_pm::MediaConfig;
use nearpm_sim::LatencyModel;

/// Which of the paper's four evaluated configurations to run (Section 8.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// `Baseline`: every crash-consistency operation executes on the CPU.
    CpuBaseline,
    /// `NearPM SD`: offload to a single NearPM device.
    NearPmSd,
    /// `NearPM MD SW-sync`: two devices, CPU-polling software synchronization
    /// before every commit.
    NearPmMdSync,
    /// `NearPM MD`: two devices with delayed near-memory synchronization
    /// (the full PPO design).
    NearPmMd,
}

impl ExecMode {
    /// Human-readable label used in reports (matches the paper's legends).
    pub fn label(self) -> &'static str {
        match self {
            ExecMode::CpuBaseline => "Baseline",
            ExecMode::NearPmSd => "NearPM SD",
            ExecMode::NearPmMdSync => "NearPM MD SW-sync",
            ExecMode::NearPmMd => "NearPM MD",
        }
    }

    /// True if crash-consistency primitives are offloaded to NearPM.
    pub fn uses_ndp(self) -> bool {
        !matches!(self, ExecMode::CpuBaseline)
    }

    /// Number of NearPM devices implied by the mode.
    pub fn default_devices(self) -> usize {
        match self {
            ExecMode::CpuBaseline => 0,
            ExecMode::NearPmSd => 1,
            ExecMode::NearPmMdSync | ExecMode::NearPmMd => 2,
        }
    }

    /// All modes in report order.
    pub fn all() -> [ExecMode; 4] {
        [
            ExecMode::CpuBaseline,
            ExecMode::NearPmSd,
            ExecMode::NearPmMdSync,
            ExecMode::NearPmMd,
        ]
    }
}

/// Full configuration of a simulated NearPM system.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Execution mode.
    pub mode: ExecMode,
    /// Number of NearPM devices (0 for the baseline).
    pub devices: usize,
    /// NearPM units per device (4 in the prototype).
    pub units_per_device: usize,
    /// Request-FIFO depth per device.
    pub fifo_depth: usize,
    /// Total emulated PM capacity in bytes.
    pub pm_capacity: u64,
    /// Interleave granularity across devices in bytes.
    pub interleave_granularity: u64,
    /// CPU hardware threads available to the application.
    pub cpu_threads: usize,
    /// Latency/bandwidth model.
    pub latency: LatencyModel,
    /// Parallel decode lanes in every device's front-end (1 in the
    /// prototype; 2 removes the decode bottleneck heavy multi-client loads
    /// hit at high unit counts).
    pub decode_lanes: usize,
    /// Storage engine backing the PM media (heap by default; file-backed
    /// for durable, process-restartable runs; sparse for huge geometries).
    pub media: MediaConfig,
    /// Worker threads for the PPO checker's batch pair sweeps (`<= 1` runs
    /// the serial fold; any count yields the identical violation list).
    pub checker_workers: usize,
    /// Stream-compact the PPO trace: at every report, events the cached
    /// checker can never reference again are evicted into a sealed summary,
    /// bounding resident memory on long self-monitoring runs. Off by
    /// default — whole-trace oracles cannot run on a compacted trace.
    pub compact_trace: bool,
    /// Record per-request latencies into the log-bucketed histogram and
    /// surface them through `RunReport::request_latency`. Off by default:
    /// latency capture is pure observation (it never perturbs the task
    /// graph), but reports stay byte-identical to historic runs unless the
    /// caller opts in.
    pub track_latency: bool,
}

impl SystemConfig {
    /// Base configuration shared by all modes: 64 MiB of PM, 4 kB
    /// interleaving, one application thread, prototype latencies.
    fn base(mode: ExecMode, devices: usize) -> Self {
        SystemConfig {
            mode,
            devices,
            units_per_device: 4,
            fifo_depth: 32,
            pm_capacity: 64 << 20,
            interleave_granularity: 4096,
            cpu_threads: 1,
            latency: LatencyModel::default(),
            decode_lanes: 1,
            media: MediaConfig::default(),
            checker_workers: 1,
            compact_trace: false,
            track_latency: false,
        }
    }

    /// CPU-only baseline.
    pub fn baseline() -> Self {
        Self::base(ExecMode::CpuBaseline, 0)
    }

    /// Single NearPM device.
    pub fn nearpm_sd() -> Self {
        Self::base(ExecMode::NearPmSd, 1)
    }

    /// Two NearPM devices with software (CPU-polling) synchronization.
    pub fn nearpm_md_sync() -> Self {
        Self::base(ExecMode::NearPmMdSync, 2)
    }

    /// Two NearPM devices with delayed near-memory synchronization.
    pub fn nearpm_md() -> Self {
        Self::base(ExecMode::NearPmMd, 2)
    }

    /// Configuration for `mode` with its default device count.
    pub fn for_mode(mode: ExecMode) -> Self {
        Self::base(mode, mode.default_devices())
    }

    /// Overrides the number of NearPM units per device (Figure 19 sweep).
    pub fn with_units(mut self, units: usize) -> Self {
        self.units_per_device = units;
        self
    }

    /// Overrides the PM capacity.
    pub fn with_capacity(mut self, bytes: u64) -> Self {
        self.pm_capacity = bytes;
        self
    }

    /// Overrides the number of CPU threads (Figure 20 sweep).
    pub fn with_cpu_threads(mut self, threads: usize) -> Self {
        self.cpu_threads = threads.max(1);
        self
    }

    /// Overrides the request-FIFO depth of every device (backpressure
    /// studies; 32 in the prototype).
    pub fn with_fifo_depth(mut self, depth: usize) -> Self {
        self.fifo_depth = depth.max(1);
        self
    }

    /// Overrides the latency model.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Overrides the media storage engine (heap by default).
    pub fn with_media(mut self, media: MediaConfig) -> Self {
        self.media = media;
        self
    }

    /// Overrides the number of decode lanes per device front-end (at
    /// least 1; the prototype has a single lane).
    pub fn with_decode_lanes(mut self, lanes: usize) -> Self {
        self.decode_lanes = lanes.max(1);
        self
    }

    /// Overrides the PPO checker's worker count (serial fold by default).
    pub fn with_checker_workers(mut self, workers: usize) -> Self {
        self.checker_workers = workers.max(1);
        self
    }

    /// Enables streaming trace compaction (off by default; incompatible
    /// with whole-trace oracles such as `report_oracle` / `check_all`).
    pub fn with_trace_compaction(mut self, compact: bool) -> Self {
        self.compact_trace = compact;
        self
    }

    /// Enables per-request latency tracking (off by default; observation
    /// only — schedules and non-latency report fields are unaffected).
    pub fn with_latency_tracking(mut self, track: bool) -> Self {
        self.track_latency = track;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_properties() {
        assert!(!ExecMode::CpuBaseline.uses_ndp());
        assert!(ExecMode::NearPmMd.uses_ndp());
        assert_eq!(ExecMode::CpuBaseline.default_devices(), 0);
        assert_eq!(ExecMode::NearPmSd.default_devices(), 1);
        assert_eq!(ExecMode::NearPmMd.default_devices(), 2);
        assert_eq!(ExecMode::all().len(), 4);
        for m in ExecMode::all() {
            assert!(!m.label().is_empty());
        }
    }

    #[test]
    fn config_constructors_match_modes() {
        assert_eq!(SystemConfig::baseline().devices, 0);
        assert_eq!(SystemConfig::nearpm_sd().devices, 1);
        assert_eq!(SystemConfig::nearpm_md_sync().devices, 2);
        assert_eq!(SystemConfig::nearpm_md().devices, 2);
        assert_eq!(SystemConfig::for_mode(ExecMode::NearPmSd).devices, 1);
    }

    #[test]
    fn builder_overrides() {
        let c = SystemConfig::nearpm_md()
            .with_units(2)
            .with_capacity(1 << 20)
            .with_cpu_threads(8);
        assert_eq!(c.units_per_device, 2);
        assert_eq!(c.pm_capacity, 1 << 20);
        assert_eq!(c.cpu_threads, 8);
        assert_eq!(c.devices, 2);
        // Thread count never drops below one.
        assert_eq!(SystemConfig::baseline().with_cpu_threads(0).cpu_threads, 1);
    }

    #[test]
    fn checker_knobs_default_off() {
        let c = SystemConfig::nearpm_md();
        assert_eq!(c.checker_workers, 1);
        assert!(!c.compact_trace);
        assert!(!c.track_latency);
        assert!(c.clone().with_latency_tracking(true).track_latency);
        let c = c.with_checker_workers(4).with_trace_compaction(true);
        assert_eq!(c.checker_workers, 4);
        assert!(c.compact_trace);
        // Worker count never drops below one.
        assert_eq!(
            SystemConfig::baseline()
                .with_checker_workers(0)
                .checker_workers,
            1
        );
    }
}
