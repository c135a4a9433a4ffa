//! The three benchmark workloads. Each is a list of units (one call into
//! the system's public API, or a fixed matrix of them); a run repeats its
//! units round-robin. Simulated client and server threads are model state:
//! the host side is this one thread, with the PPO checker at its default of
//! one worker.

use std::hint::black_box;
use std::time::Instant;

use nearpm_cc::Mechanism;
use nearpm_core::{ExecMode, MediaConfig, NearPmSystem, Result, RunReport, SystemConfig};
use nearpm_sim::{exact_percentile, SimDuration};
use nearpm_workloads::{
    explore, run_open_loop, ArrivalProcess, CcMech, ExplorerConfig, OpenLoopOptions, PipelineMode,
    RunOptions, Runner, Workload,
};

use crate::inputs::*;
use crate::metrics::{gmean, mean, paper_err, samples_beyond, tail_quantile, Digest};
use crate::trace::Tracer;

/// The mechanisms of the paper's Fig. 15/16, in the paper's order.
const FIG_MECHS: [Mechanism; 3] = [
    Mechanism::Logging,
    Mechanism::Checkpointing,
    Mechanism::ShadowPaging,
];
/// Per-layer names of the per-mechanism speedup gmeans, in [`FIG_MECHS`]
/// order.
const MD_SPEEDUP: [&str; 3] = [
    "cc.md_speedup.undo",
    "cc.md_speedup.ckpt",
    "cc.md_speedup.shadow",
];
const CC_SPEEDUP: [&str; 3] = [
    "cc.cc_speedup.undo",
    "cc.cc_speedup.ckpt",
    "cc.cc_speedup.shadow",
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Nine paper workloads × three mechanisms × {baseline, NearPM MD},
    /// closed loop.
    Fig16Closed,
    /// Memcached under Poisson arrivals through the open-loop driver.
    OpenloopMemcached,
    /// Exhaustive crash exploration over every mechanism and pipeline shape.
    CrashMatrix,
}

impl Kind {
    pub const ALL: [Kind; 3] = [
        Kind::Fig16Closed,
        Kind::OpenloopMemcached,
        Kind::CrashMatrix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig16Closed => "fig16-closed",
            Kind::OpenloopMemcached => "openloop-memcached",
            Kind::CrashMatrix => "crash-matrix",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// What the counted items are.
    pub fn items(self) -> &'static str {
        match self {
            Kind::Fig16Closed | Kind::OpenloopMemcached => "simulated ops",
            Kind::CrashMatrix => "crash boundaries",
        }
    }

    /// Units a run cycles through.
    pub fn units(self) -> usize {
        match self {
            Kind::Fig16Closed | Kind::OpenloopMemcached => 1,
            Kind::CrashMatrix => CcMech::ALL.len() * PipelineMode::ALL.len(),
        }
    }

    /// Rounds over all units a run makes at least, whatever its length: two
    /// where a unit is short, so every run also checks that a repeated unit
    /// reproduces its digest.
    pub fn min_rounds(self) -> usize {
        match self {
            Kind::Fig16Closed | Kind::OpenloopMemcached => 2,
            Kind::CrashMatrix => 1,
        }
    }

    /// What stays opaque to spans taken from outside the program.
    pub fn opaque(self) -> &'static str {
        match self {
            Kind::Fig16Closed => {
                "workloads.setup_op1 holds the runner's set-up and its first op; \
                 core.report holds finish_epochs and the final report fold"
            }
            Kind::OpenloopMemcached => {
                "the inside of run_open_loop (op path, 16 window folds, compaction) is \
                 one span until the program records its own; sim.tasks is not exposed"
            }
            Kind::CrashMatrix => {
                "the in-program split of explore (fresh systems, media_hash, write-log \
                 replay, recovery) is one span per cell; core.system_new and \
                 pm.device_image are standalone probes at the explorer's config"
            }
        }
    }

    /// Builds the workload's starting state once, as a run does before its
    /// first simulated op, and returns the host seconds that took. Dropping
    /// the state again is not part of the set-up and is not timed.
    pub fn setup_once(self, seed: u64) -> Result<f64> {
        let mut secs = 0.0;
        match self {
            Kind::Fig16Closed => {
                for m in FIG_MECHS {
                    for w in Workload::all() {
                        for mode in [ExecMode::CpuBaseline, ExecMode::NearPmMd] {
                            let runner =
                                Runner::new(w, RunOptions::new(mode, m, 0).with_seed(seed));
                            timed(&mut secs, || runner.run_with_system())?;
                        }
                    }
                }
            }
            Kind::OpenloopMemcached => {
                // The open-loop driver builds exactly this runner's system
                // and per-thread state before its first request.
                let opts = RunOptions::new(ExecMode::NearPmMd, Mechanism::Logging, 0)
                    .with_threads(OPENLOOP_THREADS)
                    .with_seed(seed)
                    .with_latency_tracking(true)
                    .with_trace_compaction(true);
                let runner = Runner::new(Workload::Memcached, opts);
                timed(&mut secs, || runner.run_with_system())?;
            }
            Kind::CrashMatrix => {
                timed(&mut secs, crash_system)?;
            }
        }
        Ok(secs)
    }

    /// Standalone probes of single layers, recorded as spans under
    /// `bench.probe` roots (crash-matrix only: a fresh explorer system, and
    /// one full copy of its device images, `reps` times).
    pub fn probe(self, reps: usize, t: &mut Tracer) -> Result<()> {
        if self != Kind::CrashMatrix {
            return Ok(());
        }
        for _ in 0..reps {
            let root = t.begin("bench.probe");
            let s = t.begin("core.system_new");
            let sys = crash_system()?;
            t.end(s);
            let s = t.begin("pm.device_image");
            for d in 0..sys.media_count() {
                black_box(sys.device_image(d));
            }
            t.end(s);
            let s = t.begin("core.drop");
            drop(sys);
            t.end(s);
            t.end(root);
        }
        Ok(())
    }

    /// Runs unit `unit` once.
    pub fn run_unit(self, unit: usize, seed: u64, t: &mut Tracer) -> Result<UnitResult> {
        match self {
            Kind::Fig16Closed => fig16(seed, t),
            Kind::OpenloopMemcached => openloop(seed, t),
            Kind::CrashMatrix => crash_cell(unit, t),
        }
    }
}

/// Adds the host seconds `build` takes to `secs`, then drops what it built.
fn timed<T>(secs: &mut f64, build: impl FnOnce() -> Result<T>) -> Result<()> {
    let t0 = Instant::now();
    let state = black_box(build()?);
    *secs += t0.elapsed().as_secs_f64();
    drop(state);
    Ok(())
}

/// A fresh system at the explorer's configuration: what every explored
/// boundary builds before replaying.
fn crash_system() -> Result<NearPmSystem> {
    let mut sys = NearPmSystem::try_new(
        SystemConfig::for_mode(ExecMode::NearPmMd)
            .with_capacity(CRASH_CAPACITY)
            .with_media(MediaConfig::Heap),
    )?;
    sys.enable_media_write_log();
    sys.create_pool("crashpoint", CRASH_POOL)?;
    Ok(sys)
}

/// Outcome of one unit.
#[derive(Debug, Default)]
pub struct UnitResult {
    /// Items attempted (simulated ops or crash boundaries).
    pub attempted: u64,
    /// Items that failed a check.
    pub failed: u64,
    /// Why items failed.
    pub failures: Vec<String>,
    /// Digest over every simulated output of the unit.
    pub digest: u64,
    /// Per-layer values the unit determines (simulated statistics and
    /// counts), by metric name.
    pub values: Vec<(&'static str, f64)>,
}

fn fig16(seed: u64, t: &mut Tracer) -> Result<UnitResult> {
    let mut out = UnitResult::default();
    let mut digest = Digest::default();
    let (mut tasks, mut events) = (0u64, 0u64);
    let (mut overlap, mut util) = (Vec::new(), Vec::new());
    let (mut fifo_hw, mut stalls, mut stall_us, mut bytes, mut relaxed) =
        (0usize, 0u64, 0.0, 0u64, 0usize);
    let mut md_gm = [0.0; 3];
    let mut cc_gm = [0.0; 3];
    for (mi, m) in FIG_MECHS.into_iter().enumerate() {
        let (mut md, mut cc) = (Vec::new(), Vec::new());
        for w in Workload::all() {
            let mut pair = Vec::with_capacity(2);
            for mode in [ExecMode::CpuBaseline, ExecMode::NearPmMd] {
                let runner = Runner::new(w, RunOptions::new(mode, m, FIG16_OPS).with_seed(seed));
                let (report, mut sys) = if t.enabled() {
                    let run = t.begin("workloads.run");
                    let mut last = Instant::now();
                    let ran = runner.run_with_system_observed(|_, done| {
                        let now = Instant::now();
                        let name = if done == 1 {
                            "workloads.setup_op1"
                        } else {
                            "workloads.op"
                        };
                        t.record(name, last, now);
                        last = now;
                    })?;
                    t.record("core.report", last, Instant::now());
                    t.end(run);
                    ran
                } else {
                    runner.run_with_system_observed(|_, _| {})?
                };
                out.attempted += FIG16_OPS as u64;
                tasks += sys.task_count() as u64;
                events += report.trace_events as u64;
                if !report.ppo_violations.is_empty() {
                    out.failed += FIG16_OPS as u64;
                    out.failures.push(format!(
                        "{}/{}/{}: {} PPO violations",
                        w.name(),
                        m.label(),
                        mode.label(),
                        report.ppo_violations.len()
                    ));
                }
                if t.enabled() {
                    // Standalone bulk check of the retained trace: the
                    // comparator for the report's incremental fold.
                    let check = t.begin("bench.check");
                    let s = t.begin("core.trace_copy");
                    let (_, trace) = sys.report_with_trace();
                    t.end(s);
                    let s = t.begin("ppo.check_all");
                    let bulk = nearpm_ppo::check_all(&trace);
                    t.end(s);
                    let s = t.begin("core.drop");
                    drop(trace);
                    drop(sys);
                    t.end(s);
                    t.end(check);
                    if bulk != report.ppo_violations {
                        out.failed += FIG16_OPS as u64;
                        out.failures.push(format!(
                            "{}/{}/{}: bulk check_all disagrees with the report",
                            w.name(),
                            m.label(),
                            mode.label()
                        ));
                    }
                } else {
                    drop(sys);
                }
                digest.report(&report);
                pair.push(report);
            }
            let (base, ndp) = (&pair[0], &pair[1]);
            let (s_md, s_cc) = (ndp.speedup_over(base), ndp.cc_speedup_over(base));
            if s_md.is_nan() || s_cc.is_nan() {
                out.failed += FIG16_OPS as u64;
                out.failures
                    .push(format!("{}/{}: NaN speedup", w.name(), m.label()));
            }
            md.push(s_md);
            cc.push(s_cc);
            overlap.push(ndp.overlap_fraction);
            util.push(unit_util_mean(ndp));
            fifo_hw = fifo_hw.max(ndp.fifo_high_watermark);
            stalls += ndp.fifo_stalls;
            stall_us += ndp.fifo_stall_time.as_us();
            bytes += ndp.ndp_bytes_moved;
            relaxed += ndp.relaxed_persists;
        }
        md_gm[mi] = gmean(&md);
        cc_gm[mi] = gmean(&cc);
    }
    out.digest = digest.value();
    out.values = vec![
        ("sim.tasks", tasks as f64),
        ("ppo.trace_events", events as f64),
        ("cc.fig16_md_err", paper_err(&md_gm, &PAPER_FIG16_MD)),
        ("cc.fig15_cc_err", paper_err(&cc_gm, &PAPER_FIG15_CC)),
        ("sim.overlap_fraction", mean(&overlap)),
        ("device.unit_util_mean", mean(&util)),
        ("device.fifo_high_watermark", fifo_hw as f64),
        ("device.fifo_stalls", stalls as f64),
        ("device.fifo_stall_us", stall_us),
        ("pm.ndp_bytes_moved", bytes as f64),
        ("ppo.relaxed_persists", relaxed as f64),
    ];
    for i in 0..FIG_MECHS.len() {
        out.values.push((MD_SPEEDUP[i], md_gm[i]));
        out.values.push((CC_SPEEDUP[i], cc_gm[i]));
    }
    Ok(out)
}

/// Mean utilization over every NDP unit of a run.
fn unit_util_mean(report: &RunReport) -> f64 {
    let units = &report.ndp_unit_utilization;
    units.iter().map(|(_, u)| u).sum::<f64>() / units.len().max(1) as f64
}

fn openloop(seed: u64, t: &mut Tracer) -> Result<UnitResult> {
    let opts = OpenLoopOptions::new(
        Workload::Memcached,
        Mechanism::Logging,
        ArrivalProcess::poisson(OPENLOOP_RATE),
        OPENLOOP_OPS,
    )
    .with_mode(ExecMode::NearPmMd)
    .with_threads(OPENLOOP_THREADS)
    .with_seed(seed)
    .with_windows(OPENLOOP_WINDOWS)
    .with_exact_oracle(true)
    .with_trace_compaction(true);
    let s = t.begin("workloads.openloop");
    let r = run_open_loop(&opts)?;
    t.end(s);

    let verify = t.begin("bench.verify");
    let mut out = UnitResult {
        attempted: OPENLOOP_OPS as u64,
        ..Default::default()
    };
    if !r.report.ppo_violations.is_empty() {
        out.failed = OPENLOOP_OPS as u64;
        out.failures
            .push(format!("{} PPO violations", r.report.ppo_violations.len()));
    } else if r.hist.count() != OPENLOOP_OPS as u64 {
        out.failed = OPENLOOP_OPS as u64;
        out.failures.push(format!(
            "histogram holds {} of {OPENLOOP_OPS} requests",
            r.hist.count()
        ));
    } else {
        for (i, w) in r.windows.iter().enumerate() {
            if w.matches_exact_oracle() != Some(true) {
                out.failed += w.hist.count();
                out.failures.push(format!(
                    "window {i}: histogram differs from its exact oracle"
                ));
            }
        }
    }

    let mut digest = Digest::default();
    digest.report(&r.report);
    digest.str(&format!("{:?}", r.hist));
    for v in [
        r.offered_ops_per_s,
        r.achieved_ops_per_s,
        r.mean_admission_wait.as_ns(),
    ] {
        digest.f64(v);
    }
    digest.u64(r.max_backlog as u64);
    digest.u64(r.last_arrival.as_ps());
    let mut all: Vec<SimDuration> = Vec::with_capacity(OPENLOOP_OPS);
    for w in &r.windows {
        digest.u64(w.from.as_ps());
        digest.u64(w.to.as_ps());
        digest.u64(w.fifo_admissions as u64);
        digest.u64(w.fifo_occupancy as u64);
        digest.str(&format!("{:?}", w.hist));
        digest.report(&w.report);
        for d in w.exact.iter().flatten() {
            digest.u64(d.as_ps());
            all.push(*d);
        }
    }
    out.digest = digest.value();

    all.sort_unstable();
    let (p50, tail_q, tail, beyond) = match tail_quantile(all.len(), 10) {
        Some(q) => (
            exact_percentile(&all, 0.5).as_us(),
            q,
            exact_percentile(&all, q).as_us(),
            samples_beyond(all.len(), q),
        ),
        None => (0.0, 0.0, 0.0, 0),
    };
    out.values = vec![
        ("ppo.trace_events", r.report.trace_events as f64),
        ("sim.overlap_fraction", r.report.overlap_fraction),
        ("device.unit_util_mean", unit_util_mean(&r.report)),
        (
            "device.fifo_high_watermark",
            r.report.fifo_high_watermark as f64,
        ),
        ("device.fifo_stalls", r.report.fifo_stalls as f64),
        ("device.fifo_stall_us", r.report.fifo_stall_time.as_us()),
        ("pm.ndp_bytes_moved", r.report.ndp_bytes_moved as f64),
        ("ppo.relaxed_persists", r.report.relaxed_persists as f64),
        ("workloads.max_backlog", r.max_backlog as f64),
        ("workloads.mean_wait_us", r.mean_admission_wait.as_us()),
        ("workloads.sim_p50_us", p50),
        ("workloads.sim_tail_us", tail),
        ("workloads.sim_tail_quantile", tail_q),
        ("workloads.sim_tail_beyond", beyond as f64),
        ("workloads.sim_requests", all.len() as f64),
    ];
    drop(r);
    t.end(verify);
    Ok(out)
}

fn crash_cell(unit: usize, t: &mut Tracer) -> Result<UnitResult> {
    let mech = CcMech::ALL[unit / PipelineMode::ALL.len()];
    let pipeline = PipelineMode::ALL[unit % PipelineMode::ALL.len()];
    let mut cfg = ExplorerConfig::new(mech, pipeline, ExecMode::NearPmMd);
    cfg.units = CRASH_UNITS;
    let s = t.begin("workloads.explore");
    let r = explore(&cfg)?;
    t.end(s);
    let mut digest = Digest::default();
    digest.str(&format!("{r:?}"));
    let failed = r.boundaries.saturating_sub(r.verified);
    let mut failures: Vec<String> = r
        .failures
        .iter()
        .map(|f| format!("{mech}/{pipeline}: {f}"))
        .collect();
    if failed > 0 && failures.is_empty() {
        failures.push(format!(
            "{mech}/{pipeline}: verified {} of {} boundaries",
            r.verified, r.boundaries
        ));
    }
    Ok(UnitResult {
        attempted: r.boundaries,
        failed,
        failures,
        digest: digest.value(),
        values: vec![
            ("workloads.boundaries", r.boundaries as f64),
            ("workloads.classes", r.classes as f64),
        ],
    })
}
