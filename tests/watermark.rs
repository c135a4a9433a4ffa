//! The system's watermark is a true lower bound on every later trace event
//! and every later busy task.
//!
//! `NearPmSystem::watermark` is the time below which no event recorded
//! after a report can be stamped; each report hands it to the PPO checker,
//! which drops what no later event can pair with. It is also the time every
//! later task with a non-zero duration waits for: each depends on a task
//! finishing at or after it, so a compacting report drops the busy
//! intervals that end before it. A watermark that is too high makes the
//! checker forget state a later event needed, or the scheduler forget a
//! busy interval a later task would have queued behind, and the report ==
//! report_oracle gates cannot see that on the clean runs they cover. So
//! this test checks the bound itself: it reports at seeded points of each
//! run, recording `(trace_events, task_count, watermark())`, and then
//! asserts on the run's full, uncompacted trace and graph that no event at
//! or after each sample's event index is stamped below that sample's
//! watermark, and that every non-zero-duration task at or after its task
//! index depends on a task finishing at or after it, and so starts there.
//!
//! It covers all four mechanisms in NearPM MD and SD at 1 and 4 threads,
//! closed loop and open loop above the knee (fig22's shape). A watermark
//! taken from the thread clocks alone fails here: a delayed sync depends
//! only on its batch's offloads and may be scheduled before every thread's
//! clock.

use nearpm::cc::Mechanism;
use nearpm::core::{ExecMode, NearPmSystem};
use nearpm::ppo::Trace;
use nearpm::workloads::{
    run_open_loop_observed, ArrivalProcess, OpenLoopOptions, RunOptions, Runner, Workload,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 1;
const CLOSED_OPS: usize = 96;
const OPEN_REQUESTS: usize = 160;
/// Offered load of the open-loop runs as a multiple of the closed-loop
/// service rate: fig22's highest point, well past the knee.
const ABOVE_KNEE: f64 = 4.0;

/// One report's position in the run and the watermark it read.
#[derive(Debug, Clone, Copy)]
struct Sample {
    events: usize,
    tasks: usize,
    watermark: u64,
}

/// Reports at seeded points of a run and records a [`Sample`] after each.
struct Sampler {
    rng: StdRng,
    samples: Vec<Sample>,
}

impl Sampler {
    fn new(seed: u64) -> Self {
        Sampler {
            rng: StdRng::seed_from_u64(seed),
            samples: Vec::new(),
        }
    }

    fn observe(&mut self, sys: &mut NearPmSystem) {
        if self.rng.gen_bool(0.25) {
            let events = sys.report().trace_events;
            self.samples.push(Sample {
                events,
                tasks: sys.task_count(),
                watermark: sys.watermark().as_ps(),
            });
        }
    }
}

/// Asserts every sample's watermark against the run's full trace and task
/// graph, and that the watermark never falls and advances over the run.
fn assert_watermark_holds(sys: &mut NearPmSystem, samples: &[Sample], ctx: &str) {
    let (_, trace): (_, Trace) = sys.report_with_trace();
    assert_eq!(trace.retired(), 0, "{ctx}: the trace must be uncompacted");
    let events = trace.events();
    // `later[i]` = the earliest stamp among events `i..`.
    let mut later = vec![u64::MAX; events.len() + 1];
    for (i, e) in events.iter().enumerate().rev() {
        later[i] = later[i + 1].min(e.timestamp_ps);
    }
    // `ready[i]` = the earliest latest-dependency finish, and `starts[i]`
    // the earliest start, among non-zero-duration tasks `i..`.
    let graph = sys.graph();
    assert_eq!(
        graph.resident_tasks(),
        graph.len(),
        "{ctx}: uncompacted graph"
    );
    let mut ready = vec![u64::MAX; graph.len() + 1];
    let mut starts = vec![u64::MAX; graph.len() + 1];
    let tasks: Vec<_> = graph.tasks().collect();
    for (i, task) in tasks.iter().enumerate().rev() {
        (ready[i], starts[i]) = (ready[i + 1], starts[i + 1]);
        if !task.duration.is_zero() {
            let dep_ready = task
                .deps
                .iter()
                .map(|&d| graph.task_finish(d).as_ps())
                .max()
                .unwrap_or(0);
            ready[i] = ready[i].min(dep_ready);
            starts[i] = starts[i].min(graph.task_start(task.id).as_ps());
        }
    }
    for s in samples {
        let w = s.watermark;
        assert!(
            later[s.events] >= w,
            "{ctx}: an event at or after index {} is stamped at {} ps, below the \
             watermark {w} ps that the report at that index read",
            s.events,
            later[s.events]
        );
        assert!(
            ready[s.tasks] >= w && starts[s.tasks] >= w,
            "{ctx}: a busy task at or after task {} depends on tasks finishing by {} ps \
             and starts at {} ps, below the watermark {w} ps",
            s.tasks,
            ready[s.tasks],
            starts[s.tasks]
        );
    }
    assert!(samples.len() >= 2, "{ctx}: too few samples");
    for pair in samples.windows(2) {
        assert!(
            pair[1].watermark >= pair[0].watermark,
            "{ctx}: the watermark fell"
        );
    }
    let (first, last) = (samples[0].watermark, samples[samples.len() - 1].watermark);
    assert!(last > first, "{ctx}: the watermark never advanced");
}

#[test]
fn watermark_bounds_every_later_event() {
    for mode in [ExecMode::NearPmMd, ExecMode::NearPmSd] {
        for threads in [1, 4] {
            for (k, m) in Mechanism::all_extended().into_iter().enumerate() {
                let seed = SEED + k as u64;
                let runner = Runner::new(
                    Workload::Memcached,
                    RunOptions::new(mode, m, CLOSED_OPS)
                        .with_threads(threads)
                        .with_seed(seed),
                );

                let ctx = format!("closed loop, {mode:?}, {} threads, {m:?}", threads);
                let mut sampler = Sampler::new(seed);
                let (report, mut sys) = runner
                    .run_with_system_observed(|sys, _| sampler.observe(sys))
                    .unwrap();
                assert!(report.ppo_violations.is_empty(), "{ctx}");
                assert_watermark_holds(&mut sys, &sampler.samples, &ctx);

                // The service rate of the same closed loop sets the load.
                let mu = CLOSED_OPS as f64 / report.makespan.as_secs();
                let options = OpenLoopOptions::new(
                    Workload::Memcached,
                    m,
                    ArrivalProcess::poisson(ABOVE_KNEE * mu),
                    OPEN_REQUESTS,
                )
                .with_mode(mode)
                .with_threads(threads)
                .with_seed(seed);
                let ctx =
                    format!("open loop at {ABOVE_KNEE}×μ, {mode:?}, {threads} threads, {m:?}");
                let mut sampler = Sampler::new(seed ^ 0x5EED);
                let (open, mut sys) =
                    run_open_loop_observed(&options, |sys, _| sampler.observe(sys)).unwrap();
                assert!(open.delivery_ratio() < 0.95, "{ctx}: not above the knee");
                assert!(open.report.ppo_violations.is_empty(), "{ctx}");
                assert_watermark_holds(&mut sys, &sampler.samples, &ctx);
            }
        }
    }
}
