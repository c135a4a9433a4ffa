//! The system's watermark is a true lower bound on every later trace event.
//!
//! `NearPmSystem::watermark` is the time below which no event recorded
//! after a report can be stamped; each report hands it to the PPO checker,
//! which drops what no later event can pair with. A watermark that is too
//! high makes the checker forget state a later event needed, and the
//! report == report_oracle gates cannot see that on the clean runs they
//! cover. So this test checks the bound itself: it reports at seeded points
//! of each run, recording `(trace_events, watermark())`, and then asserts on
//! the run's full, uncompacted trace that no event at or after each
//! sample's index is stamped below that sample's watermark.
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

/// Reports at seeded points of a run and records `(trace_events,
/// watermark)` after each.
struct Sampler {
    rng: StdRng,
    samples: Vec<(usize, u64)>,
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
            self.samples.push((events, sys.watermark().as_ps()));
        }
    }
}

/// Asserts every sample's watermark against the run's full trace, and that
/// the watermark never falls and advances over the run.
fn assert_watermark_holds(sys: &mut NearPmSystem, samples: &[(usize, u64)], ctx: &str) {
    let (_, trace): (_, Trace) = sys.report_with_trace();
    assert_eq!(trace.retired(), 0, "{ctx}: the trace must be uncompacted");
    let events = trace.events();
    // `later[i]` = the earliest stamp among events `i..`.
    let mut later = vec![u64::MAX; events.len() + 1];
    for (i, e) in events.iter().enumerate().rev() {
        later[i] = later[i + 1].min(e.timestamp_ps);
    }
    for &(at, w) in samples {
        assert!(
            later[at] >= w,
            "{ctx}: an event at or after index {at} is stamped at {} ps, below the \
             watermark {w} ps that the report at that index read",
            later[at]
        );
    }
    assert!(samples.len() >= 2, "{ctx}: too few samples");
    for pair in samples.windows(2) {
        assert!(pair[1].1 >= pair[0].1, "{ctx}: the watermark fell");
    }
    let (first, last) = (samples[0].1, samples[samples.len() - 1].1);
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
