//! fig16-scale PPO checker smoke test: `check_all` vs naive, head to head.
//!
//! Builds a synthetic trace with the shape of a fig16 end-to-end run
//! (≥100k events) and checks it in two legs:
//!
//! * **clean** — the trace as generated, which verifies clean;
//! * **perturbed** — the same trace re-recorded with deterministic
//!   timestamp flips (`perturbed_undo_log_trace`) that break Invariants 1
//!   and 3, so the comparison also covers violation reporting at scale.
//!
//! Each leg runs the naive oracle once and `check_all` (a one-batch
//! incremental fold) several times, verifies both report the identical
//! violation list, and asserts the fold is at least 10× faster. Exits
//! nonzero on any mismatch or if a speedup target is missed.
//!
//! Run with: `cargo run --release -p nearpm-bench --bin ppo_check_smoke`

use std::time::{Duration, Instant};

use nearpm_bench::synthetic::{
    perturbed_undo_log_trace, synthetic_undo_log_trace, SyntheticTraceSpec,
};
use nearpm_ppo::invariants::oracle;
use nearpm_ppo::{check_all, PpoViolation, Trace};

const TARGET_EVENTS: usize = 120_000;
const REQUIRED_SPEEDUP: f64 = 10.0;

fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// One leg's outcome: the fold's best-of-5 time, the oracle's time, and the
/// (identical) violation list.
struct Leg {
    fold_best: Duration,
    naive_time: Duration,
    violations: Vec<PpoViolation>,
}

impl Leg {
    fn speedup(&self) -> f64 {
        self.naive_time.as_secs_f64() / self.fold_best.as_secs_f64().max(1e-9)
    }
}

/// Checks `trace` with the fold (several runs, keeping the fastest — the
/// steady-state figure) and once with the naive oracle (the slow side by
/// construction), and asserts both report the identical violation list.
fn run_leg(name: &str, trace: &Trace) -> Leg {
    let mut fold_best = Duration::MAX;
    let mut violations = Vec::new();
    for _ in 0..5 {
        let (v, d) = time(|| check_all(trace));
        fold_best = fold_best.min(d);
        violations = v;
    }
    let (naive_violations, naive_time) = time(|| oracle::check_all(trace));
    println!("{name}: check_all {fold_best:?} (best of 5), naive {naive_time:?}");
    assert_eq!(
        violations, naive_violations,
        "{name} leg: check_all and the naive oracle disagree at fig16 scale"
    );
    Leg {
        fold_best,
        naive_time,
        violations,
    }
}

fn main() {
    println!("== PPO checker smoke test (fig16 scale) ==");
    let spec = SyntheticTraceSpec::fig16(TARGET_EVENTS);
    let (trace, gen_time) = time(|| synthetic_undo_log_trace(spec));
    println!("trace: {} events (generated in {gen_time:?})", trace.len());
    assert!(
        trace.len() >= 100_000,
        "trace too small for the acceptance bar"
    );

    let clean = run_leg("clean", &trace);
    assert!(
        clean.violations.is_empty(),
        "synthetic trace unexpectedly has violations: {:?}",
        clean.violations
    );

    let perturbed_trace = perturbed_undo_log_trace(&trace);
    drop(trace);
    let perturbed = run_leg("perturbed", &perturbed_trace);
    let count =
        |pred: fn(&PpoViolation) -> bool| perturbed.violations.iter().filter(|v| pred(v)).count();
    let shared = count(|v| matches!(v, PpoViolation::SharedOrderViolation { .. }));
    let unpersisted = count(|v| matches!(v, PpoViolation::UnpersistedBeforeSync { .. }));
    println!(
        "perturbed: {} violations ({shared} shared-order, {unpersisted} unpersisted-before-sync)",
        perturbed.violations.len()
    );
    assert!(shared > 0, "perturbed leg produced no SharedOrderViolation");
    assert!(
        unpersisted > 0,
        "perturbed leg produced no UnpersistedBeforeSync"
    );

    let (speedup, perturbed_speedup) = (clean.speedup(), perturbed.speedup());
    println!("speedup: clean {speedup:.1}x, perturbed {perturbed_speedup:.1}x (required: ≥{REQUIRED_SPEEDUP:.0}x)");

    if speedup < REQUIRED_SPEEDUP || perturbed_speedup < REQUIRED_SPEEDUP {
        eprintln!("FAIL: speedup below target");
        std::process::exit(1);
    }
    println!("OK: identical violation output on both legs, ≥{REQUIRED_SPEEDUP:.0}x speedup");
}
