//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig16-closed|openloop-memcached|crash-matrix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Sets the workload up several times and times each, then repeats the
//! workload's units for `--seconds`, checking every output. With `--trace 0`
//! the last line of standard output is a JSON object holding every
//! end-to-end metric; with `--trace 1` each unit also runs traced right after
//! its untraced repetition, and the JSON holds every per-layer metric.
//! Records and spans are written under `perfbench/out/`. The exit code is
//! non-zero when any check fails.

mod hostref;
mod inputs;
mod metrics;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use hostref::HostRef;
use metrics::{json_number, mean, median, Digest};
use trace::Tracer;
use workloads::{Kind, UnitResult};

/// End-to-end metrics and their units (`--trace 0`).
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics and their units (`--trace 1`). Host times are seconds
/// per pass over all of the workload's units; a layer the workload does not
/// exercise reads 0.
const PER_LAYER: [(&str, &str); 48] = [
    ("workloads.setup_s", "s"),
    ("workloads.run_s", "s"),
    ("workloads.setup_op1_s", "s"),
    ("workloads.op_s", "s"),
    ("workloads.op_count", "count"),
    ("core.report_s", "s"),
    ("core.trace_copy_s", "s"),
    ("ppo.check_all_s", "s"),
    ("core.drop_s", "s"),
    ("workloads.openloop_s", "s"),
    ("workloads.explore_s", "s"),
    ("bench.verify_s", "s"),
    ("bench.pass_self_s", "s"),
    ("core.system_new_s", "s"),
    ("pm.device_image_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.coverage", "fraction"),
    ("sim.tasks", "count"),
    ("ppo.trace_events", "count"),
    ("sim.host_ns_per_task", "ns/task"),
    ("workloads.boundaries", "count"),
    ("workloads.classes", "count"),
    ("workloads.dedup_ratio", "ratio"),
    ("cc.md_speedup.undo", "ratio"),
    ("cc.md_speedup.ckpt", "ratio"),
    ("cc.md_speedup.shadow", "ratio"),
    ("cc.cc_speedup.undo", "ratio"),
    ("cc.cc_speedup.ckpt", "ratio"),
    ("cc.cc_speedup.shadow", "ratio"),
    ("cc.fig16_md_err", "ln_ratio"),
    ("cc.fig15_cc_err", "ln_ratio"),
    ("sim.overlap_fraction", "fraction"),
    ("device.unit_util_mean", "fraction"),
    ("device.fifo_high_watermark", "count"),
    ("device.fifo_stalls", "count"),
    ("device.fifo_stall_us", "sim_us"),
    ("pm.ndp_bytes_moved", "B"),
    ("ppo.relaxed_persists", "count"),
    ("workloads.max_backlog", "count"),
    ("workloads.mean_wait_us", "sim_us"),
    ("workloads.sim_p50_us", "sim_us"),
    ("workloads.sim_tail_us", "sim_us"),
    ("workloads.sim_tail_quantile", "quantile"),
    ("workloads.sim_tail_beyond", "count"),
    ("workloads.sim_requests", "count"),
    ("bench.host_probe_s", "s"),
    ("bench.raw_work_per_s", "1/s"),
];

/// Span names whose per-pass totals are per-layer metrics (`<name>_s`).
const TIMED_SPANS: [&str; 11] = [
    "workloads.run",
    "workloads.setup_op1",
    "workloads.op",
    "core.report",
    "core.trace_copy",
    "ppo.check_all",
    "core.drop",
    "workloads.openloop",
    "workloads.explore",
    "bench.verify",
    "bench.pass",
];

/// Set-up repetitions before the measured window: at least this many, and
/// more until this much time has gone (bounded), so the median is stable for
/// cheap set-ups too.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_S: f64 = 1.0;
const SETUP_MAX_REPS: usize = 1000;
/// Host-speed probes before the set-up and after every repetition.
const HOST_PROBES: usize = 3;
/// Repetitions of the standalone layer probes in a traced run.
const PROBE_REPS: usize = 9;
/// Run id of the set-up and probe spans.
const SETUP_RUN: u32 = u32::MAX;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds {value} out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(inputs::RUN_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Mean wall of unit `u`'s traced or untraced repetitions.
fn unit_wall(reps: &[Rep], u: usize, traced: bool) -> f64 {
    let walls: Vec<f64> = reps
        .iter()
        .filter(|r| r.unit == u && r.traced == traced)
        .map(|r| r.wall_s)
        .collect();
    mean(&walls)
}

/// One repetition of one unit.
struct Rep {
    unit: usize,
    traced: bool,
    run: u32,
    wall_s: f64,
    result: UnitResult,
}

/// Host memory high-water mark of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Runs the benchmark; `Ok(false)` when a check failed.
fn run(args: &Args) -> Result<bool, String> {
    let kind = args.kind;
    let mut tracer = Tracer::new(args.trace);
    println!(
        "perfbench {} seed={} seconds={} trace={} (run seed {}, held-out seed {})",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        inputs::RUN_SEED,
        inputs::HELD_OUT_SEED
    );
    if kind == Kind::OpenloopMemcached {
        println!(
            "  offered rate {} op/s = {} x closed-loop mu {} op/s (pinned)",
            inputs::OPENLOOP_RATE,
            inputs::OPENLOOP_FRACTION,
            inputs::OPENLOOP_MU
        );
    }

    let mut host = HostRef::new();
    for _ in 0..HOST_PROBES {
        host.probe();
    }

    // Set-up, repeated here and once more after every repetition below, so
    // its samples span the run as the repetitions do; their median is the
    // set-up metric.
    let mut setup = Vec::new();
    let mut set_up = |tracer: &mut Tracer| -> Result<(), String> {
        tracer.set_run(SETUP_RUN);
        let root = tracer.begin("bench.setup");
        let s = tracer.begin("workloads.setup");
        setup.push(kind.setup_once(args.seed).map_err(|e| e.to_string())?);
        tracer.end(s);
        tracer.end(root);
        Ok(())
    };
    let began = Instant::now();
    let mut reps_before = 0;
    while reps_before < SETUP_MIN_REPS
        || (began.elapsed().as_secs_f64() < SETUP_MIN_S && reps_before < SETUP_MAX_REPS)
    {
        set_up(&mut tracer)?;
        reps_before += 1;
    }
    if args.trace {
        kind.probe(PROBE_REPS, &mut tracer)
            .map_err(|e| e.to_string())?;
    }

    // The measured window: units round-robin from the first. A fixed order
    // keeps the heap's history, and so the peak RSS, the same in every run.
    let units = kind.units();
    let mut reps: Vec<Rep> = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    loop {
        let unit = i % units;
        for traced in [false, true] {
            if traced && !args.trace {
                continue;
            }
            let run = reps.len() as u32;
            let mut untraced = Tracer::new(false);
            let t = if traced {
                tracer.set_run(run);
                &mut tracer
            } else {
                &mut untraced
            };
            let root = t.begin("bench.pass");
            let t0 = Instant::now();
            let result = kind
                .run_unit(unit, args.seed, t)
                .map_err(|e| e.to_string())?;
            let wall_s = t0.elapsed().as_secs_f64();
            t.end(root);
            reps.push(Rep {
                unit,
                traced,
                run,
                wall_s,
                result,
            });
        }
        for _ in 0..HOST_PROBES {
            host.probe();
        }
        set_up(&mut tracer)?;
        i += 1;
        if i >= units * kind.min_rounds() && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let measured_s = start.elapsed().as_secs_f64();

    // Checks: every failure counted, and every repetition of a unit must
    // reproduce the unit's simulated digest.
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut failures: Vec<String> = Vec::new();
    let mut unit_digest: Vec<Option<u64>> = vec![None; units];
    for rep in &reps {
        attempted += rep.result.attempted;
        failed += rep.result.failed;
        failures.extend(rep.result.failures.iter().cloned());
        let expect = *unit_digest[rep.unit].get_or_insert(rep.result.digest);
        if rep.result.digest != expect {
            failed += rep.result.attempted - rep.result.failed;
            failures.push(format!(
                "unit {} repetition {}: digest {:016x} differs from {expect:016x}",
                rep.unit, rep.run, rep.result.digest
            ));
        }
    }
    let mut digest = Digest::default();
    for d in &unit_digest {
        digest.u64(d.expect("every unit ran"));
    }
    let digest = digest.value();

    // End-to-end metrics from the untraced repetitions. A pass costs the
    // sum over units of each unit's mean wall: the host's speed drifts
    // between slow and fast spells lasting seconds, and a mean over the
    // window follows the share of time spent in each where a median jumps
    // between them. Per-unit means keep a partly repeated round of units
    // from weighting the pass.
    let first_rep = |u: usize| reps.iter().find(|r| r.unit == u).expect("every unit ran");
    let items: u64 = (0..units).map(|u| first_rep(u).result.attempted).sum();
    let pass_wall: f64 = (0..units).map(|u| unit_wall(&reps, u, false)).sum();
    // Throughput stated at the reference host speed (see `hostref`).
    let probe_s = median(host.times());
    let slowness = probe_s / inputs::HOST_PROBE_NOMINAL_S;
    let setup_s = median(&setup);
    let raw_work_per_s = items as f64 / pass_wall;
    let work_per_s = raw_work_per_s * slowness;
    let rss = peak_rss_mb()?;

    println!(
        "  host probe: median {probe_s:.6} s over {} probes = {slowness:.4} x the reference time",
        host.times().len()
    );
    println!("  set-up: {} reps, median {setup_s:.6} s", setup.len());
    println!(
        "  measured: {} reps in {measured_s:.2} s; one pass = {items} {} in {pass_wall:.4} s \
         (mean per unit) = {raw_work_per_s:.1}/s (at reference speed {work_per_s:.1}/s); \
         peak RSS {rss:.1} MiB",
        reps.len(),
        kind.items()
    );
    for u in 0..units {
        let walls: Vec<String> = reps
            .iter()
            .filter(|r| r.unit == u)
            .map(|r| format!("{:.3}{}", r.wall_s, if r.traced { "t" } else { "" }))
            .collect();
        println!("  unit {u} walls (s, t = traced): {}", walls.join(" "));
    }
    let reference = inputs::REFERENCE_DIGESTS
        .iter()
        .find(|(name, _)| *name == kind.name())
        .map(|(_, d)| *d);
    println!(
        "  simulated-output digest {digest:016x}{}",
        match reference {
            Some(r) if args.seed == inputs::RUN_SEED && r == digest => " (matches the reference)",
            Some(_) if args.seed == inputs::RUN_SEED => " (DIFFERS from the reference)",
            _ => "",
        }
    );

    let mut span_table = String::new();
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let mut layers = per_layer(kind, &tracer, &reps, &setup);
        layers.insert("bench.host_probe_s", probe_s);
        layers.insert("bench.raw_work_per_s", raw_work_per_s);
        println!("  per-layer (host seconds per pass; spans from outside the program):");
        for (name, unit) in PER_LAYER {
            println!(
                "    {name:<30} {:>18} {unit}",
                format!("{:.6}", layers[name])
            );
        }
        // Totals and self times of every span name, per traced pass.
        let passes = reps.iter().filter(|r| r.traced).count() as f64 / units as f64;
        println!("  spans per traced pass: name, total s, self s, count");
        for (i, (name, t)) in tracer
            .layer_times(|run| run != SETUP_RUN)
            .iter()
            .enumerate()
        {
            let (total, own, count) = (
                t.total_s / passes,
                t.self_s / passes,
                t.count as f64 / passes,
            );
            println!("    {name:<30} {total:>12.6} {own:>12.6} {count:>10.1}");
            let _ = write!(
                span_table,
                "{}\"{name}\": {{\"total_s\": {}, \"self_s\": {}, \"count\": {}}}",
                if i == 0 { "" } else { ", " },
                json_number(total),
                json_number(own),
                json_number(count)
            );
        }
        println!("  opaque: {}", kind.opaque());
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, layers[name], unit))
            .collect()
    } else {
        vec![
            ("setup_s", setup_s, END_TO_END[0].1),
            ("work_per_s", work_per_s, END_TO_END[1].1),
            ("peak_rss_mb", rss, END_TO_END[2].1),
        ]
    };

    for (name, value, _) in &metrics {
        if !value.is_finite() {
            failed += 1;
            failures.push(format!("metric {name} is not finite"));
        }
    }
    for f in failures.iter().take(20) {
        println!("  FAIL {f}");
    }
    let correct = failed == 0 && failures.is_empty();

    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        );
    }
    json.push_str("}}");

    write_outputs(args, &tracer, &reps, &json, &span_table, digest)?;
    println!("{json}");
    Ok(correct)
}

/// Every per-layer metric of a traced run.
fn per_layer(
    kind: Kind,
    tracer: &Tracer,
    reps: &[Rep],
    setup: &[f64],
) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
    let units = kind.units();

    // Values the units determine, summed over units (first repetition; the
    // digest check pins the rest).
    for u in 0..units {
        let rep = reps.iter().find(|r| r.unit == u).expect("every unit ran");
        for &(name, value) in &rep.result.values {
            *out.get_mut(name)
                .expect("unit values are per-layer metrics") += value;
        }
    }
    if out["workloads.classes"] > 0.0 {
        out.insert(
            "workloads.dedup_ratio",
            out["workloads.boundaries"] / out["workloads.classes"],
        );
    }

    // Span totals per pass: mean over a unit's traced repetitions, summed
    // over units. The traced wall minus its standalone checks, against the
    // untraced wall, is the tracing overhead.
    let mut overhead_s = 0.0;
    let mut untraced_s = 0.0;
    for u in 0..units {
        let traced: Vec<&Rep> = reps.iter().filter(|r| r.unit == u && r.traced).collect();
        let mut walls = Vec::new();
        for rep in &traced {
            let times = tracer.layer_times(|run| run == rep.run);
            for span in TIMED_SPANS {
                if let Some(t) = times.get(span) {
                    let name = if span == "bench.pass" {
                        "bench.pass_self_s"
                    } else {
                        metric_of(span)
                    };
                    let v = if span == "bench.pass" {
                        t.self_s
                    } else {
                        t.total_s
                    };
                    *out.get_mut(name).expect("span metric") += v / traced.len() as f64;
                }
            }
            if let Some(op) = times.get("workloads.op") {
                *out.get_mut("workloads.op_count").expect("op count") +=
                    op.count as f64 / traced.len() as f64;
            }
            let check = times.get("bench.check").map_or(0.0, |t| t.total_s);
            walls.push(rep.wall_s - check);
        }
        let plain = unit_wall(reps, u, false);
        overhead_s += mean(&walls) - plain;
        untraced_s += plain;
    }
    out.insert("trace.overhead_s", overhead_s);
    out.insert("trace.overhead_frac", overhead_s / untraced_s);
    out.insert("trace.coverage", tracer.coverage());
    out.insert("workloads.setup_s", median(setup));

    // Standalone probes: medians over their repetitions.
    for (span, name) in [
        ("core.system_new", "core.system_new_s"),
        ("pm.device_image", "pm.device_image_s"),
    ] {
        let durs: Vec<f64> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == span)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect();
        if !durs.is_empty() {
            out.insert(name, median(&durs));
        }
    }
    if out["sim.tasks"] > 0.0 {
        out.insert(
            "sim.host_ns_per_task",
            out["workloads.run_s"] * 1e9 / out["sim.tasks"],
        );
    }
    out
}

/// The per-layer metric a timed span's per-pass total reports as.
fn metric_of(span: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|&(n, _)| n)
        .find(|n| n.strip_suffix("_s") == Some(span))
        .expect("every timed span has a metric")
}

/// Writes the result record (with the span table of a traced run) and, for
/// a traced run, the spans of each unit's first traced repetition, under
/// `perfbench/out/`.
fn write_outputs(
    args: &Args,
    tracer: &Tracer,
    reps: &[Rep],
    json: &str,
    span_table: &str,
    digest: u64,
) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    );
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"digest\": \"{digest:016x}\", \
         \"opaque\": \"{}\", \"spans_per_pass\": {{{span_table}}}, \"result\": {json}}}\n",
        args.kind.name(),
        args.seed,
        args.kind.opaque()
    );
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, record).map_err(|e| format!("{}: {e}", path.display()))?;
    if args.trace {
        let mut kept: Vec<u32> = Vec::new();
        for u in 0..args.kind.units() {
            if let Some(rep) = reps.iter().find(|r| r.unit == u && r.traced) {
                kept.push(rep.run);
            }
        }
        let csv = tracer.to_csv(|run| kept.contains(&run) || run == SETUP_RUN);
        let path = dir.join(format!("{stem}-spans.csv"));
        std::fs::write(&path, csv).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("  spans: {}", path.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in BENCHMARK.json must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let named = |n: &str| json.contains(&format!("\"name\": \"{n}\""));
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(named(name), "{name} missing from BENCHMARK.json");
            assert!(json.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
        for kind in Kind::ALL {
            assert!(named(kind.name()), "workload {}", kind.name());
        }
        let entries = json.matches("\"name\": ").count();
        assert_eq!(
            entries,
            END_TO_END.len() + PER_LAYER.len() + Kind::ALL.len()
        );
    }

    #[test]
    fn every_timed_span_has_a_metric() {
        for span in TIMED_SPANS {
            if span != "bench.pass" {
                metric_of(span);
            }
        }
    }
}
