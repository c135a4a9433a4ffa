//! CI gate for the two media engines: the storage engine must be invisible
//! to the functional model and real durability must hold across an actual
//! process death.
//!
//! Three checks, each exiting non-zero on failure:
//!
//! 1. **Backend differential** — the same seeded workload run over heap and
//!    file media produces byte-identical device images and identical PM
//!    traffic stats.
//! 2. **File reopen round trip** — a file-backed system's image survives
//!    dropping the system and reopening the directory in a fresh instance
//!    (byte-identical devices, crashed-state entry).
//! 3. **Kill-and-reopen restart recovery** — for every crash-consistency
//!    mechanism, a child process running over a file-backed image is
//!    killed (abort, not clean exit) at a mid-run `CrashPlan` boundary;
//!    the parent reopens the image, reattaches, recovers, and proves the
//!    committed-prefix / PPO-clean / idempotence invariants plus the
//!    durability differential against an in-process oracle.
//!
//! The binary re-executes itself as the restart child when
//! [`nearpm_workloads::restart::CHILD_ENV`] is set.
//!
//! Run with: `cargo run --release -p nearpm-bench --bin media_smoke`

use nearpm_cc::Mechanism;
use nearpm_core::{ExecMode, MediaConfig, NearPmSystem, Region, SystemConfig};
use nearpm_workloads::restart::{self, RestartSpec};
use nearpm_workloads::{CcMech, PipelineMode, RunOptions, Runner, Workload};
use std::path::PathBuf;
use std::process::Command;

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nearpm-media-smoke-{tag}-{}", std::process::id()))
}

/// Check 1: one seeded workload run per backend; images and traffic stats
/// must be identical.
fn backend_differential() -> Result<(), String> {
    let dir = temp_dir("differential");
    let run = |media: MediaConfig| {
        let options = RunOptions::new(ExecMode::NearPmMd, Mechanism::Logging, 24)
            .with_threads(2)
            .with_seed(13)
            .with_media(media);
        Runner::new(Workload::Hashmap, options)
            .run_with_system()
            .map_err(|e| format!("run failed: {e}"))
    };
    let (heap_report, heap_sys) = run(MediaConfig::Heap)?;
    let (file_report, file_sys) = run(MediaConfig::File { dir: dir.clone() })?;
    let result = (|| {
        if file_report.pm_traffic != heap_report.pm_traffic {
            return Err("file: PM traffic diverged from heap".to_string());
        }
        for d in 0..heap_sys.media_count() {
            if file_sys.device_image(d) != heap_sys.device_image(d) {
                return Err(format!("file: device {d} image diverged from heap"));
            }
        }
        Ok(())
    })();
    std::fs::remove_dir_all(&dir).ok();
    result?;
    println!(
        "backend differential: heap == file over {} devices, traffic {:?}",
        heap_sys.media_count(),
        heap_report.pm_traffic
    );
    Ok(())
}

/// Check 2: a file-backed image survives process-instance turnover.
fn file_reopen_round_trip() -> Result<(), String> {
    let dir = temp_dir("reopen");
    let config = || {
        SystemConfig::nearpm_md()
            .with_capacity(8 << 20)
            .with_media(MediaConfig::File { dir: dir.clone() })
    };
    let images = {
        let mut sys =
            NearPmSystem::try_new(config()).map_err(|e| format!("construction failed: {e}"))?;
        let pool = sys
            .create_pool("media-smoke", 4 << 20)
            .map_err(|e| e.to_string())?;
        let obj = sys.alloc(pool, 8192, 4096).map_err(|e| e.to_string())?;
        sys.cpu_write_persist(0, obj, &[0xC7; 8192], Region::AppPersist)
            .map_err(|e| e.to_string())?;
        sys.persist_to(&dir).map_err(|e| e.to_string())?;
        (0..sys.media_count())
            .map(|d| sys.device_image(d))
            .collect::<Vec<_>>()
    };
    let reopened = NearPmSystem::reopen_from(config(), &dir).map_err(|e| e.to_string())?;
    let result = (|| {
        if !reopened.is_crashed() {
            return Err("reopened system should start crashed".to_string());
        }
        for (d, image) in images.iter().enumerate() {
            if &reopened.device_image(d) != image {
                return Err(format!("device {d}: image changed across reopen"));
            }
        }
        Ok(())
    })();
    std::fs::remove_dir_all(&dir).ok();
    result?;
    println!(
        "file reopen round trip: {} devices byte-identical across instances",
        images.len()
    );
    Ok(())
}

/// Check 3: kill a child at a mid-run boundary, reopen, recover, verify.
fn kill_and_reopen_matrix() -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    for mech in CcMech::ALL {
        let mut spec = RestartSpec {
            mech,
            pipeline: PipelineMode::Serial,
            mode: ExecMode::NearPmMd,
            units: 2,
            boundary: 0,
            dir: temp_dir(&format!("restart-{}", mech.label())),
        };
        let total = restart::count_boundaries(&spec)
            .map_err(|e| format!("{mech}: boundary count failed: {e}"))?;
        spec.boundary = total / 2;
        let status = Command::new(&exe)
            .envs(spec.to_env())
            .status()
            .map_err(|e| format!("{mech}: spawning child failed: {e}"))?;
        // The child must die by abort (signal), not exit cleanly: a clean
        // exit means the boundary never fired.
        if status.success() || status.code().is_some() {
            std::fs::remove_dir_all(&spec.dir).ok();
            return Err(format!(
                "{mech}: child at boundary {} did not die by signal (status {status:?})",
                spec.boundary
            ));
        }
        let outcome = restart::verify_restarted_recovery(&spec)
            .map_err(|e| format!("{mech}: verification errored: {e}"))?;
        std::fs::remove_dir_all(&spec.dir).ok();
        if !outcome.ok() {
            return Err(format!(
                "{mech}: restarted recovery failed: {:?}",
                outcome.failures
            ));
        }
        println!(
            "kill-and-reopen {mech}: died at boundary {}/{} ({}), {} units committed, \
             recovered + idempotent in a fresh process",
            spec.boundary,
            total,
            outcome.fired.map_or("?", |k| k.label()),
            outcome.units_committed
        );
    }
    Ok(())
}

/// One named smoke check.
type Check = (&'static str, fn() -> Result<(), String>);

fn main() {
    // Re-executed as a restart child: run to the armed boundary and abort.
    if let Some(spec) = RestartSpec::from_env() {
        restart::child_main(&spec);
    }

    println!("media smoke: backend differential, reopen, kill-and-reopen");
    let checks: [Check; 3] = [
        ("backend differential", backend_differential),
        ("file reopen round trip", file_reopen_round_trip),
        ("kill-and-reopen restart recovery", kill_and_reopen_matrix),
    ];
    let mut failed = 0;
    for (name, check) in checks {
        if let Err(e) = check() {
            eprintln!("FAIL {name}: {e}");
            failed += 1;
        }
    }
    if failed > 0 {
        eprintln!("media smoke: {failed} checks failed");
        std::process::exit(1);
    }
    println!("media smoke: all checks passed");
}
