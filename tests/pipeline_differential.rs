//! Differential tests for the split-phase transaction pipeline: under every
//! crash-consistency mechanism and execution mode, the pipelined
//! (post-all / complete-later) path and the serial one-site-per-call
//! reference (`TxnPipeline::SerialOracle`) must produce **byte-identical PM
//! images** and **equal PPO violation lists** (both empty) — only the
//! modeled overlap may differ. Pipelining changes when work is in flight,
//! never what it computes.

use nearpm_cc::Mechanism;
use nearpm_core::{ExecMode, NearPmSystem};
use nearpm_workloads::{RunOptions, Runner, TxnPipeline, Workload};

fn media_images(sys: &NearPmSystem) -> Vec<Vec<u8>> {
    (0..sys.media_count())
        .map(|d| sys.device_image(d))
        .collect()
}

#[test]
fn pipelined_and_serial_oracle_agree_across_mechanisms_and_modes() {
    // TPC-C issues multi-site transactions (up to nine update sites per
    // operation, with Zipfian-repeated pages), which exercises the batched
    // posting, the per-round duplicate-page chaining of shadow paging, and
    // the grouped commit synchronization.
    for mechanism in Mechanism::all() {
        for mode in ExecMode::all() {
            let run = |pipeline: TxnPipeline| {
                let options = RunOptions::new(mode, mechanism, 24)
                    .with_threads(2)
                    .with_pipeline(pipeline)
                    .with_seed(7);
                Runner::new(Workload::Tpcc, options)
                    .run_with_system()
                    .expect("differential run failed")
            };
            let (pipe_report, pipe_sys) = run(TxnPipeline::SplitPhase);
            let (serial_report, serial_sys) = run(TxnPipeline::SerialOracle);

            assert!(
                pipe_report.ppo_violations.is_empty(),
                "{mechanism:?}/{mode:?}: pipelined path has violations: {:?}",
                pipe_report.ppo_violations
            );
            assert_eq!(
                pipe_report.ppo_violations, serial_report.ppo_violations,
                "{mechanism:?}/{mode:?}: violation lists diverged"
            );
            // Raw media equality holds for every mechanism: logging and
            // checkpointing acquire/release their slots in identical order
            // on both paths, and shadow paging binds one spare per logical
            // page (flip-flop placement) so the first update of each page
            // acquires in the same order serially and pipelined — physical
            // placement is pipeline-independent, no logical-page fallback
            // needed.
            let pipe_images = media_images(&pipe_sys);
            let serial_images = media_images(&serial_sys);
            assert_eq!(pipe_images.len(), serial_images.len());
            for (d, (p, s)) in pipe_images.iter().zip(&serial_images).enumerate() {
                assert!(
                    p == s,
                    "{mechanism:?}/{mode:?}: PM image of device {d} diverged"
                );
            }
            // Identical work on both paths.
            assert!(pipe_report.trace_events > 0);
            assert_eq!(pipe_report.pm_traffic, serial_report.pm_traffic);
        }
    }
}

/// The pipeline must never slow a NearPM-offloaded run down: batched posting
/// only increases overlap. (Equal for mechanisms whose phases were already
/// contiguous, strictly faster for shadow paging's multi-site operations.)
#[test]
fn pipelined_path_is_never_slower() {
    for mechanism in Mechanism::all() {
        for mode in [
            ExecMode::NearPmSd,
            ExecMode::NearPmMdSync,
            ExecMode::NearPmMd,
        ] {
            let run = |pipeline: TxnPipeline| {
                let options = RunOptions::new(mode, mechanism, 24)
                    .with_threads(2)
                    .with_pipeline(pipeline)
                    .with_seed(11);
                Runner::new(Workload::Tpcc, options)
                    .run()
                    .expect("differential run failed")
            };
            let pipe = run(TxnPipeline::SplitPhase);
            let serial = run(TxnPipeline::SerialOracle);
            assert!(
                pipe.makespan <= serial.makespan,
                "{mechanism:?}/{mode:?}: pipelined {} > serial {}",
                pipe.makespan,
                serial.makespan
            );
        }
    }
}
