//! Figure 16: end-to-end application speedup for NearPM SD, NearPM MD
//! SW-sync, and NearPM MD over the CPU baseline.
//!
//! Paper reference averages: SD 1.29/1.15/1.28, MD SW-sync 1.21/1.14/1.23,
//! MD 1.35/1.22/1.33 for logging/checkpointing/shadow paging.
//!
//! After printing, the binary asserts the single-client anchor and exits
//! non-zero if the logging MD average falls below its bar.

use nearpm_bench::{gmean, header, mechanisms, run_one, workloads, DEFAULT_OPS};
use nearpm_cc::Mechanism;
use nearpm_core::ExecMode;

/// Single-client anchor bar on the logging MD average. The seed measured
/// 1.736x, but the undo log's torn-commit fix (a durable commit marker
/// persisted in phase 2 and cleared in phase 4) added four modeled events
/// to every transaction on both the baseline and MD sides, which pulls
/// every speedup ratio toward 1: the anchor now measures 1.671x. The bar
/// sits just under that honest cost so real regressions trip while the
/// marker protocol stays priced in. One closed-loop client never contends
/// the units, so the unit count does not move this point.
const SINGLE_CLIENT_ANCHOR_BAR: f64 = 1.66;

fn main() {
    let paper: [[f64; 3]; 3] = [[1.29, 1.21, 1.35], [1.15, 1.14, 1.22], [1.28, 1.23, 1.33]];
    let mut logging_md_avg = 0.0;
    for (mi, m) in mechanisms().into_iter().enumerate() {
        header(
            &format!("Figure 16: end-to-end speedup, {}", m.label()),
            &["workload", "SD_x", "MDsync_x", "MD_x"],
        );
        let mut sd_all = Vec::new();
        let mut sync_all = Vec::new();
        let mut md_all = Vec::new();
        for w in workloads() {
            let base = run_one(w, m, ExecMode::CpuBaseline, DEFAULT_OPS, 1);
            let sd = run_one(w, m, ExecMode::NearPmSd, DEFAULT_OPS, 1).speedup_over(&base);
            let sync = run_one(w, m, ExecMode::NearPmMdSync, DEFAULT_OPS, 1).speedup_over(&base);
            let md = run_one(w, m, ExecMode::NearPmMd, DEFAULT_OPS, 1).speedup_over(&base);
            println!("{}\t{:.3}\t{:.3}\t{:.3}", w.name(), sd, sync, md);
            sd_all.push(sd);
            sync_all.push(sync);
            md_all.push(md);
        }
        if m == Mechanism::Logging {
            logging_md_avg = gmean(&md_all);
        }
        println!(
            "average\t{:.3}\t{:.3}\t{:.3}\t(paper: {:.2}/{:.2}/{:.2})",
            gmean(&sd_all),
            gmean(&sync_all),
            gmean(&md_all),
            paper[mi][0],
            paper[mi][1],
            paper[mi][2]
        );
    }
    assert!(
        logging_md_avg >= SINGLE_CLIENT_ANCHOR_BAR,
        "fig16: logging MD average {logging_md_avg:.4}x is below the \
         {SINGLE_CLIENT_ANCHOR_BAR}x single-client anchor"
    );
}
