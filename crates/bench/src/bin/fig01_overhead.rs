//! Figure 1: crash-consistency overhead and its breakdown on the CPU baseline.
//!
//! Paper reference: CC overhead 37.7 % (logging), 48.6 % (checkpointing),
//! 67.2 % (shadow paging); data movement is 68.9 % / 60.4 % / 70.5 % of it.

use nearpm_bench::{header, mechanisms, run_one, workloads, DEFAULT_OPS};
use nearpm_core::ExecMode;

fn main() {
    let paper = [37.7, 48.6, 67.2];
    let paper_dm = [68.9, 60.4, 70.5];
    // (mechanism, average CC share, average data-movement share of CC).
    let rows: Vec<_> = mechanisms()
        .into_iter()
        .map(|m| {
            let mut cc = Vec::new();
            let mut dm = Vec::new();
            for w in workloads() {
                let r = run_one(w, m, ExecMode::CpuBaseline, DEFAULT_OPS, 1);
                cc.push(r.cc_fraction() * 100.0);
                let cc_total: f64 = r
                    .region_time
                    .iter()
                    .filter(|(k, _)| **k != "application" && **k != "app-persist")
                    .map(|(_, v)| v.as_ns())
                    .sum();
                let data = r.region_time["data-movement"].as_ns();
                dm.push(if cc_total > 0.0 {
                    data / cc_total * 100.0
                } else {
                    0.0
                });
            }
            let avg_cc = cc.iter().sum::<f64>() / cc.len() as f64;
            let avg_dm = dm.iter().sum::<f64>() / dm.len() as f64;
            (m, avg_cc, avg_dm)
        })
        .collect();

    header(
        "Figure 1a: crash-consistency overhead (CPU baseline)",
        &["mechanism", "cc_share_%", "paper_%"],
    );
    for (i, (m, avg_cc, _)) in rows.iter().enumerate() {
        println!("{}\t{:.1}\t{:.1}", m.label(), avg_cc, paper[i]);
    }
    for (i, (m, _, avg_dm)) in rows.iter().enumerate() {
        header(
            &format!("Figure 1b-d breakdown: {}", m.label()),
            &["component", "share_%", "paper_data_movement_%"],
        );
        println!("data-movement\t{:.1}\t{:.1}", avg_dm, paper_dm[i]);
    }
}
