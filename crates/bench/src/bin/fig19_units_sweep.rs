//! Figure 19: end-to-end speedup as the number of NearPM units per device
//! varies (1, 2, 4), driven by the shared multi-client closed-loop harness.
//!
//! One closed-loop client never keeps more than ~one request in flight, so a
//! single-client sweep cannot distinguish unit counts (the seed reproduction
//! was flat at 1.736x for every unit count). The paper's growing curve needs
//! the units to be *contended*: this sweep therefore loads the devices with
//! 1/4/8 concurrent clients per configuration (the same machinery as fig20),
//! and reports the per-client-count average speedup over an equal-client CPU
//! baseline, the combined average (the figure's headline curve), and the
//! min/max per-unit utilization across the NearPM MD runs.
//!
//! After printing, the binary asserts the figure's shape and exits non-zero
//! if it breaks: the combined average grows strictly from 1 to 2 to 4
//! units, no NearPM MD run reports a PPO violation, and the 8-client 4-unit
//! tail holds its bar.
//!
//! Paper reference: speedup increases with more units.

use nearpm_bench::{fig19_sweep, header, FIG19_CLIENTS};

/// Operations per client (so heavier client counts do proportionally more
/// total work, as in fig20).
const OPS_PER_CLIENT: usize = 32;
/// Regression bar for the 8-client 4-unit tail of the sweep (measured
/// 1.634x with the two-lane front-end; the bar sits just under it so real
/// regressions trip while simulated-time jitter cannot). The sweep's MD
/// devices run a second decode lane (`with_decode_lanes(2)`) so the
/// front-end can never re-serialize decode under the 8-client load even if
/// the decode stage grows; this bar is what keeps that tail pinned.
const TAIL_8C_4U_BAR: f64 = 1.62;

fn main() {
    let mut columns = vec!["units".to_string()];
    for c in FIG19_CLIENTS {
        columns.push(format!("c{c}_x"));
    }
    columns.extend(["avg_x", "util_min", "util_max"].map(String::from));
    let column_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    header(
        "Figure 19: sensitivity to NearPM unit count (logging, NearPM MD, multi-client)",
        &column_refs,
    );

    let points = fig19_sweep(OPS_PER_CLIENT);
    for point in &points {
        let mut row = format!("{}", point.units);
        for s in &point.per_clients {
            row.push_str(&format!("\t{s:.3}"));
        }
        row.push_str(&format!(
            "\t{:.3}\t{:.3}\t{:.3}",
            point.combined, point.util_min, point.util_max
        ));
        println!("{row}");
    }
    println!("(paper: average speedup grows monotonically from 1 to 4 units)");

    for pair in points.windows(2) {
        assert!(
            pair[1].combined > pair[0].combined,
            "fig19: average speedup {:.4}x at {} units does not exceed {:.4}x at {} units",
            pair[1].combined,
            pair[1].units,
            pair[0].combined,
            pair[0].units
        );
    }
    for point in &points {
        assert_eq!(
            point.violations, 0,
            "fig19: PPO violations at {} units",
            point.units
        );
    }
    // The 8-client 4-unit point is the last row's last client column.
    let tail = points
        .last()
        .and_then(|p| p.per_clients.last().copied())
        .unwrap_or(0.0);
    assert!(
        tail >= TAIL_8C_4U_BAR,
        "fig19: 8-client tail at 4 units {tail:.4}x is below the {TAIL_8C_4U_BAR}x bar"
    );
}
