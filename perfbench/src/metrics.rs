//! The benchmark's own metric arithmetic: medians, the paper-fidelity error,
//! tail-percentile selection, the simulated-output digest, and the JSON
//! number format of the result line.

use nearpm_core::RunReport;

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no values");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Geometric mean (NaN if any value is not positive).
pub fn gmean(values: &[f64]) -> f64 {
    if values.iter().any(|&v| v.is_nan() || v <= 0.0) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Fidelity error of simulated figures against the paper's: the mean of
/// `|ln(sim / paper)|` over the pairs. Symmetric in over- and undershoot
/// (2x too high and 2x too low score the same), 0 for an exact match.
pub fn paper_err(sim: &[f64], paper: &[f64]) -> f64 {
    assert_eq!(
        sim.len(),
        paper.len(),
        "one simulated value per paper value"
    );
    sim.iter()
        .zip(paper)
        .map(|(s, p)| (s / p).ln().abs())
        .sum::<f64>()
        / sim.len() as f64
}

/// Quantiles the tail metric may report, lowest first.
pub const TAIL_QUANTILES: [f64; 6] = [0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999];

/// Samples strictly above the rank `nearpm_sim::exact_percentile` returns
/// for quantile `q` of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).max(1);
    n.saturating_sub(rank)
}

/// The highest of [`TAIL_QUANTILES`] with at least `min_beyond` samples
/// beyond it, or `None` when not even the median qualifies.
pub fn tail_quantile(n: usize, min_beyond: usize) -> Option<f64> {
    TAIL_QUANTILES
        .iter()
        .copied()
        .rfind(|&q| samples_beyond(n, q) >= min_beyond)
}

/// 64-bit FNV-1a over a canonical encoding of simulated outputs. Stable
/// across processes and platforms (no hasher randomization).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds an integer in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a float in by its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Folds a string in, length-prefixed so concatenations cannot collide.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Folds in every field of a [`RunReport`]. The region map is a
    /// `HashMap`, so it is folded in sorted order and the remaining fields
    /// through their `Debug` form, which prints floats exactly and picks up
    /// any field added later.
    pub fn report(&mut self, report: &RunReport) {
        let mut regions: Vec<_> = report.region_time.iter().collect();
        regions.sort();
        for (name, time) in regions {
            self.str(name);
            self.u64(time.as_ps());
        }
        let mut rest = report.clone();
        rest.region_time.clear();
        self.str(&format!("{rest:?}"));
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// A metric value as a JSON number with all its digits. Non-finite values
/// have no JSON form; callers check them before printing.
pub fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nearpm_cc::Mechanism;
    use nearpm_core::ExecMode;
    use nearpm_workloads::{run, Workload};

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn paper_err_is_zero_on_match_and_symmetric() {
        assert_eq!(paper_err(&[1.35, 1.22, 1.33], &[1.35, 1.22, 1.33]), 0.0);
        let over = paper_err(&[2.0], &[1.0]);
        let under = paper_err(&[0.5], &[1.0]);
        assert!((over - 2f64.ln()).abs() < 1e-12);
        assert!((over - under).abs() < 1e-12);
        // The mean runs over the pairs.
        let mixed = paper_err(&[2.0, 1.0], &[1.0, 1.0]);
        assert!((mixed - 2f64.ln() / 2.0).abs() < 1e-12);
        assert!(paper_err(&[f64::NAN], &[1.0]).is_nan());
    }

    #[test]
    fn gmean_rejects_non_positive() {
        assert!((gmean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!(gmean(&[2.0, 0.0]).is_nan());
        assert!(gmean(&[f64::NAN]).is_nan());
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        // 1000 samples: p99 leaves 10 beyond, p99.9 only 1.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(tail_quantile(1000, 10), Some(0.99));
        assert_eq!(tail_quantile(999, 10), Some(0.9));
        assert_eq!(tail_quantile(10_000, 10), Some(0.999));
        assert_eq!(tail_quantile(50_000, 10), Some(0.999));
        assert_eq!(tail_quantile(100_000, 10), Some(0.9999));
        assert_eq!(tail_quantile(20, 10), Some(0.5));
        assert_eq!(tail_quantile(19, 10), None);
    }

    #[test]
    fn tail_rank_matches_exact_percentile() {
        use nearpm_sim::{exact_percentile, SimDuration};
        let sorted: Vec<SimDuration> = (1..=1000).map(SimDuration::from_ps).collect();
        for q in TAIL_QUANTILES {
            let at = exact_percentile(&sorted, q).as_ps() as usize;
            assert_eq!(sorted.len() - at, samples_beyond(sorted.len(), q), "q={q}");
        }
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let a = run(Workload::Hashmap, Mechanism::Logging, ExecMode::NearPmMd, 8).unwrap();
        let b = run(Workload::Hashmap, Mechanism::Logging, ExecMode::NearPmMd, 8).unwrap();
        let digest = |r: &RunReport| {
            let mut d = Digest::default();
            d.report(r);
            d.value()
        };
        // Same run, same digest, although each report's region map has its
        // own hasher seed.
        assert_eq!(digest(&a), digest(&b));
        let mut moved = a.clone();
        moved.makespan += nearpm_sim::SimDuration::from_ps(1);
        assert_ne!(digest(&a), digest(&moved));
        let mut region = a.clone();
        let key = *region.region_time.keys().next().expect("regions");
        region
            .region_time
            .insert(key, nearpm_sim::SimDuration::from_ps(7));
        assert_ne!(digest(&a), digest(&region));
        // A fixed encoding: this value changes only if the FNV-1a
        // implementation does.
        let mut d = Digest::default();
        d.str("nearpm");
        assert_eq!(d.value(), {
            let mut e = Digest::default();
            e.bytes(&6u64.to_le_bytes());
            e.bytes(b"nearpm");
            e.value()
        });
        assert_eq!(Digest::default().value(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(json_number(1.0), "1.0");
        assert_eq!(json_number(0.1234567890123), "0.1234567890123");
        assert_eq!(json_number(2.5e-7), "0.00000025");
        let v = 1234.5678901234567;
        assert_eq!(json_number(v).parse::<f64>().unwrap(), v);
    }
}
