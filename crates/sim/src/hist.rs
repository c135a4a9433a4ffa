//! Log-bucketed latency histogram (HDR-style) for per-request tail latency.
//!
//! The open-loop driver records one latency per request at million-op scale,
//! so percentile queries must not sort the raw samples. [`LatencyHistogram`]
//! buckets picosecond durations into a two-level HDR-style layout: values
//! below [`SUB_BUCKETS`] are exact, larger values share an exponent bucket
//! split into [`SUB_BUCKETS`] linear sub-buckets, bounding the relative
//! quantization error at `1 / SUB_BUCKETS` (< 1 %). Recording is O(1);
//! percentiles are one walk over the (few-thousand-entry) bucket table.
//!
//! The histogram is deliberately dependency-free. The exact sorted-vector
//! percentile ([`exact_percentile`]) is retained as the differential oracle:
//! bucketing is monotone, so the bucket holding the histogram's rank-th
//! sample is exactly the bucket of the oracle's answer — the differential
//! tests assert `hist.percentile(q) == bucket_upper(bucket_of(exact))` as an
//! equality, not a tolerance.

use crate::time::SimDuration;

/// Linear sub-buckets per exponent bucket (2^7): relative quantization error
/// is at most `1/128 ≈ 0.78 %`.
pub const SUB_BUCKETS: u64 = 128;

/// Bits of [`SUB_BUCKETS`].
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();

/// Bucket index of a picosecond value (monotone in `v`).
fn bucket_of_ps(v: u64) -> usize {
    if v < SUB_BUCKETS {
        v as usize
    } else {
        // v has its most significant bit at position k >= SUB_BITS; the
        // bucket keeps the top SUB_BITS bits after the MSB as the linear
        // sub-index, so consecutive buckets cover width 2^(k - SUB_BITS).
        let k = 63 - v.leading_zeros();
        let low = (v >> (k - SUB_BITS)) & (SUB_BUCKETS - 1);
        (((k - SUB_BITS + 1) as u64 * SUB_BUCKETS) + low) as usize
    }
}

/// Inclusive upper edge (ps) of a bucket — the histogram's canonical
/// representative value (conservative for tail latencies).
fn bucket_upper_ps(index: usize) -> u64 {
    let index = index as u64;
    if index < 2 * SUB_BUCKETS {
        // Buckets below 2*SUB_BUCKETS are exact single-value buckets
        // (width 1): [0, SUB_BUCKETS) directly, [SUB_BUCKETS, 2*SUB_BUCKETS)
        // via k = SUB_BITS with shift 0.
        index
    } else {
        let k = index / SUB_BUCKETS - 1 + SUB_BITS as u64;
        let low = index % SUB_BUCKETS;
        let width = 1u64 << (k - SUB_BITS as u64);
        ((SUB_BUCKETS + low) << (k - SUB_BITS as u64)) + width - 1
    }
}

/// Streaming log-bucketed latency histogram.
///
/// Records [`SimDuration`] samples in O(1) and answers
/// p50/p99/p999/arbitrary percentiles with ≤ `1/`[`SUB_BUCKETS`] relative
/// error. The maximum is tracked exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    /// Bucket counts, grown lazily to the highest recorded bucket.
    counts: Vec<u64>,
    /// Total recorded samples.
    count: u64,
    /// Exact maximum (ps).
    max_ps: u64,
    /// Exact minimum (ps).
    min_ps: u64,
    /// Sum of all samples (ps) for the mean.
    sum_ps: u128,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: Vec::new(),
            count: 0,
            max_ps: 0,
            min_ps: u64::MAX,
            sum_ps: 0,
        }
    }

    /// Records one latency sample — O(1).
    pub fn record(&mut self, sample: SimDuration) {
        let ps = sample.as_ps();
        let bucket = bucket_of_ps(ps);
        if bucket >= self.counts.len() {
            self.counts.resize(bucket + 1, 0);
        }
        self.counts[bucket] += 1;
        self.count += 1;
        self.max_ps = self.max_ps.max(ps);
        self.min_ps = self.min_ps.min(ps);
        self.sum_ps += ps as u128;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact maximum recorded sample ([`SimDuration::ZERO`] when empty).
    pub fn max(&self) -> SimDuration {
        SimDuration::from_ps(self.max_ps)
    }

    /// Exact minimum recorded sample ([`SimDuration::ZERO`] when empty).
    pub fn min(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_ps(self.min_ps)
        }
    }

    /// Exact mean of the recorded samples ([`SimDuration::ZERO`] when
    /// empty).
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_ps((self.sum_ps / self.count as u128) as u64)
        }
    }

    /// The `q`-quantile (`0 < q <= 1`) under nearest-rank semantics: the
    /// inclusive upper edge of the bucket holding the `ceil(q·count)`-th
    /// smallest sample, which exceeds the exact answer by at most
    /// `1/`[`SUB_BUCKETS`] relative error. `q >= 1` returns the exact
    /// maximum. [`SimDuration::ZERO`] when empty.
    pub fn percentile(&self, q: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        if q >= 1.0 {
            return self.max();
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The histogram never reports past the exact maximum.
                return SimDuration::from_ps(bucket_upper_ps(i).min(self.max_ps));
            }
        }
        self.max()
    }

    /// Median (p50).
    pub fn p50(&self) -> SimDuration {
        self.percentile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> SimDuration {
        self.percentile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> SimDuration {
        self.percentile(0.999)
    }

    /// Bucket index a sample falls into (monotone; exposed for the
    /// differential oracle tests).
    pub fn bucket_of(sample: SimDuration) -> usize {
        bucket_of_ps(sample.as_ps())
    }

    /// Inclusive upper edge of a bucket (the histogram's representative
    /// value for every sample in it).
    pub fn bucket_upper(index: usize) -> SimDuration {
        SimDuration::from_ps(bucket_upper_ps(index))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.count == 0 {
            return;
        }
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.max_ps = self.max_ps.max(other.max_ps);
        self.min_ps = self.min_ps.min(other.min_ps);
        self.sum_ps += other.sum_ps;
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Exact nearest-rank percentile over a **sorted** sample slice — the O(n
/// log n) differential oracle for [`LatencyHistogram::percentile`].
///
/// # Panics
///
/// Panics if `sorted` is empty or not sorted ascending.
pub fn exact_percentile(sorted: &[SimDuration], q: f64) -> SimDuration {
    assert!(!sorted.is_empty(), "exact_percentile of an empty slice");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "slice not sorted");
    if q >= 1.0 {
        return *sorted.last().unwrap();
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Checks bucketing invariants at one value: the bucket's upper edge
    /// covers the value within the documented relative-error bound.
    fn check_bucket(v: u64) {
        let b = bucket_of_ps(v);
        let upper = bucket_upper_ps(b);
        assert!(upper >= v, "upper edge {upper} below value {v}");
        if v >= SUB_BUCKETS {
            let err = (upper - v) as f64 / v as f64;
            assert!(err <= 1.0 / SUB_BUCKETS as f64, "error {err} at {v}");
        } else {
            assert_eq!(upper, v, "small values are exact");
        }
    }

    #[test]
    fn buckets_are_monotone_and_contiguous() {
        let mut prev = 0usize;
        for v in 0u64..100_000 {
            let b = bucket_of_ps(v);
            assert!(b >= prev, "bucket regressed at {v}");
            prev = b;
            check_bucket(v);
        }
        // Spot-check every power-of-two neighborhood up to ~18 minutes (ps).
        for k in 1u32..50 {
            for v in [(1u64 << k) - 1, 1u64 << k, (1u64 << k) + 1] {
                check_bucket(v);
            }
        }
    }

    #[test]
    fn percentiles_match_exact_oracle_bucketwise() {
        let mut rng = StdRng::seed_from_u64(7);
        for round in 0..20 {
            let n = rng.gen_range(1usize..2000);
            let mut hist = LatencyHistogram::new();
            let mut samples = Vec::with_capacity(n);
            for _ in 0..n {
                // Mix of magnitudes: ns to ms in picoseconds.
                let v = match rng.gen_range(0u32..4) {
                    0 => rng.gen_range(0u64..200),
                    1 => rng.gen_range(0u64..100_000),
                    2 => rng.gen_range(0u64..10_000_000),
                    _ => rng.gen_range(0u64..2_000_000_000),
                };
                let d = SimDuration::from_ps(v);
                hist.record(d);
                samples.push(d);
            }
            samples.sort_unstable();
            for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let exact = exact_percentile(&samples, q);
                let approx = hist.percentile(q);
                // The histogram answers with the upper edge of the exact
                // answer's bucket (capped at the exact max) — an equality,
                // not a tolerance.
                let expected = if q >= 1.0 {
                    exact
                } else {
                    LatencyHistogram::bucket_upper(LatencyHistogram::bucket_of(exact))
                        .min(hist.max())
                };
                assert_eq!(
                    approx, expected,
                    "round {round} q={q}: approx {approx} exact {exact}"
                );
                // And the documented relative-error bound holds.
                let err = approx.as_ps().saturating_sub(exact.as_ps()) as f64
                    / exact.as_ps().max(1) as f64;
                assert!(
                    err <= 1.0 / SUB_BUCKETS as f64,
                    "round {round} q={q}: {err}"
                );
            }
        }
    }

    #[test]
    fn summary_statistics_are_exact() {
        let mut hist = LatencyHistogram::new();
        assert!(hist.is_empty());
        assert_eq!(hist.percentile(0.5), SimDuration::ZERO);
        assert_eq!(hist.mean(), SimDuration::ZERO);
        for v in [5u64, 1_000, 250, 1_000_000, 42] {
            hist.record(SimDuration::from_ps(v));
        }
        assert_eq!(hist.count(), 5);
        assert_eq!(hist.max(), SimDuration::from_ps(1_000_000));
        assert_eq!(hist.min(), SimDuration::from_ps(5));
        assert_eq!(
            hist.mean(),
            SimDuration::from_ps((5 + 1_000 + 250 + 1_000_000 + 42) / 5)
        );
        assert_eq!(hist.percentile(1.0), SimDuration::from_ps(1_000_000));
    }

    #[test]
    fn default_is_the_empty_histogram() {
        let mut hist = LatencyHistogram::default();
        assert_eq!(hist, LatencyHistogram::new());
        hist.record(SimDuration::from_ps(5_000));
        assert_eq!(hist.min(), SimDuration::from_ps(5_000));
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for i in 0..500 {
            let v = SimDuration::from_ps(rng.gen_range(0u64..5_000_000));
            whole.record(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a, whole);
        // Merging an empty histogram is a no-op.
        let snapshot = a.clone();
        a.merge(&LatencyHistogram::new());
        assert_eq!(a, snapshot);
    }
}
