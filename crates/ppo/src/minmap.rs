//! The address min-map behind the fold's earliest-timestamp queries.
//!
//! Invariants 3 and 4 need one fact about writes and persists: the earliest
//! time anything overlapping a range was written or persisted
//! (`FoldIndex::earliest_persist_by`, `written_before_failure`,
//! `persisted_before_failure`). [`MinMap`] keeps exactly that fact per byte,
//! so its size follows the addresses a run touches, not how often it
//! touches them.

use std::collections::BTreeMap;

use crate::event::Interval;

/// Disjoint byte segments, each holding the minimum timestamp of every
/// inserted interval that covers it.
///
/// **Exactness.** Inserting `[start, end)` first splits the segments that
/// straddle `start` or `end`, so every inserted interval's endpoints are
/// segment boundaries: an interval covers each segment entirely or not at
/// all, and a segment's minimum is the minimum over exactly the intervals
/// that cover it. A query overlaps an inserted interval iff the two share a
/// byte; that byte lies in a segment the interval covers and the query
/// overlaps. So any interval that overlaps a query covers a segment that
/// the query overlaps, every segment the query overlaps is covered only by
/// intervals the query overlaps, and the minimum over the overlapped
/// segments is exactly the minimum over the overlapped intervals.
///
/// **Size.** Segments are never merged and only ever split at an inserted
/// endpoint, and each one starts and ends at an inserted endpoint, so there
/// are fewer segments than distinct endpoints. A run that rewrites the same
/// log slots and objects keeps the map at its footprint however many events
/// it folds.
#[derive(Debug, Clone, Default)]
pub(crate) struct MinMap {
    /// Segment start → (exclusive end, minimum covering timestamp).
    segs: BTreeMap<u64, (u64, u64)>,
}

impl MinMap {
    /// Lowers the minimum of every byte `span` covers to at most `ts`.
    /// Zero-length spans cover nothing. Most inserts rewrite a range that
    /// is already exactly one segment, which costs one lookup.
    pub(crate) fn insert(&mut self, span: Interval, ts: u64) {
        let (start, end) = (span.start, span.end());
        if start >= end {
            return;
        }
        match self.segs.get_mut(&start) {
            Some(seg) if seg.0 == end => {
                seg.1 = seg.1.min(ts);
                return;
            }
            Some(_) => {}
            None => self.split_at(start),
        }
        self.split_at(end);
        let mut gaps = Vec::new();
        let mut covered_to = start;
        for (&s, seg) in self.segs.range_mut(start..end) {
            if s > covered_to {
                gaps.push((covered_to, s));
            }
            seg.1 = seg.1.min(ts);
            covered_to = seg.0;
        }
        if covered_to < end {
            gaps.push((covered_to, end));
        }
        for (s, e) in gaps {
            self.segs.insert(s, (e, ts));
        }
    }

    /// Splits the segment that strictly contains `at`, if any, into two
    /// with the same minimum.
    fn split_at(&mut self, at: u64) {
        if let Some((_, seg)) = self.segs.range_mut(..at).next_back() {
            if seg.0 > at {
                let tail = *seg;
                seg.0 = at;
                self.segs.insert(at, tail);
            }
        }
    }

    /// Minimum timestamp over every inserted interval overlapping `query`
    /// (`None` if none does). One descent plus one step per overlapped
    /// segment: walking back from the last segment starting before the
    /// query's end, the first one that ends at or before the query's start,
    /// or starts at or before it, is the last that can overlap.
    pub(crate) fn min_overlapping(&self, query: Interval) -> Option<u64> {
        if query.len == 0 {
            return None;
        }
        let (qs, qe) = (query.start, query.end());
        let mut min: Option<u64> = None;
        for (&s, &(e, m)) in self.segs.range(..qe).rev() {
            if e <= qs {
                break;
            }
            min = Some(min.map_or(m, |x| x.min(m)));
            if s <= qs {
                break;
            }
        }
        min
    }

    /// Number of segments.
    #[cfg(test)]
    pub(crate) fn segments(&self) -> usize {
        self.segs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn iv(start: u64, len: u64) -> Interval {
        Interval::new(start, len)
    }

    /// The rule the naive oracle applies: the minimum timestamp of every
    /// inserted interval sharing a byte with the query.
    fn naive_min(inserted: &[(u64, u64, u64)], q: Interval) -> Option<u64> {
        inserted
            .iter()
            .filter(|&&(s, e, _)| iv(s, e - s).overlaps(&q))
            .map(|&(_, _, ts)| ts)
            .min()
    }

    /// A random interval drawn to hit the shapes the map must get right:
    /// zero-length, nested, adjacent, partly overlapping and exact repeats
    /// of earlier intervals.
    fn shaped(rng: &mut StdRng, earlier: &[(u64, u64, u64)]) -> (u64, u64) {
        let pick = |rng: &mut StdRng| earlier[rng.gen_range(0..earlier.len())];
        match rng.gen_range(0u32..6) {
            0 => {
                let s = rng.gen_range(0u64..600);
                (s, s)
            }
            1 if !earlier.is_empty() => {
                let (s, e, _) = pick(rng);
                (s, e)
            }
            2 if !earlier.is_empty() => {
                let (s, e, _) = pick(rng);
                let a = rng.gen_range(s..=e);
                (a, rng.gen_range(a..=e))
            }
            3 if !earlier.is_empty() => {
                let (s, e, _) = pick(rng);
                if rng.gen_bool(0.5) {
                    (e, e + rng.gen_range(1u64..64))
                } else {
                    (s.saturating_sub(rng.gen_range(1u64..64)), s)
                }
            }
            4 if !earlier.is_empty() => {
                let (s, e, _) = pick(rng);
                let a = rng.gen_range(s..=e);
                (a, e + rng.gen_range(1u64..64))
            }
            _ => {
                let s = rng.gen_range(0u64..600);
                (s, s + rng.gen_range(1u64..96))
            }
        }
    }

    #[test]
    fn answers_equal_a_naive_scan_after_every_step() {
        let mut rng = StdRng::seed_from_u64(25);
        for _round in 0..60 {
            let mut map = MinMap::default();
            let mut inserted: Vec<(u64, u64, u64)> = Vec::new();
            for _step in 0..300 {
                let (s, e) = shaped(&mut rng, &inserted);
                // Non-monotone timestamps, with the sentinel-sized one a
                // failure marker without a task carries.
                let ts = if rng.gen_range(0u32..20) == 0 {
                    u64::MAX
                } else {
                    rng.gen_range(0u64..1000)
                };
                map.insert(iv(s, e - s), ts);
                if e > s {
                    inserted.push((s, e, ts));
                }
                for _q in 0..8 {
                    let (s, e) = shaped(&mut rng, &inserted);
                    let q = iv(s, e - s);
                    assert_eq!(
                        map.min_overlapping(q),
                        naive_min(&inserted, q),
                        "query {q:?} after {inserted:?}"
                    );
                    // The before-failure rule the naive oracle applies:
                    // some overlapping interval has `ts <= failure_ts`.
                    let failure = if rng.gen_bool(0.2) {
                        u64::MAX
                    } else {
                        rng.gen_range(0u64..1000)
                    };
                    assert_eq!(
                        map.min_overlapping(q).is_some_and(|ts| ts <= failure),
                        inserted
                            .iter()
                            .any(|&(s, e, ts)| iv(s, e - s).overlaps(&q) && ts <= failure),
                        "failure {failure} query {q:?} after {inserted:?}"
                    );
                }
            }
        }
    }

    /// `written_before_failure` and friends compare the minimum against the
    /// failure with `<=`, so a `u64::MAX` minimum must come back as a value,
    /// not as "nothing overlaps".
    #[test]
    fn max_timestamp_is_a_value() {
        let mut map = MinMap::default();
        map.insert(iv(10, 10), u64::MAX);
        assert_eq!(map.min_overlapping(iv(15, 1)), Some(u64::MAX));
        assert_eq!(map.min_overlapping(iv(0, 10)), None);
        assert_eq!(map.min_overlapping(iv(15, 0)), None);
        map.insert(iv(12, 2), 7);
        assert_eq!(map.min_overlapping(iv(0, 100)), Some(7));
        assert_eq!(map.min_overlapping(iv(14, 6)), Some(u64::MAX));
    }

    #[test]
    fn rewrites_stay_within_the_endpoint_bound() {
        let mut rng = StdRng::seed_from_u64(64);
        let slots: Vec<(u64, u64)> = (0..64)
            .map(|_| {
                let s = rng.gen_range(0u64..4096);
                (s, s + rng.gen_range(1u64..256))
            })
            .collect();
        let endpoints: BTreeSet<u64> = slots.iter().flat_map(|&(s, e)| [s, e]).collect();
        let mut map = MinMap::default();
        for round in 0..100_000u64 {
            let (s, e) = slots[(round % 64) as usize];
            map.insert(iv(s, e - s), round.wrapping_mul(0x9E37_79B9) % 1_000_000);
        }
        assert!(
            map.segments() <= 2 * endpoints.len(),
            "{} segments for {} distinct endpoints",
            map.segments(),
            endpoints.len()
        );
    }
}
