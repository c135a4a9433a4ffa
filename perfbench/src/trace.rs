//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is `(name, start, end, parent, run)`; `run` numbers the workload
//! repetition the span belongs to. Nothing inside the program is
//! instrumented: a span covers one call into a crate's public function, or
//! the stretch between two calls of the runner's observe hook.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub run: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. Spans opened with [`Tracer::begin`] nest; spans recorded
/// with [`Tracer::record`] are children of the innermost open span. A
/// disabled tracer records nothing and reads no clock.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    run: u32,
}

/// Total and self time of one span name, in seconds, with its span count.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub total_s: f64,
    pub self_s: f64,
    pub count: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Sets the run id stamped on spans recorded from now on.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Opens a span starting now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let start = Instant::now();
        self.push(name, start, start)
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: u32) {
        if !self.enabled {
            return;
        }
        let end = self.ns(Instant::now());
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end;
    }

    /// Records a finished span under the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            self.push(name, start, end);
            self.open.pop();
        }
    }

    fn push(&mut self, name: &'static str, start: Instant, end: Instant) -> u32 {
        let id = self.spans.len() as u32;
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            run: self.run,
        };
        self.spans.push(span);
        self.open.push(id);
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals and self times (a span's duration minus the time its
    /// children cover) over the spans of runs accepted by `keep`.
    pub fn layer_times(&self, keep: impl Fn(u32) -> bool) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            if !keep(s.run) {
                continue;
            }
            let t = out.entry(s.name).or_default();
            t.total_s += s.dur_ns() as f64 * 1e-9;
            t.self_s += s.dur_ns().saturating_sub(*child) as f64 * 1e-9;
            t.count += 1;
        }
        out
    }

    /// Share of the root spans' time that their children cover.
    pub fn coverage(&self) -> f64 {
        let mut root_ns = 0u64;
        let mut covered_ns = 0u64;
        for s in &self.spans {
            if s.parent == NO_PARENT {
                root_ns += s.dur_ns();
            } else if self.spans[s.parent as usize].parent == NO_PARENT {
                covered_ns += s.dur_ns();
            }
        }
        if root_ns == 0 {
            0.0
        } else {
            covered_ns as f64 / root_ns as f64
        }
    }

    /// Spans of the runs accepted by `keep`, one per line:
    /// `id,parent,run,name,start_ns,end_ns` (parent -1 for a root).
    pub fn to_csv(&self, keep: impl Fn(u32) -> bool) -> String {
        let mut out = String::from("id,parent,run,name,start_ns,end_ns\n");
        for (id, s) in self.spans.iter().enumerate() {
            if keep(s.run) {
                let parent = if s.parent == NO_PARENT {
                    -1
                } else {
                    s.parent as i64
                };
                let _ = writeln!(
                    out,
                    "{id},{parent},{},{},{},{}",
                    s.run, s.name, s.start_ns, s.end_ns
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn self_time_subtracts_children_and_coverage_counts_them() {
        let mut t = Tracer::new(true);
        let root = t.begin("bench.pass");
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_millis(4));
        let t1 = Instant::now();
        let mid = t0 + (t1 - t0) / 2;
        t.record("a", t0, mid);
        t.record("b", mid, t1);
        t.end(root);
        let times = t.layer_times(|_| true);
        assert_eq!(times["a"].count, 1);
        assert_eq!(times["a"].self_s, times["a"].total_s);
        let children = times["a"].total_s + times["b"].total_s;
        assert!((children - (t1 - t0).as_secs_f64()).abs() < 1e-8);
        let pass = times["bench.pass"];
        assert!((pass.total_s - pass.self_s - children).abs() < 1e-8);
        let cov = t.coverage();
        assert!(cov > 0.5 && cov <= 1.0, "{cov}");
        assert_eq!(t.to_csv(|_| true).lines().count(), 4);
        assert_eq!(t.spans()[1].parent, 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let root = t.begin("bench.pass");
        t.record("a", Instant::now(), Instant::now());
        t.end(root);
        assert!(t.spans().is_empty());
        assert_eq!(t.coverage(), 0.0);
    }
}
