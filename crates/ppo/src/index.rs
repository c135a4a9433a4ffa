//! The interval indexes the incremental PPO checker folds each batch into.
//!
//! The naive PPO checkers re-scan the whole event list for every sync, every
//! recovery read, and every CPU/NDP access pair, which is O(n²)–O(n³) in the
//! trace length — fig16-scale runs would spend more time *verifying* the
//! trace than producing it. [`FoldIndex`] keeps the facts the fold needs as
//! indexed queries, extended batch by batch:
//!
//! * **order violations** — which shared CPU accesses of a comparable kind
//!   overlap this NDP access *and* contradict its procedure's offload order?
//!   ([`FoldIndex::for_each_comparable_cpu_order_violation`])
//! * **earliest covering persist** — what is the earliest timestamp at which
//!   some persist by this agent overlapping this write completed?
//!   ([`FoldIndex::earliest_persist_by`]); over all writes / persists the
//!   same question answers "was this range written / persisted no later
//!   than the failure?" These need only a per-byte minimum, so they read an
//!   address [`MinMap`] sized by the touched footprint instead of an
//!   interval index with one item per event.
//! * **offload table** — the CPU program-order index of the offload event of
//!   each NDP procedure ([`FoldIndex::offload_po`]).
//!
//! [`IntervalIndex`] is static: it sorts items by interval start and layers
//! a merge-sort tree on top; [`IncrementalIntervalIndex`] makes it
//! appendable as a logarithmic stack of static levels.
//! Each node stores its max interval end for pruning, min/max bounds over
//! the items' `aux` payload, and a **compressed end-sorted run** — one entry
//! per distinct interval end carrying the suffix min/max of the associated
//! value over all items ending at or after it. Internal nodes merge their
//! children's compressed runs directly (no per-node re-sort, no per-item
//! fan-out up the tree), so a build touches each distinct end once per
//! level. Queries whose start condition is a prefix of the sorted order
//! decompose into O(log n) tree nodes; the end-condition is resolved per
//! node by one binary search into the compressed run, giving O(log² n)
//! worst-case for the max-value screen and O(log n + hits) for
//! enumeration. [`IntervalIndex::for_each_overlap_order_violation`] drives
//! the same decomposition with the order-violation predicate evaluated
//! against the per-node aggregates, so subtrees whose aux and value bounds
//! already satisfy the offload order are proven clean without visiting a
//! single item.

use std::collections::BTreeMap;

use crate::event::{Agent, EventKind, Interval, PpoEvent, ProcId, Sharing};
use crate::minmap::MinMap;

/// One indexed interval with an attached value (usually a timestamp), an
/// auxiliary payload, and the index of the originating event in the trace.
///
/// The `aux` word makes the index **self-contained** for the incremental
/// checker: the CPU-side indexes carry the access's program order, the
/// checker's NDP-side mirrors carry the procedure id — every fact a pair
/// evaluation needs travels with the item, so old events never have to be
/// re-fetched from the trace (which may have retired them under streaming
/// compaction).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Item {
    pub(crate) start: u64,
    pub(crate) end: u64,
    pub(crate) value: u64,
    pub(crate) aux: u64,
    pub(crate) id: u32,
}

impl Item {
    /// The interval this item covers.
    pub(crate) fn interval(&self) -> Interval {
        Interval::new(self.start, self.end - self.start)
    }
}

/// Static interval index over a subset of trace events.
///
/// Entries are sorted by interval start; a segment tree over the sorted array
/// stores, per node, the maximum interval end (for pruning) and the node's
/// entries re-sorted by end with suffix minima and maxima of `value` (for
/// the max-value screen and the order-violation walk). Every node's run
/// lives in one shared vector, so a build allocates a fixed number of
/// vectors however many nodes it makes.
#[derive(Debug, Clone, Default)]
pub(crate) struct IntervalIndex {
    items: Vec<Item>,
    /// Segment-tree nodes, children before their parent; the root is last.
    nodes: Vec<Node>,
    /// Every node's compressed end-sorted run, concatenated: entries sorted
    /// by interval end, each paired with the minimum and maximum `value` of
    /// the node's items ending at or after it.
    runs: Vec<(u64, u64, u64)>,
}

/// One segment-tree node of an [`IntervalIndex`].
#[derive(Debug, Clone, Copy)]
struct Node {
    /// The node covers `items[lo..hi]`.
    lo: usize,
    hi: usize,
    /// Its compressed run is `runs[run_start..run_end]`.
    run_start: usize,
    run_end: usize,
    /// Largest interval end among its items.
    max_end: u64,
    /// The minimum and maximum `aux` payload of its items. For the CPU-side
    /// shared indexes `aux` is the access's program order, so these bounds
    /// let a walk decide "every item here precedes / follows this offload"
    /// without touching the items.
    min_aux: u64,
    max_aux: u64,
    /// Left and right child; `None` for a leaf.
    children: Option<(usize, usize)>,
}

/// Below this size a node is a leaf and queries scan it directly.
const LEAF_SIZE: usize = 16;

impl IntervalIndex {
    /// Builds an index over items already sorted by `(start, id)` with
    /// zero-length intervals removed (they can never overlap anything) — the
    /// incremental index merges its levels' sorted item lists and must not
    /// pay a full re-sort per merge.
    fn build_presorted(items: Vec<Item>) -> Self {
        debug_assert!(items
            .windows(2)
            .all(|w| (w[0].start, w[0].id) <= (w[1].start, w[1].id)));
        let n = items.len();
        let mut idx = IntervalIndex {
            items,
            // Leaves hold 9 to 16 items, and a binary tree has fewer than
            // twice as many nodes as leaves; the leaves' runs alone hold up
            // to one entry per item.
            nodes: Vec::with_capacity(2 * n.div_ceil(LEAF_SIZE / 2)),
            runs: Vec::with_capacity(n),
        };
        if n > 0 {
            idx.build_node(0, n);
        }
        idx
    }

    /// Builds the node over `items[lo..hi]` after its children and returns
    /// its position.
    ///
    /// The end-sorted runs are **compressed**: one entry per *distinct*
    /// interval end, holding the min/max `value` over all items of the node
    /// whose end is `>=` that entry's. A query for "items with end > qs"
    /// resolves to the first entry with end > qs, whose aggregates cover
    /// exactly the queried suffix — so compression changes nothing
    /// observable. It changes everything material: traces that hammer a
    /// small working set produce nodes whose thousands of items share a
    /// handful of interval ends, and the uncompressed runs' Θ(n · depth)
    /// footprint (gigabytes written per rebuild at 10M events) was the
    /// single largest checking cost. Runs are also built bottom-up — a
    /// parent merges its children's compressed runs with carried
    /// aggregates instead of re-sorting its whole range — so construction
    /// bandwidth is proportional to the compressed sizes, not the item
    /// count times depth.
    fn build_node(&mut self, lo: usize, hi: usize) -> usize {
        let (children, min_aux, max_aux, run_start) = if hi - lo > LEAF_SIZE {
            let mid = (lo + hi) / 2;
            let l = self.build_node(lo, mid);
            let r = self.build_node(mid, hi);
            let (ln, rn) = (self.nodes[l], self.nodes[r]);
            let run_start = self.runs.len();
            merge_compressed_runs(
                &mut self.runs,
                (ln.run_start, ln.run_end),
                (rn.run_start, rn.run_end),
            );
            let (min_aux, max_aux) = (ln.min_aux.min(rn.min_aux), ln.max_aux.max(rn.max_aux));
            (Some((l, r)), min_aux, max_aux, run_start)
        } else {
            let items = &self.items[lo..hi];
            let min_aux = items.iter().map(|it| it.aux).min().unwrap_or(u64::MAX);
            let max_aux = items.iter().map(|it| it.aux).max().unwrap_or(0);
            let run_start = self.runs.len();
            self.runs
                .extend(items.iter().map(|it| (it.end, it.value, it.value)));
            compress_leaf_run(&mut self.runs, run_start);
            (None, min_aux, max_aux, run_start)
        };
        let run_end = self.runs.len();
        self.nodes.push(Node {
            lo,
            hi,
            run_start,
            run_end,
            max_end: self.runs[run_end - 1].0,
            min_aux,
            max_aux,
            children,
        });
        self.nodes.len() - 1
    }

    /// The root node's position (`None` for an empty index).
    fn root(&self) -> Option<usize> {
        self.nodes.len().checked_sub(1)
    }

    /// A node's compressed end-sorted run.
    fn run(&self, node: &Node) -> &[(u64, u64, u64)] {
        &self.runs[node.run_start..node.run_end]
    }

    /// Number of indexed intervals.
    fn len(&self) -> usize {
        self.items.len()
    }

    /// Minimum and maximum `value` over every item, read off the root's
    /// end-sorted run (its first entry aggregates the whole node); `None`
    /// for an empty index.
    fn value_bounds(&self) -> Option<(u64, u64)> {
        self.root().map(|root| {
            let (_, min, max) = self.run(&self.nodes[root])[0];
            (min, max)
        })
    }

    /// Minimum `aux` over every item, read off the root; `None` for an
    /// empty index.
    fn min_aux(&self) -> Option<u64> {
        self.root().map(|root| self.nodes[root].min_aux)
    }

    /// Consumes the index, returning its (start-sorted) items. Used by the
    /// incremental index when collapsing levels.
    fn take_items(self) -> Vec<Item> {
        self.items
    }

    /// First position whose start is `>= bound` (the start condition
    /// `start < query.end` selects the prefix `[0, prefix_end)`).
    fn prefix_end(&self, bound: u64) -> usize {
        self.items.partition_point(|it| it.start < bound)
    }

    /// The root and the start-condition prefix of a query, or `None` when
    /// no item can overlap it.
    fn query_root(&self, query: Interval) -> Option<(usize, usize)> {
        if query.len == 0 {
            return None;
        }
        let root = self.root()?;
        let prefix = self.prefix_end(query.end());
        (prefix > 0).then_some((root, prefix))
    }

    /// Calls `f` with every indexed [`Item`] overlapping `query` — the full
    /// item (interval, value, and aux payload) streams out, so the
    /// incremental checker can evaluate pairs without re-fetching events
    /// from the trace. Items come in interval-start-sorted order, *not*
    /// trace order.
    fn for_each_overlap_item<F: FnMut(&Item)>(&self, query: Interval, mut f: F) {
        if let Some((root, prefix)) = self.query_root(query) {
            self.walk_overlap(root, prefix, query.start, &mut f);
        }
    }

    fn walk_overlap<F: FnMut(&Item)>(&self, node: usize, prefix: usize, qs: u64, f: &mut F) {
        let n = &self.nodes[node];
        if n.lo >= prefix || n.max_end <= qs {
            return;
        }
        match n.children {
            Some((l, r)) => {
                self.walk_overlap(l, prefix, qs, f);
                self.walk_overlap(r, prefix, qs, f);
            }
            None => {
                for it in &self.items[n.lo..n.hi.min(prefix)] {
                    if it.end > qs {
                        f(it);
                    }
                }
            }
        }
    }

    /// Maximum `value` over all indexed intervals overlapping `query`,
    /// `0` if nothing overlaps. The zero identity is deliberate: callers use
    /// this as a "could any overlapping item be timestamped after `t`"
    /// screen (`max > t`), and an empty overlap set answers that exactly
    /// like an all-`0` one.
    fn max_value_overlapping(&self, query: Interval) -> u64 {
        self.query_root(query)
            .map_or(0, |(root, prefix)| self.walk_max(root, prefix, query.start))
    }

    fn walk_max(&self, node: usize, prefix: usize, qs: u64) -> u64 {
        let n = &self.nodes[node];
        if n.lo >= prefix || n.max_end <= qs {
            return 0;
        }
        if n.hi <= prefix {
            let ends = self.run(n);
            let pos = ends.partition_point(|&(end, _, _)| end <= qs);
            return ends.get(pos).map(|&(_, _, max)| max).unwrap_or(0);
        }
        match n.children {
            Some((l, r)) => self
                .walk_max(l, prefix, qs)
                .max(self.walk_max(r, prefix, qs)),
            None => self.items[n.lo..n.hi.min(prefix)]
                .iter()
                .filter(|it| it.end > qs)
                .map(|it| it.value)
                .max()
                .unwrap_or(0),
        }
    }

    /// Calls `f` with exactly the overlapping items whose `(aux, value)`
    /// violates the shared-ordering predicate against an NDP access of
    /// procedure offload order `off_po` and timestamp `ndp_ts`: items with
    /// `aux < off_po` (CPU access before the offload in program order)
    /// violate iff `value > ndp_ts`, items with `aux >= off_po` violate iff
    /// `value < ndp_ts`.
    ///
    /// The walk never enumerates a subtree it can prove clean: a node whose
    /// items all sit on one side of `off_po` (the per-node aux bounds) is
    /// resolved by one binary search against the end-sorted suffix-min/max
    /// runs, so on violation-free traces the cost is polylogarithmic where
    /// plain overlap enumeration is Θ(hits) — the difference between linear
    /// and quadratic total checking on traces that hammer a small working
    /// set.
    fn for_each_overlap_order_violation<F: FnMut(&Item)>(
        &self,
        query: Interval,
        off_po: u64,
        ndp_ts: u64,
        f: &mut F,
    ) {
        if let Some((root, prefix)) = self.query_root(query) {
            self.walk_violations(root, prefix, query.start, off_po, ndp_ts, f);
        }
    }

    fn walk_violations<F: FnMut(&Item)>(
        &self,
        node: usize,
        prefix: usize,
        qs: u64,
        off_po: u64,
        ndp_ts: u64,
        f: &mut F,
    ) {
        let n = &self.nodes[node];
        if n.lo >= prefix || n.max_end <= qs {
            return;
        }
        if n.hi <= prefix {
            // Whole node satisfies the start condition: if every item is on
            // one side of the offload, one suffix-aggregate lookup decides
            // whether any overlapping item can violate.
            if n.max_aux < off_po {
                let ends = self.run(n);
                let pos = ends.partition_point(|&(end, _, _)| end <= qs);
                if ends.get(pos).map(|&(_, _, max)| max).unwrap_or(0) <= ndp_ts {
                    return;
                }
            } else if n.min_aux >= off_po {
                let ends = self.run(n);
                let pos = ends.partition_point(|&(end, _, _)| end <= qs);
                if ends.get(pos).map(|&(_, min, _)| min).unwrap_or(u64::MAX) >= ndp_ts {
                    return;
                }
            }
        }
        match n.children {
            Some((l, r)) => {
                self.walk_violations(l, prefix, qs, off_po, ndp_ts, f);
                self.walk_violations(r, prefix, qs, off_po, ndp_ts, f);
            }
            None => {
                for it in &self.items[n.lo..n.hi.min(prefix)] {
                    let violates = if it.aux < off_po {
                        it.value > ndp_ts
                    } else {
                        it.value < ndp_ts
                    };
                    if it.end > qs && violates {
                        f(it);
                    }
                }
            }
        }
    }
}

/// Merges two `(start, id)`-sorted item lists into one (the level-collapse
/// path of [`IncrementalIntervalIndex::insert_batch`]).
fn merge_sorted_items(a: Vec<Item>, b: Vec<Item>) -> Vec<Item> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if (a[i].start, a[i].id) <= (b[j].start, b[j].id) {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Compresses the leaf run `runs[start..]`, one `(end, value, value)`
/// entry per item, in place: sorts it by end, then keeps one entry per
/// distinct end carrying the minimum and maximum value of every item ending
/// at or after it. Walking from the largest end down, each kept entry is
/// written at or after the position just read, so nothing unread is
/// overwritten.
fn compress_leaf_run(runs: &mut Vec<(u64, u64, u64)>, start: usize) {
    runs[start..].sort_unstable();
    let len = runs.len();
    let mut write = len;
    let (mut min, mut max) = (u64::MAX, 0u64);
    for read in (start..len).rev() {
        let (end, value, _) = runs[read];
        min = min.min(value);
        max = max.max(value);
        if write < len && runs[write].0 == end {
            runs[write] = (end, min, max);
        } else {
            write -= 1;
            runs[write] = (end, min, max);
        }
    }
    runs.copy_within(write..len, start);
    runs.truncate(start + (len - write));
}

/// Appends to `runs` the compressed run of the union of two compressed
/// end-sorted runs held in it, `l` and `r` (`(start, end)` positions; one
/// entry per distinct end, aggregates over the suffix `end >= entry.0` of
/// its own run). Walking both runs from the largest end down, the most
/// recently passed entry of each side is exactly that side's aggregate over
/// the suffix of the merged end — so one linear pass with two carried
/// aggregates produces the parent run.
fn merge_compressed_runs(runs: &mut Vec<(u64, u64, u64)>, l: (usize, usize), r: (usize, usize)) {
    let out = runs.len();
    let (mut i, mut j) = (l.1, r.1);
    let (mut lmin, mut lmax) = (u64::MAX, 0u64);
    let (mut rmin, mut rmax) = (u64::MAX, 0u64);
    while i > l.0 || j > r.0 {
        let left = (i > l.0).then(|| runs[i - 1]);
        let right = (j > r.0).then(|| runs[j - 1]);
        let e = match (left, right) {
            (Some(a), Some(b)) => a.0.max(b.0),
            (Some(a), None) => a.0,
            (None, Some(b)) => b.0,
            (None, None) => unreachable!(),
        };
        if let Some(a) = left.filter(|a| a.0 == e) {
            (lmin, lmax) = (a.1, a.2);
            i -= 1;
        }
        if let Some(b) = right.filter(|b| b.0 == e) {
            (rmin, rmax) = (b.1, b.2);
            j -= 1;
        }
        runs.push((e, lmin.min(rmin), lmax.max(rmax)));
    }
    runs[out..].reverse();
}

/// An interval index that supports batched appends: a logarithmic collection
/// of static [`IntervalIndex`] levels (the classic decomposable-search-
/// problem construction). Appending a batch collapses every level no larger
/// than the batch into it, so level sizes grow geometrically, insertion is
/// amortized O(log n) per item, and a query fans out over at most O(log n)
/// levels.
#[derive(Debug, Clone, Default)]
pub(crate) struct IncrementalIntervalIndex {
    levels: Vec<IntervalIndex>,
}

/// Geometric separation enforced between adjacent levels: a trailing level
/// is merged into an incoming batch unless it is more than `MERGE_RATIO`
/// times larger. Ratio-1 (the textbook construction) keeps sizes merely
/// strictly decreasing, which let long-lived sampling runs accumulate ~17
/// levels by 120k events — and the level count is a direct multiplier on
/// every query. Ratio-4 caps the stack at ⌈log₄ n⌉+1 levels (≤ 11 at 1M
/// items) while keeping insertion amortized: each merge grows an item's
/// level by ≥ 1 + 1/MERGE_RATIO, so an item is rebuilt O(log n) times.
const MERGE_RATIO: usize = 4;

impl IncrementalIntervalIndex {
    /// Appends a batch of items, collapsing levels into it under the
    /// logarithmic-merge discipline: every trailing level no larger than
    /// `MERGE_RATIO` times the accumulated batch is absorbed, so the
    /// remaining levels stay geometrically separated and the level count is
    /// bounded by log base `MERGE_RATIO` of the total size.
    pub(crate) fn insert_batch(&mut self, mut items: Vec<Item>) {
        items.retain(|it| it.end > it.start);
        if items.is_empty() {
            return;
        }
        // Sort the incoming batch once; absorbed levels are already sorted,
        // so each collapse is a linear merge rather than a re-sort of the
        // combined level.
        items.sort_unstable_by_key(|it| (it.start, it.id));
        while let Some(last) = self.levels.last() {
            if last.len() <= items.len().saturating_mul(MERGE_RATIO) {
                let level = self.levels.pop().expect("checked non-empty");
                items = merge_sorted_items(level.take_items(), items);
            } else {
                break;
            }
        }
        self.levels.push(IntervalIndex::build_presorted(items));
    }

    /// Drops every item whose `value` is at or below `floor`. A level whose
    /// items all are goes whole in O(1), a level with none stays as it is,
    /// and the rest are filtered and rebuilt — both bounds are read off the
    /// level's root. A filtered level can end up smaller than the level
    /// after it; the next batch absorbs such trailing levels as usual.
    pub(crate) fn retire_below(&mut self, floor: u64) {
        for level in std::mem::take(&mut self.levels) {
            let (min, max) = level.value_bounds().expect("levels are never empty");
            if max <= floor {
                continue;
            }
            if min > floor {
                self.levels.push(level);
                continue;
            }
            let mut items = level.take_items();
            items.retain(|it| it.value > floor);
            self.levels.push(IntervalIndex::build_presorted(items));
        }
    }

    /// Minimum `aux` over every item (`None` when empty), from the level
    /// roots in O(levels).
    pub(crate) fn min_aux(&self) -> Option<u64> {
        self.levels.iter().filter_map(IntervalIndex::min_aux).min()
    }

    /// Every item's `value`, level by level (tests read what retention
    /// kept).
    #[cfg(test)]
    pub(crate) fn values(&self) -> impl Iterator<Item = u64> + '_ {
        self.levels
            .iter()
            .flat_map(|l| l.items.iter().map(|it| it.value))
    }

    /// Calls `f` with the event id of every indexed interval overlapping
    /// `query`, fanning out over the levels (no cross-level order).
    pub(crate) fn for_each_overlap<F: FnMut(u32)>(&self, query: Interval, mut f: F) {
        self.for_each_overlap_item(query, |it| f(it.id));
    }

    /// Calls `f` with every indexed [`Item`] overlapping `query`, fanning
    /// out over the levels (no cross-level order).
    pub(crate) fn for_each_overlap_item<F: FnMut(&Item)>(&self, query: Interval, mut f: F) {
        for level in &self.levels {
            level.for_each_overlap_item(query, &mut f);
        }
    }

    /// Maximum value over all indexed intervals overlapping `query`, `0` if
    /// nothing overlaps (see [`IntervalIndex::max_value_overlapping`]).
    pub(crate) fn max_value_overlapping(&self, query: Interval) -> u64 {
        self.levels
            .iter()
            .map(|l| l.max_value_overlapping(query))
            .max()
            .unwrap_or(0)
    }

    /// Calls `f` with exactly the overlapping items violating the shared-
    /// ordering predicate, fanning the pruned walk out over the levels (see
    /// [`IntervalIndex::for_each_overlap_order_violation`]).
    fn for_each_overlap_order_violation<F: FnMut(&Item)>(
        &self,
        query: Interval,
        off_po: u64,
        ndp_ts: u64,
        mut f: F,
    ) {
        for level in &self.levels {
            level.for_each_overlap_order_violation(query, off_po, ndp_ts, &mut f);
        }
    }
}

/// The indexes [`crate::IncrementalChecker`] reads on behalf of every
/// invariant, over all events folded so far: the offload table, the first
/// failure, the shared CPU accesses per comparable kind, every NDP agent's
/// persists, and all writes / persists. The checker feeds it each batch it
/// folds and drops it wholesale on a trace reset.
///
/// The shared-CPU indexes hold one [`Item`] per access, valued by timestamp
/// with the CPU program order in `aux`: the order-violation walk needs the
/// pairs. The persist and write sets only ever answer "the earliest
/// timestamp overlapping this range", so each is a [`MinMap`] bounded by
/// the touched footprint. The before-failure existence queries read the
/// all-writes / all-persists maps (`min overlapping timestamp <= failure`),
/// which stays correct when the failure event arrives in a later batch than
/// the writes it bounds.
#[derive(Debug, Clone, Default)]
pub(crate) struct FoldIndex {
    /// The CPU program order of each procedure's first offload event. The
    /// checker's retention drops the procedures below the lowest live one
    /// ([`FoldIndex::retire_offloads_below`]).
    offload_po: BTreeMap<ProcId, u64>,
    cpu_shared_reads: IncrementalIntervalIndex,
    cpu_shared_writes: IncrementalIntervalIndex,
    cpu_shared_persists: IncrementalIntervalIndex,
    /// Per-agent persist min-maps, indexed by [`Agent::slot`].
    agent_persists: Vec<MinMap>,
    failure_ts: Option<u64>,
    all_writes: MinMap,
    all_persists: MinMap,
}

impl FoldIndex {
    /// Folds `batch` — consecutive trace events, the first with absolute id
    /// `first_id` — into every index. Ids stay absolute on a compacting
    /// trace (`Trace::retire_through`), so a batch is always the live
    /// suffix the checker has not consumed yet.
    pub(crate) fn extend(&mut self, batch: &[PpoEvent], first_id: usize) {
        let mut cpu_reads = Vec::new();
        let mut cpu_writes = Vec::new();
        let mut cpu_persists = Vec::new();

        for (off, e) in batch.iter().enumerate() {
            match e.kind {
                EventKind::Offload if e.agent == Agent::Cpu => {
                    if let Some(p) = e.proc {
                        self.offload_po.entry(p).or_insert(e.program_order);
                    }
                }
                EventKind::Failure if self.failure_ts.is_none() => {
                    self.failure_ts = Some(e.timestamp_ps);
                }
                EventKind::Read | EventKind::Write | EventKind::Persist => {
                    if e.agent == Agent::Cpu {
                        if e.sharing == Sharing::Shared {
                            let item = Item {
                                start: e.interval.start,
                                end: e.interval.end(),
                                value: e.timestamp_ps,
                                aux: e.program_order,
                                id: (first_id + off) as u32,
                            };
                            match e.kind {
                                EventKind::Read => cpu_reads.push(item),
                                EventKind::Write => cpu_writes.push(item),
                                EventKind::Persist => cpu_persists.push(item),
                                _ => unreachable!(),
                            }
                        }
                    } else if e.kind == EventKind::Persist {
                        e.agent
                            .entry_in(&mut self.agent_persists)
                            .insert(e.interval, e.timestamp_ps);
                    }
                    match e.kind {
                        EventKind::Write => self.all_writes.insert(e.interval, e.timestamp_ps),
                        EventKind::Persist => self.all_persists.insert(e.interval, e.timestamp_ps),
                        _ => {}
                    }
                }
                _ => {}
            }
        }

        self.cpu_shared_reads.insert_batch(cpu_reads);
        self.cpu_shared_writes.insert_batch(cpu_writes);
        self.cpu_shared_persists.insert_batch(cpu_persists);
    }

    /// Drops the shared CPU accesses stamped at or below `floor` (the
    /// checker's Invariant 1/2 retention rule decides the floor).
    pub(crate) fn retire_cpu_shared_below(&mut self, floor: u64) {
        self.cpu_shared_reads.retire_below(floor);
        self.cpu_shared_writes.retire_below(floor);
        self.cpu_shared_persists.retire_below(floor);
    }

    /// Drops the offload program order of every procedure below `floor`
    /// (the checker's retention rule decides the floor).
    pub(crate) fn retire_offloads_below(&mut self, floor: u64) {
        self.offload_po = self.offload_po.split_off(&ProcId(floor));
    }

    /// The offload table's lowest procedure and its entry count.
    #[cfg(test)]
    pub(crate) fn offload_window(&self) -> (Option<u64>, usize) {
        let first = self.offload_po.keys().next().map(|p| p.0);
        (first, self.offload_po.len())
    }

    /// Every shared CPU access's timestamp (tests read what retention
    /// kept).
    #[cfg(test)]
    pub(crate) fn cpu_shared_values(&self) -> impl Iterator<Item = u64> + '_ {
        self.cpu_shared_reads
            .values()
            .chain(self.cpu_shared_writes.values())
            .chain(self.cpu_shared_persists.values())
    }

    /// CPU program-order index of the offload event of `proc`, if folded.
    pub(crate) fn offload_po(&self, proc: ProcId) -> Option<u64> {
        self.offload_po.get(&proc).copied()
    }

    /// Timestamp of the first failure event, if any.
    pub(crate) fn failure_ts(&self) -> Option<u64> {
        self.failure_ts
    }

    /// Earliest timestamp at which some persist by `agent` overlapping
    /// `interval` completed (`None` if no such persist exists).
    pub(crate) fn earliest_persist_by(&self, agent: Agent, interval: Interval) -> Option<u64> {
        self.agent_persists
            .get(agent.slot())
            .and_then(|m| m.min_overlapping(interval))
    }

    /// True if any write with a timestamp no later than the failure overlaps
    /// `interval`.
    pub(crate) fn written_before_failure(&self, interval: Interval) -> bool {
        Self::before_failure(&self.all_writes, self.failure_ts, interval)
    }

    /// True if any persist with a timestamp no later than the failure
    /// overlaps `interval`.
    pub(crate) fn persisted_before_failure(&self, interval: Interval) -> bool {
        Self::before_failure(&self.all_persists, self.failure_ts, interval)
    }

    fn before_failure(map: &MinMap, failure: Option<u64>, q: Interval) -> bool {
        failure.is_some_and(|f| map.min_overlapping(q).is_some_and(|ts| ts <= f))
    }

    /// Streams the shared CPU accesses comparable to an NDP access of kind
    /// `ndp_kind` over `interval` (persist↔persist, write/read↔write/read)
    /// whose `(program order, timestamp)` violates the shared-ordering
    /// predicate against that access's offload order `off_po` and timestamp
    /// `ndp_ts`. Every fact a verdict needs travels with the [`Item`], so
    /// the checker never fetches the CPU event from the trace; on
    /// violation-free traces the walks prune to polylogarithmic cost instead
    /// of enumerating every comparable pair.
    pub(crate) fn for_each_comparable_cpu_order_violation<F: FnMut(&Item)>(
        &self,
        ndp_kind: EventKind,
        interval: Interval,
        off_po: u64,
        ndp_ts: u64,
        mut f: F,
    ) {
        match ndp_kind {
            EventKind::Persist => self
                .cpu_shared_persists
                .for_each_overlap_order_violation(interval, off_po, ndp_ts, &mut f),
            EventKind::Write => {
                self.cpu_shared_writes
                    .for_each_overlap_order_violation(interval, off_po, ndp_ts, &mut f);
                self.cpu_shared_reads
                    .for_each_overlap_order_violation(interval, off_po, ndp_ts, &mut f);
            }
            EventKind::Read => self
                .cpu_shared_writes
                .for_each_overlap_order_violation(interval, off_po, ndp_ts, &mut f),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Sharing, Trace};

    fn iv(start: u64, len: u64) -> Interval {
        Interval::new(start, len)
    }

    fn index_of(entries: &[(u64, u64, u64)]) -> IntervalIndex {
        let mut items: Vec<Item> = entries
            .iter()
            .enumerate()
            .map(|(i, &(start, len, value))| Item {
                start,
                end: start + len,
                value,
                aux: 0,
                id: i as u32,
            })
            .filter(|it| it.end > it.start)
            .collect();
        items.sort_unstable_by_key(|it| (it.start, it.id));
        IntervalIndex::build_presorted(items)
    }

    /// Naive max `value` over the entries overlapping `q` (`0` when nothing
    /// overlaps, matching `max_value_overlapping`).
    fn naive_max(entries: &[(u64, u64, u64)], q: Interval) -> u64 {
        entries
            .iter()
            .filter(|&&(s, l, _)| iv(s, l).overlaps(&q))
            .map(|&(_, _, v)| v)
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn overlap_enumeration_matches_naive_scan() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for _round in 0..50 {
            let n = rng.gen_range(0usize..60);
            let entries: Vec<(u64, u64, u64)> = (0..n)
                .map(|_| {
                    (
                        rng.gen_range(0u64..500),
                        rng.gen_range(0u64..64),
                        rng.gen_range(0u64..1000),
                    )
                })
                .collect();
            let idx = index_of(&entries);
            for _q in 0..20 {
                let q = iv(rng.gen_range(0u64..520), rng.gen_range(0u64..80));
                let mut got = Vec::new();
                idx.for_each_overlap_item(q, |it| got.push(it.id));
                got.sort_unstable();
                let want: Vec<u32> = entries
                    .iter()
                    .enumerate()
                    .filter(|(_, &(s, l, _))| iv(s, l).overlaps(&q))
                    .map(|(i, _)| i as u32)
                    .collect();
                assert_eq!(got, want, "query {q:?} over {entries:?}");
                assert_eq!(idx.max_value_overlapping(q), naive_max(&entries, q));
            }
        }
    }

    #[test]
    fn ids_come_out_in_trace_order() {
        let idx = index_of(&[(100, 10, 0), (0, 300, 0), (105, 2, 0), (400, 5, 0)]);
        let mut got = Vec::new();
        idx.for_each_overlap_item(iv(104, 4), |it| got.push(it.id));
        // The walk yields items in start-sorted order, not trace order, so
        // callers sort; here we check contents.
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn empty_and_zero_length_queries() {
        let idx = index_of(&[]);
        assert_eq!(idx.max_value_overlapping(iv(0, 100)), 0);
        let idx = index_of(&[(10, 10, 5)]);
        assert_eq!(idx.max_value_overlapping(iv(0, 0)), 0);
        assert_eq!(idx.max_value_overlapping(iv(0, 11)), 5);
        assert_eq!(idx.max_value_overlapping(iv(15, 1)), 5);
        // Zero-length entries are dropped.
        let idx = index_of(&[(10, 0, 5)]);
        assert_eq!(idx.len(), 0);
        assert_eq!(idx.max_value_overlapping(iv(0, 100)), 0);
    }

    /// The logarithmic-merge discipline keeps the level count bounded by
    /// log base `MERGE_RATIO` even under the worst case for the old ratio-1
    /// rule: a long stream of tiny batches. Queries must stay exact.
    #[test]
    fn incremental_levels_stay_compact_under_small_batches() {
        let mut inc = IncrementalIntervalIndex::default();
        let mut naive: Vec<(u64, u64, u64)> = Vec::new();
        let n: usize = 2000;
        for i in 0..n as u64 {
            let (start, len, value) = (i * 7 % 509, 1 + i % 37, 1000 + i);
            inc.insert_batch(vec![Item {
                start,
                end: start + len,
                value,
                aux: 0,
                id: i as u32,
            }]);
            naive.push((start, len, value));
        }
        assert_eq!(inc.levels.iter().map(|l| l.len()).sum::<usize>(), n);
        // ⌈log₄ 2000⌉ + 1 = 7; the old discipline reached ~log₂ 2000 = 11.
        let bound = {
            let mut levels = 0usize;
            let mut size = 1usize;
            while size < n {
                size *= MERGE_RATIO;
                levels += 1;
            }
            levels + 1
        };
        assert!(
            inc.levels.len() <= bound,
            "{} levels exceeds the log₄ bound {bound}",
            inc.levels.len()
        );
        for q in 0..120u64 {
            let query = iv(q * 5 % 520, 1 + q % 50);
            let mut got = Vec::new();
            inc.for_each_overlap(query, |id| got.push(id));
            got.sort_unstable();
            let want: Vec<u32> = naive
                .iter()
                .enumerate()
                .filter(|(_, &(s, l, _))| iv(s, l).overlaps(&query))
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(got, want, "query {query:?}");
            assert_eq!(inc.max_value_overlapping(query), naive_max(&naive, query));
        }
    }

    /// An index retired below random floors between random batches answers
    /// every query — overlap enumeration, the max-value screen and the
    /// order-violation walk — like one rebuilt from the surviving items,
    /// and keeps inserting correctly afterwards.
    #[test]
    fn retired_index_answers_like_a_rebuild_of_the_survivors() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        let (mut whole_levels, mut filtered_levels) = (0usize, 0usize);
        for _round in 0..40 {
            let mut inc = IncrementalIntervalIndex::default();
            let mut survivors: Vec<Item> = Vec::new();
            let mut next_id = 0u32;
            for step in 0..30u64 {
                let batch: Vec<Item> = (0..rng.gen_range(0usize..40))
                    .map(|_| {
                        let start = rng.gen_range(0u64..400);
                        next_id += 1;
                        Item {
                            start,
                            end: start + rng.gen_range(0u64..48),
                            value: step * 50 + rng.gen_range(0u64..400),
                            aux: rng.gen_range(0u64..8),
                            id: next_id,
                        }
                    })
                    .collect();
                survivors.extend(batch.iter().filter(|it| it.end > it.start));
                inc.insert_batch(batch);
                if rng.gen_bool(0.5) {
                    let floor = step * 50 + rng.gen_range(0u64..600);
                    let levels = inc.levels.len();
                    let gone = inc
                        .levels
                        .iter()
                        .filter(|l| l.value_bounds().is_some_and(|(_, max)| max <= floor))
                        .count();
                    inc.retire_below(floor);
                    whole_levels += gone;
                    filtered_levels += levels - gone;
                    survivors.retain(|it| it.value > floor);
                }
                let mut rebuilt = IncrementalIntervalIndex::default();
                rebuilt.insert_batch(survivors.clone());
                let mut kept: Vec<u64> = inc.values().collect();
                kept.sort_unstable();
                let mut want: Vec<u64> = survivors.iter().map(|it| it.value).collect();
                want.sort_unstable();
                assert_eq!(kept, want);
                for _q in 0..10 {
                    let q = iv(rng.gen_range(0u64..450), rng.gen_range(0u64..60));
                    let ids = |idx: &IncrementalIntervalIndex| {
                        let mut got = Vec::new();
                        idx.for_each_overlap(q, |id| got.push(id));
                        got.sort_unstable();
                        got
                    };
                    assert_eq!(ids(&inc), ids(&rebuilt), "overlap {q:?}");
                    assert_eq!(
                        inc.max_value_overlapping(q),
                        rebuilt.max_value_overlapping(q),
                        "max {q:?}"
                    );
                    let (off_po, ndp_ts) = (rng.gen_range(0u64..8), rng.gen_range(0u64..2_000));
                    let violations = |idx: &IncrementalIntervalIndex| {
                        let mut got = Vec::new();
                        idx.for_each_overlap_order_violation(q, off_po, ndp_ts, |it| {
                            got.push(it.id)
                        });
                        got.sort_unstable();
                        got
                    };
                    assert_eq!(violations(&inc), violations(&rebuilt), "walk {q:?}");
                }
            }
        }
        // Both retirement paths ran: whole levels dropped and levels filtered.
        assert!(whole_levels > 20, "whole levels dropped: {whole_levels}");
        assert!(filtered_levels > 20, "levels filtered: {filtered_levels}");
    }

    /// The fold's index answers the offload, failure-window, and
    /// earliest-persist lookups — also when the failure arrives in a later
    /// batch than the writes and persists it bounds.
    #[test]
    fn trace_index_offload_and_failure_lookup() {
        let mut t = Trace::new(1);
        let p = t.new_proc();
        t.record(
            Agent::Cpu,
            EventKind::Offload,
            iv(0, 0),
            Sharing::Shared,
            Some(p),
            None,
            10,
        );
        t.record(
            Agent::Ndp(0),
            EventKind::Write,
            iv(0x100, 64),
            Sharing::NdpManaged,
            Some(p),
            None,
            20,
        );
        t.record(
            Agent::Ndp(0),
            EventKind::Persist,
            iv(0x100, 64),
            Sharing::NdpManaged,
            Some(p),
            None,
            30,
        );
        t.record(
            Agent::Cpu,
            EventKind::Failure,
            iv(0, 0),
            Sharing::Shared,
            None,
            None,
            40,
        );
        let mut idx = FoldIndex::default();
        idx.extend(&t.events()[..3], 0);
        assert_eq!(idx.failure_ts(), None);
        assert!(!idx.written_before_failure(iv(0x100, 1)));
        idx.extend(&t.events()[3..], 3);
        assert_eq!(idx.offload_po(p), Some(0));
        assert_eq!(idx.failure_ts(), Some(40));
        assert_eq!(
            idx.earliest_persist_by(Agent::Ndp(0), iv(0x100, 8)),
            Some(30)
        );
        assert_eq!(idx.earliest_persist_by(Agent::Ndp(1), iv(0x100, 8)), None);
        assert!(idx.written_before_failure(iv(0x100, 1)));
        assert!(idx.persisted_before_failure(iv(0x13f, 1)));
        assert!(!idx.written_before_failure(iv(0x140, 1)));
    }
}
