//! In-flight memory access table.
//!
//! The dispatcher records the physical ranges currently being read or written
//! by NearPM units. Incoming requests (from the host or from the request
//! FIFO) whose operands conflict with an in-flight range must stall until the
//! conflicting access completes — this is how the hardware enforces PPO
//! Invariant 1 between the CPU and NDP procedures and between NDP procedures
//! of the same device.
//!
//! The table is consulted on *every* host PM access and every dispatched
//! request, so lookups must not scan all live entries. Entries are stored in
//! a slab and indexed two ways: by the 4 kB-aligned pages their interval
//! touches (conflict lookups walk only the buckets of the queried pages) and
//! by owning request (release at commit removes the request's entries
//! without a scan). A bucket that empties goes back to a spare list and is
//! reused for the next page or request, so steady-state traffic allocates
//! nothing.

use nearpm_pm::PhysAddr;
use nearpm_sim::{FxHashMap, TaskId};

use crate::request::RequestId;

/// Granularity of the conflict-lookup buckets.
const PAGE_SHIFT: u32 = 12;

fn pages_of(start: u64, len: u64) -> std::ops::RangeInclusive<u64> {
    debug_assert!(len > 0);
    (start >> PAGE_SHIFT)..=((start + len - 1) >> PAGE_SHIFT)
}

/// One in-flight access record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InFlightEntry {
    /// Request that owns the access.
    pub request: RequestId,
    /// Physical start address.
    pub start: PhysAddr,
    /// Length in bytes.
    pub len: u64,
    /// True if the access writes the range (write-write and read-write are
    /// conflicts; read-read is not).
    pub is_write: bool,
    /// The scheduler task whose completion releases this entry. Conflicting
    /// work must add this task to its dependency list.
    pub completes_at: TaskId,
}

impl InFlightEntry {
    fn overlaps(&self, start: PhysAddr, len: u64) -> bool {
        len > 0
            && self.len > 0
            && start.raw() < self.start.raw() + self.len
            && self.start.raw() < start.raw() + len
    }
}

/// The in-flight access table of one NearPM device.
#[derive(Debug, Clone, Default)]
pub struct InFlightTable {
    /// Slab of entries; freed slots are recycled.
    slots: Vec<Option<InFlightEntry>>,
    free: Vec<usize>,
    /// Page number → slots whose interval touches that page.
    pages: FxHashMap<u64, Vec<usize>>,
    /// Owning request → its slots (release path).
    by_request: FxHashMap<RequestId, Vec<usize>>,
    /// Emptied buckets of either map, cleared, kept for reuse.
    spare: Vec<Vec<usize>>,
    live: usize,
}

impl InFlightTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        InFlightTable::default()
    }

    /// Number of tracked accesses.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Registers an in-flight access.
    pub fn insert(&mut self, entry: InFlightEntry) {
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s] = Some(entry);
                s
            }
            None => {
                self.slots.push(Some(entry));
                self.slots.len() - 1
            }
        };
        let spare = &mut self.spare;
        if entry.len > 0 {
            for page in pages_of(entry.start.raw(), entry.len) {
                self.pages
                    .entry(page)
                    .or_insert_with(|| spare.pop().unwrap_or_default())
                    .push(slot);
            }
        }
        self.by_request
            .entry(entry.request)
            .or_insert_with(|| spare.pop().unwrap_or_default())
            .push(slot);
        self.live += 1;
    }

    /// Removes every access belonging to `request` (called when the request's
    /// execution completes).
    pub fn complete_request(&mut self, request: RequestId) {
        let Some(mut slots) = self.by_request.remove(&request) else {
            return;
        };
        for &slot in &slots {
            let Some(entry) = self.slots[slot].take() else {
                continue;
            };
            if entry.len > 0 {
                for page in pages_of(entry.start.raw(), entry.len) {
                    if let Some(bucket) = self.pages.get_mut(&page) {
                        if let Some(pos) = bucket.iter().position(|&s| s == slot) {
                            bucket.swap_remove(pos);
                        }
                        if bucket.is_empty() {
                            let bucket = self.pages.remove(&page).expect("bucket is present");
                            self.spare.push(bucket);
                        }
                    }
                }
            }
            self.free.push(slot);
            self.live -= 1;
        }
        slots.clear();
        self.spare.push(slots);
    }

    /// Appends to `deps` the completion task of every in-flight access that
    /// conflicts with the given access. Nothing appended means the access
    /// may proceed immediately; otherwise the caller must make its work
    /// depend on the appended tasks (stall until the conflicting accesses
    /// complete). A task may be appended more than once (an entry spanning
    /// several queried pages, or several entries of one request), so the
    /// caller sorts and deduplicates the whole list once.
    ///
    /// Only the buckets of the pages the query touches are inspected, so the
    /// cost scales with the locality of the access, not with the number of
    /// live entries.
    pub fn conflicts(&self, start: PhysAddr, len: u64, is_write: bool, deps: &mut Vec<TaskId>) {
        if len > 0 && !self.pages.is_empty() {
            for page in pages_of(start.raw(), len) {
                let Some(bucket) = self.pages.get(&page) else {
                    continue;
                };
                for &slot in bucket {
                    let Some(e) = &self.slots[slot] else {
                        continue;
                    };
                    if (is_write || e.is_write) && e.overlaps(start, len) {
                        deps.push(e.completes_at);
                    }
                }
            }
        }
    }

    /// The oldest completion task any tracked access names (a later
    /// conflicting access may wait for it).
    pub(crate) fn oldest_task(&self) -> Option<TaskId> {
        self.slots.iter().flatten().map(|e| e.completes_at).min()
    }

    /// Drops every tracked access. The in-flight table is volatile device
    /// state: on a power failure nothing in it survives, so a crash clears it
    /// wholesale rather than releasing request by request.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.pages.clear();
        self.by_request.clear();
        self.spare.clear();
        self.live = 0;
    }

    /// Snapshot of the in-flight entries (persistence-domain image).
    pub fn snapshot(&self) -> Vec<InFlightEntry> {
        self.slots.iter().flatten().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(req: u64, start: u64, len: u64, is_write: bool, task: usize) -> InFlightEntry {
        // TaskId construction goes through a tiny graph because its inner
        // index is crate-private to nearpm-sim.
        let mut g = nearpm_sim::TaskGraph::new();
        let mut id = None;
        for _ in 0..=task {
            id = Some(g.add(
                "t",
                nearpm_sim::Resource::Cpu(0),
                nearpm_sim::SimDuration::ZERO,
                nearpm_sim::Region::Application,
                &[],
            ));
        }
        InFlightEntry {
            request: RequestId(req),
            start: PhysAddr(start),
            len,
            is_write,
            completes_at: id.unwrap(),
        }
    }

    /// The conflict query's answer, sorted and deduplicated as every caller
    /// uses it.
    fn deps(t: &InFlightTable, start: u64, len: u64, is_write: bool) -> Vec<TaskId> {
        let mut out = Vec::new();
        t.conflicts(PhysAddr(start), len, is_write, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn write_write_and_read_write_conflict() {
        let mut t = InFlightTable::new();
        t.insert(entry(1, 0x1000, 64, true, 0));
        // Overlapping write conflicts.
        assert_eq!(deps(&t, 0x1020, 64, true).len(), 1);
        // Overlapping read against a write conflicts.
        assert_eq!(deps(&t, 0x1020, 64, false).len(), 1);
        // Disjoint access does not.
        assert!(deps(&t, 0x2000, 64, true).is_empty());
    }

    #[test]
    fn read_read_does_not_conflict() {
        let mut t = InFlightTable::new();
        t.insert(entry(1, 0x1000, 64, false, 0));
        assert!(deps(&t, 0x1000, 64, false).is_empty());
        // But a write against an in-flight read does conflict.
        assert_eq!(deps(&t, 0x1000, 64, true).len(), 1);
    }

    #[test]
    fn completion_releases_entries() {
        let mut t = InFlightTable::new();
        t.insert(entry(1, 0x1000, 64, true, 0));
        t.insert(entry(1, 0x8000, 64, true, 1));
        t.insert(entry(2, 0x1000, 64, false, 2));
        assert_eq!(t.len(), 3);
        t.complete_request(RequestId(1));
        assert_eq!(t.len(), 1);
        assert!(deps(&t, 0x1000, 8, false).is_empty());
        assert_eq!(deps(&t, 0x1000, 8, true).len(), 1);
    }

    #[test]
    fn duplicate_dependencies_are_deduplicated() {
        let mut t = InFlightTable::new();
        t.insert(entry(1, 0x1000, 64, true, 0));
        t.insert(entry(2, 0x1040, 64, true, 0));
        assert_eq!(deps(&t, 0x1000, 256, true).len(), 1);
    }

    #[test]
    fn snapshot_and_footprint() {
        let mut t = InFlightTable::new();
        t.insert(entry(1, 0, 64, true, 0));
        assert_eq!(t.snapshot().len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn page_spanning_entry_found_from_every_page_and_counted_once() {
        let mut t = InFlightTable::new();
        // Entry spanning three 4 kB pages.
        t.insert(entry(1, 0x1F00, 0x2200, true, 0));
        assert_eq!(deps(&t, 0x1F80, 8, true).len(), 1);
        assert_eq!(deps(&t, 0x3000, 8, true).len(), 1);
        assert_eq!(deps(&t, 0x4000, 8, true).len(), 1);
        // A query spanning all three pages reports the entry once.
        assert_eq!(deps(&t, 0x1000, 0x4000, true).len(), 1);
        // Same page, disjoint bytes: bucket hit but no overlap.
        assert!(deps(&t, 0x1000, 64, true).is_empty());
    }

    #[test]
    fn slots_are_recycled_after_release() {
        let mut t = InFlightTable::new();
        for round in 0..10 {
            for i in 0..8u64 {
                t.insert(entry(i, i * 0x1000, 64, true, i as usize));
            }
            assert_eq!(t.len(), 8);
            for i in 0..8u64 {
                t.complete_request(RequestId(i));
            }
            assert_eq!(t.len(), 0, "round {round}");
            assert!(deps(&t, 0, 0x10000, true).is_empty());
            // Every page and request bucket went back to the spare list.
            assert!(t.pages.is_empty() && t.by_request.is_empty());
            assert_eq!(t.spare.len(), 16, "round {round}");
        }
        // The slab did not grow beyond one generation of entries.
        assert!(t.slots.len() <= 8);
    }

    #[test]
    fn zero_length_queries_and_entries_never_conflict() {
        let mut t = InFlightTable::new();
        t.insert(entry(1, 0x1000, 0, true, 0));
        assert_eq!(t.len(), 1);
        assert!(deps(&t, 0x1000, 64, true).is_empty());
        assert!(deps(&t, 0x1000, 0, true).is_empty());
        t.complete_request(RequestId(1));
        assert_eq!(t.len(), 0);
    }
}
