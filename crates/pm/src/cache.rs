//! CPU write-back cache model.
//!
//! Crash consistency on PM hinges on the distinction between a *store*
//! (visible to later loads, but volatile) and a *persist* (written back to
//! the PM media and therefore durable). [`CpuCache`] models exactly that
//! distinction and nothing more: stores land in volatile dirty lines;
//! `clwb`/`flush` writes lines back to the [`PmSpace`]; a crash discards
//! whatever was still dirty.
//!
//! The model is deliberately not a performance model (timing lives in
//! `nearpm-sim`); it is the functional source of truth for what survives a
//! failure.
//!
//! Dirty lines are grouped by 4 KiB page: one map entry per page holds a
//! 64-bit dirty mask and the page's bytes, so an access pays one map lookup
//! per page it touches rather than one per line. The map is ordered by page
//! number, so a full drain walks it in address order. The media traffic is
//! still per line: every line fill, clean-line load and write-back is its
//! own [`PmSpace`] access, issued in ascending address order.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use crate::addr::PhysAddr;
use crate::space::PmSpace;

/// Cache-line size in bytes.
pub const LINE: u64 = 64;

/// Bytes per dirty-line group: 64 lines, one bit each in [`DirtyPage::mask`].
const PAGE: u64 = LINE * 64;

/// Statistics of CPU cache activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Stores performed (each may dirty several lines).
    pub stores: u64,
    /// Loads performed.
    pub loads: u64,
    /// Lines written back by explicit flushes.
    pub lines_flushed: u64,
    /// Dirty lines discarded by a simulated crash.
    pub lines_lost: u64,
}

/// The dirty lines of one page: bit `i` of `mask` marks line `i` dirty, and
/// only dirty lines' bytes are meaningful.
#[derive(Debug, Clone)]
struct DirtyPage {
    mask: u64,
    bytes: Box<[u8; PAGE as usize]>,
}

/// A write-back, allocate-on-write CPU cache keyed by physical address.
#[derive(Debug, Clone, Default)]
pub struct CpuCache {
    /// Pages holding at least one dirty line, keyed by page number.
    pages: BTreeMap<u64, DirtyPage>,
    /// Page buffers of drained pages, reused before allocating new ones.
    spare: Vec<Box<[u8; PAGE as usize]>>,
    stats: CacheStats,
}

impl CpuCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        CpuCache::default()
    }

    /// Number of dirty (not yet persisted) lines.
    pub fn dirty_lines(&self) -> usize {
        self.pages
            .values()
            .map(|p| p.mask.count_ones() as usize)
            .sum()
    }

    /// Cache activity statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// True if the line containing `addr` is dirty.
    pub fn is_dirty(&self, addr: PhysAddr) -> bool {
        let a = addr.raw();
        self.pages
            .get(&(a / PAGE))
            .is_some_and(|p| p.mask & line_bit(a) != 0)
    }

    /// CPU store: writes `data` at `addr`, dirtying the covered lines.
    /// The data is *not* persistent until the lines are flushed.
    pub fn store(&mut self, space: &mut PmSpace, addr: PhysAddr, data: &[u8]) {
        self.stats.stores += 1;
        let mut a = addr.raw();
        let end = a + data.len() as u64;
        let mut src = data;
        while a < end {
            let page_no = a / PAGE;
            let page_end = ((page_no + 1) * PAGE).min(end);
            let spare = &mut self.spare;
            let page = self.pages.entry(page_no).or_insert_with(|| DirtyPage {
                mask: 0,
                bytes: spare.pop().unwrap_or_else(|| Box::new([0; PAGE as usize])),
            });
            while a < page_end {
                let line = line_of(a);
                let off = (line % PAGE) as usize;
                if page.mask & line_bit(a) == 0 {
                    // Allocate-on-write: fill the line from the persistent
                    // image so that untouched bytes of the line stay correct.
                    space.read(PhysAddr(line), &mut page.bytes[off..off + LINE as usize]);
                    page.mask |= line_bit(a);
                }
                let take = ((line + LINE).min(page_end) - a) as usize;
                let at = (a % PAGE) as usize;
                page.bytes[at..at + take].copy_from_slice(&src[..take]);
                src = &src[take..];
                a += take as u64;
            }
        }
    }

    /// CPU load: reads `buf.len()` bytes at `addr`, observing dirty lines
    /// first and falling back to the persistent image.
    pub fn load(&mut self, space: &mut PmSpace, addr: PhysAddr, buf: &mut [u8]) {
        self.stats.loads += 1;
        let mut a = addr.raw();
        let end = a + buf.len() as u64;
        let mut cursor = 0usize;
        while a < end {
            let page_no = a / PAGE;
            let page_end = ((page_no + 1) * PAGE).min(end);
            let page = self.pages.get(&page_no);
            while a < page_end {
                let take = ((line_of(a) + LINE).min(page_end) - a) as usize;
                let dst = &mut buf[cursor..cursor + take];
                match page {
                    Some(p) if p.mask & line_bit(a) != 0 => {
                        let at = (a % PAGE) as usize;
                        dst.copy_from_slice(&p.bytes[at..at + take]);
                    }
                    _ => space.read(PhysAddr(a), dst),
                }
                cursor += take;
                a += take as u64;
            }
        }
    }

    /// Convenience load into a fresh vector.
    pub fn load_vec(&mut self, space: &mut PmSpace, addr: PhysAddr, len: usize) -> Vec<u8> {
        let mut v = vec![0; len];
        self.load(space, addr, &mut v);
        v
    }

    /// Writes back (persists) every dirty line intersecting `addr..addr+len`.
    /// This models `clwb`/`clflushopt` over the range followed by the fence
    /// that the caller issues at the language level.
    pub fn flush(&mut self, space: &mut PmSpace, addr: PhysAddr, len: u64) {
        if len == 0 || self.pages.is_empty() {
            return;
        }
        let (first, last) = (addr.raw(), addr.raw() + len - 1);
        for page_no in first / PAGE..=last / PAGE {
            // Bits of the lines of this page that the range covers.
            let page_start = page_no * PAGE;
            let lo = line_index(first.max(page_start));
            let hi = line_index(last.min(page_start + PAGE - 1));
            let covered = (u64::MAX >> (63 - hi)) & (u64::MAX << lo);
            self.write_back(space, page_no, covered);
        }
    }

    /// Writes back every dirty line (e.g. an eADR-style full drain, used by
    /// tests that want a fully persisted image).
    pub fn flush_all(&mut self, space: &mut PmSpace) {
        while let Some(&page_no) = self.pages.keys().next() {
            self.write_back(space, page_no, u64::MAX);
        }
    }

    /// Writes back the dirty lines of page `page_no` selected by `lines`, in
    /// ascending address order, and drops the page once it is clean.
    fn write_back(&mut self, space: &mut PmSpace, page_no: u64, lines: u64) {
        let Entry::Occupied(mut entry) = self.pages.entry(page_no) else {
            return;
        };
        let page = entry.get_mut();
        let mut todo = page.mask & lines;
        page.mask &= !todo;
        while todo != 0 {
            let i = todo.trailing_zeros() as u64;
            todo &= todo - 1;
            let off = (i * LINE) as usize;
            space.write(
                PhysAddr(page_no * PAGE + i * LINE),
                &page.bytes[off..off + LINE as usize],
            );
            self.stats.lines_flushed += 1;
        }
        if page.mask == 0 {
            self.spare.push(entry.remove().bytes);
        }
    }

    /// Simulates a power failure: every dirty line is lost. The persistent
    /// image in `PmSpace` is untouched.
    pub fn crash(&mut self) {
        self.stats.lines_lost += self.dirty_lines() as u64;
        self.spare.extend(
            std::mem::take(&mut self.pages)
                .into_values()
                .map(|p| p.bytes),
        );
    }
}

fn line_of(addr: u64) -> u64 {
    addr & !(LINE - 1)
}

/// Index of the line containing `addr` within its page.
fn line_index(addr: u64) -> u32 {
    ((addr % PAGE) / LINE) as u32
}

/// The dirty-mask bit of the line containing `addr`.
fn line_bit(addr: u64) -> u64 {
    1 << line_index(addr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interleave::InterleaveConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup() -> (PmSpace, CpuCache) {
        (PmSpace::single(1 << 16), CpuCache::new())
    }

    /// The per-line cache the page-grouped one replaced: one map entry per
    /// dirty line. Kept as the reference the differential test below
    /// drives alongside [`CpuCache`].
    #[derive(Default)]
    struct LineCache {
        dirty: BTreeMap<u64, [u8; LINE as usize]>,
        stats: CacheStats,
    }

    impl LineCache {
        fn store(&mut self, space: &mut PmSpace, addr: PhysAddr, data: &[u8]) {
            self.stats.stores += 1;
            let mut cursor = 0usize;
            let mut a = addr.raw();
            let end = addr.raw() + data.len() as u64;
            while a < end {
                let line = line_of(a);
                let offset_in_line = (a - line) as usize;
                let take = ((LINE as usize - offset_in_line) as u64).min(end - a) as usize;
                let entry = self.dirty.entry(line).or_insert_with(|| {
                    let mut buf = [0u8; LINE as usize];
                    space.read(PhysAddr(line), &mut buf);
                    buf
                });
                entry[offset_in_line..offset_in_line + take]
                    .copy_from_slice(&data[cursor..cursor + take]);
                cursor += take;
                a += take as u64;
            }
        }

        fn load(&mut self, space: &mut PmSpace, addr: PhysAddr, buf: &mut [u8]) {
            self.stats.loads += 1;
            let mut cursor = 0usize;
            let mut a = addr.raw();
            let end = addr.raw() + buf.len() as u64;
            while a < end {
                let line = line_of(a);
                let offset_in_line = (a - line) as usize;
                let take = ((LINE as usize - offset_in_line) as u64).min(end - a) as usize;
                if let Some(entry) = self.dirty.get(&line) {
                    buf[cursor..cursor + take]
                        .copy_from_slice(&entry[offset_in_line..offset_in_line + take]);
                } else {
                    space.read(PhysAddr(a), &mut buf[cursor..cursor + take]);
                }
                cursor += take;
                a += take as u64;
            }
        }

        fn flush(&mut self, space: &mut PmSpace, addr: PhysAddr, len: u64) {
            if len == 0 {
                return;
            }
            let mut line = line_of(addr.raw());
            while line <= line_of(addr.raw() + len - 1) {
                if let Some(data) = self.dirty.remove(&line) {
                    space.write(PhysAddr(line), &data);
                    self.stats.lines_flushed += 1;
                }
                line += LINE;
            }
        }

        fn flush_all(&mut self, space: &mut PmSpace) {
            let mut lines: Vec<u64> = self.dirty.keys().copied().collect();
            lines.sort_unstable();
            for line in lines {
                let data = self.dirty.remove(&line).unwrap();
                space.write(PhysAddr(line), &data);
                self.stats.lines_flushed += 1;
            }
        }

        fn crash(&mut self) {
            self.stats.lines_lost += self.dirty.len() as u64;
            self.dirty.clear();
        }
    }

    /// Random store/load/flush/flush_all/crash sequences over ranges that
    /// straddle lines, pages and interleave blocks leave the page-grouped
    /// cache and the per-line reference indistinguishable: the same loaded
    /// bytes, media images, traffic, cache statistics and dirty lines, and
    /// the same write log (so the same write-backs in the same order).
    #[test]
    fn page_grouped_cache_matches_the_per_line_reference() {
        const CAPACITY: u64 = 48 << 10;
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let devices = 1 + seed as usize % 3;
            let granularity = [256, 4096, 8192][(seed / 3) as usize % 3];
            let il = InterleaveConfig::new(devices, granularity);
            let (mut space, mut ref_space) =
                (PmSpace::new(CAPACITY, il), PmSpace::new(CAPACITY, il));
            space.enable_write_log();
            ref_space.enable_write_log();
            let (mut cache, mut reference) = (CpuCache::new(), LineCache::default());
            for step in 0..400 {
                let len = match rng.gen_range(0..4u32) {
                    0 => rng.gen_range(0..=8u64),
                    1 => rng.gen_range(1..=200u64),
                    _ => rng.gen_range(1..=9000u64),
                };
                let addr = PhysAddr(rng.gen_range(0..=CAPACITY - len));
                match rng.gen_range(0..20u32) {
                    0..=7 => {
                        let data: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
                        cache.store(&mut space, addr, &data);
                        reference.store(&mut ref_space, addr, &data);
                    }
                    8..=12 => {
                        let got = cache.load_vec(&mut space, addr, len as usize);
                        let mut want = vec![0; len as usize];
                        reference.load(&mut ref_space, addr, &mut want);
                        assert_eq!(got, want, "seed {seed} step {step}: load");
                    }
                    13..=17 => {
                        cache.flush(&mut space, addr, len);
                        reference.flush(&mut ref_space, addr, len);
                    }
                    18 => {
                        cache.flush_all(&mut space);
                        reference.flush_all(&mut ref_space);
                    }
                    _ => {
                        cache.crash();
                        reference.crash();
                    }
                }
                let ctx = format!("seed {seed} step {step}");
                assert_eq!(cache.stats(), reference.stats, "{ctx}");
                assert_eq!(cache.dirty_lines(), reference.dirty.len(), "{ctx}");
                assert_eq!(space.traffic(), ref_space.traffic(), "{ctx}");
                assert_eq!(space.write_log_len(), ref_space.write_log_len(), "{ctx}");
                let probe = PhysAddr(rng.gen_range(0..CAPACITY));
                assert_eq!(
                    cache.is_dirty(probe),
                    reference.dirty.contains_key(&line_of(probe.raw())),
                    "{ctx}"
                );
                if step % 25 == 0 {
                    for d in 0..devices {
                        assert_eq!(space.device_image(d), ref_space.device_image(d), "{ctx}");
                    }
                }
            }
            for d in 0..devices {
                assert_eq!(
                    space.device_image(d),
                    ref_space.device_image(d),
                    "seed {seed}"
                );
            }
            assert!(
                space.replay_matches() && ref_space.replay_matches(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn store_is_visible_to_load_but_not_persistent() {
        let (mut space, mut cache) = setup();
        cache.store(&mut space, PhysAddr(0x100), &[1, 2, 3, 4]);
        assert_eq!(
            cache.load_vec(&mut space, PhysAddr(0x100), 4),
            vec![1, 2, 3, 4]
        );
        // Persistent image still zero.
        assert_eq!(space.read_vec(PhysAddr(0x100), 4), vec![0, 0, 0, 0]);
        assert!(cache.is_dirty(PhysAddr(0x100)));
    }

    #[test]
    fn flush_persists_dirty_lines() {
        let (mut space, mut cache) = setup();
        cache.store(&mut space, PhysAddr(0x100), &[1, 2, 3, 4]);
        cache.flush(&mut space, PhysAddr(0x100), 4);
        assert_eq!(space.read_vec(PhysAddr(0x100), 4), vec![1, 2, 3, 4]);
        assert!(!cache.is_dirty(PhysAddr(0x100)));
        assert_eq!(cache.stats().lines_flushed, 1);
    }

    #[test]
    fn crash_discards_unflushed_stores() {
        let (mut space, mut cache) = setup();
        cache.store(&mut space, PhysAddr(0x40), &[7; 8]);
        cache.store(&mut space, PhysAddr(0x200), &[8; 8]);
        cache.flush(&mut space, PhysAddr(0x40), 8);
        cache.crash();
        // Flushed data survives, unflushed is gone.
        assert_eq!(space.read_vec(PhysAddr(0x40), 8), vec![7; 8]);
        assert_eq!(space.read_vec(PhysAddr(0x200), 8), vec![0; 8]);
        assert_eq!(cache.dirty_lines(), 0);
        assert_eq!(cache.stats().lines_lost, 1);
    }

    #[test]
    fn partial_line_store_preserves_other_bytes() {
        let (mut space, mut cache) = setup();
        // Pre-populate persistent bytes in the same line.
        space.write(PhysAddr(0x100), &[9; 64]);
        cache.store(&mut space, PhysAddr(0x110), &[1, 1]);
        cache.flush(&mut space, PhysAddr(0x110), 2);
        let line = space.read_vec(PhysAddr(0x100), 64);
        assert_eq!(line[0x10], 1);
        assert_eq!(line[0x11], 1);
        assert_eq!(line[0x0f], 9);
        assert_eq!(line[0x12], 9);
    }

    #[test]
    fn store_spanning_lines() {
        let (mut space, mut cache) = setup();
        let data: Vec<u8> = (0..200u8).collect();
        cache.store(&mut space, PhysAddr(0x3f0), &data);
        assert_eq!(cache.load_vec(&mut space, PhysAddr(0x3f0), 200), data);
        assert!(cache.dirty_lines() >= 4);
        cache.flush(&mut space, PhysAddr(0x3f0), 200);
        assert_eq!(space.read_vec(PhysAddr(0x3f0), 200), data);
        assert_eq!(cache.dirty_lines(), 0);
    }

    #[test]
    fn flush_range_only_affects_covered_lines() {
        let (mut space, mut cache) = setup();
        cache.store(&mut space, PhysAddr(0x000), &[1; 8]);
        cache.store(&mut space, PhysAddr(0x400), &[2; 8]);
        cache.flush(&mut space, PhysAddr(0x000), 8);
        assert_eq!(space.read_vec(PhysAddr(0x000), 8), vec![1; 8]);
        assert_eq!(space.read_vec(PhysAddr(0x400), 8), vec![0; 8]);
        assert!(cache.is_dirty(PhysAddr(0x400)));
    }

    #[test]
    fn flush_all_drains_everything() {
        let (mut space, mut cache) = setup();
        for i in 0..10u64 {
            cache.store(&mut space, PhysAddr(i * 128), &[i as u8; 16]);
        }
        cache.flush_all(&mut space);
        assert_eq!(cache.dirty_lines(), 0);
        for i in 0..10u64 {
            assert_eq!(space.read_vec(PhysAddr(i * 128), 16), vec![i as u8; 16]);
        }
    }

    #[test]
    fn load_mixes_dirty_and_clean_lines() {
        let (mut space, mut cache) = setup();
        space.write(PhysAddr(0x140), &[5; 64]);
        cache.store(&mut space, PhysAddr(0x100), &[6; 64]);
        let v = cache.load_vec(&mut space, PhysAddr(0x100), 128);
        assert_eq!(&v[..64], &[6; 64]);
        assert_eq!(&v[64..], &[5; 64]);
    }

    #[test]
    fn zero_length_flush_is_noop() {
        let (mut space, mut cache) = setup();
        cache.store(&mut space, PhysAddr(0x100), &[1]);
        cache.flush(&mut space, PhysAddr(0x100), 0);
        assert!(cache.is_dirty(PhysAddr(0x100)));
    }
}
