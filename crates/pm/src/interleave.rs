//! Address interleaving across multiple PM devices.
//!
//! When more than one NearPM device is present, consecutive physical-address
//! blocks alternate between devices (like interleaved DIMMs). A persistent
//! object can therefore span devices, which is precisely the situation that
//! motivates the multi-device half of PPO: two devices can be at different
//! stages of the same logical crash-consistency operation when a failure
//! hits.
//!
//! The prototype interleaves at a contiguous-block granularity ("NearPM can
//! only support interleaving which will result in a contiguous block in a
//! given device; scatter-gather operations are not supported"), so the
//! default granularity is 4 kB.

use crate::addr::PhysAddr;

/// Default interleaving granularity (bytes).
pub const DEFAULT_INTERLEAVE: u64 = 4096;

/// Static interleaving configuration.
///
/// The fields are private so that [`InterleaveConfig::new`]'s checks always
/// hold: the address arithmetic shifts and masks by the granularity, which
/// is only correct for a power of two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterleaveConfig {
    /// Number of PM devices.
    devices: usize,
    /// Interleave granularity in bytes (power of two).
    granularity: u64,
    /// `log2(granularity)`.
    shift: u32,
}

/// A physical address range mapped onto one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeviceSpan {
    /// Device index.
    pub device: usize,
    /// Byte offset within that device's local medium.
    pub local_offset: u64,
    /// Length in bytes of this contiguous span.
    pub len: u64,
    /// Physical address where the span starts (global address space).
    pub phys: PhysAddr,
}

/// A small vector that keeps up to `N` elements inline and only allocates
/// when a range genuinely crosses more devices.
///
/// [`InterleaveConfig::split`] and [`InterleaveConfig::devices_of`] sit on
/// the simulator's hottest paths (every cache-line write-back and DMA copy
/// splits a range); the overwhelmingly common case is one or two spans, so
/// returning a `Vec` made every media access pay a heap allocation. Derefs
/// to a slice, so callers index, iterate, and compare as before.
#[derive(Debug, Clone)]
pub struct InlineVec<T, const N: usize> {
    inline: [T; N],
    len: usize,
    spill: Vec<T>,
}

/// Inline-capacity span list returned by [`InterleaveConfig::split`].
pub type SpanVec = InlineVec<DeviceSpan, 2>;
/// Inline-capacity device list returned by [`InterleaveConfig::devices_of`].
pub type DeviceList = InlineVec<usize, 2>;

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// Creates an empty list.
    pub fn new() -> Self {
        InlineVec {
            inline: [T::default(); N],
            len: 0,
            spill: Vec::new(),
        }
    }

    /// Appends an element, spilling to the heap past `N` elements.
    pub fn push(&mut self, value: T) {
        if !self.spill.is_empty() {
            self.spill.push(value);
        } else if self.len < N {
            self.inline[self.len] = value;
            self.len += 1;
        } else {
            self.spill.reserve(N + 1);
            self.spill.extend_from_slice(&self.inline[..self.len]);
            self.spill.push(value);
            self.len = 0;
        }
    }

    /// View of the elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    fn as_mut_slice(&mut self) -> &mut [T] {
        if self.spill.is_empty() {
            &mut self.inline[..self.len]
        } else {
            &mut self.spill
        }
    }

    /// Copies the elements into a plain `Vec`.
    pub fn to_vec(&self) -> Vec<T> {
        self.as_slice().to_vec()
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec::new()
    }
}

impl<T: Copy + Default, const N: usize> std::ops::Deref for InlineVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default, const N: usize> std::ops::DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq<Vec<T>> for InlineVec<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize, const M: usize> PartialEq<[T; M]>
    for InlineVec<T, N>
{
    fn eq(&self, other: &[T; M]) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// Consuming iterator over an [`InlineVec`].
pub struct InlineVecIter<T, const N: usize> {
    vec: InlineVec<T, N>,
    pos: usize,
}

impl<T: Copy + Default, const N: usize> Iterator for InlineVecIter<T, N> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        let slice = self.vec.as_slice();
        if self.pos < slice.len() {
            let v = slice[self.pos];
            self.pos += 1;
            Some(v)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.vec.as_slice().len() - self.pos;
        (rem, Some(rem))
    }
}

impl<T: Copy + Default, const N: usize> IntoIterator for InlineVec<T, N> {
    type Item = T;
    type IntoIter = InlineVecIter<T, N>;
    fn into_iter(self) -> Self::IntoIter {
        InlineVecIter { vec: self, pos: 0 }
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl InterleaveConfig {
    /// Creates a configuration; `granularity` must be a power of two and
    /// `devices` at least 1.
    pub fn new(devices: usize, granularity: u64) -> Self {
        assert!(devices >= 1, "at least one device required");
        assert!(
            granularity.is_power_of_two(),
            "interleave granularity must be a power of two"
        );
        InterleaveConfig {
            devices,
            granularity,
            shift: granularity.trailing_zeros(),
        }
    }

    /// Single-device configuration (no interleaving).
    pub fn single() -> Self {
        InterleaveConfig::new(1, DEFAULT_INTERLEAVE)
    }

    /// Number of PM devices.
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// Interleave granularity in bytes (a power of two).
    pub fn granularity(&self) -> u64 {
        self.granularity
    }

    /// The device that owns physical address `addr`.
    pub fn device_of(&self, addr: PhysAddr) -> usize {
        ((addr.raw() >> self.shift) % self.devices as u64) as usize
    }

    /// The local byte offset of `addr` within its owning device.
    pub fn local_offset(&self, addr: PhysAddr) -> u64 {
        let block = addr.raw() >> self.shift;
        let within = addr.raw() & (self.granularity - 1);
        ((block / self.devices as u64) << self.shift) | within
    }

    /// The `(device, local offset)` of a non-empty range that lies inside
    /// one interleave block, or `None` when the range is empty or crosses a
    /// block boundary (then [`InterleaveConfig::split`] maps it). This is
    /// the single-span fast path of every cache-line access.
    pub(crate) fn within_block(&self, start: PhysAddr, len: u64) -> Option<(usize, u64)> {
        let last = start.raw() + len.max(1) - 1;
        (len > 0 && start.raw() >> self.shift == last >> self.shift)
            .then(|| (self.device_of(start), self.local_offset(start)))
    }

    /// Capacity each device must provide so that a global physical space of
    /// `total` bytes is addressable.
    pub fn per_device_capacity(&self, total: u64) -> u64 {
        total.div_ceil(self.devices as u64 * self.granularity) * self.granularity
    }

    /// Splits a physical range into per-device contiguous spans, in address
    /// order. Adjacent blocks that land contiguously on the same device are
    /// merged as they are produced (always true for a single device), so the
    /// common one- or two-span result stays inline with no heap allocation.
    pub fn split(&self, start: PhysAddr, len: u64) -> SpanVec {
        let mut spans = SpanVec::new();
        let mut addr = start.raw();
        let end = start.raw() + len;
        while addr < end {
            let block_end = ((addr >> self.shift) + 1) << self.shift;
            let span_end = block_end.min(end);
            let phys = PhysAddr(addr);
            let s = DeviceSpan {
                device: self.device_of(phys),
                local_offset: self.local_offset(phys),
                len: span_end - addr,
                phys,
            };
            match spans.last_mut() {
                Some(prev)
                    if prev.device == s.device
                        && prev.local_offset + prev.len == s.local_offset =>
                {
                    prev.len += s.len;
                }
                _ => spans.push(s),
            }
            addr = span_end;
        }
        spans
    }

    /// The set of devices touched by a physical range (sorted, deduplicated).
    pub fn devices_of(&self, start: PhysAddr, len: u64) -> DeviceList {
        let mut devs = DeviceList::new();
        for s in &self.split(start, len) {
            if !devs.contains(&s.device) {
                devs.push(s.device);
            }
        }
        devs.sort_unstable();
        devs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_device_identity_mapping() {
        let c = InterleaveConfig::single();
        assert_eq!(c.device_of(PhysAddr(0)), 0);
        assert_eq!(c.device_of(PhysAddr(123_456)), 0);
        assert_eq!(c.local_offset(PhysAddr(123_456)), 123_456);
        let spans = c.split(PhysAddr(100), 10_000);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].local_offset, 100);
        assert_eq!(spans[0].len, 10_000);
    }

    #[test]
    fn two_device_alternation() {
        let c = InterleaveConfig::new(2, 4096);
        assert_eq!(c.device_of(PhysAddr(0)), 0);
        assert_eq!(c.device_of(PhysAddr(4096)), 1);
        assert_eq!(c.device_of(PhysAddr(8192)), 0);
        assert_eq!(c.local_offset(PhysAddr(0)), 0);
        assert_eq!(c.local_offset(PhysAddr(4096)), 0);
        assert_eq!(c.local_offset(PhysAddr(8192)), 4096);
        assert_eq!(c.local_offset(PhysAddr(8192 + 17)), 4096 + 17);
    }

    #[test]
    fn split_crossing_devices() {
        let c = InterleaveConfig::new(2, 4096);
        // 8 kB starting 1 kB before a boundary: spans dev0 (1 kB), dev1 (4 kB), dev0 (3 kB).
        let spans = c.split(PhysAddr(3072), 8192);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].device, 0);
        assert_eq!(spans[0].len, 1024);
        assert_eq!(spans[1].device, 1);
        assert_eq!(spans[1].len, 4096);
        assert_eq!(spans[2].device, 0);
        assert_eq!(spans[2].len, 3072);
        // Total length preserved.
        let total: u64 = spans.iter().map(|s| s.len).sum();
        assert_eq!(total, 8192);
        assert_eq!(c.devices_of(PhysAddr(3072), 8192), vec![0, 1]);
        assert_eq!(c.devices_of(PhysAddr(0), 64), vec![0]);
    }

    #[test]
    fn contiguous_same_device_spans_merge() {
        let c = InterleaveConfig::new(1, 4096);
        let spans = c.split(PhysAddr(0), 4096 * 3);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].len, 4096 * 3);
    }

    #[test]
    fn per_device_capacity_covers_total() {
        let c = InterleaveConfig::new(2, 4096);
        assert_eq!(c.per_device_capacity(8192), 4096);
        assert_eq!(c.per_device_capacity(8193), 8192);
        let c1 = InterleaveConfig::single();
        assert_eq!(c1.per_device_capacity(10_000), 12_288);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_granularity_rejected() {
        InterleaveConfig::new(2, 1000);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_devices_rejected() {
        InterleaveConfig::new(0, 4096);
    }

    #[test]
    fn inline_vec_spills_past_capacity() {
        let mut v: InlineVec<usize, 2> = InlineVec::new();
        v.push(1);
        v.push(2);
        assert_eq!(v.as_slice(), &[1, 2]);
        v.push(3); // spills
        v.push(4);
        assert_eq!(v.as_slice(), &[1, 2, 3, 4]);
        assert_eq!(v.to_vec(), vec![1, 2, 3, 4]);
        assert_eq!(v.clone().into_iter().sum::<usize>(), 10);
    }

    #[test]
    fn split_spills_for_many_devices() {
        // 4 devices, a range touching all of them twice: 8 unmerged spans.
        let c = InterleaveConfig::new(4, 4096);
        let spans = c.split(PhysAddr(0), 4096 * 8);
        assert_eq!(spans.len(), 8);
        let total: u64 = spans.iter().map(|s| s.len).sum();
        assert_eq!(total, 4096 * 8);
        assert_eq!(c.devices_of(PhysAddr(0), 4096 * 8), vec![0, 1, 2, 3]);
    }

    /// The single-block fast path agrees with `split` wherever it answers.
    #[test]
    fn within_block_matches_split() {
        for (devices, granularity) in [(1, 4096), (2, 4096), (3, 4096), (3, 64), (2, 1)] {
            let c = InterleaveConfig::new(devices, granularity);
            for start in (0..3 * 4096 * devices as u64).step_by(61) {
                for len in [0, 1, 7, 64, 100, 4096, 5000] {
                    let spans = c.split(PhysAddr(start), len);
                    let crosses = len > 0 && start / granularity != (start + len - 1) / granularity;
                    match c.within_block(PhysAddr(start), len) {
                        Some((device, local)) => {
                            assert!(!crosses);
                            assert_eq!(spans.len(), 1);
                            assert_eq!((spans[0].device, spans[0].local_offset), (device, local));
                            assert_eq!(spans[0].len, len);
                        }
                        None => {
                            assert!(len == 0 || crosses, "{devices} {granularity} {start} {len}")
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn local_offsets_never_exceed_per_device_capacity() {
        let c = InterleaveConfig::new(2, 4096);
        let total = 1 << 20;
        let cap = c.per_device_capacity(total);
        for addr in (0..total).step_by(1024) {
            let a = PhysAddr(addr);
            assert!(c.local_offset(a) < cap, "offset overflow at {addr}");
        }
    }
}
