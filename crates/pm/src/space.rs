//! The physical PM space: one or more device media behind an interleaver.
//!
//! [`PmSpace`] is the persistence domain of the whole machine: a write that
//! reaches it survives a crash. Reads and writes are addressed with global
//! physical addresses; the interleaver decides which device medium serves
//! each block.

use crate::addr::PhysAddr;
use crate::interleave::{DeviceList, InterleaveConfig};
use crate::media::{MediaConfig, MediaError, MediaKind, PmMedia, PAGE};

/// Aggregate PM traffic statistics across all devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PmTraffic {
    /// Total write operations.
    pub write_ops: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Total read operations.
    pub read_ops: u64,
    /// Total bytes read.
    pub bytes_read: u64,
}

/// Opt-in media write log: every mutation since [`PmSpace::enable_write_log`]
/// as `(addr, bytes)`, in order. Replaying it onto a fresh zeroed space of
/// the same geometry must reproduce the current image — the crash-point
/// explorer's differential check that the persisted image is exactly the
/// recorded mutation history.
///
/// Consecutive entries that extend the previous address range (streaming
/// writes) or overwrite exactly the previous range (idempotent retries) are
/// coalesced in place.
#[derive(Debug, Clone, Default)]
struct WriteLog {
    entries: Vec<(PhysAddr, Vec<u8>)>,
    bytes: u64,
    coalesced: u64,
}

impl WriteLog {
    fn record(&mut self, addr: PhysAddr, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        if let Some((prev_addr, prev_data)) = self.entries.last_mut() {
            if prev_addr.raw() + prev_data.len() as u64 == addr.raw() {
                // Streaming append: extend the previous entry in place.
                prev_data.extend_from_slice(data);
                self.bytes += data.len() as u64;
                self.coalesced += 1;
                return;
            } else if *prev_addr == addr && prev_data.len() == data.len() {
                // Same-range overwrite: only the last value matters.
                prev_data.copy_from_slice(data);
                self.coalesced += 1;
                return;
            }
        }
        self.entries.push((addr, data.to_vec()));
        self.bytes += data.len() as u64;
    }
}

/// The emulated physical PM space of the machine.
#[derive(Debug, Clone)]
pub struct PmSpace {
    media: Vec<PmMedia>,
    interleave: InterleaveConfig,
    capacity: u64,
    media_config: MediaConfig,
    write_log: Option<WriteLog>,
}

impl PmSpace {
    /// Creates a heap-backed PM space of `capacity` bytes spread over the
    /// devices described by `interleave`.
    pub fn new(capacity: u64, interleave: InterleaveConfig) -> Self {
        PmSpace::with_media(capacity, interleave, &MediaConfig::Heap)
            .expect("heap media cannot fail")
    }

    /// Creates a PM space with the storage engine selected by `config`.
    pub fn with_media(
        capacity: u64,
        interleave: InterleaveConfig,
        config: &MediaConfig,
    ) -> Result<Self, MediaError> {
        let per_device = interleave.per_device_capacity(capacity) as usize;
        let media = (0..interleave.devices())
            .map(|d| config.create_device(d, per_device))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(PmSpace {
            media,
            interleave,
            capacity,
            media_config: config.clone(),
            write_log: None,
        })
    }

    /// Reopens a PM space over existing device images without zeroing them
    /// (meaningful for [`MediaConfig::File`]; a fresh process attaches to
    /// the image a crashed run left behind).
    pub fn reopen(
        capacity: u64,
        interleave: InterleaveConfig,
        config: &MediaConfig,
    ) -> Result<Self, MediaError> {
        let per_device = interleave.per_device_capacity(capacity) as usize;
        let media = (0..interleave.devices())
            .map(|d| config.reopen_device(d, per_device))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(PmSpace {
            media,
            interleave,
            capacity,
            media_config: config.clone(),
            write_log: None,
        })
    }

    /// Single-device space (the common unit-test configuration).
    pub fn single(capacity: u64) -> Self {
        PmSpace::new(capacity, InterleaveConfig::single())
    }

    /// Total addressable capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of PM devices backing the space.
    pub fn device_count(&self) -> usize {
        self.media.len()
    }

    /// The interleaving configuration.
    pub fn interleave(&self) -> &InterleaveConfig {
        &self.interleave
    }

    /// The device that owns physical address `addr`.
    pub fn device_of(&self, addr: PhysAddr) -> usize {
        self.interleave.device_of(addr)
    }

    /// The devices touched by the physical range.
    pub fn devices_of(&self, addr: PhysAddr, len: u64) -> DeviceList {
        self.interleave.devices_of(addr, len)
    }

    /// The storage engine backing the devices.
    pub fn media_kind(&self) -> MediaKind {
        self.media_config.kind()
    }

    /// The media configuration this space was built with.
    pub fn media_config(&self) -> &MediaConfig {
        &self.media_config
    }

    /// Flushes every file-backed device to durable storage (no-op on the
    /// heap).
    pub fn sync_all(&mut self) -> Result<(), MediaError> {
        for m in &mut self.media {
            m.sync()?;
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes starting at physical address `addr`.
    pub fn read(&mut self, addr: PhysAddr, buf: &mut [u8]) {
        assert!(
            addr.raw() + buf.len() as u64 <= self.capacity,
            "PM space read out of bounds at {addr} len {}",
            buf.len()
        );
        if let Some((device, local)) = self.interleave.within_block(addr, buf.len() as u64) {
            self.media[device].read(local as usize, buf);
            return;
        }
        let mut cursor = 0usize;
        for span in self.interleave.split(addr, buf.len() as u64) {
            let len = span.len as usize;
            self.media[span.device]
                .read(span.local_offset as usize, &mut buf[cursor..cursor + len]);
            cursor += len;
        }
    }

    /// Reads `len` bytes starting at `addr` into a new vector.
    pub fn read_vec(&mut self, addr: PhysAddr, len: usize) -> Vec<u8> {
        let mut v = vec![0; len];
        self.read(addr, &mut v);
        v
    }

    /// Writes `data` starting at physical address `addr`. The data is durable
    /// once this returns (this *is* the persistence domain).
    pub fn write(&mut self, addr: PhysAddr, data: &[u8]) {
        assert!(
            addr.raw() + data.len() as u64 <= self.capacity,
            "PM space write out of bounds at {addr} len {}",
            data.len()
        );
        if let Some(log) = &mut self.write_log {
            log.record(addr, data);
        }
        if let Some((device, local)) = self.interleave.within_block(addr, data.len() as u64) {
            self.media[device].write(local as usize, data);
            return;
        }
        let mut cursor = 0usize;
        for span in self.interleave.split(addr, data.len() as u64) {
            let len = span.len as usize;
            self.media[span.device].write(span.local_offset as usize, &data[cursor..cursor + len]);
            cursor += len;
        }
    }

    /// Copies `len` bytes from physical `src` to physical `dst` without an
    /// intermediate allocation: the source and destination span lists are
    /// walked in lockstep and each chunk is moved media-to-media (or with
    /// `copy_within` when both ends live on the same device).
    pub fn copy(&mut self, src: PhysAddr, dst: PhysAddr, len: usize) {
        if len == 0 {
            return;
        }
        assert!(
            src.raw() + len as u64 <= self.capacity,
            "PM space copy source out of bounds at {src} len {len}"
        );
        assert!(
            dst.raw() + len as u64 <= self.capacity,
            "PM space copy destination out of bounds at {dst} len {len}"
        );
        // Overlapping ranges need the source buffered before any chunk is
        // written (a later chunk may re-read bytes an earlier chunk already
        // overwrote); the hot paths only ever copy disjoint ranges.
        if src.raw() < dst.raw() + len as u64 && dst.raw() < src.raw() + len as u64 {
            let data = self.read_vec(src, len);
            self.write(dst, &data);
            return;
        }
        // The write log records the moved bytes with a stat-free peek, so a
        // logged copy counts the same media traffic as an unlogged one.
        if self.write_log.is_some() {
            let data = self.peek_vec(src, len);
            if let Some(log) = &mut self.write_log {
                log.record(dst, &data);
            }
        }
        let src_spans = self.interleave.split(src, len as u64);
        let dst_spans = self.interleave.split(dst, len as u64);
        let (mut si, mut di) = (0usize, 0usize);
        let (mut s_done, mut d_done) = (0u64, 0u64);
        while si < src_spans.len() && di < dst_spans.len() {
            let s = &src_spans[si];
            let d = &dst_spans[di];
            let chunk = (s.len - s_done).min(d.len - d_done) as usize;
            let s_local = (s.local_offset + s_done) as usize;
            let d_local = (d.local_offset + d_done) as usize;
            if s.device == d.device {
                self.media[s.device].copy_within(s_local, d_local, chunk);
            } else {
                // Distinct devices: split the media vector to borrow both.
                let (lo, hi) = (s.device.min(d.device), s.device.max(d.device));
                let (head, tail) = self.media.split_at_mut(hi);
                let (first, second) = (&mut head[lo], &mut tail[0]);
                if s.device < d.device {
                    first.copy_to(s_local, second, d_local, chunk);
                } else {
                    second.copy_to(s_local, first, d_local, chunk);
                }
            }
            s_done += chunk as u64;
            d_done += chunk as u64;
            if s_done == s.len {
                si += 1;
                s_done = 0;
            }
            if d_done == d.len {
                di += 1;
                d_done = 0;
            }
        }
    }

    /// Fills `len` bytes at `addr` with `value` (no intermediate buffer).
    pub fn fill(&mut self, addr: PhysAddr, len: usize, value: u8) {
        assert!(
            addr.raw() + len as u64 <= self.capacity,
            "PM space fill out of bounds at {addr} len {len}"
        );
        if let Some(log) = &mut self.write_log {
            log.record(addr, &vec![value; len]);
        }
        for span in self.interleave.split(addr, len as u64) {
            self.media[span.device].fill(span.local_offset as usize, span.len as usize, value);
        }
    }

    /// Aggregated traffic statistics across devices.
    pub fn traffic(&self) -> PmTraffic {
        let mut t = PmTraffic::default();
        for m in &self.media {
            t.write_ops += m.write_ops();
            t.bytes_written += m.bytes_written();
            t.read_ops += m.read_ops();
            t.bytes_read += m.bytes_read();
        }
        t
    }

    /// Traffic statistics of one device.
    pub fn device_traffic(&self, device: usize) -> PmTraffic {
        let m = &self.media[device];
        PmTraffic {
            write_ops: m.write_ops(),
            bytes_written: m.bytes_written(),
            read_ops: m.read_ops(),
            bytes_read: m.bytes_read(),
        }
    }

    /// Resets traffic statistics on all devices.
    pub fn reset_stats(&mut self) {
        for m in &mut self.media {
            m.reset_stats();
        }
    }

    /// Owned copy of one device's full persistent image; does not touch the
    /// traffic statistics.
    pub fn device_image(&self, device: usize) -> Vec<u8> {
        self.media[device].image()
    }

    /// Reads `buf.len()` bytes at `addr` without touching the traffic
    /// statistics — for recovery checks and differential oracles that must
    /// not perturb accounting.
    pub fn peek(&self, addr: PhysAddr, buf: &mut [u8]) {
        assert!(
            addr.raw() + buf.len() as u64 <= self.capacity,
            "PM space read out of bounds at {addr} len {}",
            buf.len()
        );
        if let Some((device, local)) = self.interleave.within_block(addr, buf.len() as u64) {
            self.media[device].peek(local as usize, buf);
            return;
        }
        let mut cursor = 0usize;
        for span in self.interleave.split(addr, buf.len() as u64) {
            let len = span.len as usize;
            self.media[span.device]
                .peek(span.local_offset as usize, &mut buf[cursor..cursor + len]);
            cursor += len;
        }
    }

    /// Stat-free read of `len` bytes at `addr` into a new vector.
    pub fn peek_vec(&self, addr: PhysAddr, len: usize) -> Vec<u8> {
        let mut v = vec![0; len];
        self.peek(addr, &mut v);
        v
    }

    /// FNV-1a digest of the full persistent image in O(pages written): it
    /// hashes (device, page index, bytes) of every written page that is not
    /// all zero. Every other page reads zero, so equal images digest equal
    /// whatever their write history — a page zero-filled after use hashes
    /// like a page never touched.
    pub fn content_digest(&self) -> u64 {
        fn fnv(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let mut h = 0xcbf2_9ce4_8422_2325;
        let mut buf = [0u8; PAGE];
        for (device, m) in self.media.iter().enumerate() {
            for page in m.written_pages() {
                let bytes = m.peek_page(page, &mut buf);
                if bytes.iter().all(|&b| b == 0) {
                    continue;
                }
                fnv(&mut h, &(device as u64).to_le_bytes());
                fnv(&mut h, &(page as u64).to_le_bytes());
                fnv(&mut h, bytes);
            }
        }
        h
    }

    // ------------------------------------------------------------------
    // Media write log (deterministic replay)
    // ------------------------------------------------------------------

    /// Starts recording every media mutation. Enable this immediately after
    /// construction (while the space is still zeroed) so the log is a
    /// complete mutation history of the image.
    pub fn enable_write_log(&mut self) {
        if self.write_log.is_none() {
            self.write_log = Some(WriteLog::default());
        }
    }

    /// True when the write log is recording.
    pub fn write_log_enabled(&self) -> bool {
        self.write_log.is_some()
    }

    /// Number of recorded mutations after coalescing (0 when the log is
    /// disabled).
    pub fn write_log_len(&self) -> usize {
        self.write_log.as_ref().map_or(0, |l| l.entries.len())
    }

    /// Payload bytes currently held by the log.
    pub fn write_log_bytes(&self) -> u64 {
        self.write_log.as_ref().map_or(0, |l| l.bytes)
    }

    /// Number of mutations absorbed into an existing entry by coalescing.
    pub fn write_log_coalesced(&self) -> u64 {
        self.write_log.as_ref().map_or(0, |l| l.coalesced)
    }

    /// Differential replay check: true iff replaying the write log onto a
    /// fresh zeroed heap space of the same geometry reproduces the current
    /// image byte for byte. False when the log is disabled (there is
    /// nothing to verify against).
    ///
    /// Only pages written on either side are compared: every other page
    /// reads zero on both, so this is still a full-image equality check.
    pub fn replay_matches(&self) -> bool {
        let Some(log) = &self.write_log else {
            return false;
        };
        let mut replayed = PmSpace::new(self.capacity, self.interleave);
        for (addr, data) in &log.entries {
            replayed.write(*addr, data);
        }
        let (mut a, mut b) = ([0u8; PAGE], [0u8; PAGE]);
        self.media.iter().zip(&replayed.media).all(|(live, fresh)| {
            live.written_pages()
                .chain(fresh.written_pages())
                .all(|page| live.peek_page(page, &mut a) == fresh.peek_page(page, &mut b))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_device_roundtrip() {
        let mut s = PmSpace::single(1 << 16);
        s.write(PhysAddr(0x100), &[9, 8, 7]);
        assert_eq!(s.read_vec(PhysAddr(0x100), 3), vec![9, 8, 7]);
        assert_eq!(s.device_count(), 1);
    }

    #[test]
    fn interleaved_write_crossing_devices_roundtrips() {
        let mut s = PmSpace::new(1 << 16, InterleaveConfig::new(2, 4096));
        // Write a pattern spanning the 4 kB interleave boundary.
        let data: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
        s.write(PhysAddr(1024), &data);
        assert_eq!(s.read_vec(PhysAddr(1024), 8192), data);
        // Both devices must have received traffic.
        assert!(s.device_traffic(0).bytes_written > 0);
        assert!(s.device_traffic(1).bytes_written > 0);
        assert_eq!(s.devices_of(PhysAddr(1024), 8192), vec![0, 1]);
    }

    #[test]
    fn copy_and_fill() {
        let mut s = PmSpace::single(1 << 16);
        s.fill(PhysAddr(0), 64, 0x5A);
        s.copy(PhysAddr(0), PhysAddr(4096), 64);
        assert_eq!(s.read_vec(PhysAddr(4096), 64), vec![0x5A; 64]);
    }

    #[test]
    fn traffic_aggregation() {
        let mut s = PmSpace::new(1 << 16, InterleaveConfig::new(2, 4096));
        s.write(PhysAddr(0), &[0; 128]);
        s.write(PhysAddr(4096), &[0; 128]);
        let t = s.traffic();
        assert_eq!(t.bytes_written, 256);
        assert_eq!(t.write_ops, 2);
        s.reset_stats();
        assert_eq!(s.traffic().bytes_written, 0);
    }

    #[test]
    fn cross_device_copy_without_intermediate_buffer() {
        let mut s = PmSpace::new(1 << 16, InterleaveConfig::new(2, 4096));
        let data: Vec<u8> = (0..6000u32).map(|i| (i % 251) as u8).collect();
        // Source spans both devices; destination starts on the other device.
        s.write(PhysAddr(1024), &data);
        s.copy(PhysAddr(1024), PhysAddr(4096 + 512), 6000);
        assert_eq!(s.read_vec(PhysAddr(4096 + 512), 6000), data);
    }

    #[test]
    fn overlapping_copy_preserves_source_semantics() {
        let mut s = PmSpace::new(1 << 16, InterleaveConfig::new(2, 4096));
        let data: Vec<u8> = (0..8192u32).map(|i| (i % 241) as u8).collect();
        s.write(PhysAddr(0), &data);
        // Destination overlaps the source across the interleave boundary.
        s.copy(PhysAddr(0), PhysAddr(2048), 8192);
        assert_eq!(s.read_vec(PhysAddr(2048), 8192), data);
    }

    #[test]
    fn device_image_reflects_persistent_image() {
        let mut s = PmSpace::single(8192);
        s.write(PhysAddr(10), &[1, 2, 3]);
        let image = s.device_image(0);
        assert_eq!(image.len(), 8192);
        assert_eq!(&image[10..13], &[1, 2, 3]);
    }

    #[test]
    fn write_log_replay_reproduces_the_image() {
        let mut s = PmSpace::new(1 << 16, InterleaveConfig::new(2, 4096));
        s.enable_write_log();
        assert!(s.write_log_enabled());
        let data: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
        s.write(PhysAddr(1024), &data);
        s.fill(PhysAddr(0), 512, 0x5A);
        s.copy(PhysAddr(1024), PhysAddr(20000), 6000);
        // Overlapping copy exercises the buffered path too.
        s.copy(PhysAddr(1024), PhysAddr(3072), 8192);
        assert!(s.write_log_len() >= 4);
        assert!(s.replay_matches());
    }

    /// The page-granular compare still sees a page the log never recorded.
    #[test]
    fn write_before_logging_fails_the_replay_check() {
        let mut s = PmSpace::new(1 << 16, InterleaveConfig::new(2, 4096));
        s.write(PhysAddr(40000), &[1, 2, 3]);
        s.enable_write_log();
        s.write(PhysAddr(100), &[4; 64]);
        assert!(!s.replay_matches());
    }

    #[test]
    fn content_digest_depends_on_the_image_only() {
        let mut touched = PmSpace::new(1 << 16, InterleaveConfig::new(2, 4096));
        let mut direct = PmSpace::new(1 << 16, InterleaveConfig::new(2, 4096));
        let empty = touched.content_digest();
        touched.write(PhysAddr(0), &[5; 9000]);
        touched.fill(PhysAddr(0), 9000, 0); // written, then zero-filled
        assert_eq!(touched.content_digest(), empty);
        touched.write(PhysAddr(20000), &[6; 10]);
        direct.write(PhysAddr(20000), &[6; 10]);
        assert_eq!(touched.content_digest(), direct.content_digest());
        direct.write(PhysAddr(20009), &[7]);
        assert_ne!(touched.content_digest(), direct.content_digest());
    }

    #[test]
    fn write_log_disabled_has_no_replay() {
        let mut s = PmSpace::single(4096);
        s.write(PhysAddr(0), &[1, 2, 3]);
        assert_eq!(s.write_log_len(), 0);
        assert!(!s.replay_matches());
    }

    #[test]
    fn write_log_coalesces_streaming_and_overwrites() {
        let mut s = PmSpace::single(1 << 16);
        s.enable_write_log();
        // Streaming: three adjacent writes coalesce to one entry.
        s.write(PhysAddr(0), &[1; 64]);
        s.write(PhysAddr(64), &[2; 64]);
        s.write(PhysAddr(128), &[3; 64]);
        assert_eq!(s.write_log_len(), 1);
        assert_eq!(s.write_log_bytes(), 192);
        // Same-range overwrite: replaced in place, not appended.
        s.write(PhysAddr(0), &[9; 192]);
        assert_eq!(s.write_log_len(), 1);
        assert_eq!(s.write_log_coalesced(), 3);
        assert!(s.replay_matches());
    }

    #[test]
    fn peek_reads_without_stats() {
        let mut s = PmSpace::new(1 << 16, InterleaveConfig::new(2, 4096));
        let data: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
        s.write(PhysAddr(1024), &data);
        let before = s.traffic();
        assert_eq!(s.peek_vec(PhysAddr(1024), 8192), data);
        assert_eq!(s.device_image(0).len(), 1 << 15);
        assert_eq!(s.traffic(), before);
    }

    #[test]
    fn with_media_backends_match_heap() {
        let dir = std::env::temp_dir().join(format!("nearpm-space-test-{}", std::process::id()));
        let il = InterleaveConfig::new(3, 4096);
        let mut heap = PmSpace::new(1 << 16, il);
        let mut file =
            PmSpace::with_media(1 << 16, il, &MediaConfig::File { dir: dir.clone() }).unwrap();
        assert_eq!(file.media_kind(), MediaKind::File);
        let data: Vec<u8> = (0..20000u32).map(|i| (i % 249) as u8).collect();
        for s in [&mut heap, &mut file] {
            s.write(PhysAddr(100), &data);
            s.fill(PhysAddr(40000), 5000, 0x3C);
            s.copy(PhysAddr(100), PhysAddr(30000), 9000);
        }
        for d in 0..il.devices() {
            assert_eq!(heap.device_image(d), file.device_image(d), "device {d}");
        }
        assert_eq!(heap.traffic(), file.traffic());
        drop(file);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_space_reopens_with_image_intact() {
        let dir = std::env::temp_dir().join(format!("nearpm-reopen-test-{}", std::process::id()));
        let cfg = MediaConfig::File { dir: dir.clone() };
        let il = InterleaveConfig::new(2, 4096);
        {
            let mut s = PmSpace::with_media(1 << 16, il, &cfg).unwrap();
            s.write(PhysAddr(5000), b"survives the process");
            s.sync_all().unwrap();
        }
        let s = PmSpace::reopen(1 << 16, il, &cfg).unwrap();
        assert_eq!(s.peek_vec(PhysAddr(5000), 20), b"survives the process");
        drop(s);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_write_rejected() {
        let mut s = PmSpace::single(4096);
        s.write(PhysAddr(4090), &[0; 10]);
    }

    #[test]
    fn capacity_is_fully_addressable_when_interleaved() {
        let mut s = PmSpace::new(3 * 4096, InterleaveConfig::new(2, 4096));
        // The last byte of the requested capacity must be addressable.
        s.write(PhysAddr(3 * 4096 - 1), &[0xFF]);
        assert_eq!(s.read_vec(PhysAddr(3 * 4096 - 1), 1), vec![0xFF]);
    }
}
