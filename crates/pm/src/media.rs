//! The PM storage medium of one device.
//!
//! [`PmMedia`] stores the *persistent* image of one emulated PM device: bytes
//! written here survive a crash. The prototype in the paper emulates PM with
//! the FPGA's on-board DRAM; here [`MediaConfig`] picks one of two storage
//! engines for the bytes:
//!
//! * heap — a plain in-RAM byte vector, the default. Fast, but the
//!   "persistent" image dies with the process; crash/recovery results are
//!   proven against an in-process model only.
//! * file — one flat file per device, accessed with positional
//!   `pread`/`pwrite`. Every media write is a write to the file, so the image
//!   survives process exit/abort and a fresh process can reopen it
//!   (real durability for restartable crash-recovery runs).
//!
//! `PmMedia` owns the access statistics and keeps them identically for both
//! engines, so traffic accounting is byte-for-byte the same regardless of
//! the engine. Everything that is *not* yet in a `PmMedia` (CPU cache lines
//! that have not been written back, device buffers outside the persistence
//! domain) is lost on a simulated failure.
//!
//! `PmMedia` also keeps one *written* bit per 4 KiB page. A medium that
//! starts zeroed starts all-clear, and every mutation sets the bits it
//! covers, so a clear bit proves the page still reads zero. That lets image
//! checks ([`crate::PmSpace::content_digest`],
//! [`crate::PmSpace::replay_matches`]) cost O(pages written) rather than
//! O(capacity).

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Page granularity of the written-page bitmap every [`PmMedia`] keeps.
pub(crate) const PAGE: usize = 4096;

/// Which storage engine backs a [`PmMedia`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MediaKind {
    /// In-RAM `Vec<u8>` (volatile; the default).
    Heap,
    /// Flat file per device, positional read/write (durable).
    File,
}

impl fmt::Display for MediaKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MediaKind::Heap => write!(f, "heap"),
            MediaKind::File => write!(f, "file"),
        }
    }
}

/// Selects and parameterizes the storage engine for every device of a
/// [`crate::PmSpace`]. `Heap` is the default.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum MediaConfig {
    /// In-RAM byte vectors (the default).
    #[default]
    Heap,
    /// One flat file per device under `dir`, named `device-<n>.pm`.
    File {
        /// Directory holding the per-device image files; created on demand.
        dir: PathBuf,
    },
}

impl MediaConfig {
    /// The engine kind this configuration selects.
    pub fn kind(&self) -> MediaKind {
        match self {
            MediaConfig::Heap => MediaKind::Heap,
            MediaConfig::File { .. } => MediaKind::File,
        }
    }

    /// File name of device `device`'s image under a `File` directory.
    pub fn device_file_name(device: usize) -> String {
        format!("device-{device}.pm")
    }

    /// Opens a fresh (zeroed) medium for device `device`.
    pub fn create_device(&self, device: usize, capacity: usize) -> Result<PmMedia, MediaError> {
        Ok(match self {
            MediaConfig::Heap => PmMedia::new(capacity),
            MediaConfig::File { dir } => {
                let file = FileMedia::create(&device_path(dir, device), capacity)?;
                PmMedia::zeroed(Backend::File(file), capacity)
            }
        })
    }

    /// Reopens an existing medium for device `device` without zeroing it.
    ///
    /// Only meaningful for `File`: the image file must already exist and be
    /// at least `capacity` bytes long. Its contents are unknown, so every
    /// page counts as written. For `Heap` this is the same as
    /// [`MediaConfig::create_device`] (there is nothing to reopen).
    pub fn reopen_device(&self, device: usize, capacity: usize) -> Result<PmMedia, MediaError> {
        match self {
            MediaConfig::File { dir } => {
                let file = FileMedia::open(&device_path(dir, device), capacity)?;
                let mut media = PmMedia::zeroed(Backend::File(file), capacity);
                media.mark_written(0, capacity);
                Ok(media)
            }
            MediaConfig::Heap => self.create_device(device, capacity),
        }
    }
}

fn device_path(dir: &Path, device: usize) -> PathBuf {
    dir.join(MediaConfig::device_file_name(device))
}

/// Error raised when a file medium cannot be created, opened, or
/// persisted.
#[derive(Debug)]
pub struct MediaError {
    context: String,
    source: Option<io::Error>,
}

impl MediaError {
    /// An error with an I/O cause.
    pub fn io(context: impl Into<String>, source: io::Error) -> Self {
        MediaError {
            context: context.into(),
            source: Some(source),
        }
    }

    /// An error without an underlying I/O cause (e.g. a manifest mismatch).
    pub fn msg(context: impl Into<String>) -> Self {
        MediaError {
            context: context.into(),
            source: None,
        }
    }
}

impl fmt::Display for MediaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.source {
            Some(e) => write!(f, "{}: {e}", self.context),
            None => write!(f, "{}", self.context),
        }
    }
}

impl std::error::Error for MediaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.source.as_ref().map(|e| e as _)
    }
}

/// In-RAM image of one device.
#[derive(Debug)]
struct HeapMedia {
    bytes: Vec<u8>,
}

/// Shrinks the image to one byte before freeing it. glibc raises its mmap
/// threshold to the size of each mapping it frees (up to 32 MiB). Past that,
/// a same-sized image comes from the allocator's heap, and calloc zero-fills
/// whatever heap memory it reuses. Then a fresh image's build time and
/// resident size depend on heap history, and so vary from run to run. The
/// one-byte remnant frees without raising the threshold, so every large
/// image stays a fresh, lazily zeroed mapping.
impl Drop for HeapMedia {
    fn drop(&mut self) {
        self.bytes.truncate(1);
        self.bytes.shrink_to_fit();
    }
}

/// Durable image of one device: one flat file, accessed with positional I/O.
///
/// Every write lands in the file immediately (through the OS page cache), so
/// an aborted process leaves exactly the bytes it had written — the property
/// the restart-recovery harness relies on. [`PmMedia::sync`] runs `fsync`
/// for power-failure-grade durability when callers want it.
#[derive(Debug)]
struct FileMedia {
    file: File,
    path: PathBuf,
}

impl FileMedia {
    /// Creates (or truncates) the image file at `path`, zero-extended to
    /// `capacity` bytes.
    fn create(path: &Path, capacity: usize) -> Result<Self, MediaError> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| MediaError::io(format!("create media dir {}", parent.display()), e))?;
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| MediaError::io(format!("create media file {}", path.display()), e))?;
        file.set_len(capacity as u64)
            .map_err(|e| MediaError::io(format!("size media file {}", path.display()), e))?;
        Ok(FileMedia {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Opens an existing image file without truncating or zeroing it.
    fn open(path: &Path, capacity: usize) -> Result<Self, MediaError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| MediaError::io(format!("open media file {}", path.display()), e))?;
        let len = file
            .metadata()
            .map_err(|e| MediaError::io(format!("stat media file {}", path.display()), e))?
            .len();
        if len < capacity as u64 {
            return Err(MediaError::msg(format!(
                "media file {} is {len} bytes, need {capacity}",
                path.display()
            )));
        }
        Ok(FileMedia {
            file,
            path: path.to_path_buf(),
        })
    }
}

/// Where a [`PmMedia`]'s bytes live. `PmMedia` checks bounds before every
/// access, so these never see `offset + len > capacity`.
#[derive(Debug)]
enum Backend {
    Heap(HeapMedia),
    File(FileMedia),
}

impl Backend {
    fn read_at(&self, offset: usize, buf: &mut [u8]) {
        match self {
            Backend::Heap(h) => buf.copy_from_slice(&h.bytes[offset..offset + buf.len()]),
            Backend::File(f) => f
                .file
                .read_exact_at(buf, offset as u64)
                .unwrap_or_else(|e| panic!("PM file read at {offset} failed: {e}")),
        }
    }

    fn write_at(&mut self, offset: usize, data: &[u8]) {
        match self {
            Backend::Heap(h) => h.bytes[offset..offset + data.len()].copy_from_slice(data),
            Backend::File(f) => f
                .file
                .write_all_at(data, offset as u64)
                .unwrap_or_else(|e| panic!("PM file write at {offset} failed: {e}")),
        }
    }
}

/// Persistent storage medium of a single PM device: the bytes on the heap
/// or in a file, access statistics, and the written-page bitmap.
#[derive(Debug)]
pub struct PmMedia {
    backend: Backend,
    capacity: usize,
    /// One bit per [`PAGE`]; a clear bit proves the page reads zero.
    written: Vec<u64>,
    writes: u64,
    bytes_written: u64,
    reads: u64,
    bytes_read: u64,
}

impl Clone for PmMedia {
    /// Clones always *detach* into an independent in-RAM copy of the image,
    /// never a second handle on the same file: differential oracles and
    /// write-log replay want an image, not shared storage.
    fn clone(&self) -> Self {
        PmMedia {
            backend: Backend::Heap(HeapMedia {
                bytes: self.image(),
            }),
            capacity: self.capacity,
            written: self.written.clone(),
            writes: self.writes,
            bytes_written: self.bytes_written,
            reads: self.reads,
            bytes_read: self.bytes_read,
        }
    }
}

impl PmMedia {
    /// Creates a zero-initialized heap-backed medium of `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        PmMedia::zeroed(
            Backend::Heap(HeapMedia {
                bytes: vec![0; capacity],
            }),
            capacity,
        )
    }

    /// Wraps a backend known to read all zero: no page counts as written.
    fn zeroed(backend: Backend, capacity: usize) -> Self {
        PmMedia {
            backend,
            capacity,
            written: vec![0; capacity.div_ceil(PAGE).div_ceil(64)],
            writes: 0,
            bytes_written: 0,
            reads: 0,
            bytes_read: 0,
        }
    }

    /// Sets the written bit of every page the `len` bytes at `offset` cover.
    fn mark_written(&mut self, offset: usize, len: usize) {
        if len == 0 {
            return;
        }
        for page in offset / PAGE..=(offset + len - 1) / PAGE {
            self.written[page / 64] |= 1 << (page % 64);
        }
    }

    /// Indices of the pages a mutation has covered (every page, for a
    /// reopened file of unknown contents), ascending. Every other page
    /// reads zero.
    pub(crate) fn written_pages(&self) -> impl Iterator<Item = usize> + '_ {
        self.written.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let page = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    page
                })
            })
        })
    }

    /// Stat-free read of page `page` into `buf`; returns the page's bytes,
    /// shorter than a full page only at the end of the medium.
    pub(crate) fn peek_page<'a>(&self, page: usize, buf: &'a mut [u8; PAGE]) -> &'a [u8] {
        let start = page * PAGE;
        let bytes = &mut buf[..PAGE.min(self.capacity - start)];
        self.peek(start, bytes);
        bytes
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Which storage engine backs this medium.
    pub fn kind(&self) -> MediaKind {
        match self.backend {
            Backend::Heap(_) => MediaKind::Heap,
            Backend::File(_) => MediaKind::File,
        }
    }

    /// Flushes a file medium to durable storage with `fsync` (no-op on the
    /// heap).
    pub fn sync(&mut self) -> Result<(), MediaError> {
        match &self.backend {
            Backend::Heap(_) => Ok(()),
            Backend::File(f) => f
                .file
                .sync_data()
                .map_err(|e| MediaError::io(format!("fsync media file {}", f.path.display()), e)),
        }
    }

    /// Reads `buf.len()` bytes starting at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the access runs past the end of the medium; the allocator
    /// and interleaver are responsible for never issuing such accesses.
    pub fn read(&mut self, offset: usize, buf: &mut [u8]) {
        self.peek(offset, buf);
        self.reads += 1;
        self.bytes_read += buf.len() as u64;
    }

    /// Reads `len` bytes starting at `offset` into a new vector.
    pub fn read_vec(&mut self, offset: usize, len: usize) -> Vec<u8> {
        let mut v = vec![0; len];
        self.read(offset, &mut v);
        v
    }

    /// Reads without touching the traffic statistics; used by recovery
    /// checks and differential oracles that must not perturb accounting.
    pub fn peek(&self, offset: usize, buf: &mut [u8]) {
        let end = offset + buf.len();
        assert!(
            end <= self.capacity,
            "PM read out of bounds: {offset}..{end}"
        );
        self.backend.read_at(offset, buf);
    }

    /// Writes `data` starting at `offset`. The write is durable immediately:
    /// the medium *is* the persistence domain.
    ///
    /// # Panics
    ///
    /// Panics if the access runs past the end of the medium.
    pub fn write(&mut self, offset: usize, data: &[u8]) {
        let end = offset + data.len();
        assert!(
            end <= self.capacity,
            "PM write out of bounds: {offset}..{end}"
        );
        self.backend.write_at(offset, data);
        self.mark_written(offset, data.len());
        self.writes += 1;
        self.bytes_written += data.len() as u64;
    }

    /// Fills `len` bytes starting at `offset` with `value`.
    pub fn fill(&mut self, offset: usize, len: usize, value: u8) {
        let end = offset + len;
        assert!(
            end <= self.capacity,
            "PM fill out of bounds: {offset}..{end}"
        );
        match &mut self.backend {
            Backend::Heap(h) => h.bytes[offset..end].fill(value),
            Backend::File(_) => self.backend.write_at(offset, &vec![value; len]),
        }
        self.mark_written(offset, len);
        self.writes += 1;
        self.bytes_written += len as u64;
    }

    /// Copies `len` bytes from `src` to `dst` inside the medium (the DMA
    /// engine's local copy path).
    pub fn copy_within(&mut self, src: usize, dst: usize, len: usize) {
        assert!(src + len <= self.capacity, "PM copy source out of bounds");
        assert!(
            dst + len <= self.capacity,
            "PM copy destination out of bounds"
        );
        match &mut self.backend {
            Backend::Heap(h) => h.bytes.copy_within(src..src + len, dst),
            Backend::File(_) => {
                let mut buf = vec![0u8; len];
                self.backend.read_at(src, &mut buf);
                self.backend.write_at(dst, &buf);
            }
        }
        self.mark_written(dst, len);
        self.reads += 1;
        self.bytes_read += len as u64;
        self.writes += 1;
        self.bytes_written += len as u64;
    }

    /// Copies `len` bytes from `self` at `src_offset` into `dst` at
    /// `dst_offset` without an intermediate buffer when both media are on
    /// the heap (the cross-device DMA path).
    pub fn copy_to(&mut self, src_offset: usize, dst: &mut PmMedia, dst_offset: usize, len: usize) {
        assert!(
            src_offset + len <= self.capacity,
            "PM cross-copy source out of bounds"
        );
        assert!(
            dst_offset + len <= dst.capacity,
            "PM cross-copy destination out of bounds"
        );
        match (&self.backend, &mut dst.backend) {
            (Backend::Heap(src), Backend::Heap(dstb)) => {
                dstb.bytes[dst_offset..dst_offset + len]
                    .copy_from_slice(&src.bytes[src_offset..src_offset + len]);
            }
            _ => {
                let mut buf = vec![0u8; len];
                self.backend.read_at(src_offset, &mut buf);
                dst.backend.write_at(dst_offset, &buf);
            }
        }
        dst.mark_written(dst_offset, len);
        self.reads += 1;
        self.bytes_read += len as u64;
        dst.writes += 1;
        dst.bytes_written += len as u64;
    }

    /// Number of write operations served.
    pub fn write_ops(&self) -> u64 {
        self.writes
    }

    /// Total bytes written.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Number of read operations served.
    pub fn read_ops(&self) -> u64 {
        self.reads
    }

    /// Total bytes read.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Resets the access statistics (not the contents).
    pub fn reset_stats(&mut self) {
        self.writes = 0;
        self.bytes_written = 0;
        self.reads = 0;
        self.bytes_read = 0;
    }

    /// Owned copy of the full image; works for both engines and does not
    /// touch the traffic statistics.
    pub fn image(&self) -> Vec<u8> {
        let mut bytes = vec![0u8; self.capacity];
        self.backend.read_at(0, &mut bytes);
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let n = std::process::id();
        std::env::temp_dir().join(format!("nearpm-media-test-{n}-{tag}"))
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = PmMedia::new(1024);
        assert_eq!(m.capacity(), 1024);
        m.write(100, &[1, 2, 3, 4]);
        let mut buf = [0u8; 4];
        m.read(100, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
        assert_eq!(m.read_vec(101, 2), vec![2, 3]);
    }

    #[test]
    fn zero_initialized() {
        let mut m = PmMedia::new(64);
        assert_eq!(m.read_vec(0, 64), vec![0u8; 64]);
    }

    #[test]
    fn fill_and_copy_within() {
        let mut m = PmMedia::new(256);
        m.fill(0, 16, 0xAB);
        assert_eq!(m.read_vec(0, 16), vec![0xAB; 16]);
        m.copy_within(0, 128, 16);
        assert_eq!(m.read_vec(128, 16), vec![0xAB; 16]);
    }

    #[test]
    fn statistics_track_traffic() {
        let mut m = PmMedia::new(256);
        m.write(0, &[0; 32]);
        m.write(32, &[0; 32]);
        let _ = m.read_vec(0, 64);
        assert_eq!(m.write_ops(), 2);
        assert_eq!(m.bytes_written(), 64);
        assert_eq!(m.read_ops(), 1);
        assert_eq!(m.bytes_read(), 64);
        m.reset_stats();
        assert_eq!(m.write_ops(), 0);
        assert_eq!(m.bytes_read(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn write_out_of_bounds_panics() {
        let mut m = PmMedia::new(16);
        m.write(10, &[0; 10]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn read_out_of_bounds_panics() {
        let mut m = PmMedia::new(16);
        let mut buf = [0u8; 4];
        m.read(14, &mut buf);
    }

    #[test]
    fn peek_does_not_count() {
        let mut m = PmMedia::new(64);
        m.write(0, &[7; 8]);
        let mut buf = [0u8; 8];
        m.peek(0, &mut buf);
        assert_eq!(buf, [7; 8]);
        assert_eq!(m.read_ops(), 0);
        assert_eq!(m.bytes_read(), 0);
    }

    #[test]
    fn backends_produce_identical_images_and_stats() {
        let dir = temp_dir("equiv");
        let mut heap = PmMedia::new(16384);
        let mut file = MediaConfig::File { dir: dir.clone() }
            .create_device(0, 16384)
            .unwrap();
        for m in [&mut heap, &mut file] {
            m.write(10, &[1, 2, 3, 4, 5]);
            m.fill(4000, 200, 0xEE); // straddles a page boundary
            m.copy_within(10, 8000, 5);
            m.write(4099, &[9]);
        }
        assert_eq!(heap.image(), file.image());
        assert_eq!(file.write_ops(), heap.write_ops());
        assert_eq!(file.bytes_written(), heap.bytes_written());
        assert_eq!(file.read_ops(), heap.read_ops());
        assert_eq!(file.bytes_read(), heap.bytes_read());
        drop(file);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every page whose written bit is clear reads zero after writes, fills,
    /// zero-fills, local copies and cross-media copies, on both engines.
    #[test]
    fn clear_written_bits_prove_zero_pages() {
        const CAP: usize = 16 * PAGE + 100; // a partial last page
        let dir = temp_dir("written-bits");
        let file_cfg = MediaConfig::File { dir: dir.clone() };
        for cfg in [MediaConfig::Heap, file_cfg.clone()] {
            let mut m = cfg.create_device(0, CAP).unwrap();
            assert_eq!(m.written_pages().count(), 0, "{}", cfg.kind());
            m.write(PAGE - 2, &[7; 4]); // straddles pages 0 and 1
            m.fill(3 * PAGE, 2 * PAGE, 0xC3);
            m.fill(4 * PAGE, PAGE, 0); // zero-fill after use
            m.copy_within(3 * PAGE, 8 * PAGE + 10, 20);
            m.write(CAP - 1, &[1]);
            let mut src = PmMedia::new(CAP);
            src.write(0, &[9; 64]);
            src.copy_to(0, &mut m, 11 * PAGE, 64);
            let written: Vec<usize> = m.written_pages().collect();
            assert_eq!(written, [0, 1, 3, 4, 8, 11, 16], "{}", cfg.kind());
            let image = m.image();
            for (page, bytes) in image.chunks(PAGE).enumerate() {
                if !written.contains(&page) {
                    assert!(bytes.iter().all(|&b| b == 0), "{} page {page}", cfg.kind());
                }
            }
            let mut buf = [0u8; PAGE];
            assert_eq!(m.peek_page(16, &mut buf), &image[16 * PAGE..]);
        }
        // A reopened file comes with unknown contents: every page counts.
        let reopened = file_cfg.reopen_device(0, CAP).unwrap();
        assert_eq!(reopened.written_pages().count(), 17);
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_media_survives_reopen() {
        let dir = temp_dir("reopen");
        let cfg = MediaConfig::File { dir: dir.clone() };
        {
            let mut m = cfg.create_device(0, 8192).unwrap();
            m.write(100, &[0xAA; 64]);
            m.write(5000, b"durable");
        }
        let reopened = cfg.reopen_device(0, 8192).unwrap();
        let img = reopened.image();
        assert_eq!(&img[100..164], &[0xAA; 64]);
        assert_eq!(&img[5000..5007], b"durable");
        assert_eq!(&img[0..100], &[0u8; 100][..]);
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_media_open_rejects_short_file() {
        let dir = temp_dir("short");
        let cfg = MediaConfig::File { dir: dir.clone() };
        drop(cfg.create_device(0, 100).unwrap());
        let err = cfg.reopen_device(0, 200).unwrap_err();
        assert!(err.to_string().contains("need 200"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clone_detaches_to_heap_snapshot() {
        let dir = temp_dir("clone");
        let mut file = MediaConfig::File { dir: dir.clone() }
            .create_device(0, 4096)
            .unwrap();
        file.write(0, &[5; 16]);
        let clone = file.clone();
        assert_eq!(clone.kind(), MediaKind::Heap);
        assert_eq!(&clone.image()[..16], &[5; 16]);
        drop(file);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn media_config_selects_backend() {
        let heap = MediaConfig::Heap.create_device(0, 64).unwrap();
        assert_eq!(heap.kind(), MediaKind::Heap);
        let dir = temp_dir("cfg-dir");
        let cfg = MediaConfig::File { dir: dir.clone() };
        let mut file = cfg.create_device(3, 64).unwrap();
        assert_eq!(file.kind(), MediaKind::File);
        file.write(0, &[1; 8]);
        let reopened = cfg.reopen_device(3, 64).unwrap();
        assert_eq!(&reopened.image()[..8], &[1; 8]);
        drop((file, reopened));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
