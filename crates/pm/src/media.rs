//! The PM storage medium of one device.
//!
//! [`PmMedia`] stores the *persistent* image of one emulated PM device: bytes
//! written here survive a crash. The prototype in the paper emulates PM with
//! the FPGA's on-board DRAM; here the storage engine is pluggable behind the
//! [`MediaBackend`] trait:
//!
//! * [`HeapMedia`] — a plain in-RAM byte vector, the default. Fast, but the
//!   "persistent" image dies with the process; crash/recovery results are
//!   proven against an in-process model only.
//! * [`FileMedia`] — one flat file per device, accessed with positional
//!   `pread`/`pwrite`. Every media write is a write to the file, so the image
//!   survives process exit/abort and a fresh process can reopen it
//!   (real durability for restartable crash-recovery runs).
//! * [`SparseMedia`] — a page table of lazily allocated 4 KiB pages that
//!   read as zeros until first written, so a 100-device × multi-GiB geometry
//!   costs only the bytes actually touched.
//!
//! `PmMedia` itself is a thin wrapper that owns the access statistics; the
//! counters are maintained here, identically for every engine, so traffic
//! accounting is byte-for-byte the same regardless of the backend.
//! Everything that is *not* yet in a `PmMedia` (CPU cache lines that have not
//! been written back, device buffers outside the persistence domain) is lost
//! on a simulated failure.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Page granularity of [`SparseMedia`] allocation.
pub const SPARSE_PAGE: usize = 4096;

/// Which storage engine backs a [`PmMedia`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MediaKind {
    /// In-RAM `Vec<u8>` (volatile; the default).
    Heap,
    /// Flat file per device, positional read/write (durable).
    File,
    /// Lazily allocated 4 KiB pages, zero-fill on first touch (volatile).
    Sparse,
}

impl fmt::Display for MediaKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MediaKind::Heap => write!(f, "heap"),
            MediaKind::File => write!(f, "file"),
            MediaKind::Sparse => write!(f, "sparse"),
        }
    }
}

/// Selects and parameterizes the storage engine for every device of a
/// [`crate::PmSpace`]. `Heap` is the default and is behavior-preserving with
/// the pre-trait implementation.
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
    /// Lazily allocated sparse pages.
    Sparse,
}

impl MediaConfig {
    /// The engine kind this configuration selects.
    pub fn kind(&self) -> MediaKind {
        match self {
            MediaConfig::Heap => MediaKind::Heap,
            MediaConfig::File { .. } => MediaKind::File,
            MediaConfig::Sparse => MediaKind::Sparse,
        }
    }

    /// File name of device `device`'s image under a `File` directory.
    pub fn device_file_name(device: usize) -> String {
        format!("device-{device}.pm")
    }

    /// Opens a fresh (zeroed) backend for device `device`.
    pub fn create_device(&self, device: usize, capacity: usize) -> Result<PmMedia, MediaError> {
        let backend: Box<dyn MediaBackend> = match self {
            MediaConfig::Heap => Box::new(HeapMedia::new(capacity)),
            MediaConfig::Sparse => Box::new(SparseMedia::new(capacity)),
            MediaConfig::File { dir } => {
                Box::new(FileMedia::create(&device_path(dir, device), capacity)?)
            }
        };
        Ok(PmMedia::from_backend(backend))
    }

    /// Reopens an existing backend for device `device` without zeroing it.
    ///
    /// Only meaningful for `File`: the image file must already exist and be
    /// at least `capacity` bytes long. For the volatile engines this is the
    /// same as [`MediaConfig::create_device`] (there is nothing to reopen).
    pub fn reopen_device(&self, device: usize, capacity: usize) -> Result<PmMedia, MediaError> {
        match self {
            MediaConfig::File { dir } => {
                let backend = FileMedia::open(&device_path(dir, device), capacity)?;
                Ok(PmMedia::from_backend(Box::new(backend)))
            }
            _ => self.create_device(device, capacity),
        }
    }
}

fn device_path(dir: &Path, device: usize) -> PathBuf {
    dir.join(MediaConfig::device_file_name(device))
}

/// Error raised when a non-heap backend cannot be created, opened, or
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

/// A storage engine for one device's persistent image.
///
/// Backends store bytes only; access statistics, bounds-check panics on the
/// simulator's hot paths, and the public device API all live in [`PmMedia`]
/// so that every engine behaves identically apart from where the bytes live.
/// Bounds are checked by `PmMedia` before delegation, so implementations may
/// assume `offset + len <= capacity`.
pub trait MediaBackend: fmt::Debug + Send {
    /// Capacity in bytes.
    fn capacity(&self) -> usize;

    /// Reads `buf.len()` bytes at `offset`. Takes `&self` so that stat-free
    /// peeks (recovery checks, differential oracles) work on shared
    /// references.
    fn read_at(&self, offset: usize, buf: &mut [u8]);

    /// Writes `data` at `offset`. Durable immediately for durable engines.
    fn write_at(&mut self, offset: usize, data: &[u8]);

    /// Fills `len` bytes at `offset` with `value`.
    fn fill_at(&mut self, offset: usize, len: usize, value: u8) {
        // Engines without a cheaper path write a materialized run.
        self.write_at(offset, &vec![value; len]);
    }

    /// Which engine this is.
    fn kind(&self) -> MediaKind;

    /// Bytes of RAM this backend currently holds resident (images, page
    /// tables). `FileMedia` reports 0: its image lives in the file.
    fn resident_bytes(&self) -> usize;

    /// Direct view of the full image when the engine keeps it contiguously
    /// in RAM (`HeapMedia` only). Zero-copy paths use this and fall back to
    /// buffered copies when it is `None`.
    fn as_bytes(&self) -> Option<&[u8]> {
        None
    }

    /// Mutable direct view of the full image (`HeapMedia` only).
    fn as_bytes_mut(&mut self) -> Option<&mut [u8]> {
        None
    }

    /// Flushes buffered state to durable storage. No-op for volatile engines.
    fn sync(&mut self) -> Result<(), MediaError> {
        Ok(())
    }

    /// Clones this backend into an independent in-RAM copy.
    ///
    /// Cloning always *detaches*: the clone is a `HeapMedia` snapshot of the
    /// current image, never a second handle on the same file. Clones are
    /// used by differential oracles and write-log replay, which want an
    /// independent image, not shared storage.
    fn snapshot(&self) -> HeapMedia;
}

/// In-RAM storage engine: a plain byte vector (the pre-trait behavior).
#[derive(Debug, Clone)]
pub struct HeapMedia {
    bytes: Vec<u8>,
}

impl HeapMedia {
    /// Creates a zero-initialized heap image of `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        HeapMedia {
            bytes: vec![0; capacity],
        }
    }

    /// Builds a heap image from an existing byte vector.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        HeapMedia { bytes }
    }
}

impl MediaBackend for HeapMedia {
    fn capacity(&self) -> usize {
        self.bytes.len()
    }

    fn read_at(&self, offset: usize, buf: &mut [u8]) {
        buf.copy_from_slice(&self.bytes[offset..offset + buf.len()]);
    }

    fn write_at(&mut self, offset: usize, data: &[u8]) {
        self.bytes[offset..offset + data.len()].copy_from_slice(data);
    }

    fn fill_at(&mut self, offset: usize, len: usize, value: u8) {
        self.bytes[offset..offset + len].fill(value);
    }

    fn kind(&self) -> MediaKind {
        MediaKind::Heap
    }

    fn resident_bytes(&self) -> usize {
        self.bytes.len()
    }

    fn as_bytes(&self) -> Option<&[u8]> {
        Some(&self.bytes)
    }

    fn as_bytes_mut(&mut self) -> Option<&mut [u8]> {
        Some(&mut self.bytes)
    }

    fn snapshot(&self) -> HeapMedia {
        self.clone()
    }
}

/// Durable storage engine: one flat file, accessed with positional I/O.
///
/// Every write lands in the file immediately (through the OS page cache), so
/// an aborted process leaves exactly the bytes it had written — the property
/// the restart-recovery harness relies on. [`MediaBackend::sync`] runs
/// `fsync` for power-failure-grade durability when callers want it.
#[derive(Debug)]
pub struct FileMedia {
    file: File,
    path: PathBuf,
    capacity: usize,
}

impl FileMedia {
    /// Creates (or truncates) the image file at `path`, zero-extended to
    /// `capacity` bytes.
    pub fn create(path: &Path, capacity: usize) -> Result<Self, MediaError> {
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
            capacity,
        })
    }

    /// Opens an existing image file without truncating or zeroing it.
    pub fn open(path: &Path, capacity: usize) -> Result<Self, MediaError> {
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
            capacity,
        })
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl MediaBackend for FileMedia {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn read_at(&self, offset: usize, buf: &mut [u8]) {
        self.file
            .read_exact_at(buf, offset as u64)
            .unwrap_or_else(|e| panic!("PM file read at {offset} failed: {e}"));
    }

    fn write_at(&mut self, offset: usize, data: &[u8]) {
        self.file
            .write_all_at(data, offset as u64)
            .unwrap_or_else(|e| panic!("PM file write at {offset} failed: {e}"));
    }

    fn kind(&self) -> MediaKind {
        MediaKind::File
    }

    fn resident_bytes(&self) -> usize {
        0
    }

    fn sync(&mut self) -> Result<(), MediaError> {
        self.file
            .sync_data()
            .map_err(|e| MediaError::io(format!("fsync media file {}", self.path.display()), e))
    }

    fn snapshot(&self) -> HeapMedia {
        let mut bytes = vec![0u8; self.capacity];
        self.read_at(0, &mut bytes);
        HeapMedia::from_bytes(bytes)
    }
}

/// Sparse storage engine: 4 KiB pages allocated on first write.
///
/// Unwritten pages read as zeros without allocating, so capacity is free and
/// only the touched working set costs RAM. A `BTreeMap` keyed by page index
/// keeps iteration (snapshots, resident accounting) deterministic.
#[derive(Debug, Clone)]
pub struct SparseMedia {
    pages: BTreeMap<usize, Box<[u8; SPARSE_PAGE]>>,
    capacity: usize,
}

impl SparseMedia {
    /// Creates a sparse medium of `capacity` bytes with no pages resident.
    pub fn new(capacity: usize) -> Self {
        SparseMedia {
            pages: BTreeMap::new(),
            capacity,
        }
    }

    fn page_mut(&mut self, index: usize) -> &mut [u8; SPARSE_PAGE] {
        self.pages
            .entry(index)
            .or_insert_with(|| Box::new([0u8; SPARSE_PAGE]))
    }
}

impl MediaBackend for SparseMedia {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn read_at(&self, offset: usize, buf: &mut [u8]) {
        let mut pos = 0;
        while pos < buf.len() {
            let at = offset + pos;
            let page = at / SPARSE_PAGE;
            let in_page = at % SPARSE_PAGE;
            let chunk = (SPARSE_PAGE - in_page).min(buf.len() - pos);
            match self.pages.get(&page) {
                Some(p) => buf[pos..pos + chunk].copy_from_slice(&p[in_page..in_page + chunk]),
                None => buf[pos..pos + chunk].fill(0),
            }
            pos += chunk;
        }
    }

    fn write_at(&mut self, offset: usize, data: &[u8]) {
        let mut pos = 0;
        while pos < data.len() {
            let at = offset + pos;
            let page = at / SPARSE_PAGE;
            let in_page = at % SPARSE_PAGE;
            let chunk = (SPARSE_PAGE - in_page).min(data.len() - pos);
            self.page_mut(page)[in_page..in_page + chunk].copy_from_slice(&data[pos..pos + chunk]);
            pos += chunk;
        }
    }

    fn fill_at(&mut self, offset: usize, len: usize, value: u8) {
        let mut pos = 0;
        while pos < len {
            let at = offset + pos;
            let page = at / SPARSE_PAGE;
            let in_page = at % SPARSE_PAGE;
            let chunk = (SPARSE_PAGE - in_page).min(len - pos);
            if value == 0 && in_page == 0 && chunk == SPARSE_PAGE {
                // A full-page zero fill can simply drop the page.
                self.pages.remove(&page);
            } else if value != 0 || self.pages.contains_key(&page) {
                self.page_mut(page)[in_page..in_page + chunk].fill(value);
            }
            pos += chunk;
        }
    }

    fn kind(&self) -> MediaKind {
        MediaKind::Sparse
    }

    fn resident_bytes(&self) -> usize {
        self.pages.len() * SPARSE_PAGE
    }

    fn snapshot(&self) -> HeapMedia {
        let mut bytes = vec![0u8; self.capacity];
        for (&index, page) in &self.pages {
            let start = index * SPARSE_PAGE;
            let end = (start + SPARSE_PAGE).min(self.capacity);
            bytes[start..end].copy_from_slice(&page[..end - start]);
        }
        HeapMedia::from_bytes(bytes)
    }
}

/// Persistent storage medium of a single PM device: access statistics plus a
/// pluggable [`MediaBackend`] holding the bytes.
#[derive(Debug)]
pub struct PmMedia {
    backend: Box<dyn MediaBackend>,
    writes: u64,
    bytes_written: u64,
    reads: u64,
    bytes_read: u64,
}

impl Clone for PmMedia {
    /// Clones detach to an in-RAM snapshot (see [`MediaBackend::snapshot`]).
    fn clone(&self) -> Self {
        PmMedia {
            backend: Box::new(self.backend.snapshot()),
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
        PmMedia::from_backend(Box::new(HeapMedia::new(capacity)))
    }

    /// Wraps an existing backend with fresh statistics.
    pub fn from_backend(backend: Box<dyn MediaBackend>) -> Self {
        PmMedia {
            backend,
            writes: 0,
            bytes_written: 0,
            reads: 0,
            bytes_read: 0,
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.backend.capacity()
    }

    /// Which storage engine backs this medium.
    pub fn kind(&self) -> MediaKind {
        self.backend.kind()
    }

    /// Bytes of RAM the backend currently holds resident.
    pub fn resident_bytes(&self) -> usize {
        self.backend.resident_bytes()
    }

    /// Flushes the backend to durable storage (no-op for volatile engines).
    pub fn sync(&mut self) -> Result<(), MediaError> {
        self.backend.sync()
    }

    /// Reads `buf.len()` bytes starting at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the access runs past the end of the medium; the allocator
    /// and interleaver are responsible for never issuing such accesses.
    pub fn read(&mut self, offset: usize, buf: &mut [u8]) {
        let end = offset + buf.len();
        assert!(
            end <= self.capacity(),
            "PM read out of bounds: {offset}..{end}"
        );
        self.backend.read_at(offset, buf);
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
            end <= self.capacity(),
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
            end <= self.capacity(),
            "PM write out of bounds: {offset}..{end}"
        );
        self.backend.write_at(offset, data);
        self.writes += 1;
        self.bytes_written += data.len() as u64;
    }

    /// Fills `len` bytes starting at `offset` with `value`.
    pub fn fill(&mut self, offset: usize, len: usize, value: u8) {
        let end = offset + len;
        assert!(
            end <= self.capacity(),
            "PM fill out of bounds: {offset}..{end}"
        );
        self.backend.fill_at(offset, len, value);
        self.writes += 1;
        self.bytes_written += len as u64;
    }

    /// Copies `len` bytes from `src` to `dst` inside the medium (the DMA
    /// engine's local copy path).
    pub fn copy_within(&mut self, src: usize, dst: usize, len: usize) {
        assert!(src + len <= self.capacity(), "PM copy source out of bounds");
        assert!(
            dst + len <= self.capacity(),
            "PM copy destination out of bounds"
        );
        if let Some(bytes) = self.backend.as_bytes_mut() {
            bytes.copy_within(src..src + len, dst);
        } else {
            let mut buf = vec![0u8; len];
            self.backend.read_at(src, &mut buf);
            self.backend.write_at(dst, &buf);
        }
        self.reads += 1;
        self.bytes_read += len as u64;
        self.writes += 1;
        self.bytes_written += len as u64;
    }

    /// Copies `len` bytes from `self` at `src_offset` into `dst` at
    /// `dst_offset` without an intermediate buffer when both engines expose
    /// their image directly (the cross-device DMA path).
    pub fn copy_to(&mut self, src_offset: usize, dst: &mut PmMedia, dst_offset: usize, len: usize) {
        assert!(
            src_offset + len <= self.capacity(),
            "PM cross-copy source out of bounds"
        );
        assert!(
            dst_offset + len <= dst.capacity(),
            "PM cross-copy destination out of bounds"
        );
        match (self.backend.as_bytes(), dst.backend.as_bytes_mut()) {
            (Some(src), Some(dstb)) => {
                dstb[dst_offset..dst_offset + len]
                    .copy_from_slice(&src[src_offset..src_offset + len]);
            }
            _ => {
                let mut buf = vec![0u8; len];
                self.backend.read_at(src_offset, &mut buf);
                dst.backend.write_at(dst_offset, &buf);
            }
        }
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

    /// Read-only view of the full contents, used by recovery checks in tests.
    ///
    /// # Panics
    ///
    /// Panics for engines that do not keep the image contiguously in RAM
    /// (`FileMedia`, `SparseMedia`); backend-agnostic callers should use
    /// [`PmMedia::image`] or [`PmMedia::peek`] instead.
    pub fn contents(&self) -> &[u8] {
        self.backend.as_bytes().unwrap_or_else(|| {
            panic!(
                "PmMedia::contents() requires a heap backend (have {}); use image()/peek()",
                self.backend.kind()
            )
        })
    }

    /// Owned copy of the full image; works for every engine and does not
    /// touch the traffic statistics.
    pub fn image(&self) -> Vec<u8> {
        let mut bytes = vec![0u8; self.capacity()];
        self.backend.read_at(0, &mut bytes);
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
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

    fn exercise(m: &mut PmMedia) {
        m.write(10, &[1, 2, 3, 4, 5]);
        m.fill(4000, 200, 0xEE); // straddles a sparse page boundary
        m.copy_within(10, 8000, 5);
        m.write(4099, &[9]);
    }

    #[test]
    fn backends_produce_identical_images_and_stats() {
        let mut heap = PmMedia::new(16384);
        let mut sparse = PmMedia::from_backend(Box::new(SparseMedia::new(16384)));
        let path = temp_path("equiv");
        let mut file = PmMedia::from_backend(Box::new(FileMedia::create(&path, 16384).unwrap()));
        exercise(&mut heap);
        exercise(&mut sparse);
        exercise(&mut file);
        assert_eq!(heap.image(), sparse.image());
        assert_eq!(heap.image(), file.image());
        for m in [&heap, &sparse, &file] {
            assert_eq!(m.write_ops(), heap.write_ops());
            assert_eq!(m.bytes_written(), heap.bytes_written());
            assert_eq!(m.read_ops(), heap.read_ops());
            assert_eq!(m.bytes_read(), heap.bytes_read());
        }
        drop(file);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_media_survives_reopen() {
        let path = temp_path("reopen");
        {
            let mut m = PmMedia::from_backend(Box::new(FileMedia::create(&path, 8192).unwrap()));
            m.write(100, &[0xAA; 64]);
            m.write(5000, b"durable");
        }
        let reopened = PmMedia::from_backend(Box::new(FileMedia::open(&path, 8192).unwrap()));
        let img = reopened.image();
        assert_eq!(&img[100..164], &[0xAA; 64]);
        assert_eq!(&img[5000..5007], b"durable");
        assert_eq!(&img[0..100], &[0u8; 100][..]);
        drop(reopened);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_media_open_rejects_short_file() {
        let path = temp_path("short");
        drop(FileMedia::create(&path, 100).unwrap());
        let err = FileMedia::open(&path, 200).unwrap_err();
        assert!(err.to_string().contains("need 200"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sparse_media_allocates_lazily() {
        let mut m = PmMedia::from_backend(Box::new(SparseMedia::new(1 << 30)));
        assert_eq!(m.resident_bytes(), 0);
        assert_eq!(m.read_vec(512 << 20, 64), vec![0u8; 64]);
        m.write(256 << 20, &[1; 10]);
        assert_eq!(m.resident_bytes(), SPARSE_PAGE);
        m.write((256 << 20) + SPARSE_PAGE - 1, &[2, 3]); // straddle
        assert_eq!(m.resident_bytes(), 2 * SPARSE_PAGE);
        let mut buf = [0u8; 2];
        m.peek((256 << 20) + SPARSE_PAGE - 1, &mut buf);
        assert_eq!(buf, [2, 3]);
    }

    #[test]
    fn sparse_full_page_zero_fill_drops_page() {
        let mut m = PmMedia::from_backend(Box::new(SparseMedia::new(1 << 20)));
        m.write(0, &[1; SPARSE_PAGE]);
        assert_eq!(m.resident_bytes(), SPARSE_PAGE);
        m.fill(0, SPARSE_PAGE, 0);
        assert_eq!(m.resident_bytes(), 0);
        assert_eq!(m.read_vec(0, 16), vec![0u8; 16]);
    }

    #[test]
    fn clone_detaches_to_heap_snapshot() {
        let path = temp_path("clone");
        let mut file = PmMedia::from_backend(Box::new(FileMedia::create(&path, 4096).unwrap()));
        file.write(0, &[5; 16]);
        let clone = file.clone();
        assert_eq!(clone.kind(), MediaKind::Heap);
        assert_eq!(&clone.image()[..16], &[5; 16]);
        drop(file);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn media_config_selects_backend() {
        let heap = MediaConfig::Heap.create_device(0, 64).unwrap();
        assert_eq!(heap.kind(), MediaKind::Heap);
        let sparse = MediaConfig::Sparse.create_device(0, 64).unwrap();
        assert_eq!(sparse.kind(), MediaKind::Sparse);
        let dir = temp_path("cfg-dir");
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
