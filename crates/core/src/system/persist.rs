//! The persistence surface of [`NearPmSystem`]: the on-disk image format
//! (`persist_to` / `reopen_from`, the geometry manifest and the checkpoint
//! epoch it carries), reads of the persistent image, the media write log,
//! and the media accessors.

use std::path::Path;

use nearpm_pm::{InterleaveConfig, MediaConfig, MediaError, MediaKind, PmSpace, VirtAddr};

use super::NearPmSystem;
use crate::config::SystemConfig;
use crate::error::{Result, SystemError};

/// File name of the geometry manifest written by
/// [`NearPmSystem::persist_to`] next to the per-device image files.
pub const MANIFEST_NAME: &str = "manifest.nearpm";

/// Parsed contents of a media manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MediaManifest {
    capacity: u64,
    devices: u64,
    granularity: u64,
    /// Checkpoint epoch counter at the time the manifest was written
    /// (0 when the image predates epochs or none have completed).
    epoch: u64,
}

impl MediaManifest {
    /// Parses a manifest. A missing, malformed or repeated known key is an
    /// error; unknown keys are ignored for forward compatibility.
    fn parse(text: &str) -> std::result::Result<Self, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some("nearpm-media-manifest v1") => {}
            other => return Err(format!("unsupported manifest header {other:?}")),
        }
        let (mut capacity, mut devices, mut granularity, mut epoch) = (None, None, None, None);
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once(' ')
                .ok_or_else(|| format!("malformed manifest line {line:?}"))?;
            let slot = match key {
                "capacity" => &mut capacity,
                "devices" => &mut devices,
                "granularity" => &mut granularity,
                "epoch" => &mut epoch,
                _ => continue,
            };
            let parsed = value
                .parse::<u64>()
                .map_err(|e| format!("manifest {key} {value:?}: {e}"))?;
            if slot.replace(parsed).is_some() {
                return Err(format!("manifest repeats {key}"));
            }
        }
        Ok(MediaManifest {
            capacity: capacity.ok_or("manifest missing capacity")?,
            devices: devices.ok_or("manifest missing devices")?,
            granularity: granularity.ok_or("manifest missing granularity")?,
            epoch: epoch.unwrap_or(0),
        })
    }
}

impl NearPmSystem {
    /// Direct read of the persistent image, bypassing the (now empty) CPU
    /// cache — what recovery code sees immediately after a restart.
    pub fn persistent_read(&mut self, addr: VirtAddr, len: usize) -> Result<Vec<u8>> {
        let phys = self.pools.translate(addr)?;
        Ok(self.space.read_vec(phys, len))
    }

    /// Starts recording every media mutation (see
    /// [`nearpm_pm::PmSpace::enable_write_log`]). Call right after
    /// construction so the log is a complete history of the image.
    pub fn enable_media_write_log(&mut self) {
        self.space.enable_write_log();
    }

    /// Number of recorded media mutations (0 when logging is off).
    pub fn media_write_log_len(&self) -> usize {
        self.space.write_log_len()
    }

    /// Differential replay check: true iff replaying the recorded media
    /// write log onto a fresh zeroed space reproduces the current persistent
    /// image byte for byte. False when logging was never enabled.
    pub fn verify_write_log_replay(&self) -> bool {
        self.space.replay_matches()
    }

    /// Digest of the whole persistent image in O(pages written) (see
    /// [`nearpm_pm::PmSpace::content_digest`]): equal images digest equal,
    /// whatever their write history.
    pub fn media_digest(&self) -> u64 {
        self.space.content_digest()
    }

    /// Number of backing media devices (≥ 1 even in the CPU baseline, where
    /// the PM is still interleaved storage without NearPM logic).
    pub fn media_count(&self) -> usize {
        self.space.interleave().devices()
    }

    /// Owned copy of one backing device's full media image; does not
    /// perturb traffic statistics.
    pub fn device_image(&self, device: usize) -> Vec<u8> {
        self.space.device_image(device)
    }

    /// The storage engine backing the PM media.
    pub fn media_kind(&self) -> MediaKind {
        self.space.media_kind()
    }

    /// Flushes file-backed media to durable storage (fsync; no-op on the
    /// heap).
    pub fn sync_media(&mut self) -> Result<()> {
        Ok(self.space.sync_all()?)
    }

    /// Writes the device geometry manifest and every device's full media
    /// image into `dir`, so a fresh process can attach with
    /// [`NearPmSystem::reopen_from`]. Works from either storage engine (a
    /// heap-backed run can be checkpointed to disk): each image is written
    /// through a file medium and fsynced. For a space already file-backed
    /// in `dir` the files are the image and are only fsynced. Only the
    /// *persistence domain* is saved — volatile state (dirty cache lines,
    /// device FIFOs) is deliberately not, exactly as a real power failure
    /// would leave things.
    pub fn persist_to(&mut self, dir: &Path) -> Result<()> {
        let file_cfg = MediaConfig::File {
            dir: dir.to_path_buf(),
        };
        if self.space.media_config() == &file_cfg {
            self.space.sync_all()?;
        } else {
            for d in 0..self.media_count() {
                let image = self.space.device_image(d);
                let mut file = file_cfg.create_device(d, image.len())?;
                file.write(0, &image);
                file.sync()?;
            }
        }
        // The manifest is written last: its presence marks a complete image.
        self.write_manifest(dir)?;
        self.manifest_dir = Some(dir.to_path_buf());
        Ok(())
    }

    /// The serialized manifest for the current geometry and epoch.
    fn manifest_text(&self) -> String {
        format!(
            "nearpm-media-manifest v1\ncapacity {}\ndevices {}\ngranularity {}\nepoch {}\n",
            self.config.pm_capacity,
            self.space.interleave().devices(),
            self.config.interleave_granularity,
            self.checkpoint_epoch,
        )
    }

    /// Durably (re)writes the manifest in `dir` via a temp file and rename,
    /// so a crash mid-write leaves either the old manifest or the new one —
    /// never a torn file. The directory is fsynced after the rename, which
    /// is what makes the new name itself durable.
    fn write_manifest(&self, dir: &Path) -> Result<()> {
        use std::io::Write;
        let manifest = dir.join(MANIFEST_NAME);
        let tmp = dir.join(format!("{MANIFEST_NAME}.tmp"));
        let mut f = std::fs::File::create(&tmp)
            .map_err(|e| MediaError::io(format!("create manifest {}", tmp.display()), e))?;
        f.write_all(self.manifest_text().as_bytes())
            .and_then(|()| f.sync_all())
            .map_err(|e| MediaError::io(format!("write manifest {}", tmp.display()), e))?;
        drop(f);
        std::fs::rename(&tmp, &manifest)
            .map_err(|e| MediaError::io(format!("install manifest {}", manifest.display()), e))?;
        std::fs::File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| MediaError::io(format!("fsync image dir {}", dir.display()), e))?;
        Ok(())
    }

    /// The checkpoint epoch most recently made durable (0 until a
    /// checkpointing mechanism advances it). After
    /// [`NearPmSystem::reopen_from`] this is read back from the manifest, so
    /// reattachment does not need a replay pass to rediscover it.
    pub fn checkpoint_epoch(&self) -> u64 {
        self.checkpoint_epoch
    }

    /// Records a completed checkpoint epoch. When the system has a media
    /// manifest on disk (after [`NearPmSystem::persist_to`] or
    /// [`NearPmSystem::reopen_from`]), the manifest is atomically rewritten
    /// so the epoch survives process death alongside the images it
    /// describes; otherwise the epoch is tracked in the persistence-domain
    /// model only.
    pub fn set_checkpoint_epoch(&mut self, epoch: u64) -> Result<()> {
        self.checkpoint_epoch = epoch;
        if let Some(dir) = self.manifest_dir.clone() {
            self.write_manifest(&dir)?;
        }
        Ok(())
    }

    /// Attaches a fresh system to the media images a previous process left
    /// in `dir` (written by [`NearPmSystem::persist_to`], or by a
    /// file-backed run that died). The manifest's geometry must match
    /// `config`; the images are opened file-backed without zeroing. A
    /// missing, unreadable or corrupt manifest, and a missing or short
    /// device file, are [`SystemError::Media`] errors.
    ///
    /// The reopened system starts in the **crashed** state with a recorded
    /// failure event, mirroring [`NearPmSystem::crash`]: whatever volatile
    /// state the previous process had is gone, and callers must run their
    /// recovery path (`begin_recovery` → mechanism recovery →
    /// `finish_recovery`) before normal operation — the same protocol the
    /// in-process crash-point explorer proves invariants against.
    pub fn reopen_from(mut config: SystemConfig, dir: &Path) -> Result<Self> {
        let manifest_path = dir.join(MANIFEST_NAME);
        let text = std::fs::read_to_string(&manifest_path)
            .map_err(|e| MediaError::io(format!("read manifest {}", manifest_path.display()), e))?;
        let manifest = MediaManifest::parse(&text)
            .map_err(|msg| MediaError::msg(format!("{}: {msg}", manifest_path.display())))?;
        let devices_for_interleave = config.devices.max(1);
        if manifest.capacity != config.pm_capacity
            || manifest.devices != devices_for_interleave as u64
            || manifest.granularity != config.interleave_granularity
        {
            return Err(SystemError::Media {
                message: format!(
                    "manifest geometry mismatch: image has capacity={} devices={} \
                     granularity={}, config wants capacity={} devices={} granularity={}",
                    manifest.capacity,
                    manifest.devices,
                    manifest.granularity,
                    config.pm_capacity,
                    devices_for_interleave,
                    config.interleave_granularity
                ),
            });
        }
        let media = MediaConfig::File {
            dir: dir.to_path_buf(),
        };
        let space = PmSpace::reopen(
            config.pm_capacity,
            InterleaveConfig::new(devices_for_interleave, config.interleave_granularity),
            &media,
        )?;
        config.media = media;
        let mut sys = Self::with_space(config, space)?;
        sys.checkpoint_epoch = manifest.epoch;
        sys.manifest_dir = Some(dir.to_path_buf());
        // The previous process's volatile state is gone; surface that as a
        // crash so recovery-protocol checks behave exactly as after an
        // in-process failure.
        sys.crash();
        Ok(sys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nearpm_sim::Region;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("nearpm-persist-test-{}-{tag}", std::process::id()))
    }

    /// A two-device, 64 KiB system persisted into a fresh `dir`; returns its
    /// config and the manifest bytes it wrote.
    fn persisted(dir: &Path) -> (SystemConfig, Vec<u8>) {
        std::fs::remove_dir_all(dir).ok();
        let cfg = SystemConfig::nearpm_md().with_capacity(64 << 10);
        let mut sys = NearPmSystem::new(cfg.clone());
        sys.persist_to(dir).unwrap();
        (cfg, std::fs::read(dir.join(MANIFEST_NAME)).unwrap())
    }

    /// Reopens `dir` and checks the outcome is either a typed media error
    /// or a system with `cfg`'s geometry; returns whether it reopened.
    fn reopens_with_geometry(cfg: &SystemConfig, dir: &Path) -> bool {
        match NearPmSystem::reopen_from(cfg.clone(), dir) {
            Ok(sys) => {
                let devices = cfg.devices.max(1);
                let il = InterleaveConfig::new(devices, cfg.interleave_granularity);
                assert_eq!(sys.config().pm_capacity, cfg.pm_capacity);
                assert_eq!(
                    sys.config().interleave_granularity,
                    cfg.interleave_granularity
                );
                assert_eq!(sys.media_count(), devices);
                for d in 0..devices {
                    let len = sys.device_image(d).len() as u64;
                    assert_eq!(len, il.per_device_capacity(cfg.pm_capacity));
                }
                true
            }
            Err(SystemError::Media { .. }) => false,
            Err(other) => panic!("reopen returned a non-media error: {other}"),
        }
    }

    #[test]
    fn manifest_parses_and_rejects_garbage() {
        let m = MediaManifest::parse(
            "nearpm-media-manifest v1\ncapacity 100\ndevices 2\ngranularity 4096\n",
        )
        .unwrap();
        assert_eq!(
            m,
            MediaManifest {
                capacity: 100,
                devices: 2,
                granularity: 4096,
                // Pre-epoch manifests read back as epoch 0.
                epoch: 0
            }
        );
        let m = MediaManifest::parse(
            "nearpm-media-manifest v1\ncapacity 100\ndevices 2\ngranularity 4096\nepoch 7\n",
        )
        .unwrap();
        assert_eq!(m.epoch, 7);
        assert!(MediaManifest::parse("not a manifest").is_err());
        assert!(MediaManifest::parse("nearpm-media-manifest v1\ncapacity 100\n").is_err());
        assert!(MediaManifest::parse(
            "nearpm-media-manifest v1\ncapacity x\ndevices 2\ngranularity 4096"
        )
        .is_err());
    }

    #[test]
    fn manifest_cut_at_every_byte_reopens_typed() {
        let dir = temp_dir("cut");
        let (cfg, manifest) = persisted(&dir);
        assert!(reopens_with_geometry(&cfg, &dir));
        let mut reopened = 0;
        for len in 0..manifest.len() {
            std::fs::write(dir.join(MANIFEST_NAME), &manifest[..len]).unwrap();
            reopened += usize::from(reopens_with_geometry(&cfg, &dir));
        }
        // Three cuts keep every geometry key whole and end on no partial
        // line: after `granularity 4096`, after its newline (no epoch line
        // reads as epoch 0), and after `epoch 0`.
        assert_eq!(reopened, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_keys_and_values_reopen_typed() {
        let dir = temp_dir("keys");
        let (cfg, manifest) = persisted(&dir);
        let text = String::from_utf8(manifest).unwrap();
        let cases: [(&str, Vec<u8>, bool); 6] = [
            ("unknown key", format!("{text}future-key 7\n").into(), true),
            ("duplicate key", format!("{text}devices 2\n").into(), false),
            (
                "value past u64::MAX",
                text.replace("epoch 0", "epoch 18446744073709551616").into(),
                false,
            ),
            (
                "negative value",
                text.replace("devices 2", "devices -2").into(),
                false,
            ),
            (
                "non-UTF-8 bytes",
                [text.as_bytes(), b"\xFF\n"].concat(),
                false,
            ),
            ("empty file", Vec::new(), false),
        ];
        for (what, bytes, reopens) in cases {
            std::fs::write(dir.join(MANIFEST_NAME), &bytes).unwrap();
            assert_eq!(reopens_with_geometry(&cfg, &dir), reopens, "{what}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_device_files_reopen_typed() {
        let dir = temp_dir("devices");
        let device = dir.join(MediaConfig::device_file_name(1));
        type Damage = fn(&Path);
        let damages: [(&str, Damage); 3] = [
            ("missing", |p| std::fs::remove_file(p).unwrap()),
            ("one byte short", |p| {
                let f = std::fs::OpenOptions::new().write(true).open(p).unwrap();
                f.set_len(f.metadata().unwrap().len() - 1).unwrap();
            }),
            ("a directory", |p| {
                std::fs::remove_file(p).unwrap();
                std::fs::create_dir(p).unwrap();
            }),
        ];
        for (what, damage) in damages {
            let (cfg, _) = persisted(&dir);
            damage(&device);
            assert!(!reopens_with_geometry(&cfg, &dir), "device file {what}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A valid manifest with random bytes flipped, and in half the cases
        /// also cut at a random length, reopens to a typed error or to the
        /// configured geometry.
        #[test]
        fn flipped_manifest_bytes_reopen_typed(seed in 0u64..u32::MAX as u64, flips in 1usize..5) {
            let dir = temp_dir(&format!("flip-{seed}"));
            let (cfg, mut manifest) = persisted(&dir);
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..flips {
                let at = rng.gen_range(0..manifest.len());
                manifest[at] ^= rng.gen_range(1..=255u8);
            }
            let len = if rng.gen_range(0..2u32) == 0 {
                manifest.len()
            } else {
                rng.gen_range(0..=manifest.len())
            };
            std::fs::write(dir.join(MANIFEST_NAME), &manifest[..len]).unwrap();
            reopens_with_geometry(&cfg, &dir);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// A second `persist_to` into a directory replaces the image the first
    /// left there; the source here is file-backed elsewhere, so its images
    /// are copied through the file engine like a heap system's.
    #[test]
    fn persist_to_replaces_an_older_image() {
        let (dir, source) = (temp_dir("replace"), temp_dir("replace-source"));
        let cfg = SystemConfig::nearpm_md().with_capacity(4 << 20);
        let mut sys = NearPmSystem::new(cfg.clone().with_media(MediaConfig::File {
            dir: source.clone(),
        }));
        let pool = sys.create_pool("p", 1 << 20).unwrap();
        let a = sys.alloc(pool, 8192, 64).unwrap();
        sys.cpu_write_persist(0, a, &[1; 8192], Region::AppPersist)
            .unwrap();
        sys.persist_to(&dir).unwrap();
        sys.cpu_write_persist(0, a, &[2; 64], Region::AppPersist)
            .unwrap();
        sys.persist_to(&dir).unwrap();
        let mut reopened = NearPmSystem::reopen_from(cfg, &dir).unwrap();
        for d in 0..sys.media_count() {
            assert_eq!(reopened.device_image(d), sys.device_image(d), "device {d}");
        }
        reopened.create_pool("p", 1 << 20).unwrap();
        assert_eq!(reopened.persistent_read(a, 64).unwrap(), vec![2; 64]);
        assert_eq!(
            reopened.persistent_read(a.offset(64), 64).unwrap(),
            vec![1; 64]
        );
        drop((sys, reopened));
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&source).unwrap();
    }

    #[test]
    fn media_accessors_report_backend_state() {
        let dir = temp_dir("accessors");
        let mut digests = Vec::new();
        for media in [MediaConfig::Heap, MediaConfig::File { dir: dir.clone() }] {
            let kind = media.kind();
            let mut sys = NearPmSystem::new(
                SystemConfig::nearpm_md()
                    .with_capacity(4 << 20)
                    .with_media(media),
            );
            assert_eq!(sys.media_kind(), kind);
            assert_eq!(sys.media_count(), 2);
            let empty = sys.media_digest();
            let pool = sys.create_pool("p", 1 << 20).unwrap();
            let a = sys.alloc(pool, 4096, 64).unwrap();
            sys.cpu_write_persist(0, a, &[1; 64], Region::AppPersist)
                .unwrap();
            assert_ne!(sys.media_digest(), empty, "{kind}");
            assert_eq!(sys.persistent_read(a, 64).unwrap(), vec![1; 64]);
            sys.sync_media().unwrap();
            digests.push(sys.media_digest());
        }
        assert_eq!(digests[0], digests[1], "heap and file images digest equal");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
