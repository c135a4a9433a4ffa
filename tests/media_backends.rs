//! Randomized differential tests of the two media engines: for any
//! interleaved multi-device geometry and any operation sequence, heap and
//! file media must be indistinguishable through the `PmSpace` API —
//! byte-identical device images, identical traffic stats, matching
//! write-log replays, and identical content digests. The heap engine is the
//! oracle; the file engine must never diverge from it. Write logging must
//! not change the traffic stats either, so an unlogged heap space is the
//! traffic oracle.

use nearpm::pm::{InterleaveConfig, MediaConfig, MediaKind, PhysAddr, PmSpace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

fn temp_dir(tag: &str, case: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "nearpm-media-prop-{tag}-{}-{case}",
        std::process::id()
    ))
}

/// One randomized op applied identically to every backend.
#[derive(Debug, Clone)]
enum Op {
    Write { addr: u64, data: Vec<u8> },
    Fill { addr: u64, len: u64, byte: u8 },
    CopyWithin { src: u64, dst: u64, len: u64 },
    Read { addr: u64, len: u64 },
}

/// Draws an op sequence confined to `capacity` bytes.
fn gen_ops(rng: &mut StdRng, capacity: u64, count: usize) -> Vec<Op> {
    (0..count)
        .map(|_| {
            let len = rng.gen_range(1..=(capacity / 4).min(9000));
            let addr = rng.gen_range(0..=capacity - len);
            match rng.gen_range(0..4u32) {
                0 => Op::Write {
                    addr,
                    data: (0..len).map(|_| rng.gen()).collect(),
                },
                1 => Op::Fill {
                    addr,
                    len,
                    byte: rng.gen(),
                },
                2 => {
                    let dst = rng.gen_range(0..=capacity - len);
                    Op::CopyWithin {
                        src: addr,
                        dst,
                        len,
                    }
                }
                _ => Op::Read { addr, len },
            }
        })
        .collect()
}

fn apply(space: &mut PmSpace, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Write { addr, data } => space.write(PhysAddr(*addr), data),
            Op::Fill { addr, len, byte } => space.fill(PhysAddr(*addr), *len as usize, *byte),
            Op::CopyWithin { src, dst, len } => {
                space.copy(PhysAddr(*src), PhysAddr(*dst), *len as usize)
            }
            Op::Read { addr, len } => {
                let _ = space.read_vec(PhysAddr(*addr), *len as usize);
            }
        }
    }
}

fn images(space: &PmSpace) -> Vec<Vec<u8>> {
    (0..space.interleave().devices())
        .map(|d| space.device_image(d))
        .collect()
}

/// Writes device 0's first page and then zero-fills it: a written page
/// that reads zero, which must digest like a page never touched.
fn wipe_first_page(il: InterleaveConfig, capacity: u64) -> Vec<Op> {
    let granule = il.granularity();
    let granules = il.per_device_capacity(capacity).min(4096) / granule;
    (0..granules)
        .flat_map(|k| {
            let addr = k * il.devices() as u64 * granule;
            [
                Op::Write {
                    addr,
                    data: vec![0xEE; granule as usize],
                },
                Op::Fill {
                    addr,
                    len: granule,
                    byte: 0,
                },
            ]
        })
        .collect()
}

/// A fresh heap space holding the physical `image` that writes only its
/// non-zero interleave granules. A granule is at most one page here, so
/// every page it writes is non-zero.
fn nonzero_only(il: InterleaveConfig, capacity: u64, image: &[u8]) -> PmSpace {
    let mut space = PmSpace::new(capacity, il);
    for (k, granule) in image.chunks(il.granularity() as usize).enumerate() {
        if granule.iter().any(|&b| b != 0) {
            space.write(PhysAddr(k as u64 * il.granularity()), granule);
        }
    }
    space
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Heap == File: images, traffic and write-log replay agree
    /// on random op sequences over random interleaved geometries, and
    /// traffic equals an unlogged space's. The content digest agrees too,
    /// and equals that of a space that only wrote the final non-zero
    /// granules, both after the random ops and after a page is written and
    /// then zero-filled on top of them.
    #[test]
    fn backends_are_indistinguishable(
        seed in 0u64..u32::MAX as u64,
        devices in 1usize..5,
        gran_exp in 6u32..13,
        op_count in 4usize..24,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let granularity = 1u64 << gran_exp;
        let capacity = devices as u64 * granularity * rng.gen_range(2u64..6);
        let il = InterleaveConfig::new(devices, granularity);
        let ops = gen_ops(&mut rng, capacity, op_count);
        let dir = temp_dir("indist", seed);

        let mut unlogged = PmSpace::with_media(capacity, il, &MediaConfig::Heap).unwrap();
        apply(&mut unlogged, &ops);
        let mut spaces = vec![
            PmSpace::with_media(capacity, il, &MediaConfig::Heap).unwrap(),
            PmSpace::with_media(capacity, il, &MediaConfig::File { dir: dir.clone() }).unwrap(),
        ];
        for space in &mut spaces {
            space.enable_write_log();
            apply(space, &ops);
        }

        let heap_images = images(&spaces[0]);
        for space in &spaces {
            prop_assert_eq!(images(space), heap_images.clone(), "images diverged ({})", space.media_kind());
            prop_assert_eq!(space.traffic(), unlogged.traffic(), "traffic diverged ({})", space.media_kind());
            prop_assert!(space.replay_matches(), "write-log replay diverged ({})", space.media_kind());
        }

        for wipe in [Vec::new(), wipe_first_page(il, capacity)] {
            for space in &mut spaces {
                apply(space, &wipe);
            }
            let nonzero = nonzero_only(il, capacity, &spaces[0].peek_vec(PhysAddr(0), capacity as usize));
            prop_assert_eq!(images(&nonzero), images(&spaces[0]));
            for space in &spaces {
                prop_assert_eq!(
                    space.content_digest(),
                    nonzero.content_digest(),
                    "digest diverged ({})",
                    space.media_kind()
                );
            }
        }
        drop(spaces);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A file-backed space reopened from disk is byte-identical to the
    /// space that wrote it, for random geometries and op sequences.
    #[test]
    fn file_backend_reopens_byte_identical(
        seed in 0u64..u32::MAX as u64,
        devices in 1usize..4,
        op_count in 3usize..16,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
        let granularity = 4096u64;
        let capacity = devices as u64 * granularity * 3;
        let il = InterleaveConfig::new(devices, granularity);
        let ops = gen_ops(&mut rng, capacity, op_count);
        let dir = temp_dir("reopen", seed);

        let before = {
            let mut space =
                PmSpace::with_media(capacity, il, &MediaConfig::File { dir: dir.clone() }).unwrap();
            apply(&mut space, &ops);
            space.sync_all().unwrap();
            images(&space)
        };
        let reopened =
            PmSpace::reopen(capacity, il, &MediaConfig::File { dir: dir.clone() }).unwrap();
        prop_assert_eq!(reopened.media_kind(), MediaKind::File);
        prop_assert_eq!(images(&reopened), before);
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    }
}
