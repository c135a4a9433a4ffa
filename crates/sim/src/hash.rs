//! The workspace's one hasher for in-process maps.
//!
//! Every hashed map in the simulator is looked up once or more per posted
//! command: the task graph's per-resource state, the device's address
//! mapping and in-flight tables, the crash explorer's seen set. Their keys
//! are small integers, enums and tuples of them, produced by the program
//! itself, so the DoS resistance std's SipHash pays for buys nothing here.
//! [`FxHasher`] folds each word in with one add and one multiply, and
//! [`FxHashMap`] / [`FxHashSet`] are std's map and set over it.
//!
//! A multiplicative hash mixes upwards: the product's low bits depend only
//! on the key's low bits, so keys that are multiples of a power of two
//! (page numbers, aligned addresses) would all share their low bits, and a
//! hash table indexes buckets by the low bits. [`Hasher::finish`] therefore
//! rotates the product's well-mixed high bits down.
//!
//! The maps iterate in a fixed order for a given insertion history (no
//! per-process random seed), but nothing may depend on that order either:
//! a map whose iteration feeds simulated state is a `BTreeMap` or a `Vec`.

use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (the constant of rustc's Fx hash,
/// version 2).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Multiply-rotate hasher for program-generated keys: each word is added to
/// the state and the sum multiplied by an odd constant; `finish` rotates the
/// high bits down so aligned keys spread over a table's low-bit buckets.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Builds [`FxHasher`]s (stateless: every map hashes a key the same way).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// std's `HashMap` over [`FxHasher`]. Construct it with `default()` or
/// `with_capacity_and_hasher(n, Default::default())`.
#[allow(clippy::disallowed_types)]
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// std's `HashSet` over [`FxHasher`].
#[allow(clippy::disallowed_types)]
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(x: T) -> u64 {
        FxBuildHasher::default().hash_one(x)
    }

    /// Most keys of one family that share a value of the hash's low 10 bits
    /// (the bucket index of a 1,024-bucket table).
    fn worst_bucket(step: u64) -> usize {
        let mut buckets = vec![0usize; 1024];
        for i in 0..1024u64 {
            buckets[(hash_of(i * step) & 1023) as usize] += 1;
        }
        buckets.into_iter().max().unwrap()
    }

    #[test]
    fn aligned_key_families_spread_over_low_bit_buckets() {
        // Consecutive integers, cache lines, pages and 1 MiB regions: the
        // rotated finish keeps every family within a few keys per bucket,
        // where the unrotated product puts all multiples of 4,096 in one.
        for step in [1, 64, 4096, 1 << 20] {
            let worst = worst_bucket(step);
            assert!(worst <= 4, "step {step}: {worst} keys share a bucket");
        }
    }

    #[test]
    fn hashing_is_deterministic_and_separates_nearby_keys() {
        assert_eq!(hash_of((3u64, Some(7u32))), hash_of((3u64, Some(7u32))));
        assert_ne!(hash_of((3u64, Some(7u32))), hash_of((3u64, None::<u32>)));
        assert_ne!(hash_of("data-movement"), hash_of("data-movemenu"));
        // A byte string hashes every byte, including a partial last word.
        let bytes = |b: &[u8]| {
            let mut h = FxHasher::default();
            h.write(b);
            h.finish()
        };
        assert_ne!(bytes(&[0; 9]), bytes(&[0, 0, 0, 0, 0, 0, 0, 0, 1]));
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i << 12, i);
        }
        assert!((0..1000).all(|i| m[&(i << 12)] == i));
        let s: FxHashSet<(usize, u64)> = (0..10).map(|i| (i, i as u64 * 64)).collect();
        assert!(s.contains(&(3, 192)) && !s.contains(&(3, 193)));
    }
}
