//! # nearpm-kv — crash-consistent key-value structures
//!
//! Persistent key-value structures of the kind the paper's workloads exercise
//! (the PMDK example stores and PmemKV's B+-tree backend), built on the
//! transactional layer of `nearpm-pmdk`, so every mutation is failure-atomic
//! and transparently accelerated when the system has NearPM devices.
//!
//! * [`PersistentHashMap`] — fixed-bucket open-addressing hash map with
//!   64-byte values (the `hashmap` workload and the Memcached/Redis value
//!   store shape).
//! * [`PersistentIndex`] — sorted persistent index with fixed-size slots (the
//!   B-tree/B+-tree workloads' leaf-update shape).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

use nearpm_core::{NearPmSystem, Result, SystemError, VirtAddr};
use nearpm_pmdk::ObjPool;

/// Size of a stored value in bytes (the paper's workloads use 64 B values).
pub const VALUE_SIZE: usize = 64;
/// Size of one slot: 8-byte key + 8-byte state + value.
const SLOT_SIZE: u64 = 16 + VALUE_SIZE as u64;
const STATE_FULL: u64 = 1;

fn encode_slot(key: u64, value: &[u8]) -> Vec<u8> {
    let mut buf = vec![0u8; SLOT_SIZE as usize];
    buf[0..8].copy_from_slice(&key.to_le_bytes());
    buf[8..16].copy_from_slice(&STATE_FULL.to_le_bytes());
    let n = value.len().min(VALUE_SIZE);
    buf[16..16 + n].copy_from_slice(&value[..n]);
    buf
}

fn decode_slot(buf: &[u8]) -> Option<(u64, Vec<u8>)> {
    let key = u64::from_le_bytes(buf[0..8].try_into().ok()?);
    let state = u64::from_le_bytes(buf[8..16].try_into().ok()?);
    if state == STATE_FULL {
        Some((key, buf[16..16 + VALUE_SIZE].to_vec()))
    } else {
        None
    }
}

/// A crash-consistent open-addressing hash map with a fixed bucket count.
#[derive(Debug)]
pub struct PersistentHashMap {
    base: VirtAddr,
    buckets: u64,
    len: usize,
}

impl PersistentHashMap {
    /// Creates a map with `buckets` slots inside `pool`.
    pub fn create(sys: &mut NearPmSystem, pool: &mut ObjPool, buckets: u64) -> Result<Self> {
        let base = pool.alloc(sys, buckets * SLOT_SIZE)?;
        // Zero-initialize the bucket array durably.
        for b in 0..buckets {
            pool.write_persist(sys, base.offset(b * SLOT_SIZE), &[0u8; SLOT_SIZE as usize])?;
        }
        Ok(PersistentHashMap {
            base,
            buckets,
            len: 0,
        })
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn slot_addr(&self, idx: u64) -> VirtAddr {
        self.base.offset((idx % self.buckets) * SLOT_SIZE)
    }

    fn hash(&self, key: u64) -> u64 {
        key.wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.buckets
    }

    /// Inserts or updates `key` with `value` failure-atomically (one
    /// transaction per key; use [`PersistentHashMap::put_batch`] to fold a
    /// write burst into a single transaction). Returns
    /// [`SystemError::MapFull`] when probing finds no slot for a new key;
    /// the map is left untouched.
    pub fn put(
        &mut self,
        sys: &mut NearPmSystem,
        pool: &mut ObjPool,
        key: u64,
        value: &[u8],
    ) -> Result<()> {
        let (addr, is_new) = self.probe_slot(sys, pool, key)?;
        let bytes = encode_slot(key, value);
        pool.tx(sys, |tx, sys| tx.write(sys, addr, &bytes))?;
        if is_new {
            self.len += 1;
        }
        Ok(())
    }

    /// Inserts or updates a whole burst of `(key, value)` pairs in **one**
    /// failure-atomic transaction: every touched slot is undo-logged under a
    /// single transaction id and released by a single commit (one commit
    /// command per device instead of one per key). This is the shape of the
    /// paper's Memcached/Redis integrations, which batch a YCSB write burst
    /// per request into one NearPM transaction.
    ///
    /// Returns [`SystemError::MapFull`] when any entry of the burst finds no
    /// slot. Slots are resolved before the transaction opens, so a full map
    /// rejects the whole burst without writing anything.
    pub fn put_batch(
        &mut self,
        sys: &mut NearPmSystem,
        pool: &mut ObjPool,
        entries: &[(u64, &[u8])],
    ) -> Result<()> {
        if entries.is_empty() {
            return Ok(());
        }
        // Resolve every key to its slot before opening the transaction (probe
        // reads stay outside the failure-atomic section, as in `put`). The
        // batch's own pending writes are not visible to those reads, so
        // probing must treat slots claimed by *earlier entries with a
        // different key* as occupied — otherwise two colliding new keys
        // would both land in the same empty slot.
        let mut claimed: BTreeMap<VirtAddr, u64> = BTreeMap::new();
        let mut writes: Vec<(VirtAddr, Vec<u8>, bool)> = Vec::with_capacity(entries.len());
        for (key, value) in entries {
            let mut idx = self.hash(*key);
            let mut slot = None;
            for _ in 0..self.buckets {
                let addr = self.slot_addr(idx);
                if let Some(owner) = claimed.get(&addr) {
                    if owner == key {
                        // Duplicate key inside the batch: the later value
                        // overwrites, and the key counts as new only once.
                        slot = Some((addr, false));
                        break;
                    }
                    idx += 1;
                    continue;
                }
                let existing = pool.read(sys, addr, SLOT_SIZE as usize)?;
                match decode_slot(&existing) {
                    Some((k, _)) if k != *key => idx += 1,
                    existing_entry => {
                        slot = Some((addr, existing_entry.is_none()));
                        break;
                    }
                }
            }
            let Some((addr, is_new)) = slot else {
                // Probing exhausted every bucket before any slot was logged:
                // the map state is untouched, so the caller can recover (drop
                // entries, grow into a new map, …).
                return Err(SystemError::MapFull {
                    buckets: self.buckets,
                });
            };
            claimed.insert(addr, *key);
            writes.push((addr, encode_slot(*key, value), is_new));
        }
        pool.tx(sys, |tx, sys| {
            for (addr, bytes, _) in &writes {
                tx.write(sys, *addr, bytes)?;
            }
            Ok(())
        })?;
        self.len += writes.iter().filter(|(_, _, is_new)| *is_new).count();
        Ok(())
    }

    /// Probes for `key`'s slot, returning its address and whether the slot is
    /// currently empty (a new insertion).
    fn probe_slot(
        &mut self,
        sys: &mut NearPmSystem,
        pool: &mut ObjPool,
        key: u64,
    ) -> Result<(VirtAddr, bool)> {
        let mut idx = self.hash(key);
        for _ in 0..self.buckets {
            let addr = self.slot_addr(idx);
            let existing = pool.read(sys, addr, SLOT_SIZE as usize)?;
            match decode_slot(&existing) {
                Some((k, _)) if k != key => idx += 1,
                existing_entry => return Ok((addr, existing_entry.is_none())),
            }
        }
        Err(SystemError::MapFull {
            buckets: self.buckets,
        })
    }

    /// Looks up `key`.
    pub fn get(
        &mut self,
        sys: &mut NearPmSystem,
        pool: &mut ObjPool,
        key: u64,
    ) -> Result<Option<Vec<u8>>> {
        let mut idx = self.hash(key);
        for _ in 0..self.buckets {
            let addr = self.slot_addr(idx);
            let raw = pool.read(sys, addr, SLOT_SIZE as usize)?;
            match decode_slot(&raw) {
                Some((k, v)) if k == key => return Ok(Some(v)),
                Some(_) => idx += 1,
                None => return Ok(None),
            }
        }
        Ok(None)
    }

    /// Re-reads an entry from the persistent image (used by recovery tests).
    pub fn get_persistent(&self, sys: &mut NearPmSystem, key: u64) -> Result<Option<Vec<u8>>> {
        let mut idx = self.hash(key);
        for _ in 0..self.buckets {
            let addr = self.slot_addr(idx);
            let raw = sys.persistent_read(addr, SLOT_SIZE as usize)?;
            match decode_slot(&raw) {
                Some((k, v)) if k == key => return Ok(Some(v)),
                Some(_) => idx += 1,
                None => return Ok(None),
            }
        }
        Ok(None)
    }
}

/// A crash-consistent sorted index with fixed-size slots (insertion shifts
/// within a leaf region, like a B+-tree leaf).
#[derive(Debug)]
pub struct PersistentIndex {
    base: VirtAddr,
    capacity: u64,
    keys: Vec<u64>,
}

impl PersistentIndex {
    /// Creates an index with room for `capacity` entries.
    pub fn create(sys: &mut NearPmSystem, pool: &mut ObjPool, capacity: u64) -> Result<Self> {
        let base = pool.alloc(sys, capacity * SLOT_SIZE)?;
        Ok(PersistentIndex {
            base,
            capacity,
            keys: Vec::new(),
        })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Inserts `key` with `value`, keeping entries sorted by key.
    pub fn insert(
        &mut self,
        sys: &mut NearPmSystem,
        pool: &mut ObjPool,
        key: u64,
        value: &[u8],
    ) -> Result<()> {
        assert!((self.keys.len() as u64) < self.capacity, "index full");
        let pos = self.keys.partition_point(|&k| k < key);
        let bytes = encode_slot(key, value);
        // Shift the tail within one transaction, then write the new slot —
        // the write amplification pattern of a sorted leaf.
        pool.tx(sys, |tx, sys| {
            for i in (pos..self.keys.len()).rev() {
                let from = self.base.offset(i as u64 * SLOT_SIZE);
                let to = self.base.offset((i as u64 + 1) * SLOT_SIZE);
                let data = tx.read(sys, from, SLOT_SIZE as usize)?;
                tx.write(sys, to, &data)?;
            }
            tx.write(sys, self.base.offset(pos as u64 * SLOT_SIZE), &bytes)
        })?;
        self.keys.insert(pos, key);
        Ok(())
    }

    /// Looks up `key`.
    pub fn get(
        &mut self,
        sys: &mut NearPmSystem,
        pool: &mut ObjPool,
        key: u64,
    ) -> Result<Option<Vec<u8>>> {
        match self.keys.binary_search(&key) {
            Ok(pos) => {
                let raw = pool.read(
                    sys,
                    self.base.offset(pos as u64 * SLOT_SIZE),
                    SLOT_SIZE as usize,
                )?;
                Ok(decode_slot(&raw).map(|(_, v)| v))
            }
            Err(_) => Ok(None),
        }
    }

    /// Keys in sorted order.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nearpm_core::{ExecMode, SystemConfig};

    fn setup() -> (NearPmSystem, ObjPool) {
        let mut sys = NearPmSystem::new(SystemConfig::nearpm_md().with_capacity(32 << 20));
        let pool = ObjPool::create(&mut sys, "kv", 16 << 20).unwrap();
        (sys, pool)
    }

    #[test]
    fn hashmap_put_get_update() {
        let (mut sys, mut pool) = setup();
        let mut map = PersistentHashMap::create(&mut sys, &mut pool, 128).unwrap();
        assert!(map.is_empty());
        for k in 0..32u64 {
            map.put(&mut sys, &mut pool, k, &[k as u8; VALUE_SIZE])
                .unwrap();
        }
        assert_eq!(map.len(), 32);
        for k in 0..32u64 {
            assert_eq!(
                map.get(&mut sys, &mut pool, k).unwrap(),
                Some(vec![k as u8; VALUE_SIZE])
            );
        }
        assert_eq!(map.get(&mut sys, &mut pool, 999).unwrap(), None);
        // Update in place does not grow the map.
        map.put(&mut sys, &mut pool, 5, &[0xFF; VALUE_SIZE])
            .unwrap();
        assert_eq!(map.len(), 32);
        assert_eq!(
            map.get(&mut sys, &mut pool, 5).unwrap(),
            Some(vec![0xFF; VALUE_SIZE])
        );
        assert!(sys.report().ppo_violations.is_empty());
    }

    #[test]
    fn hashmap_matches_model_under_random_ops() {
        use rand::{Rng, SeedableRng};
        let (mut sys, mut pool) = setup();
        let mut map = PersistentHashMap::create(&mut sys, &mut pool, 256).unwrap();
        let mut model = BTreeMap::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..60 {
            let k = rng.gen_range(0..40u64);
            let v = vec![rng.gen::<u8>(); VALUE_SIZE];
            map.put(&mut sys, &mut pool, k, &v).unwrap();
            model.insert(k, v);
        }
        for (k, v) in &model {
            assert_eq!(map.get(&mut sys, &mut pool, *k).unwrap().as_ref(), Some(v));
        }
        assert_eq!(map.len(), model.len());
    }

    #[test]
    fn put_batch_matches_per_key_puts_and_commits_once() {
        let (mut sys, mut pool) = setup();
        let mut map = PersistentHashMap::create(&mut sys, &mut pool, 128).unwrap();
        let values: Vec<(u64, Vec<u8>)> =
            (0..16u64).map(|k| (k, vec![k as u8; VALUE_SIZE])).collect();
        let entries: Vec<(u64, &[u8])> = values.iter().map(|(k, v)| (*k, v.as_slice())).collect();
        let before = pool.committed();
        map.put_batch(&mut sys, &mut pool, &entries).unwrap();
        // One transaction for the whole burst.
        assert_eq!(pool.committed(), before + 1);
        assert_eq!(map.len(), 16);
        for k in 0..16u64 {
            assert_eq!(
                map.get(&mut sys, &mut pool, k).unwrap(),
                Some(vec![k as u8; VALUE_SIZE])
            );
        }
        // Updates through a batch do not grow the map; duplicates inside one
        // batch resolve to the last write and count once.
        let update = vec![0xEE; VALUE_SIZE];
        let fresh_a = vec![0x01; VALUE_SIZE];
        let fresh_b = vec![0x02; VALUE_SIZE];
        map.put_batch(
            &mut sys,
            &mut pool,
            &[(3, &update), (99, &fresh_a), (99, &fresh_b)],
        )
        .unwrap();
        assert_eq!(map.len(), 17);
        assert_eq!(map.get(&mut sys, &mut pool, 3).unwrap(), Some(update));
        assert_eq!(map.get(&mut sys, &mut pool, 99).unwrap(), Some(fresh_b));
        // Two *distinct* fresh keys that hash to the same bucket (k and
        // k + buckets collide) inside one batch must linear-probe into
        // separate slots, exactly as sequential puts would.
        let va = vec![0x51; VALUE_SIZE];
        let vb = vec![0x52; VALUE_SIZE];
        map.put_batch(&mut sys, &mut pool, &[(100, &va), (100 + 128, &vb)])
            .unwrap();
        assert_eq!(map.len(), 19);
        assert_eq!(map.get(&mut sys, &mut pool, 100).unwrap(), Some(va));
        assert_eq!(map.get(&mut sys, &mut pool, 100 + 128).unwrap(), Some(vb));
        // Empty bursts are a no-op.
        map.put_batch(&mut sys, &mut pool, &[]).unwrap();
        assert_eq!(pool.committed(), before + 3);
        assert!(sys.report().ppo_violations.is_empty());
    }

    #[test]
    fn put_batch_is_cheaper_than_per_key_puts() {
        let run = |batched: bool| {
            let (mut sys, mut pool) = setup();
            let mut map = PersistentHashMap::create(&mut sys, &mut pool, 256).unwrap();
            let values: Vec<(u64, Vec<u8>)> =
                (0..24u64).map(|k| (k, vec![k as u8; VALUE_SIZE])).collect();
            let entries: Vec<(u64, &[u8])> =
                values.iter().map(|(k, v)| (*k, v.as_slice())).collect();
            if batched {
                map.put_batch(&mut sys, &mut pool, &entries).unwrap();
            } else {
                for (k, v) in &entries {
                    map.put(&mut sys, &mut pool, *k, v).unwrap();
                }
            }
            sys.report()
        };
        let batched = run(true);
        let per_key = run(false);
        assert!(batched.ppo_violations.is_empty());
        // One commit for the burst removes per-key commit latency from the
        // critical path.
        assert!(
            batched.makespan < per_key.makespan,
            "batched {} vs per-key {}",
            batched.makespan,
            per_key.makespan
        );
    }

    #[test]
    fn full_map_returns_typed_error_instead_of_panicking() {
        let (mut sys, mut pool) = setup();
        let mut map = PersistentHashMap::create(&mut sys, &mut pool, 4).unwrap();
        for k in 0..4u64 {
            map.put(&mut sys, &mut pool, k, &[k as u8; VALUE_SIZE])
                .unwrap();
        }
        assert_eq!(map.len(), 4);
        // A fifth distinct key has no slot: typed error, map untouched.
        let err = map
            .put(&mut sys, &mut pool, 99, &[9; VALUE_SIZE])
            .unwrap_err();
        assert_eq!(err, SystemError::MapFull { buckets: 4 });
        assert_eq!(map.len(), 4);
        // Updates of existing keys still succeed on a full map.
        map.put(&mut sys, &mut pool, 2, &[0xAB; VALUE_SIZE])
            .unwrap();
        assert_eq!(
            map.get(&mut sys, &mut pool, 2).unwrap(),
            Some(vec![0xAB; VALUE_SIZE])
        );
        // A burst containing any non-fitting key is rejected wholesale:
        // slots resolve before the transaction opens, so nothing is written.
        let update = vec![0xCD; VALUE_SIZE];
        let err = map
            .put_batch(&mut sys, &mut pool, &[(1, &update), (77, &update)])
            .unwrap_err();
        assert_eq!(err, SystemError::MapFull { buckets: 4 });
        assert_eq!(map.len(), 4);
        assert_eq!(
            map.get(&mut sys, &mut pool, 1).unwrap(),
            Some(vec![1u8; VALUE_SIZE]),
            "a rejected burst must not write any of its entries"
        );
    }

    #[test]
    fn committed_batch_survives_crash() {
        let (mut sys, mut pool) = setup();
        let mut map = PersistentHashMap::create(&mut sys, &mut pool, 64).unwrap();
        let a = vec![0xAA; VALUE_SIZE];
        let b = vec![0xBB; VALUE_SIZE];
        map.put_batch(&mut sys, &mut pool, &[(1, &a), (2, &b)])
            .unwrap();
        sys.crash();
        pool.recover(&mut sys).unwrap();
        assert_eq!(map.get_persistent(&mut sys, 1).unwrap(), Some(a));
        assert_eq!(map.get_persistent(&mut sys, 2).unwrap(), Some(b));
    }

    #[test]
    fn committed_hashmap_updates_survive_crash() {
        let (mut sys, mut pool) = setup();
        let mut map = PersistentHashMap::create(&mut sys, &mut pool, 64).unwrap();
        map.put(&mut sys, &mut pool, 42, &[0xAA; VALUE_SIZE])
            .unwrap();
        sys.crash();
        pool.recover(&mut sys).unwrap();
        assert_eq!(
            map.get_persistent(&mut sys, 42).unwrap(),
            Some(vec![0xAA; VALUE_SIZE])
        );
    }

    #[test]
    fn index_insert_sorted_and_lookup() {
        let (mut sys, mut pool) = setup();
        let mut idx = PersistentIndex::create(&mut sys, &mut pool, 64).unwrap();
        for k in [5u64, 1, 9, 3, 7] {
            idx.insert(&mut sys, &mut pool, k, &[k as u8; VALUE_SIZE])
                .unwrap();
        }
        assert_eq!(idx.keys(), &[1, 3, 5, 7, 9]);
        assert_eq!(idx.len(), 5);
        assert_eq!(
            idx.get(&mut sys, &mut pool, 7).unwrap(),
            Some(vec![7; VALUE_SIZE])
        );
        assert_eq!(idx.get(&mut sys, &mut pool, 4).unwrap(), None);
    }

    #[test]
    fn kv_works_in_baseline_mode_too() {
        let mut sys = NearPmSystem::new(
            SystemConfig::for_mode(ExecMode::CpuBaseline).with_capacity(16 << 20),
        );
        let mut pool = ObjPool::create(&mut sys, "kv", 8 << 20).unwrap();
        let mut map = PersistentHashMap::create(&mut sys, &mut pool, 32).unwrap();
        map.put(&mut sys, &mut pool, 1, &[1; VALUE_SIZE]).unwrap();
        assert_eq!(
            map.get(&mut sys, &mut pool, 1).unwrap(),
            Some(vec![1; VALUE_SIZE])
        );
    }
}
