//! A fixed host-speed probe, independent of the code under test.
//!
//! The host this benchmark runs on changes speed by tens of percent in
//! spells lasting minutes, which no amount of averaging inside one run
//! removes. The probe times the same work every call — B-tree inserts and
//! lookups, a pseudo-random walk over a working set allocated once, small
//! allocations, and plain arithmetic — so a run can state its throughput at
//! the host speed the reference figures were taken at. Over ten runs of
//! fig16-closed this cut the run-to-run variation of that throughput from
//! 6.5 % to 4.7 % (coefficient of variation); set-up time, dominated by
//! page faults, does not follow the probe and is reported as measured.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Work per probe: B-tree keys, walk steps over a working set of
/// `WALK_SLOTS` u64s, small allocations, arithmetic steps.
const KEYS: u64 = 20_000;
const WALK_SLOTS: usize = 1 << 20;
const WALK_STEPS: usize = 1 << 20;
const ALLOCS: usize = 50_000;
const ALU_STEPS: u64 = 2_000_000;

/// The probe's fixed working set, allocated and touched once.
pub struct HostRef {
    slots: Vec<u64>,
    times: Vec<f64>,
}

fn mix(x: u64) -> u64 {
    let x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^ (x >> 29)
}

impl HostRef {
    pub fn new() -> Self {
        HostRef {
            slots: (0..WALK_SLOTS as u64).map(mix).collect(),
            times: Vec::new(),
        }
    }

    /// Runs the probe once and records its wall time.
    pub fn probe(&mut self) {
        let t0 = Instant::now();
        let mut tree = BTreeMap::new();
        let mut x = 1u64;
        for i in 0..KEYS {
            x = mix(x.wrapping_add(i));
            tree.insert(x, i);
        }
        let mut sum = 0u64;
        x = 1;
        for i in 0..KEYS {
            x = mix(x.wrapping_add(i));
            sum = sum.wrapping_add(*tree.get(&x).expect("key inserted above"));
        }
        black_box(tree);
        let mut at = 0usize;
        for _ in 0..WALK_STEPS {
            let v = self.slots[at];
            sum = sum.wrapping_add(v);
            at = (v as usize ^ at.wrapping_mul(31)) & (WALK_SLOTS - 1);
        }
        let mut live: Vec<Vec<u64>> = Vec::with_capacity(64);
        for i in 0..ALLOCS {
            let v = vec![i as u64; 1 + (mix(i as u64) % 48) as usize];
            if live.len() == 64 {
                live.swap_remove((mix(i as u64) % 64) as usize);
            }
            live.push(v);
        }
        black_box(live);
        let mut y = sum;
        for i in 0..ALU_STEPS {
            y = mix(y ^ i);
        }
        black_box(y);
        self.times.push(t0.elapsed().as_secs_f64());
    }

    /// Wall times of every probe so far.
    pub fn times(&self) -> &[f64] {
        &self.times
    }
}
