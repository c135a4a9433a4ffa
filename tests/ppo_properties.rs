//! Property-based tests of the PPO checker and the persistent data
//! structures under random operation sequences.

use nearpm::core::{ExecMode, NearPmSystem, SystemConfig};
use nearpm::kv::{PersistentHashMap, VALUE_SIZE};
use nearpm::pmdk::ObjPool;
use nearpm::ppo::{check_all, Agent, EventKind, Interval, Sharing, Trace};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any execution the real system produces is accepted by the PPO checker,
    /// for random transaction shapes and all modes.
    #[test]
    fn system_runs_are_always_ppo_clean(
        ops in 1usize..12,
        sizes in proptest::collection::vec(1u64..2048, 1..6),
        mode_idx in 0usize..4,
    ) {
        let mode = ExecMode::all()[mode_idx];
        let mut sys = NearPmSystem::new(SystemConfig::for_mode(mode).with_capacity(32 << 20));
        let mut pool = ObjPool::create(&mut sys, "prop", 16 << 20).unwrap();
        let objs: Vec<_> = sizes.iter().map(|s| pool.alloc(&mut sys, *s).unwrap()).collect();
        for i in 0..ops {
            let obj = objs[i % objs.len()];
            let len = sizes[i % sizes.len()] as usize;
            pool.tx(&mut sys, |tx, sys| tx.write(sys, obj, &vec![i as u8; len])).unwrap();
        }
        let report = sys.report();
        prop_assert!(report.ppo_violations.is_empty());
    }

    /// A synthetic trace where the CPU's in-place update is timestamped
    /// before the NDP log read is always rejected.
    #[test]
    fn checker_rejects_reordered_update(gap in 1u64..10_000) {
        let mut t = Trace::new(1);
        let p = t.new_proc();
        let obj = Interval::new(0x1000, 64);
        t.record(Agent::Cpu, EventKind::Offload, Interval::new(0, 0), Sharing::Shared, Some(p), None, 1_000);
        t.record(Agent::Ndp(0), EventKind::Read, obj, Sharing::Shared, Some(p), None, 2_000 + gap);
        // CPU overwrite lands *before* the NDP read despite following the offload.
        t.record(Agent::Cpu, EventKind::Write, obj, Sharing::Shared, None, None, 1_500);
        prop_assert!(!check_all(&t).is_empty());
    }

    /// The persistent hash map always matches an in-memory model.
    #[test]
    fn hashmap_matches_model(keys in proptest::collection::vec(0u64..64, 1..40)) {
        let mut sys = NearPmSystem::new(SystemConfig::nearpm_sd().with_capacity(32 << 20));
        let mut pool = ObjPool::create(&mut sys, "prop-kv", 16 << 20).unwrap();
        let mut map = PersistentHashMap::create(&mut sys, &mut pool, 256).unwrap();
        let mut model = std::collections::BTreeMap::new();
        for (i, k) in keys.iter().enumerate() {
            let v = vec![(i % 251) as u8; VALUE_SIZE];
            map.put(&mut sys, &mut pool, *k, &v).unwrap();
            model.insert(*k, v);
        }
        for (k, v) in &model {
            prop_assert_eq!(map.get(&mut sys, &mut pool, *k).unwrap(), Some(v.clone()));
        }
        prop_assert_eq!(map.len(), model.len());
    }
}
