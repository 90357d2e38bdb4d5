//! Property tests of the slot cache: invariants that must hold for every
//! policy under seeded random traces.

use std::ops::Range;

use anole_cache::{EvictionPolicy, SlotCache};
use anole_tensor::{rng_from_seed, Seed, StdRng};

/// Cases per property.
const CASES: usize = 256;

#[derive(Debug, Clone)]
enum Op {
    Touch(usize),
    Insert(usize),
    Remove(usize),
}

/// A trace of 1 to 199 operations on model ids below 20.
fn ops(rng: &mut StdRng) -> Vec<Op> {
    (0..rng.usize(1..200))
        .map(|_| {
            let id = rng.usize(0..20);
            match rng.usize(0..3) {
                0 => Op::Touch(id),
                1 => Op::Insert(id),
                _ => Op::Remove(id),
            }
        })
        .collect()
}

/// A model-id sequence whose length is drawn from `lens` and whose ids are
/// drawn from `domain`.
fn ids(rng: &mut StdRng, lens: Range<usize>, domain: Range<usize>) -> Vec<usize> {
    (0..rng.usize(lens)).map(|_| rng.usize(domain.clone())).collect()
}

fn policies() -> [EvictionPolicy; 3] {
    [EvictionPolicy::Lfu, EvictionPolicy::Lru, EvictionPolicy::Fifo]
}

/// Capacity is never exceeded, and stats stay consistent, for any trace
/// under any policy.
#[test]
fn capacity_and_stats_invariants() {
    let mut rng = rng_from_seed(Seed(0xCA_0001));
    for case in 0..CASES {
        let ops = ops(&mut rng);
        let capacity = rng.usize(0..6);
        for policy in policies() {
            let at = format!("case {case} ({policy})");
            let mut cache = SlotCache::new(capacity, policy);
            let mut touches = 0u64;
            let mut inserts = 0u64;
            for op in &ops {
                match op {
                    Op::Touch(id) => {
                        cache.touch(*id);
                        touches += 1;
                    }
                    Op::Insert(id) => {
                        let evicted = cache.insert(*id);
                        inserts += 1;
                        if capacity == 0 {
                            assert!(evicted.is_none(), "{at}");
                        }
                    }
                    Op::Remove(id) => {
                        cache.remove(*id);
                    }
                }
                assert!(cache.len() <= capacity, "{at}");
            }
            let stats = cache.stats();
            assert_eq!(stats.lookups(), touches, "{at}");
            assert_eq!(stats.insertions, inserts, "{at}");
            assert!((0.0..=1.0).contains(&stats.hit_rate()), "{at}");
            let rates_sum = stats.hit_rate() + stats.miss_rate();
            assert!((rates_sum - 1.0).abs() < 1e-9 || touches == 0, "{at}");
        }
    }
}

/// A touch immediately after an insert always hits (capacity ≥ 1).
#[test]
fn insert_then_touch_hits() {
    let mut rng = rng_from_seed(Seed(0xCA_0002));
    for case in 0..CASES {
        let (id, capacity) = (rng.usize(0..50), rng.usize(1..8));
        for policy in policies() {
            let mut cache = SlotCache::new(capacity, policy);
            cache.insert(id);
            assert!(cache.touch(id), "case {case} ({policy})");
        }
    }
}

/// Evicted ids are no longer resident, and the evicted id differs from the
/// inserted one.
#[test]
fn eviction_removes_exactly_one_other_key() {
    let mut rng = rng_from_seed(Seed(0xCA_0003));
    for case in 0..CASES {
        let ids = ids(&mut rng, 1..60, 0..30);
        for policy in policies() {
            let at = format!("case {case} ({policy})");
            let mut cache = SlotCache::new(3, policy);
            for &id in &ids {
                let was_resident = cache.contains(id);
                if let Some(evicted) = cache.insert(id) {
                    assert_ne!(evicted, id, "{at}");
                    assert!(!was_resident, "{at}");
                    assert!(!cache.contains(evicted), "{at}");
                }
                assert!(cache.contains(id) || cache.capacity() == 0, "{at}");
            }
        }
    }
}

/// LFU never evicts the strictly most-frequently-used resident id.
#[test]
fn lfu_protects_the_hottest_key() {
    let mut rng = rng_from_seed(Seed(0xCA_0004));
    for case in 0..CASES {
        let cold = ids(&mut rng, 1..40, 1..30);
        let mut cache = SlotCache::new(2, EvictionPolicy::Lfu);
        cache.insert(0);
        for _ in 0..100 {
            cache.touch(0);
        }
        for &id in &cold {
            assert_ne!(cache.insert(id), Some(0), "case {case}");
            assert!(cache.contains(0), "case {case}");
        }
    }
}
