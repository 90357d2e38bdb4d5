//! `SlotCache` against a reference: the earlier `HashMap`-backed cache,
//! kept here verbatim in behaviour. Seeded random traces of every
//! operation must give the same hits and misses, resident set, statistics
//! and pressure-eviction order after every step.

use std::collections::HashMap;
use std::hash::Hash;

use anole_cache::{CacheStats, EvictionPolicy, SlotCache};
use anole_tensor::{rng_from_seed, Seed, StdRng};

/// Traces per (policy, budget) setting.
const CASES: usize = 200;
/// Model ids are drawn below this.
const IDS: usize = 24;

#[derive(Debug, Clone, Copy)]
struct EntryMeta {
    frequency: u64,
    last_used: u64,
    inserted: u64,
    bytes: u64,
}

/// The `HashMap`-backed slot cache the model-id cache replaced.
struct ReferenceCache<K> {
    capacity: usize,
    policy: EvictionPolicy,
    byte_budget: Option<u64>,
    entries: HashMap<K, EntryMeta>,
    lifetime_frequency: HashMap<K, u64>,
    clock: u64,
    stats: CacheStats,
}

impl<K: Eq + Hash + Clone> ReferenceCache<K> {
    fn new(capacity: usize, policy: EvictionPolicy, byte_budget: Option<u64>) -> Self {
        Self {
            capacity,
            policy,
            byte_budget,
            entries: HashMap::new(),
            lifetime_frequency: HashMap::new(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    fn bump_lifetime(&mut self, key: &K) -> u64 {
        let count = self.lifetime_frequency.entry(key.clone()).or_insert(0);
        *count += 1;
        *count
    }

    fn record_use(&mut self, key: &K) -> bool {
        if let Some(meta) = self.entries.get_mut(key) {
            meta.frequency += 1;
            meta.last_used = self.clock;
            self.bump_lifetime(key);
            true
        } else {
            false
        }
    }

    fn touch(&mut self, key: &K) -> bool {
        self.clock += 1;
        if self.record_use(key) {
            self.stats.record_hit();
            true
        } else {
            self.stats.record_miss();
            false
        }
    }

    fn insert_weighted(&mut self, key: K, bytes: u64) -> Vec<K> {
        self.clock += 1;
        self.stats.insertions += 1;
        let lifetime = self.bump_lifetime(&key);
        let mut evicted = Vec::new();
        if let Some(meta) = self.entries.get_mut(&key) {
            meta.frequency += 1;
            meta.last_used = self.clock;
            self.stats.resident_bytes = self.stats.resident_bytes - meta.bytes + bytes;
            meta.bytes = bytes;
        } else {
            if self.capacity == 0 || self.byte_budget.is_some_and(|budget| bytes > budget) {
                return evicted;
            }
            while self.entries.len() >= self.capacity
                || self
                    .byte_budget
                    .is_some_and(|budget| self.stats.resident_bytes + bytes > budget)
            {
                match self.pick_victim() {
                    Some(victim) => {
                        self.evict_entry(&victim);
                        evicted.push(victim);
                    }
                    None => break,
                }
            }
            self.stats.resident_bytes += bytes;
            self.entries.insert(
                key,
                EntryMeta {
                    frequency: lifetime,
                    last_used: self.clock,
                    inserted: self.clock,
                    bytes,
                },
            );
        }
        self.stats.peak_resident_bytes = self
            .stats
            .peak_resident_bytes
            .max(self.stats.resident_bytes);
        evicted
    }

    fn evict_entry(&mut self, victim: &K) {
        if let Some(meta) = self.entries.remove(victim) {
            self.stats.resident_bytes -= meta.bytes;
            self.stats.evictions += 1;
        }
    }

    fn refresh(&mut self, key: &K) -> bool {
        self.clock += 1;
        self.record_use(key)
    }

    fn remove(&mut self, key: &K) -> bool {
        match self.entries.remove(key) {
            Some(meta) => {
                self.stats.resident_bytes -= meta.bytes;
                true
            }
            None => false,
        }
    }

    fn set_capacity(&mut self, capacity: usize) -> Vec<K> {
        self.capacity = capacity;
        let mut evicted = Vec::new();
        while self.entries.len() > self.capacity {
            match self.pick_victim() {
                Some(victim) => {
                    self.evict_entry(&victim);
                    self.stats.capacity_evictions += 1;
                    evicted.push(victim);
                }
                None => break,
            }
        }
        evicted
    }

    fn pick_victim(&self) -> Option<K> {
        let best = self
            .entries
            .iter()
            .min_by(|(_, a), (_, b)| match self.policy {
                EvictionPolicy::Lfu => a
                    .frequency
                    .cmp(&b.frequency)
                    .then(a.last_used.cmp(&b.last_used)),
                EvictionPolicy::Lru => a.last_used.cmp(&b.last_used),
                EvictionPolicy::Fifo => a.inserted.cmp(&b.inserted),
            });
        best.map(|(k, _)| k.clone())
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Touch(usize),
    Insert(usize),
    Refresh(usize),
    Remove(usize),
    SetCapacity(usize),
}

fn op(rng: &mut StdRng) -> Op {
    let id = rng.usize(0..IDS);
    // Inserts and touches dominate, as in serving; a pressure event is rare.
    match rng.usize(0..20) {
        0..=6 => Op::Touch(id),
        7..=13 => Op::Insert(id),
        14..=16 => Op::Refresh(id),
        17..=18 => Op::Remove(id),
        _ => Op::SetCapacity(rng.usize(0..7)),
    }
}

fn resident(cache: &SlotCache) -> Vec<usize> {
    let mut ids: Vec<usize> = cache.iter().collect();
    ids.sort_unstable();
    ids
}

fn reference_resident(cache: &ReferenceCache<usize>) -> Vec<usize> {
    let mut ids: Vec<usize> = cache.entries.keys().copied().collect();
    ids.sort_unstable();
    ids
}

/// Runs `CASES` traces per policy, with a byte budget when `budgeted`.
fn compare(seed: u64, budgeted: bool) {
    let mut rng = rng_from_seed(Seed(seed));
    for policy in [
        EvictionPolicy::Lfu,
        EvictionPolicy::Lru,
        EvictionPolicy::Fifo,
    ] {
        for case in 0..CASES {
            let capacity = rng.usize(0..7);
            // Each id has one weight, as the engine charges each model its
            // serving bytes; some ids outweigh the whole budget.
            let weights: Vec<u64> = (0..IDS).map(|_| rng.usize(1..41) as u64).collect();
            let budget = budgeted.then(|| rng.usize(20..121) as u64);
            let mut cache = match budget {
                Some(budget) => SlotCache::with_byte_budget(capacity, policy, budget),
                None => SlotCache::new(capacity, policy),
            };
            let mut reference = ReferenceCache::new(capacity, policy, budget);
            for step in 0..rng.usize(1..300) {
                let op = op(&mut rng);
                let at = format!("{policy} budget {budget:?} case {case} step {step}: {op:?}");
                match op {
                    Op::Touch(id) => assert_eq!(cache.touch(id), reference.touch(&id), "{at}"),
                    Op::Insert(id) => {
                        cache.insert_weighted(id, weights[id]);
                        reference.insert_weighted(id, weights[id]);
                    }
                    Op::Refresh(id) => {
                        assert_eq!(cache.refresh(id), reference.refresh(&id), "{at}")
                    }
                    Op::Remove(id) => assert_eq!(cache.remove(id), reference.remove(&id), "{at}"),
                    Op::SetCapacity(capacity) => assert_eq!(
                        cache.set_capacity(capacity),
                        reference.set_capacity(capacity),
                        "{at}"
                    ),
                }
                assert_eq!(resident(&cache), reference_resident(&reference), "{at}");
                assert_eq!(cache.stats(), reference.stats, "{at}");
                assert_eq!(cache.capacity(), reference.capacity, "{at}");
            }
        }
    }
}

#[test]
fn slot_counted_traces_match_the_reference() {
    compare(0xCA_0101, false);
}

#[test]
fn byte_budgeted_traces_match_the_reference() {
    compare(0xCA_0102, true);
}
