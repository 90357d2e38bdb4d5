//! A fixed-slot cache of model ids with pluggable eviction.

use crate::CacheStats;

/// Eviction policy of a [`SlotCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Least frequently used, ties broken by least recently used — the
    /// paper's choice (§V-B).
    Lfu,
    /// Least recently used.
    Lru,
    /// First in, first out.
    Fifo,
}

anole_json::json_enum!(EvictionPolicy { Lfu, Lru, Fifo });

impl std::fmt::Display for EvictionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            EvictionPolicy::Lfu => "LFU",
            EvictionPolicy::Lru => "LRU",
            EvictionPolicy::Fifo => "FIFO",
        };
        f.write_str(name)
    }
}

/// One resident model and the clock stamps its eviction keys read.
#[derive(Debug, Clone, Copy)]
struct Entry {
    id: usize,
    frequency: u64,
    last_used: u64,
    inserted: u64,
    bytes: u64,
}

/// A cache holding at most `capacity` model ids, evicting per the configured
/// policy. Values are not stored — in the reproduction the cached "payload"
/// is a model kept resident in simulated GPU memory, and residency is what
/// the deployment logic needs to know.
///
/// The resident entries live in a list as long as the slot count, scanned
/// linearly; the engine runs about five slots, so a scan costs less than
/// hashing the id. Every operation stamps one clock tick, so the LFU, LRU
/// and FIFO keys of resident entries are unique: the victim never depends
/// on the list's order.
///
/// Frequency counters persist across evictions for LFU ("least frequently
/// used over the run so far"), matching the OS-textbook LFU the paper cites;
/// they are kept per id, in a list as long as the largest id seen.
///
/// # Examples
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct SlotCache {
    capacity: usize,
    policy: EvictionPolicy,
    /// Optional resident-byte ceiling enforced alongside the slot count by
    /// [`SlotCache::insert_weighted`]; `None` disables byte accounting.
    byte_budget: Option<u64>,
    /// Resident entries, in no meaningful order.
    entries: Vec<Entry>,
    /// Lifetime uses of each id, indexed by id.
    lifetime_frequency: Vec<u64>,
    clock: u64,
    stats: CacheStats,
}

impl SlotCache {
    /// Creates a cache with the given slot count and policy.
    ///
    /// A zero-capacity cache is permitted (everything misses), matching the
    /// "no cache" point of the Fig. 7b sweep.
    pub fn new(capacity: usize, policy: EvictionPolicy) -> Self {
        Self {
            capacity,
            policy,
            byte_budget: None,
            entries: Vec::new(),
            lifetime_frequency: Vec::new(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Creates a cache bounded by both a slot count and a resident-byte
    /// budget. [`SlotCache::insert_weighted`] evicts until both hold;
    /// per-model byte weights let mixed-precision models share one cache
    /// fairly (the int8 serving detector charges 3.4× fewer bytes than its
    /// f32 twin, so the same budget holds about 3.4× as many of them).
    pub fn with_byte_budget(capacity: usize, policy: EvictionPolicy, byte_budget: u64) -> Self {
        let mut cache = Self::new(capacity, policy);
        cache.byte_budget = Some(byte_budget);
        cache
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resident-byte ceiling, if byte accounting is enabled.
    pub fn byte_budget(&self) -> Option<u64> {
        self.byte_budget
    }

    /// Bytes currently charged by resident entries.
    pub fn resident_bytes(&self) -> u64 {
        self.stats.resident_bytes
    }

    /// The eviction policy.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// Number of resident ids.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `id` is resident. Does not touch accounting.
    pub fn contains(&self, id: usize) -> bool {
        self.position(id).is_some()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Iterates over the resident ids in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.entries.iter().map(|entry| entry.id)
    }

    fn position(&self, id: usize) -> Option<usize> {
        self.entries.iter().position(|entry| entry.id == id)
    }

    /// Bumps `id`'s lifetime frequency (which persists across evictions)
    /// and returns the new count.
    fn bump_lifetime(&mut self, id: usize) -> u64 {
        if id >= self.lifetime_frequency.len() {
            self.lifetime_frequency.resize(id + 1, 0);
        }
        let count = &mut self.lifetime_frequency[id];
        *count += 1;
        *count
    }

    /// Marks a use of a resident `id`: bumps its in-cache frequency and
    /// recency plus its lifetime frequency. Returns whether the id was
    /// resident (a non-resident id is left untouched).
    fn record_use(&mut self, id: usize) -> bool {
        let Some(at) = self.position(id) else {
            return false;
        };
        let entry = &mut self.entries[at];
        entry.frequency += 1;
        entry.last_used = self.clock;
        self.bump_lifetime(id);
        true
    }

    /// Looks up `id`, recording a hit or miss and updating recency /
    /// frequency on a hit. Returns whether the id was resident.
    pub fn touch(&mut self, id: usize) -> bool {
        self.clock += 1;
        if self.record_use(id) {
            self.stats.record_hit();
            anole_obs::counter_add!("cache.hits", 1);
            true
        } else {
            self.stats.record_miss();
            anole_obs::counter_add!("cache.misses", 1);
            false
        }
    }

    /// Inserts `id`, evicting if at capacity. Returns the evicted id, if
    /// any. Inserting a resident id refreshes it and evicts nothing.
    ///
    /// The entry charges 0 bytes; use [`SlotCache::insert_weighted`] when a
    /// byte budget should constrain residency.
    pub fn insert(&mut self, id: usize) -> Option<usize> {
        let mut evicted = None;
        self.admit(id, 0, |victim| evicted = Some(victim));
        evicted
    }

    /// Inserts `id` charging `bytes` against the byte budget (if one is
    /// configured), evicting other entries per the configured policy until
    /// both the slot count and the budget hold.
    ///
    /// Re-inserting a resident id refreshes it, re-charges it at `bytes` (a
    /// model reloaded at a different precision changes weight), and then
    /// evicts other entries if the new weight overflows the budget. An id
    /// whose weight alone exceeds the budget is not admitted, and is dropped
    /// if it was resident.
    pub fn insert_weighted(&mut self, id: usize, bytes: u64) {
        self.admit(id, bytes, |_| {});
    }

    /// [`SlotCache::insert_weighted`], handing each evicted id to
    /// `on_evict` in eviction order.
    fn admit(&mut self, id: usize, bytes: u64, mut on_evict: impl FnMut(usize)) {
        self.clock += 1;
        self.stats.insertions += 1;
        anole_obs::counter_add!("cache.insertions", 1);
        let lifetime = self.bump_lifetime(id);
        let resident = self.position(id);
        if self.capacity == 0 || self.byte_budget.is_some_and(|budget| bytes > budget) {
            if let Some(at) = resident {
                self.evict(at);
                on_evict(id);
            }
            return;
        }
        match resident {
            Some(at) => {
                let entry = &mut self.entries[at];
                entry.frequency += 1;
                entry.last_used = self.clock;
                self.stats.resident_bytes = self.stats.resident_bytes - entry.bytes + bytes;
                entry.bytes = bytes;
            }
            None => {
                self.stats.resident_bytes += bytes;
                self.entries.push(Entry {
                    id,
                    frequency: lifetime,
                    last_used: self.clock,
                    inserted: self.clock,
                    bytes,
                });
            }
        }
        while self.entries.len() > self.capacity
            || self
                .byte_budget
                .is_some_and(|budget| self.stats.resident_bytes > budget)
        {
            match self.victim(Some(id)) {
                Some(at) => on_evict(self.evict(at)),
                None => break,
            }
        }
        self.stats.peak_resident_bytes = self
            .stats
            .peak_resident_bytes
            .max(self.stats.resident_bytes);
    }

    /// Removes the entry at `at`, settles its eviction accounting, and
    /// returns its id.
    fn evict(&mut self, at: usize) -> usize {
        let entry = self.entries.swap_remove(at);
        self.stats.resident_bytes -= entry.bytes;
        self.stats.evictions += 1;
        anole_obs::counter_add!("cache.evictions", 1);
        entry.id
    }

    /// Bumps `id`'s frequency and recency without touching hit/miss
    /// statistics. Returns whether the id was resident.
    ///
    /// Used when a lookup for one id is *served* by another resident entry
    /// (Anole's best-cached fallback): the fallback's usage must count for
    /// eviction purposes, but the lookup was already accounted against the
    /// requested id.
    pub fn refresh(&mut self, id: usize) -> bool {
        self.clock += 1;
        self.record_use(id)
    }

    /// Removes `id` if resident, returning whether it was.
    pub fn remove(&mut self, id: usize) -> bool {
        match self.position(id) {
            Some(at) => {
                let entry = self.entries.swap_remove(at);
                self.stats.resident_bytes -= entry.bytes;
                true
            }
            None => false,
        }
    }

    /// Resizes the cache to `capacity` slots, evicting per the configured
    /// policy until the resident set fits. Returns the evicted ids in
    /// eviction order (empty when growing or already within bounds).
    ///
    /// This models a memory-pressure event on the device: the OS reclaims
    /// GPU memory mid-stream and the deployment layer must shed resident
    /// models without restarting.
    pub fn set_capacity(&mut self, capacity: usize) -> Vec<usize> {
        self.capacity = capacity;
        let mut evicted = Vec::new();
        while self.entries.len() > self.capacity {
            match self.victim(None) {
                Some(at) => {
                    evicted.push(self.evict(at));
                    self.stats.capacity_evictions += 1;
                    anole_obs::counter_add!("cache.capacity_evictions", 1);
                }
                None => break,
            }
        }
        evicted
    }

    /// Removes every resident id (statistics are kept; resident bytes drop
    /// to zero).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.stats.resident_bytes = 0;
    }

    /// Position of the entry the policy evicts first, sparing `spare`.
    fn victim(&self, spare: Option<usize>) -> Option<usize> {
        let key = |entry: &Entry| match self.policy {
            EvictionPolicy::Lfu => (entry.frequency, entry.last_used),
            EvictionPolicy::Lru => (entry.last_used, 0),
            EvictionPolicy::Fifo => (entry.inserted, 0),
        };
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, entry)| Some(entry.id) != spare)
            .min_by_key(|(_, entry)| key(entry))
            .map(|(at, _)| at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Model ids named for readability.
    const A: usize = 0;
    const B: usize = 1;
    const C: usize = 2;
    const D: usize = 3;
    const E: usize = 4;

    #[test]
    fn lfu_evicts_least_frequent() {
        let mut c = SlotCache::new(2, EvictionPolicy::Lfu);
        c.insert(A);
        c.insert(B);
        c.touch(A);
        c.touch(A);
        c.touch(B);
        assert_eq!(c.insert(C), Some(B));
        assert!(c.contains(A) && c.contains(C));
    }

    #[test]
    fn lfu_ties_break_by_recency() {
        let mut c = SlotCache::new(2, EvictionPolicy::Lfu);
        c.insert(A);
        c.insert(B);
        c.touch(A);
        c.touch(B); // equal frequency, B more recent
        assert_eq!(c.insert(C), Some(A));
    }

    #[test]
    fn lfu_frequency_survives_eviction() {
        // A is popular, gets evicted, returns: its lifetime frequency
        // should protect it from immediate re-eviction.
        let mut c = SlotCache::new(2, EvictionPolicy::Lfu);
        c.insert(A);
        for _ in 0..10 {
            c.touch(A);
        }
        c.insert(B);
        c.remove(A);
        c.insert(C);
        c.insert(A); // cache now {B or C, A}
        assert!(c.contains(A));
        // Insert D: victim must not be A (lifetime frequency 12).
        let evicted = c.insert(D).unwrap();
        assert_ne!(evicted, A);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = SlotCache::new(2, EvictionPolicy::Lru);
        c.insert(1);
        c.insert(2);
        c.touch(1);
        assert_eq!(c.insert(3), Some(2));
    }

    #[test]
    fn fifo_evicts_oldest_insertion() {
        let mut c = SlotCache::new(2, EvictionPolicy::Fifo);
        c.insert(1);
        c.insert(2);
        c.touch(1); // recency must not matter
        assert_eq!(c.insert(3), Some(1));
    }

    #[test]
    fn reinserting_resident_key_evicts_nothing() {
        let mut c = SlotCache::new(1, EvictionPolicy::Lfu);
        c.insert(A);
        assert_eq!(c.insert(A), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn zero_capacity_cache_holds_nothing() {
        let mut c = SlotCache::new(0, EvictionPolicy::Lfu);
        assert_eq!(c.insert(A), None);
        assert!(!c.contains(A));
        assert!(c.is_empty());
        assert!(!c.touch(A));
    }

    #[test]
    fn stats_track_hits_misses_evictions() {
        let mut c = SlotCache::new(1, EvictionPolicy::Lru);
        c.touch(A); // miss
        c.insert(A);
        c.touch(A); // hit
        c.insert(B); // evicts A
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.insertions, 2);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut c = SlotCache::new(3, EvictionPolicy::Lfu);
        for i in 0..100 {
            c.insert(i % 7);
            assert!(c.len() <= 3);
        }
    }

    #[test]
    fn shrinking_capacity_evicts_by_policy() {
        let mut c = SlotCache::new(4, EvictionPolicy::Lfu);
        for id in [A, B, C, D] {
            c.insert(id);
        }
        for _ in 0..3 {
            c.touch(A);
        }
        c.touch(B);
        c.touch(B);
        c.touch(C);
        // Shrink to 2: the least-frequent ids (D then C) must go.
        let evicted = c.set_capacity(2);
        assert_eq!(evicted, vec![D, C]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.capacity(), 2);
        assert!(c.contains(A) && c.contains(B));
        assert_eq!(c.stats().evictions, 2);
        // Inserts now respect the reduced capacity.
        c.insert(E);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn growing_capacity_evicts_nothing() {
        let mut c = SlotCache::new(1, EvictionPolicy::Lru);
        c.insert(1);
        assert!(c.set_capacity(3).is_empty());
        c.insert(2);
        c.insert(3);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn shrinking_to_zero_empties_the_cache() {
        let mut c = SlotCache::new(3, EvictionPolicy::Fifo);
        c.insert(1);
        c.insert(2);
        let evicted = c.set_capacity(0);
        assert_eq!(evicted.len(), 2);
        assert!(c.is_empty());
        // A zero-capacity cache rejects further inserts.
        c.insert(4);
        assert!(c.is_empty());
    }

    #[test]
    fn remove_and_clear() {
        let mut c = SlotCache::new(2, EvictionPolicy::Lru);
        c.insert(1);
        assert!(c.remove(1));
        assert!(!c.remove(1));
        c.insert(2);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn byte_budget_evicts_until_the_new_entry_fits() {
        // Budget of 100 bytes, generous slot count: three 40-byte entries
        // cannot coexist, so the third insert evicts the least-recent.
        let mut c = SlotCache::with_byte_budget(10, EvictionPolicy::Lru, 100);
        c.insert_weighted(A, 40);
        c.insert_weighted(B, 40);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.resident_bytes(), 80);
        c.insert_weighted(C, 40);
        assert_eq!(c.stats().evictions, 1);
        assert!(!c.contains(A) && c.contains(B) && c.contains(C));
        assert_eq!(c.resident_bytes(), 80);
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().peak_resident_bytes, 80);
    }

    #[test]
    fn quarter_weight_entries_quadruple_occupancy() {
        // The int8 story: at equal byte budget, entries charging a quarter
        // of the f32 weight pack 4x as many models into the cache.
        let budget = 400u64;
        let mut fp32 = SlotCache::with_byte_budget(64, EvictionPolicy::Lfu, budget);
        let mut int8 = SlotCache::with_byte_budget(64, EvictionPolicy::Lfu, budget);
        for i in 0..16 {
            fp32.insert_weighted(i, 100);
            int8.insert_weighted(i, 25);
        }
        assert_eq!(fp32.len(), 4);
        assert_eq!(int8.len(), 16);
        assert!(int8.len() >= 3 * fp32.len());
        assert!(fp32.resident_bytes() <= budget);
        assert!(int8.resident_bytes() <= budget);
    }

    #[test]
    fn oversized_entry_is_not_admitted() {
        let mut c = SlotCache::with_byte_budget(4, EvictionPolicy::Lru, 50);
        c.insert_weighted(A, 30);
        c.insert_weighted(B, 60);
        assert_eq!(c.stats().evictions, 0);
        assert!(!c.contains(B));
        assert!(c.contains(A));
        assert_eq!(c.resident_bytes(), 30);
    }

    #[test]
    fn reinserting_at_a_new_weight_recharges_the_entry() {
        // A model re-admitted at int8 precision shrinks its charge.
        let (m, n) = (A, B);
        let mut c = SlotCache::with_byte_budget(4, EvictionPolicy::Lru, 100);
        c.insert_weighted(m, 80);
        assert_eq!(c.resident_bytes(), 80);
        c.insert_weighted(m, 20);
        assert_eq!(c.resident_bytes(), 20);
        assert_eq!(c.len(), 1);
        // The freed budget now admits more entries.
        c.insert_weighted(n, 80);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.resident_bytes(), 100);
    }

    #[test]
    fn reinserting_at_a_heavier_weight_evicts_others_to_fit() {
        let (m, n) = (A, B);
        let mut c = SlotCache::with_byte_budget(4, EvictionPolicy::Lru, 100);
        c.insert_weighted(m, 20);
        c.insert_weighted(n, 80);
        // Re-charging m at 80 overflows the budget: the other entry goes,
        // although m's LRU stamp was the older one before the re-insert.
        c.insert_weighted(m, 80);
        assert!(c.contains(m) && !c.contains(n));
        assert_eq!(c.resident_bytes(), 80);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().peak_resident_bytes, 100);
        // Re-charging m above the whole budget drops it.
        c.insert_weighted(m, 500);
        assert!(c.is_empty());
        assert_eq!(c.resident_bytes(), 0);
        assert_eq!(c.stats().evictions, 2);
        assert_eq!(c.stats().peak_resident_bytes, 100);
    }

    #[test]
    fn remove_and_clear_release_resident_bytes() {
        let mut c = SlotCache::with_byte_budget(4, EvictionPolicy::Fifo, 100);
        c.insert_weighted(1, 30);
        c.insert_weighted(2, 30);
        assert!(c.remove(1));
        assert_eq!(c.resident_bytes(), 30);
        c.clear();
        assert_eq!(c.resident_bytes(), 0);
        assert_eq!(c.stats().peak_resident_bytes, 60);
    }

    #[test]
    fn unweighted_inserts_keep_slot_semantics_and_charge_nothing() {
        let mut c = SlotCache::new(2, EvictionPolicy::Lru);
        c.insert(A);
        c.insert(B);
        assert_eq!(c.insert(C), Some(A));
        assert_eq!(c.resident_bytes(), 0);
        assert_eq!(c.byte_budget(), None);
    }

    #[test]
    fn policies_differ_on_a_distinguishing_trace() {
        // Trace: insert A, B; touch A 3x; insert C.
        // LFU evicts B (freq 1 < A's 4); LRU evicts B (older); FIFO evicts A.
        let run = |policy| {
            let mut c = SlotCache::new(2, policy);
            c.insert(A);
            c.insert(B);
            for _ in 0..3 {
                c.touch(A);
            }
            c.insert(C).unwrap()
        };
        assert_eq!(run(EvictionPolicy::Lfu), B);
        assert_eq!(run(EvictionPolicy::Lru), B);
        assert_eq!(run(EvictionPolicy::Fifo), A);
    }
}
