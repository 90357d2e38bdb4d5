//! Hit/miss accounting for cache experiments.

/// Counters accumulated by a cache over its lifetime.
///
/// # Examples
///
/// ```
/// let mut stats = anole_cache::CacheStats::default();
/// stats.record_hit();
/// stats.record_miss();
/// assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
/// assert!((stats.miss_rate() - 0.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the key resident.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Insertions that displaced a resident entry.
    pub evictions: u64,
    /// Total insertions.
    pub insertions: u64,
    /// Evictions forced by a capacity shrink ([`set_capacity`]) rather than
    /// an insertion — the memory-pressure path. A subset of `evictions`.
    ///
    /// [`set_capacity`]: crate::SlotCache::set_capacity
    pub capacity_evictions: u64,
    /// Bytes currently charged by resident entries (entries inserted through
    /// the unweighted [`insert`] count 0).
    ///
    /// [`insert`]: crate::SlotCache::insert
    pub resident_bytes: u64,
    /// High-water mark of `resident_bytes` over the cache's lifetime.
    pub peak_resident_bytes: u64,
}

impl CacheStats {
    /// Total lookups recorded.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups that hit; 0.0 before any lookup.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// Fraction of lookups that missed; 0.0 before any lookup.
    pub fn miss_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.misses as f64 / self.lookups() as f64
        }
    }

    /// Records a hit.
    pub fn record_hit(&mut self) {
        self.hits += 1;
    }

    /// Records a miss.
    pub fn record_miss(&mut self) {
        self.misses += 1;
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hits={} misses={} evictions={} hit_rate={:.3}",
            self.hits,
            self.misses,
            self.evictions,
            self.hit_rate()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_on_empty_stats_are_zero() {
        let s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.lookups(), 0);
    }

    #[test]
    fn rates_sum_to_one_after_traffic() {
        let mut s = CacheStats::default();
        for _ in 0..3 {
            s.record_hit();
        }
        s.record_miss();
        assert_eq!(s.lookups(), 4);
        assert!((s.hit_rate() + s.miss_rate() - 1.0).abs() < 1e-12);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn display_is_informative() {
        let mut s = CacheStats::default();
        s.record_hit();
        let text = s.to_string();
        assert!(text.contains("hits=1"));
        assert!(text.contains("hit_rate=1.000"));
    }
}
