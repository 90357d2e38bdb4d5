//! A fixed-capacity model cache with pluggable eviction, backing Anole's
//! cache-based model deployment (paper §V-B).
//!
//! The paper keeps a handful of compressed models resident in GPU memory and
//! evicts with Least-Frequently-Used when the decision model requests a model
//! that is not loaded. This crate provides the cache itself, keyed by model
//! id — LFU as in the paper, plus LRU and FIFO for the eviction-policy
//! ablation — together with hit/miss accounting used by Fig. 7b.
//!
//! # Examples
//!
//! ```
//! use anole_cache::{EvictionPolicy, SlotCache};
//!
//! // Models 0, 1 and 2 compete for two slots.
//! let mut cache = SlotCache::new(2, EvictionPolicy::Lfu);
//! cache.insert(0);
//! cache.insert(1);
//! cache.touch(0); // model 0 now more frequently used than model 1
//! let evicted = cache.insert(2);
//! assert_eq!(evicted, Some(1));
//! assert!(cache.contains(0));
//! ```

mod slot_cache;
mod stats;

pub use slot_cache::{EvictionPolicy, SlotCache};
pub use stats::CacheStats;
