//! The workspace's one thread-count setting.
//!
//! Only the Algorithm 1 repository fan-out (`ModelRepository::train` in
//! `anole-core`) runs on several threads: each cluster's candidate model
//! trains on its own, with a seed keyed by its `(k, cluster)` coordinates,
//! and the results are collected in cluster order. That fan-out reads the
//! process-global [`ParallelConfig`], so tests and benchmarks can pin the
//! thread count in one place, and its output is bit-identical for every
//! `threads` setting. The matrix kernels and k-means run on the caller's
//! thread.
//!
//! The environment variable `ANOLE_THREADS` overrides the automatic thread
//! count when [`ParallelConfig::threads`] is `0` (auto); CI uses it to run
//! the fan-out with `ANOLE_THREADS=2`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Thread count of the repository fan-out.
///
/// # Examples
///
/// ```
/// use anole_tensor::{parallel_config, set_parallel_config, ParallelConfig};
///
/// let previous = parallel_config();
/// set_parallel_config(ParallelConfig { threads: 1 });
/// assert_eq!(parallel_config().threads, 1);
/// set_parallel_config(previous);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads. `0` means auto: the `ANOLE_THREADS` environment
    /// variable if set, otherwise [`std::thread::available_parallelism`].
    pub threads: usize,
}

static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Reads the current global parallel configuration.
pub fn parallel_config() -> ParallelConfig {
    ParallelConfig {
        threads: THREADS.load(Ordering::Relaxed),
    }
}

/// Replaces the global parallel configuration.
///
/// The fan-out is bit-deterministic across thread counts, so changing this
/// mid-run only affects performance, never results.
pub fn set_parallel_config(config: ParallelConfig) {
    THREADS.store(config.threads, Ordering::Relaxed);
}

fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("ANOLE_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&t| t > 0)
    })
}

impl ParallelConfig {
    /// Resolves `threads == 0` (auto) to a concrete worker count.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        env_threads().unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_round_trips_through_globals() {
        let previous = parallel_config();
        set_parallel_config(ParallelConfig { threads: 3 });
        assert_eq!(parallel_config(), ParallelConfig { threads: 3 });
        set_parallel_config(previous);
    }

    #[test]
    fn explicit_threads_beat_auto() {
        let cfg = ParallelConfig { threads: 5 };
        assert_eq!(cfg.effective_threads(), 5);
        let auto = ParallelConfig::default();
        assert!(auto.effective_threads() >= 1);
    }
}
