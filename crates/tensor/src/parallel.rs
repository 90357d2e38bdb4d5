//! Workspace-wide parallel execution policy and deterministic helpers.
//!
//! Every parallel kernel in the workspace (matrix products, k-means
//! assignment, the repository's per-candidate fan-out) consults a single
//! process-global [`ParallelConfig`] so that tests and benchmarks can pin the
//! thread count in one place. The contract all consumers uphold:
//!
//! **Determinism.** Results are bit-identical for every `threads`
//! setting. Parallel kernels only partition *output* elements across threads
//! (each output element is produced by exactly one thread, with the same
//! per-element floating-point accumulation order as the serial path), and
//! reductions always combine per-row partials serially in row order, so the
//! addition order depends only on the problem shape — never on the thread
//! count.
//!
//! The environment variable `ANOLE_THREADS` overrides the automatic thread
//! count when [`ParallelConfig::threads`] is `0` (auto); CI uses it to
//! exercise the parallel paths with `ANOLE_THREADS=2`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Tuning knobs for the parallel compute layer.
///
/// # Examples
///
/// ```
/// use anole_tensor::{parallel_config, set_parallel_config, ParallelConfig};
///
/// let previous = parallel_config();
/// set_parallel_config(ParallelConfig { threads: 1, ..previous });
/// assert_eq!(parallel_config().threads, 1);
/// set_parallel_config(previous);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads for partitioned kernels. `0` means auto: the
    /// `ANOLE_THREADS` environment variable if set, otherwise
    /// [`std::thread::available_parallelism`].
    pub threads: usize,
    /// Minimum number of multiply–accumulate operations (or equivalent work
    /// units) before a kernel fans out to threads; smaller jobs stay serial
    /// to avoid spawn overhead.
    pub min_par_elems: usize,
}

/// Default serial/parallel cutover, in multiply–accumulate operations.
pub const DEFAULT_MIN_PAR_ELEMS: usize = 1 << 20;

impl Default for ParallelConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            min_par_elems: DEFAULT_MIN_PAR_ELEMS,
        }
    }
}

static THREADS: AtomicUsize = AtomicUsize::new(0);
static MIN_PAR: AtomicUsize = AtomicUsize::new(DEFAULT_MIN_PAR_ELEMS);

/// Reads the current global parallel configuration.
pub fn parallel_config() -> ParallelConfig {
    ParallelConfig {
        threads: THREADS.load(Ordering::Relaxed),
        min_par_elems: MIN_PAR.load(Ordering::Relaxed),
    }
}

/// Replaces the global parallel configuration.
///
/// Because every consumer is bit-deterministic across thread counts, changing
/// this mid-run only affects performance, never results. `min_par_elems` is
/// clamped to at least 1.
pub fn set_parallel_config(config: ParallelConfig) {
    THREADS.store(config.threads, Ordering::Relaxed);
    MIN_PAR.store(config.min_par_elems.max(1), Ordering::Relaxed);
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

    /// Worker count for a job of `work` multiply–accumulates: 1 below the
    /// cutover, [`Self::effective_threads`] otherwise.
    pub fn threads_for(&self, work: usize) -> usize {
        if work < self.min_par_elems {
            1
        } else {
            self.effective_threads().max(1)
        }
    }
}

/// Runs `f` over `rows` logical rows of `out` (each `row_width` items wide),
/// partitioned into at most `threads` contiguous chunks.
///
/// `f` receives the row range it owns and the matching mutable sub-slice of
/// `out`. Each row is written by exactly one thread, so any `f` whose
/// per-row computation is self-contained is bit-identical across thread
/// counts. With `threads <= 1` everything runs on the caller's thread.
///
/// # Panics
///
/// Panics if `out.len() != rows * row_width` or a worker thread panics.
pub fn for_each_row_chunk<T, F>(out: &mut [T], row_width: usize, rows: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(std::ops::Range<usize>, &mut [T]) + Sync,
{
    assert_eq!(out.len(), rows * row_width, "output length mismatch");
    if rows == 0 {
        return;
    }
    let threads = threads.clamp(1, rows);
    if threads == 1 {
        anole_obs::counter_add!("tensor.parallel.serial_runs", 1);
        f(0..rows, out);
        return;
    }
    anole_obs::counter_add!("tensor.parallel.fanouts", 1);
    let chunk_rows = rows.div_ceil(threads);
    std::thread::scope(|scope| {
        let f = &f;
        let mut rest = out;
        let mut row0 = 0usize;
        while row0 < rows {
            let row1 = (row0 + chunk_rows).min(rows);
            let (head, tail) = std::mem::take(&mut rest).split_at_mut((row1 - row0) * row_width);
            rest = tail;
            let range = row0..row1;
            scope.spawn(move || f(range, head));
            row0 = row1;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_round_trips_through_globals() {
        let previous = parallel_config();
        set_parallel_config(ParallelConfig {
            threads: 3,
            min_par_elems: 10,
        });
        assert_eq!(
            parallel_config(),
            ParallelConfig {
                threads: 3,
                min_par_elems: 10
            }
        );
        set_parallel_config(previous);
    }

    #[test]
    fn set_clamps_degenerate_values() {
        let previous = parallel_config();
        set_parallel_config(ParallelConfig {
            threads: 0,
            min_par_elems: 0,
        });
        let cfg = parallel_config();
        assert!(cfg.min_par_elems >= 1);
        set_parallel_config(previous);
    }

    #[test]
    fn threads_for_respects_cutover() {
        let cfg = ParallelConfig {
            threads: 8,
            min_par_elems: 100,
        };
        assert_eq!(cfg.threads_for(99), 1);
        assert_eq!(cfg.threads_for(100), 8);
    }

    #[test]
    fn explicit_threads_beat_auto() {
        let cfg = ParallelConfig {
            threads: 5,
            ..ParallelConfig::default()
        };
        assert_eq!(cfg.effective_threads(), 5);
        let auto = ParallelConfig::default();
        assert!(auto.effective_threads() >= 1);
    }

    #[test]
    fn row_chunks_cover_every_row_once() {
        for threads in [1usize, 2, 3, 8, 100] {
            let rows = 37;
            let width = 3;
            let mut out = vec![0u32; rows * width];
            for_each_row_chunk(&mut out, width, rows, threads, |range, chunk| {
                for (local, row) in range.clone().enumerate() {
                    for j in 0..width {
                        chunk[local * width + j] += (row * width + j) as u32 + 1;
                    }
                }
            });
            let expect: Vec<u32> = (1..=(rows * width) as u32).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn empty_output_is_a_no_op() {
        let mut out: Vec<f32> = Vec::new();
        for_each_row_chunk(&mut out, 4, 0, 8, |_, _| panic!("must not run"));
    }
}
