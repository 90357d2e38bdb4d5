//! Dense `f32` matrices and deterministic randomness for the Anole reproduction.
//!
//! This crate is the numerical substrate shared by the neural-network,
//! clustering, and data-generation crates. It deliberately implements only
//! what the reproduction needs — row-major dense matrices, the handful of
//! BLAS-like kernels backing the MLP forward/backward passes, and seeded RNG
//! construction so every experiment in the repository is reproducible.
//!
//! # Examples
//!
//! ```
//! use anole_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c, a);
//! # Ok::<(), anole_tensor::ShapeError>(())
//! ```

// Every unsafe block states the CPU feature it relies on and the length
// check that bounds its loads and stores.
#![deny(clippy::undocumented_unsafe_blocks)]

/// Runs `$body` with the const `$c` bound to `$value`, one of the listed
/// literals, so a block's vector or row count is a compile-time constant
/// and its accumulators stay in registers.
macro_rules! with_const {
    ($value:expr, $c:ident in [$($n:literal),+] => $body:expr) => {
        match $value {
            $($n => {
                const $c: usize = $n;
                $body
            })+
            other => unreachable!("{other} is not one of {:?}", [$($n),+]),
        }
    };
}

pub mod math;
mod matrix;
mod parallel;
mod quant;
mod rng;
mod stats;

pub use matrix::{Matrix, ShapeError};
pub use quant::{QuantMatrix, QuantRows, MAX_EXACT_DEPTH};
pub use parallel::{parallel_config, set_parallel_config, ParallelConfig};
pub use rng::{rng_from_seed, split_seed, Seed, StdRng};
pub use stats::{argmax, cosine_similarity, empirical_cdf, l2_distance, mean, stddev, CdfPoint};
