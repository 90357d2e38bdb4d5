//! Bit-identity of training across thread counts (threads ∈ {1, 2, 8}).
//!
//! `min_par_elems: 1` sends every matrix product of the forward and
//! backward passes through the row-partitioned parallel kernels, and the
//! full training loop (shuffling, optimizer state, weight decay) is the
//! observable: if any gradient bit differed the trained weights would
//! diverge.

use anole_nn::{Activation, Mlp, TrainConfig, Trainer};
use anole_tensor::{
    parallel_config, rng_from_seed, set_parallel_config, Matrix, ParallelConfig, Seed,
};

fn dataset(n: usize, dim: usize, classes: usize, seed: Seed) -> (Matrix, Vec<usize>) {
    let mut rng = rng_from_seed(seed);
    let x = Matrix::random_normal(n, dim, 1.0, &mut rng);
    let labels = (0..n).map(|i| i % classes).collect();
    (x, labels)
}

/// Trains a fresh model at threads 1, 2 and 8 and asserts that the three
/// runs' weights and epoch losses are identical.
fn assert_bit_identical_across_threads(
    build: impl Fn() -> Mlp,
    cfg: TrainConfig,
    x: &Matrix,
    labels: &[usize],
) {
    let baseline = parallel_config();
    let mut runs = Vec::new();
    for threads in [1usize, 2, 8] {
        set_parallel_config(ParallelConfig {
            threads,
            min_par_elems: 1,
        });
        let mut model = build();
        let report = Trainer::new(cfg)
            .fit_classifier(&mut model, x, labels, Seed(22))
            .unwrap();
        runs.push((threads, model, report.epoch_losses));
    }
    set_parallel_config(baseline);
    let (_, model_ref, losses_ref) = &runs[0];
    for (threads, model, losses) in &runs[1..] {
        assert_eq!(
            losses, losses_ref,
            "epoch losses diverged at threads={threads}"
        );
        assert_eq!(model, model_ref, "weights diverged at threads={threads}");
    }
}

#[test]
fn training_at_batch_192_is_bit_identical_across_threads() {
    let (x, labels) = dataset(200, 8, 4, Seed(20));
    let build = || {
        Mlp::builder(8)
            .hidden(16, Activation::Relu)
            .output(4)
            .build(Seed(21))
    };
    let cfg = TrainConfig {
        epochs: 3,
        batch_size: 192,
        weight_decay: 0.001,
        ..TrainConfig::default()
    };
    assert_bit_identical_across_threads(build, cfg, &x, &labels);
}

#[test]
fn training_at_batch_32_is_bit_identical_across_threads() {
    let (x, labels) = dataset(96, 6, 3, Seed(30));
    let build = || {
        Mlp::builder(6)
            .hidden(8, Activation::Tanh)
            .output(3)
            .build(Seed(31))
    };
    let cfg = TrainConfig {
        epochs: 4,
        batch_size: 32,
        ..TrainConfig::default()
    };
    assert_bit_identical_across_threads(build, cfg, &x, &labels);
}
