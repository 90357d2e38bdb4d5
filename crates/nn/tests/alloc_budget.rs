//! Zero-allocation contract of the training hot path.
//!
//! Runs only with `--features alloc-count`: this binary installs the
//! counting global allocator and measures training differentially. Two fits
//! on a warm [`Workspace`] that differ only in epoch count must allocate the
//! *same* number of times — the per-fit allocations (index order vector,
//! epoch-loss vector, optimizer state warm-up) cancel, so any difference
//! would be a per-batch allocation in the inner loop. With E vs E+4 epochs
//! over many mini-batches each, equality proves the steady-state loop never
//! touches the heap.
#![cfg(feature = "alloc-count")]

use anole_nn::alloc_count::{measure, CountingAllocator};
use anole_nn::{Activation, Mlp, TrainConfig, Trainer, Workspace};
use anole_tensor::{rng_from_seed, Matrix, Seed};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn dataset(n: usize, dim: usize, classes: usize) -> (Matrix, Vec<usize>, Matrix) {
    let mut rng = rng_from_seed(Seed(80));
    let x = Matrix::random_normal(n, dim, 1.0, &mut rng);
    let labels: Vec<usize> = (0..n).map(|i| i % classes).collect();
    let mut targets = Matrix::zeros(n, classes);
    for (i, &l) in labels.iter().enumerate() {
        targets.set(i, l, 1.0);
    }
    (x, labels, targets)
}

fn build_model() -> Mlp {
    Mlp::builder(7)
        .hidden(10, Activation::Relu)
        .output(3)
        .build(Seed(81))
}

/// The `fit_*_ws` entry point a measurement drives.
#[derive(Clone, Copy, Debug)]
enum Fit {
    /// `fit_classifier_ws`: hard labels.
    Classifier,
    /// `fit_soft_classifier_ws`: soft targets, as `M_decision` trains.
    SoftClassifier,
    /// `fit_multilabel_ws`: dense 0/1 targets.
    Multilabel,
}

/// Allocations of one `epochs`-epoch fit on `ws`.
fn fit_allocs(
    fit: Fit,
    epochs: usize,
    batch_size: usize,
    ws: &mut Workspace,
    (x, labels, targets): &(Matrix, Vec<usize>, Matrix),
) -> u64 {
    let mut model = build_model();
    let trainer = Trainer::new(TrainConfig {
        epochs,
        batch_size,
        ..TrainConfig::default()
    });
    let (result, allocs) = measure(|| match fit {
        Fit::Classifier => trainer.fit_classifier_ws(&mut model, x, labels, Seed(82), ws),
        Fit::SoftClassifier => trainer.fit_soft_classifier_ws(&mut model, x, targets, Seed(82), ws),
        Fit::Multilabel => trainer.fit_multilabel_ws(&mut model, x, targets, 1.0, Seed(82), ws),
    });
    result.unwrap();
    allocs
}

#[test]
fn warm_workspace_serving_allocates_nothing() {
    let (x, _, _) = dataset(64, 7, 3);
    // The engine serves one frame at a time, through the fp32 model or its
    // int8 twin, and scores it with a deeper network on the same workspace;
    // the gateway scores whole batches.
    let frame = Matrix::row_vector(x.row(0));
    let model = build_model();
    let quant = model.quantize();
    let deeper = Mlp::builder(7)
        .hidden(12, Activation::Relu)
        .hidden(9, Activation::Tanh)
        .hidden(6, Activation::Relu)
        .output(4)
        .build(Seed(83));
    let mut ws = Workspace::new();
    let serve = |ws: &mut Workspace| {
        for input in [&x, &frame] {
            deeper.predict_proba_batch(input, ws).unwrap();
            model.predict_batch(input, ws).unwrap();
            model.predict_proba_batch(input, ws).unwrap();
            model.predict_sigmoid_batch(input, ws).unwrap();
            quant.predict_batch(input, ws).unwrap();
            quant.predict_proba_batch(input, ws).unwrap();
            quant.predict_sigmoid_batch(input, ws).unwrap();
        }
    };

    // Warm up every buffer the serving paths touch, then the steady state
    // must be allocation-free no matter how many calls follow.
    serve(&mut ws);
    let (_, allocs) = measure(|| {
        for _ in 0..8 {
            serve(&mut ws);
        }
    });
    assert_eq!(allocs, 0, "warm workspace serving allocated {allocs} times");

    // The allocating reference path really does hit the heap, so the
    // counter is live and the workspace variant is a measured win.
    let (_, ref_allocs) = measure(|| {
        model.predict_proba(&x).unwrap();
    });
    assert!(ref_allocs > 0, "reference path should allocate");
}

#[test]
fn steady_state_mini_batches_allocate_nothing() {
    let data = dataset(200, 7, 3);

    // Many small batches (25 rows) and one large batch plus a tail (160 and
    // 40 rows), for each loss: gathered labels, gathered soft targets (the
    // loss `M_decision` trains on) and gathered 0/1 targets.
    for batch_size in [25usize, 160] {
        for fit in [Fit::Classifier, Fit::SoftClassifier, Fit::Multilabel] {
            let mut ws = Workspace::new();
            fit_allocs(fit, 2, batch_size, &mut ws, &data); // warm-up
            let base = fit_allocs(fit, 2, batch_size, &mut ws, &data);
            assert!(base > 0, "counting allocator is not measuring");
            let longer = fit_allocs(fit, 6, batch_size, &mut ws, &data);
            assert_eq!(
                longer,
                base,
                "{fit:?} batch={batch_size}: 4 extra epochs allocated {} extra times",
                longer as i64 - base as i64
            );
        }
    }
}
