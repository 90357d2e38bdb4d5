//! Bit-identity of the workspace-reusing training hot path against a
//! reference trainer reimplemented from the allocating public APIs.
//!
//! The reference loop below replays the historical trainer verbatim —
//! `select_rows` gathers, `forward_cached`, the allocating loss functions,
//! `Mlp::backward` and `Adam::step_reference` — using the same seed
//! discipline. The real trainer must match it bit for bit (`f32::to_bits`,
//! not `==`) across loss kinds, batch sizes and frozen prefixes.

use anole_nn::{
    bce_with_logits, soft_cross_entropy, softmax_cross_entropy, Activation, LossValue, Mlp,
    TrainConfig, Trainer, Workspace,
};
use anole_tensor::{rng_from_seed, Matrix, Seed};

#[derive(Clone, Copy)]
enum RefLoss<'a> {
    Hard(&'a [usize]),
    Soft(&'a Matrix),
    Multi(&'a Matrix, f32),
}

fn loss_of(logits: &Matrix, idx: &[usize], src: RefLoss<'_>) -> LossValue {
    match src {
        RefLoss::Hard(labels) => {
            let batch_labels: Vec<usize> = idx.iter().map(|&i| labels[i]).collect();
            softmax_cross_entropy(logits, &batch_labels).unwrap()
        }
        RefLoss::Soft(targets) => soft_cross_entropy(logits, &targets.select_rows(idx)).unwrap(),
        RefLoss::Multi(targets, pos_weight) => {
            bce_with_logits(logits, &targets.select_rows(idx), pos_weight).unwrap()
        }
    }
}

/// The historical training loop, rebuilt on the allocating public APIs.
fn reference_fit(
    cfg: &TrainConfig,
    model: &mut Mlp,
    x: &Matrix,
    src: RefLoss<'_>,
    seed: Seed,
) -> Vec<f32> {
    let mut rng = rng_from_seed(seed);
    let mut optimizer = cfg.optimizer.build();
    let n = x.rows();
    let batch = cfg.batch_size.clamp(1, n);
    let mut order: Vec<usize> = (0..n).collect();
    let mut epoch_losses = Vec::new();
    for _ in 0..cfg.epochs {
        rng.shuffle(&mut order);
        let mut epoch_loss = 0.0;
        let mut batches = 0;
        for chunk in order.chunks(batch) {
            let bx = x.select_rows(chunk);
            let cache = model.forward_cached(&bx).unwrap();
            let lv = loss_of(cache.output(), chunk, src);
            let grads = model.backward(&cache, &lv.d_logits).unwrap();
            optimizer.step_reference(model, &grads).unwrap();
            epoch_loss += lv.loss;
            batches += 1;
        }
        epoch_losses.push(epoch_loss / batches.max(1) as f32);
    }
    epoch_losses
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn assert_bitwise_eq(a: &Mlp, b: &Mlp, context: &str) {
    for (i, (la, lb)) in a.layers().iter().zip(b.layers()).enumerate() {
        assert_eq!(bits(la.weights()), bits(lb.weights()), "{context}: layer {i} weights");
        assert_eq!(bits(la.bias()), bits(lb.bias()), "{context}: layer {i} bias");
    }
}

fn dataset(n: usize, dim: usize, classes: usize, seed: Seed) -> (Matrix, Vec<usize>, Matrix) {
    let mut rng = rng_from_seed(seed);
    let x = Matrix::random_normal(n, dim, 1.0, &mut rng);
    let labels: Vec<usize> = (0..n).map(|i| i % classes).collect();
    let mut targets = Matrix::zeros(n, classes);
    for (i, &l) in labels.iter().enumerate() {
        targets.set(i, l, 1.0);
    }
    (x, labels, targets)
}

fn build_model(dim: usize, classes: usize, seed: u64) -> Mlp {
    Mlp::builder(dim)
        .hidden(10, Activation::Relu)
        .hidden(6, Activation::Tanh)
        .output(classes)
        .build(Seed(seed))
}

#[test]
fn workspace_trainer_matches_reference_across_losses_batches_and_seeds() {
    let (x, labels, targets) = dataset(200, 7, 3, Seed(90));
    for seed in [5u64, 6] {
        // Nine batches per epoch (eight of 24 rows, one of 8), or two
        // (160 rows and a 40-row tail).
        for batch_size in [24usize, 160] {
            let cfg = TrainConfig {
                epochs: 3,
                batch_size,
                ..TrainConfig::default()
            };
            let cases: [(&str, RefLoss<'_>); 3] = [
                ("hard", RefLoss::Hard(&labels)),
                ("soft", RefLoss::Soft(&targets)),
                ("multi", RefLoss::Multi(&targets, 1.5)),
            ];
            for (name, src) in cases {
                let mut expect = build_model(7, 3, seed);
                let ref_losses = reference_fit(&cfg, &mut expect, &x, src, Seed(seed + 50));

                let mut got = build_model(7, 3, seed);
                let trainer = Trainer::new(cfg);
                let report = match src {
                    RefLoss::Hard(_) => trainer
                        .fit_classifier(&mut got, &x, &labels, Seed(seed + 50))
                        .unwrap(),
                    RefLoss::Soft(_) => trainer
                        .fit_soft_classifier(&mut got, &x, &targets, Seed(seed + 50))
                        .unwrap(),
                    RefLoss::Multi(_, pos_weight) => trainer
                        .fit_multilabel(&mut got, &x, &targets, pos_weight, Seed(seed + 50))
                        .unwrap(),
                };
                let ctx = format!("{name} seed={seed} batch={batch_size}");
                let got_bits: Vec<u32> = report.epoch_losses.iter().map(|v| v.to_bits()).collect();
                let ref_bits: Vec<u32> = ref_losses.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got_bits, ref_bits, "{ctx}: epoch losses");
                assert_bitwise_eq(&got, &expect, &ctx);
            }
        }
    }
}

#[test]
fn workspace_trainer_matches_reference_with_frozen_prefix() {
    let (x, _, targets) = dataset(96, 7, 3, Seed(92));
    let cfg = TrainConfig {
        epochs: 4,
        batch_size: 32,
        ..TrainConfig::default()
    };

    let mut expect = build_model(7, 3, 13);
    expect.set_frozen_prefix(1);
    reference_fit(&cfg, &mut expect, &x, RefLoss::Soft(&targets), Seed(62));

    let mut got = build_model(7, 3, 13);
    got.set_frozen_prefix(1);
    let mut ws = Workspace::new();
    Trainer::new(cfg)
        .fit_soft_classifier_ws(&mut got, &x, &targets, Seed(62), &mut ws)
        .unwrap();
    assert_bitwise_eq(&got, &expect, "frozen prefix");
}
