//! The activations, softmax and losses that batch their transcendental calls
//! through `anole_tensor::math` give the bits of the per-element loops they
//! replace, written here on the scalar ports so the check does not depend on
//! the host's libm.

use anole_nn::{
    bce_with_logits_into, sigmoid_into, soft_cross_entropy_into, softmax_cross_entropy_into,
    softmax_into, Activation,
};
use anole_tensor::{math, rng_from_seed, Matrix, Seed};

/// Shapes around the kernels' eight lanes and the 64-element stack chunks:
/// rows wider than a chunk, and more rows than a chunk of labels.
const SHAPES: [(usize, usize); 7] = [
    (1, 1),
    (1, 7),
    (3, 9),
    (64, 19),
    (2, 300),
    (300, 4),
    (5, 65),
];

/// Logits at scale 1 and 40, with exact zeros and values past the
/// exponential's ±88 cut-offs, so every branch of the sigmoid and of the
/// kernels' special lanes runs.
fn logits(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = rng_from_seed(Seed(seed));
    let scale = if seed.is_multiple_of(2) { 1.0 } else { 40.0 };
    let mut m = Matrix::random_normal(rows, cols, scale, &mut rng);
    for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
        match i % 23 {
            0 => *v = 0.0,
            11 => *v = -0.0,
            17 => *v *= 5.0,
            _ => {}
        }
    }
    m
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.iter().map(|v| v.to_bits()).collect()
}

fn textbook_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + math::exp(-x))
    } else {
        let e = math::exp(x);
        e / (1.0 + e)
    }
}

fn textbook_softmax(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    for i in 0..out.rows() {
        let row = out.row_mut(i);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = math::exp(*v - max);
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    out
}

#[test]
fn activations_and_softmax_match_the_textbook_loops() {
    for (s, &(rows, cols)) in SHAPES.iter().enumerate() {
        for seed in [2 * s as u64, 2 * s as u64 + 1] {
            let z = logits(rows, cols, seed);
            let mut out = Matrix::default();
            Activation::Sigmoid.forward_into(&z, &mut out);
            assert_eq!(
                bits(&out),
                bits(&z.map(textbook_sigmoid)),
                "sigmoid {rows}x{cols}"
            );
            assert_eq!(bits(&Activation::Sigmoid.forward(&z)), bits(&out));
            let mut probs = Matrix::default();
            sigmoid_into(&z, &mut probs);
            assert_eq!(bits(&probs), bits(&out), "sigmoid_into {rows}x{cols}");
            Activation::Tanh.forward_into(&z, &mut out);
            assert_eq!(bits(&out), bits(&z.map(math::tanh)), "tanh {rows}x{cols}");
            assert_eq!(bits(&Activation::Tanh.forward(&z)), bits(&out));
            softmax_into(&z, &mut out);
            assert_eq!(
                bits(&out),
                bits(&textbook_softmax(&z)),
                "softmax {rows}x{cols}"
            );
        }
    }
}

#[test]
fn losses_match_the_textbook_loops() {
    for (s, &(rows, cols)) in SHAPES.iter().enumerate() {
        for seed in [2 * s as u64, 2 * s as u64 + 1] {
            let z = logits(rows, cols, seed);
            let batch = rows as f32;
            let mut d = Matrix::default();

            // Hard labels.
            let labels: Vec<usize> = (0..rows).map(|i| (i * 7 + seed as usize) % cols).collect();
            let mut want_d = textbook_softmax(&z);
            let mut want = 0.0;
            for (i, &label) in labels.iter().enumerate() {
                want -= math::ln(want_d.get(i, label).max(1e-12));
                want_d.set(i, label, want_d.get(i, label) - 1.0);
            }
            want_d.map_inplace(|v| v * (1.0 / batch));
            let loss = softmax_cross_entropy_into(&z, &labels, &mut d).unwrap();
            assert_eq!(
                loss.to_bits(),
                (want / batch).to_bits(),
                "hard {rows}x{cols}"
            );
            assert_eq!(bits(&d), bits(&want_d), "hard grad {rows}x{cols}");

            // Soft targets: one or two models per row, some rows all zero.
            let mut targets = Matrix::zeros(rows, cols);
            for i in 0..rows {
                match i % 3 {
                    0 => targets.set(i, i % cols, 1.0),
                    1 => {
                        targets.set(i, (i + 1) % cols, 0.5);
                        let j = (i + 2) % cols;
                        targets.set(i, j, targets.get(i, j) + 0.5);
                    }
                    _ => {}
                }
            }
            let mut want_d = textbook_softmax(&z);
            let mut want = 0.0;
            for i in 0..rows {
                for j in 0..cols {
                    let (t, raw) = (targets.get(i, j), want_d.get(i, j));
                    if t > 0.0 {
                        want -= t * math::ln(raw.max(1e-12));
                    }
                    want_d.set(i, j, (raw - t) / batch);
                }
            }
            let loss = soft_cross_entropy_into(&z, &targets, &mut d).unwrap();
            assert_eq!(
                loss.to_bits(),
                (want / batch).to_bits(),
                "soft {rows}x{cols}"
            );
            assert_eq!(bits(&d), bits(&want_d), "soft grad {rows}x{cols}");

            // Binary targets, with fractional ones in every fifth cell.
            let mut targets = Matrix::zeros(rows, cols);
            for (k, t) in targets.as_mut_slice().iter_mut().enumerate() {
                *t = match k % 5 {
                    0 => 0.25,
                    1 | 3 => 1.0,
                    _ => 0.0,
                };
            }
            let n = (rows * cols) as f32;
            let mut want_d = z.map(textbook_sigmoid);
            let mut want = 0.0;
            for (dv, &t) in want_d.as_mut_slice().iter_mut().zip(targets.as_slice()) {
                let p = dv.clamp(1e-7, 1.0 - 1e-7);
                let w = if t > 0.5 { 3.0 } else { 1.0 };
                want -= w * (t * math::ln(p) + (1.0 - t) * math::ln(1.0 - p));
                *dv = w * (p - t) / n;
            }
            let loss = bce_with_logits_into(&z, &targets, 3.0, &mut d).unwrap();
            assert_eq!(loss.to_bits(), (want / n).to_bits(), "bce {rows}x{cols}");
            assert_eq!(bits(&d), bits(&want_d), "bce grad {rows}x{cols}");
        }
    }
}
