//! The int8 serving path against a naive `i32` reference, bit for bit.
//!
//! `QuantizedMlp` runs its products on `anole_tensor`'s integer kernel,
//! whichever body the CPU selects. The reference here writes the same steps
//! out in scalar code: `i8` codes from libm rounding
//! (`round().clamp(-127, 127) as i8`, so NaN codes to 0), exact `i32` dot
//! products, then `acc · x_scale · w_scale`, the bias and the activation.
//! Both must agree on every output bit, including the rows that stress the
//! rounding and the scales.

use anole_nn::{sigmoid, softmax, Activation, Mlp, Workspace};
use anole_tensor::{rng_from_seed, Matrix, Seed, MAX_EXACT_DEPTH};

/// The int8 forward pass with the `i8` codes, libm rounding and `i32`
/// sums written out, quantizing the weights from the f32 model itself:
/// the reference the integer kernel must match bit for bit.
fn reference_forward(m: &Mlp, x: &Matrix) -> Matrix {
    fn codes(row: &[f32]) -> (Vec<i32>, f32) {
        let max_abs = row.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        if max_abs == 0.0 {
            return (vec![0; row.len()], 0.0);
        }
        let inv = 127.0 / max_abs;
        let q = row.iter().map(|&v| (v * inv).round().clamp(-127.0, 127.0) as i8);
        (q.map(i32::from).collect(), max_abs / 127.0)
    }
    let mut a = x.clone();
    for layer in m.layers() {
        let w_t = layer.weights().transpose();
        let w: Vec<(Vec<i32>, f32)> = (0..w_t.rows()).map(|j| codes(w_t.row(j))).collect();
        let mut z = Matrix::zeros(a.rows(), layer.out_dim());
        for i in 0..a.rows() {
            let (x_codes, x_scale) = codes(a.row(i));
            for (j, (w_codes, w_scale)) in w.iter().enumerate() {
                let acc: i32 = x_codes.iter().zip(w_codes).map(|(x, w)| x * w).sum();
                z.set(i, j, acc as f32 * x_scale * w_scale + layer.bias().get(0, j));
            }
        }
        a = layer.activation().forward(&z);
    }
    a
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.iter().map(|v| v.to_bits()).collect()
}

/// Random rows, then the rows that stress the rounding and the scales.
fn hard_rows(batch: usize, width: usize, seed: u64) -> Matrix {
    let mut x = Matrix::random_normal(batch, width, 2.0, &mut rng_from_seed(Seed(seed)));
    let specials: [Box<dyn Fn(usize) -> f32>; 7] = [
        // All zeros.
        Box::new(|_| 0.0),
        // max_abs < 3.7e-37: `127 / max_abs` overflows to infinity.
        Box::new(|k| [1e-38, -3e-38, 0.0, 2.5e-39][k % 4]),
        // Infinities: the scale is infinite and every code is 0.
        Box::new(|k| [f32::INFINITY, -1.0, 0.5, f32::NEG_INFINITY][k % 4]),
        // NaN next to finite values: NaN codes to 0, max_abs skips it.
        Box::new(|k| [f32::NAN, 3.0, -7.25, 0.0][k % 4]),
        // All NaN.
        Box::new(|_| f32::NAN),
        // max_abs = 127, so `v · 127 / max_abs` is `v` and lands on ties.
        Box::new(|k| [127.0, -0.5, 0.5, -1.5, 2.5, -126.5, 63.5, -0.0][k % 8]),
        // Ties after scaling by 2: max_abs = 63.5, so inv = 2.
        Box::new(|k| [63.5, -0.25, 0.25, -31.75, 1.25, -0.75][k % 6]),
    ];
    for (i, special) in specials.iter().enumerate() {
        for (k, v) in x.row_mut(i).iter_mut().enumerate() {
            *v = special(k);
        }
    }
    x
}

#[test]
fn quantized_forward_matches_the_i32_reference_bit_for_bit() {
    let detector = Mlp::builder(32)
        .hidden(48, Activation::Relu)
        .output(16)
        .build(Seed(5));
    let decision = Mlp::builder(32)
        .hidden(64, Activation::Relu)
        .hidden(32, Activation::Relu)
        .hidden(64, Activation::Relu)
        .output(19)
        .build(Seed(6));
    let mut ws = Workspace::new();
    for (name, m) in [("detector", &detector), ("decision", &decision)] {
        let q = m.quantize();
        for (rows, seed) in [(1, 7), (8, 8), (257, 9)] {
            let x = if rows == 1 {
                Matrix::random_normal(1, 32, 1.0, &mut rng_from_seed(Seed(seed)))
            } else {
                hard_rows(rows, 32, seed)
            };
            let want = reference_forward(m, &x);
            let label = format!("{name} {rows} rows");
            assert_eq!(bits(&q.forward(&x).unwrap()), bits(&want), "forward {label}");
            let got = q.predict_batch(&x, &mut ws).unwrap();
            assert_eq!(bits(got), bits(&want), "predict_batch {label}");
            let got = q.predict_proba_batch(&x, &mut ws).unwrap();
            let want_p = softmax(&want);
            assert_eq!(bits(got), bits(&want_p), "predict_proba_batch {label}");
            let got = q.predict_sigmoid_batch(&x, &mut ws).unwrap();
            let want_s = sigmoid(&want);
            assert_eq!(bits(got), bits(&want_s), "predict_sigmoid_batch {label}");
        }
    }
}

#[test]
#[should_panic(expected = "at most 1040 inputs")]
fn quantize_rejects_layers_too_wide_for_exact_sums() {
    Mlp::builder(MAX_EXACT_DEPTH + 1).output(2).build(Seed(0)).quantize();
}
