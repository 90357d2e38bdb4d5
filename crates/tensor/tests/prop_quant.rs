//! Properties of the int8 quantization path: round-trip error bounds,
//! closeness of the quantized product ([`QuantRows::matmul_nt_into`]) to its
//! f32 reference, and exact equality with an integer reference.
//!
//! The quantized product sums integer levels on the f32 kernel, and those
//! sums are exact, so it must equal, bit for bit, a naive `i32` reference
//! computed here by hand.

use anole_tensor::{rng_from_seed, Matrix, QuantMatrix, QuantRows, Seed};

/// Shapes chosen to exercise degenerate rows/columns, odd k, ragged
/// register blocks, and a 300-row product.
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (3, 5, 2),
    (17, 9, 13),
    (33, 47, 29),
    (64, 64, 64),
    (70, 1, 70),
    (5, 131, 3),
    (300, 64, 64),
];

fn cases(rows: usize, inner: usize, cols: usize) -> Vec<(Matrix, Matrix)> {
    let mut rng = rng_from_seed(Seed(0x1_8BAD ^ (rows * 1_000_003 + inner * 1_009 + cols) as u64));
    let dense_a = Matrix::random_normal(rows, inner, 1.0, &mut rng);
    // NT shape: b is row-major over the shared k axis (inner columns).
    let dense_b = Matrix::random_normal(cols, inner, 1.0, &mut rng);
    // A mostly-zero left operand produces all-zero rows (scale 0) at small
    // shapes and exercises the clamp/round path near zero.
    let sparse_a = dense_a.map(|v| if v < 0.35 { 0.0 } else { v });
    vec![(dense_a, dense_b.clone()), (sparse_a, dense_b)]
}

fn max_abs_row(m: &Matrix, i: usize) -> f32 {
    m.row(i).iter().fold(0.0f32, |acc, v| acc.max(v.abs()))
}

/// `a · bqᵀ` on the quantized path: `a` quantized per row, times `bq`.
fn quantized_product(a: &Matrix, bq: &QuantMatrix) -> Matrix {
    let (mut rows, mut out) = (QuantRows::default(), Matrix::default());
    rows.quantize_from(a);
    rows.matmul_nt_into(bq, &mut out).unwrap();
    out
}

#[test]
fn quantize_dequantize_round_trip_is_bounded_by_half_a_scale() {
    for &(rows, inner, _) in SHAPES {
        for (case, (a, _)) in cases(rows, inner, 1).into_iter().enumerate() {
            let q = QuantMatrix::quantize(&a);
            let back = q.dequantize();
            assert_eq!(back.rows(), a.rows());
            assert_eq!(back.cols(), a.cols());
            for i in 0..a.rows() {
                let scale = q.scales()[i];
                // scale = max_abs / 127 and values round to the nearest
                // step, so per-element error is at most scale / 2 (plus a
                // float-rounding whisker).
                let bound = scale / 2.0 + 1e-5 + scale * 1e-4;
                for j in 0..a.cols() {
                    let err = (back.get(i, j) - a.get(i, j)).abs();
                    assert!(
                        err <= bound,
                        "{rows}x{inner} case={case} ({i},{j}): err {err} > bound {bound}"
                    );
                }
                // An all-zero row must quantize to scale 0 exactly.
                if max_abs_row(&a, i) == 0.0 {
                    assert_eq!(scale, 0.0);
                }
            }
        }
    }
}

#[test]
fn quantized_product_tracks_the_f32_product_within_quantization_error() {
    for &(rows, inner, cols) in SHAPES {
        for (case, (a, b)) in cases(rows, inner, cols).into_iter().enumerate() {
            let aq = QuantMatrix::quantize(&a);
            let bq = QuantMatrix::quantize(&b);
            let got = quantized_product(&a, &bq);
            let want = a.matmul_nt(&b).unwrap();
            assert_eq!(got.shape(), want.shape());
            for i in 0..rows {
                for j in 0..cols {
                    // Per-element quantization error is ≤ scale/2, so the
                    // k-term dot drifts by at most
                    //   k · (max|a_i| · sb/2 + (max|b_j| + sb/2) · sa/2).
                    let (sa, sb) = (aq.scales()[i], bq.scales()[j]);
                    let (amax, bmax) = (max_abs_row(&a, i), max_abs_row(&b, j));
                    let tol =
                        inner as f32 * (amax * sb / 2.0 + (bmax + sb / 2.0) * sa / 2.0) + 1e-5;
                    let err = (got.get(i, j) - want.get(i, j)).abs();
                    assert!(
                        err <= tol,
                        "{rows}x{inner}x{cols} case={case} ({i},{j}): err {err} > tol {tol}"
                    );
                }
            }
        }
    }
}

#[test]
fn quantized_product_equals_the_exact_i32_reference() {
    for &(rows, inner, cols) in SHAPES {
        for (case, (a, b)) in cases(rows, inner, cols).into_iter().enumerate() {
            let aq = QuantMatrix::quantize(&a);
            let bq = QuantMatrix::quantize(&b);

            // Naive scalar reference: the exact i32 dot, dequantized the
            // same way the product does. The f32 sums of integer levels are
            // exact, so the product must match it bit for bit.
            let mut want = Matrix::zeros(rows, cols);
            for i in 0..rows {
                for j in 0..cols {
                    let acc: i32 = aq
                        .row(i)
                        .iter()
                        .zip(bq.row(j))
                        .map(|(&x, &y)| i32::from(x) * i32::from(y))
                        .sum();
                    want.set(i, j, acc as f32 * aq.scales()[i] * bq.scales()[j]);
                }
            }
            let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            let got: Vec<u32> = quantized_product(&a, &bq)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(got, want, "{rows}x{inner}x{cols} case={case}");
        }
    }
}
