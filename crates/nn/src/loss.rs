//! Loss functions: softmax cross-entropy (classification) and
//! binary-cross-entropy-with-logits (multi-label detection heads).

use anole_tensor::{math, Matrix, ShapeError};

use crate::activation::CHUNK;
use crate::{Activation, NnError};

/// A scalar loss together with its gradient w.r.t. the logits.
#[derive(Debug, Clone, PartialEq)]
pub struct LossValue {
    /// Mean loss over the batch.
    pub loss: f32,
    /// `d loss / d logits`, same shape as the logits.
    pub d_logits: Matrix,
}

/// Row-wise softmax with the max-subtraction trick.
///
/// # Examples
///
/// ```
/// use anole_tensor::Matrix;
///
/// let p = anole_nn::softmax(&Matrix::row_vector(&[0.0, 0.0]));
/// assert!((p.get(0, 0) - 0.5).abs() < 1e-6);
/// ```
pub fn softmax(logits: &Matrix) -> Matrix {
    let mut out = Matrix::default();
    softmax_into(logits, &mut out);
    out
}

/// [`softmax`] writing into a caller-provided buffer.
///
/// `out` is reshaped with [`Matrix::resize_scratch`] and fully overwritten;
/// values are bit-identical to the allocating variant (which is this function
/// on a fresh matrix). Each row's max is found in vector lanes, with the
/// value of a serial `f32::max` fold; the exponentials run on
/// [`math::exp_into`], and each row's sum adds them in column order.
pub fn softmax_into(logits: &Matrix, out: &mut Matrix) {
    out.resize_scratch(logits.rows(), logits.cols());
    let mut shifted = [0.0f32; CHUNK];
    for i in 0..logits.rows() {
        let (row, out_row) = (logits.row(i), out.row_mut(i));
        let max = row_max(row);
        for (xs, os) in row.chunks(CHUNK).zip(out_row.chunks_mut(CHUNK)) {
            let shifted = &mut shifted[..xs.len()];
            for (s, &v) in shifted.iter_mut().zip(xs) {
                *s = v - max;
            }
            math::exp_into(shifted, os);
        }
        let sum = out_row.iter().fold(0.0f32, |sum, &v| sum + v);
        for v in out_row.iter_mut() {
            *v /= sum;
        }
    }
}

/// The largest value of `row`, or `-inf` for a row of NaN or no values, in
/// eight lanes that the compiler vectorises.
///
/// `f32::max` skips NaN, so this is the value of the serial
/// `fold(f32::NEG_INFINITY, f32::max)` except for the sign of a zero maximum:
/// a tie of `+0.0` and `-0.0` may resolve either way. In [`softmax_into`]
/// that changes only `v - max` for a zero `v`, to a zero of the other sign,
/// which `exp` maps to 1 all the same.
fn row_max(row: &[f32]) -> f32 {
    const LANES: usize = 8;
    let mut lanes = [f32::NEG_INFINITY; LANES];
    let chunks = row.chunks_exact(LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (m, &v) in lanes.iter_mut().zip(chunk) {
            *m = m.max(v);
        }
    }
    for (m, &v) in lanes.iter_mut().zip(tail) {
        *m = m.max(v);
    }
    lanes.into_iter().fold(f32::NEG_INFINITY, f32::max)
}

/// Element-wise logistic sigmoid of a matrix.
pub fn sigmoid(logits: &Matrix) -> Matrix {
    let mut out = Matrix::default();
    sigmoid_into(logits, &mut out);
    out
}

/// [`sigmoid`] writing into a caller-provided buffer.
///
/// Same reshape-and-overwrite contract (and bit-identity guarantee) as
/// [`softmax_into`]; the values are [`Activation::Sigmoid`]'s.
pub fn sigmoid_into(logits: &Matrix, out: &mut Matrix) {
    Activation::Sigmoid.forward_into(logits, out);
}

/// Softmax cross-entropy against integer class labels (the paper's §IV-C
/// decision-model loss).
///
/// Returns the mean loss and its gradient `softmax(logits) − one_hot(labels)`
/// scaled by `1/batch`.
///
/// # Errors
///
/// * [`NnError::SampleCount`] if `labels.len() != logits.rows()`.
/// * [`NnError::LabelOutOfRange`] if any label `>= logits.cols()`.
pub fn softmax_cross_entropy(logits: &Matrix, labels: &[usize]) -> Result<LossValue, NnError> {
    let mut d = Matrix::default();
    let loss = softmax_cross_entropy_into(logits, labels, &mut d)?;
    Ok(LossValue { loss, d_logits: d })
}

/// [`softmax_cross_entropy`] writing the gradient into a caller-provided
/// buffer and returning only the scalar loss.
///
/// `d_logits` doubles as the softmax scratch, so the whole loss runs without
/// allocating once the buffer has warm capacity. Bit-identical to the
/// allocating variant, which is this function on a fresh matrix. The
/// logarithms run on [`math::ln_into`], over stack chunks of rows, and the
/// loss adds them in row order.
///
/// # Errors
///
/// Same as [`softmax_cross_entropy`].
pub fn softmax_cross_entropy_into(
    logits: &Matrix,
    labels: &[usize],
    d_logits: &mut Matrix,
) -> Result<f32, NnError> {
    if labels.len() != logits.rows() {
        return Err(NnError::SampleCount {
            samples: logits.rows(),
            labels: labels.len(),
        });
    }
    let classes = logits.cols();
    for &l in labels {
        if l >= classes {
            return Err(NnError::LabelOutOfRange { label: l, classes });
        }
    }
    softmax_into(logits, d_logits);
    let batch = logits.rows().max(1) as f32;
    let mut loss = 0.0;
    let (mut p, mut log_p) = ([0.0f32; CHUNK], [0.0f32; CHUNK]);
    for (c, chunk) in labels.chunks(CHUNK).enumerate() {
        let (p, log_p) = (&mut p[..chunk.len()], &mut log_p[..chunk.len()]);
        for (k, (&label, p)) in chunk.iter().zip(p.iter_mut()).enumerate() {
            let i = c * CHUNK + k;
            let prob = d_logits.get(i, label);
            *p = prob.max(1e-12);
            d_logits.set(i, label, prob - 1.0);
        }
        math::ln_into(p, log_p);
        for &l in log_p.iter() {
            loss -= l;
        }
    }
    let inv_batch = 1.0 / batch;
    d_logits.map_inplace(|v| v * inv_batch);
    Ok(loss / batch)
}

/// Softmax cross-entropy against *soft* target distributions (rows of
/// `targets` should sum to 1). This is the loss the paper's §IV-C uses with
/// the (normalized) multi-hot model-allocation vector `v^x`.
///
/// # Errors
///
/// Returns [`NnError::Shape`], naming both shapes, if `targets` and `logits`
/// have different shapes.
pub fn soft_cross_entropy(logits: &Matrix, targets: &Matrix) -> Result<LossValue, NnError> {
    let mut d = Matrix::default();
    let loss = soft_cross_entropy_into(logits, targets, &mut d)?;
    Ok(LossValue { loss, d_logits: d })
}

/// [`soft_cross_entropy`] writing the gradient into a caller-provided buffer
/// and returning only the scalar loss.
///
/// `d_logits` holds the softmax probabilities first, then each element is
/// read once and replaced by its gradient `(p − t)/batch` — one buffer, no
/// allocation with warm capacity, bit-identical to the allocating variant.
/// The logarithms run on [`math::ln_into`] over stack chunks, and the loss
/// adds the terms of positive targets in row-major order.
///
/// # Errors
///
/// Same as [`soft_cross_entropy`].
pub fn soft_cross_entropy_into(
    logits: &Matrix,
    targets: &Matrix,
    d_logits: &mut Matrix,
) -> Result<f32, NnError> {
    if logits.shape() != targets.shape() {
        return Err(ShapeError::new("soft_cross_entropy", logits.shape(), targets.shape()).into());
    }
    softmax_into(logits, d_logits);
    let batch = logits.rows().max(1) as f32;
    let mut loss = 0.0;
    let (mut p, mut log_p) = ([0.0f32; CHUNK], [0.0f32; CHUNK]);
    let cells = d_logits
        .as_mut_slice()
        .chunks_mut(CHUNK)
        .zip(targets.as_slice().chunks(CHUNK));
    for (ds, ts) in cells {
        let (p, log_p) = (&mut p[..ds.len()], &mut log_p[..ds.len()]);
        for (p, &raw) in p.iter_mut().zip(ds.iter()) {
            *p = raw.max(1e-12);
        }
        math::ln_into(p, log_p);
        for ((d, &t), &l) in ds.iter_mut().zip(ts).zip(log_p.iter()) {
            if t > 0.0 {
                loss -= t * l;
            }
            *d = (*d - t) / batch;
        }
    }
    Ok(loss / batch)
}

/// Binary cross-entropy with logits against dense 0/1 targets, used by the
/// multi-label grid detectors. `pos_weight > 1` up-weights positive cells,
/// countering the sparsity of objects in a frame.
///
/// # Errors
///
/// Returns [`NnError::Shape`], naming both shapes, if `targets` and `logits`
/// have different shapes.
pub fn bce_with_logits(
    logits: &Matrix,
    targets: &Matrix,
    pos_weight: f32,
) -> Result<LossValue, NnError> {
    let mut d = Matrix::default();
    let loss = bce_with_logits_into(logits, targets, pos_weight, &mut d)?;
    Ok(LossValue { loss, d_logits: d })
}

/// [`bce_with_logits`] writing the gradient into a caller-provided buffer
/// and returning only the scalar loss.
///
/// Like [`soft_cross_entropy_into`], `d_logits` holds the sigmoid
/// probabilities first and is rewritten element-by-element into the
/// gradient. Bit-identical to the allocating variant.
///
/// A target of exactly 0 or 1 gives one of the two log terms a weight of
/// zero; that term is `-0.0`, which leaves the other term's bits unchanged,
/// so its logarithm is skipped. Any other target takes both terms.
///
/// The one logarithm a 0 or 1 target needs runs on [`math::ln_into`] over
/// stack chunks; a fractional target's second term calls [`math::ln`]. The
/// loss adds the cells in row-major order.
///
/// # Errors
///
/// Same as [`bce_with_logits`].
pub fn bce_with_logits_into(
    logits: &Matrix,
    targets: &Matrix,
    pos_weight: f32,
    d_logits: &mut Matrix,
) -> Result<f32, NnError> {
    if logits.shape() != targets.shape() {
        return Err(ShapeError::new("bce_with_logits", logits.shape(), targets.shape()).into());
    }
    sigmoid_into(logits, d_logits);
    let n = logits.len().max(1) as f32;
    let mut loss = 0.0;
    let (mut arg, mut log_arg) = ([0.0f32; CHUNK], [0.0f32; CHUNK]);
    let cells = d_logits
        .as_mut_slice()
        .chunks_mut(CHUNK)
        .zip(targets.as_slice().chunks(CHUNK));
    for (ds, ts) in cells {
        let (arg, log_arg) = (&mut arg[..ds.len()], &mut log_arg[..ds.len()]);
        for ((a, &s), &t) in arg.iter_mut().zip(ds.iter()).zip(ts) {
            let p = s.clamp(1e-7, 1.0 - 1e-7);
            *a = if t == 0.0 { 1.0 - p } else { p };
        }
        math::ln_into(arg, log_arg);
        for ((d, &t), &l) in ds.iter_mut().zip(ts).zip(log_arg.iter()) {
            let p = d.clamp(1e-7, 1.0 - 1e-7);
            let w = if t > 0.5 { pos_weight } else { 1.0 };
            let log_likelihood = if t == 0.0 || t == 1.0 {
                l
            } else {
                t * l + (1.0 - t) * math::ln(1.0 - p)
            };
            loss -= w * log_likelihood;
            *d = w * (p - t) / n;
        }
    }
    Ok(loss / n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]).unwrap();
        let p = softmax(&logits);
        for i in 0..2 {
            let s: f32 = p.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        assert!(p.iter().all(|&v| v > 0.0));
    }

    /// Softmax with each row's max found by the serial fold.
    fn softmax_by_serial_fold(logits: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(logits.rows(), logits.cols());
        for i in 0..logits.rows() {
            let row = logits.row(i);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let shifted: Vec<f32> = row.iter().map(|&v| v - max).collect();
            math::exp_into(&shifted, out.row_mut(i));
            let sum = out.row(i).iter().fold(0.0f32, |sum, &v| sum + v);
            for v in out.row_mut(i) {
                *v /= sum;
            }
        }
        out
    }

    #[test]
    fn lane_max_gives_the_bits_of_the_serial_fold() {
        let specials = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let mut rng = anole_tensor::rng_from_seed(anole_tensor::Seed(17));
        for width in 1..=70 {
            let mut logits = Matrix::random_normal(12, width, 3.0, &mut rng);
            // Row 0 stays random; row r holds special r - 1 every few
            // columns, rows 6 and up mix all of them, and the last row holds
            // only zeros of both signs, so its max is a ±0 tie.
            for r in 1..12 {
                for (k, v) in logits.row_mut(r).iter_mut().enumerate() {
                    let special = match r {
                        1..=5 => (k % 3 == 1).then_some(specials[r - 1]),
                        11 => Some(specials[k % 2]),
                        _ => (k % (r - 3) == 0).then_some(specials[(k + r) % 5]),
                    };
                    if let Some(special) = special {
                        *v = special;
                    }
                }
            }
            for i in 0..logits.rows() {
                let row = logits.row(i);
                let fold = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                // Equal as values: a ±0 tie may differ in sign only.
                assert_eq!(row_max(row), fold, "width {width} row {i}");
            }
            let (got, want) = (softmax(&logits), softmax_by_serial_fold(&logits));
            let bits = |m: &Matrix| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "width {width}");
        }
    }

    #[test]
    fn softmax_handles_large_logits() {
        let p = softmax(&Matrix::row_vector(&[1000.0, 1000.0]));
        assert!((p.get(0, 0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let logits = Matrix::from_rows(&[&[20.0, 0.0], &[0.0, 20.0]]).unwrap();
        let lv = softmax_cross_entropy(&logits, &[0, 1]).unwrap();
        assert!(lv.loss < 1e-6);
        assert!(lv.d_logits.max_abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_uniform_is_log_classes() {
        let logits = Matrix::zeros(1, 4);
        let lv = softmax_cross_entropy(&logits, &[2]).unwrap();
        assert!((lv.loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let logits = Matrix::from_rows(&[&[0.5, -0.3, 0.8]]).unwrap();
        let labels = [1usize];
        let lv = softmax_cross_entropy(&logits, &labels).unwrap();
        let eps = 1e-3f32;
        for j in 0..3 {
            let mut lp = logits.clone();
            lp.set(0, j, logits.get(0, j) + eps);
            let mut lm = logits.clone();
            lm.set(0, j, logits.get(0, j) - eps);
            let fp = softmax_cross_entropy(&lp, &labels).unwrap().loss;
            let fm = softmax_cross_entropy(&lm, &labels).unwrap().loss;
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - lv.d_logits.get(0, j)).abs() < 1e-3,
                "grad[{j}] numeric {numeric} vs {}",
                lv.d_logits.get(0, j)
            );
        }
    }

    #[test]
    fn cross_entropy_rejects_bad_labels() {
        let logits = Matrix::zeros(2, 3);
        assert!(matches!(
            softmax_cross_entropy(&logits, &[0]),
            Err(NnError::SampleCount { .. })
        ));
        assert!(matches!(
            softmax_cross_entropy(&logits, &[0, 3]),
            Err(NnError::LabelOutOfRange { label: 3, classes: 3 })
        ));
    }

    #[test]
    fn soft_cross_entropy_reduces_to_hard_on_one_hot() {
        let logits = Matrix::from_rows(&[&[0.5, -0.3, 0.8], &[1.0, 0.0, -1.0]]).unwrap();
        let hard = softmax_cross_entropy(&logits, &[1, 0]).unwrap();
        let one_hot =
            Matrix::from_rows(&[&[0.0, 1.0, 0.0], &[1.0, 0.0, 0.0]]).unwrap();
        let soft = soft_cross_entropy(&logits, &one_hot).unwrap();
        assert!((hard.loss - soft.loss).abs() < 1e-5);
        for (a, b) in hard.d_logits.iter().zip(soft.d_logits.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn soft_cross_entropy_gradient_matches_finite_difference() {
        let logits = Matrix::from_rows(&[&[0.2, -0.5, 1.1]]).unwrap();
        let targets = Matrix::from_rows(&[&[0.5, 0.0, 0.5]]).unwrap();
        let lv = soft_cross_entropy(&logits, &targets).unwrap();
        let eps = 1e-3f32;
        for j in 0..3 {
            let mut lp = logits.clone();
            lp.set(0, j, logits.get(0, j) + eps);
            let mut lm = logits.clone();
            lm.set(0, j, logits.get(0, j) - eps);
            let fp = soft_cross_entropy(&lp, &targets).unwrap().loss;
            let fm = soft_cross_entropy(&lm, &targets).unwrap().loss;
            let numeric = (fp - fm) / (2.0 * eps);
            assert!((numeric - lv.d_logits.get(0, j)).abs() < 1e-3);
        }
    }

    #[test]
    fn soft_cross_entropy_shape_mismatch_errors() {
        assert!(soft_cross_entropy(&Matrix::zeros(2, 3), &Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn soft_cross_entropy_width_mismatch_names_both_shapes() {
        let err = soft_cross_entropy(&Matrix::zeros(64, 3), &Matrix::zeros(64, 2)).unwrap_err();
        assert!(matches!(err, NnError::Shape(_)), "{err:?}");
        let text = err.to_string();
        assert!(text.contains("64x3") && text.contains("64x2"), "{text}");
    }

    #[test]
    fn bce_gradient_matches_finite_difference() {
        let logits = Matrix::from_rows(&[&[0.3, -1.2], &[2.0, 0.1]]).unwrap();
        let targets = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]).unwrap();
        let lv = bce_with_logits(&logits, &targets, 2.0).unwrap();
        let eps = 1e-3f32;
        for i in 0..2 {
            for j in 0..2 {
                let mut lp = logits.clone();
                lp.set(i, j, logits.get(i, j) + eps);
                let mut lm = logits.clone();
                lm.set(i, j, logits.get(i, j) - eps);
                let fp = bce_with_logits(&lp, &targets, 2.0).unwrap().loss;
                let fm = bce_with_logits(&lm, &targets, 2.0).unwrap().loss;
                let numeric = (fp - fm) / (2.0 * eps);
                assert!(
                    (numeric - lv.d_logits.get(i, j)).abs() < 1e-3,
                    "bce grad[{i},{j}]"
                );
            }
        }
    }

    #[test]
    fn bce_pos_weight_upweights_positives() {
        let logits = Matrix::row_vector(&[0.0]);
        let pos = Matrix::row_vector(&[1.0]);
        let l1 = bce_with_logits(&logits, &pos, 1.0).unwrap().loss;
        let l4 = bce_with_logits(&logits, &pos, 4.0).unwrap().loss;
        assert!((l4 - 4.0 * l1).abs() < 1e-5);
    }

    #[test]
    fn bce_shape_mismatch_errors() {
        let logits = Matrix::zeros(2, 2);
        let targets = Matrix::zeros(3, 2);
        assert!(bce_with_logits(&logits, &targets, 1.0).is_err());
    }

    #[test]
    fn bce_width_mismatch_names_both_shapes() {
        let err = bce_with_logits(&Matrix::zeros(64, 16), &Matrix::zeros(64, 15), 1.0).unwrap_err();
        assert!(matches!(err, NnError::Shape(_)), "{err:?}");
        let text = err.to_string();
        assert!(text.contains("64x16") && text.contains("64x15"), "{text}");
    }

    /// The loss of one logit as the two-term expression writes it, with
    /// the probability clamped exactly as `bce_with_logits_into` clamps it.
    fn two_term_bce(logit: f32, t: f32, pos_weight: f32) -> f32 {
        let p = sigmoid(&Matrix::row_vector(&[logit])).get(0, 0).clamp(1e-7, 1.0 - 1e-7);
        let w = if t > 0.5 { pos_weight } else { 1.0 };
        let mut loss = 0.0f32;
        loss -= w * (t * math::ln(p) + (1.0 - t) * math::ln(1.0 - p));
        loss
    }

    #[test]
    fn bce_skipped_log_term_matches_the_two_term_expression_bit_for_bit() {
        // Logits from -30 to 30: both ends saturate the sigmoid, so the
        // sweep covers both clamp bounds and everything between them.
        let logits: Vec<f32> = (0..=6000).map(|k| -30.0 + k as f32 * 0.01).collect();
        let p_of = |logit: f32| sigmoid(&Matrix::row_vector(&[logit])).get(0, 0);
        assert!(p_of(logits[0]) < 1e-7 && p_of(logits[6000]) > 1.0 - 1e-7);
        for t in [0.0f32, 1.0] {
            for &logit in &logits {
                let (logits, targets) = (Matrix::row_vector(&[logit]), Matrix::row_vector(&[t]));
                let loss = bce_with_logits(&logits, &targets, 3.0).unwrap().loss;
                assert_eq!(
                    loss.to_bits(),
                    two_term_bce(logit, t, 3.0).to_bits(),
                    "t {t}, logit {logit}"
                );
            }
        }
        // A fractional target keeps both terms: the loss is the two-term
        // expression and differs from either term alone.
        let (logit, t) = (0.4f32, 0.25f32);
        let (logits, targets) = (Matrix::row_vector(&[logit]), Matrix::row_vector(&[t]));
        let loss = bce_with_logits(&logits, &targets, 3.0).unwrap().loss;
        assert_eq!(loss.to_bits(), two_term_bce(logit, t, 3.0).to_bits());
        let p = p_of(logit);
        assert_ne!(loss, -(t * math::ln(p)));
        assert_ne!(loss, -((1.0 - t) * math::ln(1.0 - p)));
    }
}
