//! Bit-exact `tanh`, `exp` and `ln` for `f32`: scalar ports of glibc 2.36's
//! `tanhf`, `expf` and `logf`, and slice kernels with one AVX2+FMA body.
//!
//! The scalar functions [`tanh`], [`exp`] and [`ln`] write out each glibc
//! routine's operation sequence, with [`f64::mul_add`] wherever glibc fuses,
//! so on an x86-64 host with glibc 2.36 they return the bits of `f32::tanh`,
//! `f32::exp` and `f32::ln` for every input (`errno` aside). They are the
//! reference the slice kernels are tested against.
//!
//! The slice kernels [`tanh_into`], [`exp_into`] and [`ln_into`] run eight
//! lanes at a time in an AVX2+FMA body chosen at run time, as the matrix
//! kernels choose their AVX body, and call the scalar ports on other CPUs.
//! Both paths give the same bits, so results never depend on which ran.
//!
//! Where the bits come from:
//! - `tanhf` is fdlibm's, compiled without FMA and with no ifunc: `±1` for
//!   `|x| ≥ 22`, `x(1+x)` for `|x| < 2⁻⁵⁵`, otherwise `1 − 2/(t+2)` with
//!   `t = expm1f(2|x|)` for `|x| ≥ 1`, or `−t/(t+2)` with
//!   `t = expm1f(−2|x|)`, all in single precision.
//! - `expf` and `logf` are the ARM optimized-routines algorithms in the FMA
//!   build that glibc's ifunc selects on CPUs with AVX2 and FMA: a
//!   double-precision polynomial around the 32-entry `__exp2f_data` and the
//!   16-entry `__logf_data` tables.
//!
//! # Examples
//!
//! ```
//! use anole_tensor::math;
//!
//! let x = [-1.0f32, 0.0, 0.5];
//! let mut y = [0.0f32; 3];
//! math::exp_into(&x, &mut y);
//! assert_eq!(y, [math::exp(-1.0), 1.0, math::exp(0.5)]);
//! ```

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

// fdlibm `expm1f`: ln 2 split so that k·LN2_HI is exact, 1/ln 2, and the
// scaled coefficients of its rational approximation.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);
/// fdlibm `tanhf`'s `tiny`: `1 − TINY` rounds to 1.
const TINY: f32 = 1.0e-30;

// `expf`: 32/ln 2, the round-to-integer shift 1.5·2⁵², and the polynomial
// for 2^(r/32) − 1 in r.
const EXP_INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
const EXP_SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
const EXP_C: [f64; 3] = [
    f64::from_bits(0x3ebc_6af8_4b91_2394),
    f64::from_bits(0x3f2e_bfce_50fa_c4f3),
    f64::from_bits(0x3f96_2e42_ff0c_52d6),
];
/// `__exp2f_data.tab`: entry `i` is the bits of 2^(i/32) minus `i << 47`.
#[rustfmt::skip]
static EXP_TAB: [u64; 32] = [
    0x3ff0_0000_0000_0000, 0x3fef_d9b0_d315_8574, 0x3fef_b558_6cf9_890f, 0x3fef_9301_d012_5b51,
    0x3fef_72b8_3c7d_517b, 0x3fef_5487_3168_b9aa, 0x3fef_387a_6e75_6238, 0x3fef_1e9d_f51f_dee1,
    0x3fef_06fe_0a31_b715, 0x3fee_f1a7_373a_a9cb, 0x3fee_dea6_4c12_3422, 0x3fee_ce08_6061_892d,
    0x3fee_bfda_d536_2a27, 0x3fee_b42b_569d_4f82, 0x3fee_ab07_dd48_5429, 0x3fee_a47e_b03a_5585,
    0x3fee_a09e_667f_3bcd, 0x3fee_9f75_e8ec_5f74, 0x3fee_a114_73eb_0187, 0x3fee_a589_994c_ce13,
    0x3fee_ace5_422a_a0db, 0x3fee_b737_b0cd_c5e5, 0x3fee_c491_82a3_f090, 0x3fee_d503_b23e_255d,
    0x3fee_e89f_995a_d3ad, 0x3fee_ff76_f2fb_5e47, 0x3fef_199b_dd85_529c, 0x3fef_3720_dcef_9069,
    0x3fef_5818_dcfb_a487, 0x3fef_7c97_337b_9b5f, 0x3fef_a4af_a2a4_90da, 0x3fef_d076_5b6e_4540,
];

// `logf`: ln 2 and the polynomial for ln(1 + r).
const LN2: f64 = f64::from_bits(0x3fe6_2e42_fefa_39ef);
const LOG_A: [f64; 3] = [
    f64::from_bits(0xbfd0_0ea3_48b8_8334),
    f64::from_bits(0x3fd5_575b_0be0_0b6a),
    f64::from_bits(0xbfdf_fffe_f20a_4123),
];
/// `__logf_data.tab[i].invc`: 1/c for the subinterval `i` of [0.7, 1.4].
#[rustfmt::skip]
static LOG_INVC: [u64; 16] = [
    0x3ff6_61ec_79f8_f3be, 0x3ff5_71ed_4aaf_883d, 0x3ff4_9539_f0f0_10b0, 0x3ff3_c995_b0b8_0385,
    0x3ff3_0d19_0c88_64a5, 0x3ff2_5e22_7b0b_8ea0, 0x3ff1_bb4a_4a1a_343f, 0x3ff1_2358_f08a_e5ba,
    0x3ff0_953f_4199_00a7, 0x3ff0_0000_0000_0000, 0x3fee_608c_fd9a_47ac, 0x3fec_a4b3_1f02_6aa0,
    0x3feb_2036_576a_fce6, 0x3fe9_c2d1_63a1_aa2d, 0x3fe8_86e6_0378_41ed, 0x3fe7_67dc_f553_4862,
];
/// `__logf_data.tab[i].logc`: ln c for the subinterval `i`.
#[rustfmt::skip]
static LOG_LOGC: [u64; 16] = [
    0xbfd5_7bf7_808c_aade, 0xbfd2_bef0_a7c0_6ddb, 0xbfd0_1eae_7f51_3a67, 0xbfcb_31d8_a682_24e9,
    0xbfc6_574f_0ac0_7758, 0xbfc1_aa2b_c79c_8100, 0xbfba_4e76_ce8c_0e5e, 0xbfb1_973c_5a61_1ccc,
    0xbfa2_52f4_38e1_0c1e, 0x0000_0000_0000_0000, 0x3faa_a5aa_5df2_5984, 0x3fbc_5e53_aa36_2eb4,
    0x3fc5_26e5_7720_db08, 0x3fcb_c286_0d22_4770, 0x3fd1_058b_c8a0_7ee1, 0x3fd4_0430_57b6_ee09,
];

/// Hyperbolic tangent, bit for bit as glibc 2.36's `tanhf`.
pub fn tanh(x: f32) -> f32 {
    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    let negative = jx >> 31 != 0;
    if ix >= 0x7f80_0000 {
        // tanh(±inf) = ±1, tanh(NaN) = NaN.
        return if negative {
            1.0 / x - 1.0
        } else {
            1.0 / x + 1.0
        };
    }
    let z = if ix < 0x41b0_0000 {
        if ix == 0 {
            return x;
        }
        if ix < 0x2400_0000 {
            // |x| < 2^-55
            return x * (1.0 + x);
        }
        if ix >= 0x3f80_0000 {
            let t = expm1(2.0 * x.abs());
            1.0 - 2.0 / (t + 2.0)
        } else {
            let t = expm1(-2.0 * x.abs());
            -t / (t + 2.0)
        }
    } else {
        // |x| >= 22
        1.0 - TINY
    };
    if negative {
        -z
    } else {
        z
    }
}

/// fdlibm's `expm1f` as glibc 2.36 builds it, on the arguments [`tanh`]
/// passes: x in (−2, 0) or [2, 44). The branches no such argument reaches
/// are left out: NaN, infinities, overflow, `x ≤ −27·ln 2`, and the
/// reduction to k = 1 with its two results.
fn expm1(x: f32) -> f32 {
    debug_assert!(
        (-2.0..0.0).contains(&x) || (2.0..44.0).contains(&x),
        "expm1: {x} is not an argument tanh passes"
    );
    let hx = x.to_bits() & 0x7fff_ffff;
    let negative = x.is_sign_negative();
    // Reduce to x = k·ln 2 + r, with r = hi − lo and c the rounding error
    // of that subtraction.
    let (x, c, k) = if hx > 0x3eb1_7218 {
        // |x| > ln2/2
        let (hi, lo, k) = if hx < 0x3f85_1592 {
            // |x| < 1.5·ln2, so x < 0
            (x + LN2_HI, -LN2_LO, -1)
        } else {
            let k = (INV_LN2 * x + if negative { -0.5 } else { 0.5 }) as i32;
            let t = k as f32;
            (x - t * LN2_HI, t * LN2_LO, k)
        };
        let r = hi - lo;
        (r, (hi - r) - lo, k)
    } else if hx < 0x3300_0000 {
        // |x| < 2^-25
        return x;
    } else {
        (x, 0.0, 0)
    };
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs);
    }
    let e = (x * (e - c) - c) - hxs;
    // `y · 2^k`, by adding k to the exponent field.
    let scale = |y: f32| f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32));
    match k {
        -1 => 0.5 * (x - e) - 0.5,
        _ if k <= -2 || k > 56 => scale(1.0 - (e - x)) - 1.0,
        _ if k < 23 => scale(f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k)) - (e - x)),
        _ => scale((x - (e + f32::from_bits(((0x7f - k) << 23) as u32))) + 1.0),
    }
}

/// Natural exponential, bit for bit as glibc 2.36's `expf` on a CPU with
/// AVX2 and FMA.
pub fn exp(x: f32) -> f32 {
    let ix = x.to_bits();
    let abstop = (ix >> 20) & 0x7ff;
    if abstop >= 0x42b {
        // |x| >= 88, or x is infinite or NaN.
        if ix == 0xff80_0000 {
            return 0.0;
        }
        if abstop >= 0x7f8 {
            return x + x;
        }
        if x > f32::from_bits(0x42b1_7217) {
            // Overflow: 2^97 · 2^97.
            return f32::INFINITY;
        }
        if x < f32::from_bits(0xc2cf_f1b4) {
            // Underflow: 2^-95 · 2^-95.
            return 0.0;
        }
        if x < f32::from_bits(0xc2ce_8ecf) {
            // May underflow: 1.25·2^-75 squared rounds to the least subnormal.
            return f32::from_bits(1);
        }
    }
    // x·32/ln2 = k + r with r in [-1/2, 1/2] and integer k.
    let xd = f64::from(x);
    let kd = EXP_INV_LN2_N.mul_add(xd, EXP_SHIFT);
    let ki = kd.to_bits();
    let r = EXP_INV_LN2_N.mul_add(xd, -(kd - EXP_SHIFT));
    // exp(x) = 2^(k/32) · 2^(r/32) ≈ s · (C0·r³ + C1·r² + C2·r + 1)
    let s = f64::from_bits(EXP_TAB[(ki % 32) as usize].wrapping_add(ki << 47));
    let z = EXP_C[0].mul_add(r, EXP_C[1]);
    let r2 = r * r;
    let y = EXP_C[2].mul_add(r, 1.0);
    (z.mul_add(r2, y) * s) as f32
}

/// Natural logarithm, bit for bit as glibc 2.36's `logf` on a CPU with AVX2
/// and FMA.
pub fn ln(x: f32) -> f32 {
    let mut ix = x.to_bits();
    if ix == 0x3f80_0000 {
        return 0.0;
    }
    if ix.wrapping_sub(0x0080_0000) >= 0x7f80_0000 - 0x0080_0000 {
        // x < 2^-126, or x is infinite or NaN.
        if ix << 1 == 0 {
            return f32::NEG_INFINITY;
        }
        if ix == 0x7f80_0000 {
            return x;
        }
        if ix >> 31 != 0 || ix << 1 >= 0xff00_0000 {
            // glibc's invalid-operation result: the default NaN, or x's
            // payload made quiet.
            #[allow(clippy::eq_op)]
            let nan = (x - x) / (x - x);
            return nan;
        }
        // Subnormal: scale into the normal range.
        ix = (x * 8_388_608.0).to_bits().wrapping_sub(23 << 23);
    }
    // x = 2^k · z with z in [0.7, 1.4], in subinterval i of 16, whose
    // centre is near c.
    let tmp = ix.wrapping_sub(0x3f33_0000);
    let i = ((tmp >> 19) % 16) as usize;
    let k = (tmp as i32) >> 23;
    let z = f64::from(f32::from_bits(ix.wrapping_sub(tmp & 0xff80_0000)));
    // ln(x) = ln1p(z/c − 1) + ln(c) + k·ln2
    let r = z.mul_add(f64::from_bits(LOG_INVC[i]), -1.0);
    let y0 = f64::from(k).mul_add(LN2, f64::from_bits(LOG_LOGC[i]));
    let r2 = r * r;
    let y = r.mul_add(LOG_A[1], LOG_A[2]);
    let y = r2.mul_add(LOG_A[0], y);
    r2.mul_add(y, y0 + r) as f32
}

/// Writes [`tanh`] of every element of `x` to `out`.
///
/// # Panics
///
/// Panics if `out` and `x` differ in length.
pub fn tanh_into(x: &[f32], out: &mut [f32]) {
    map(Routine::Tanh, x, out);
}

/// Writes [`exp`] of every element of `x` to `out`.
///
/// # Panics
///
/// Panics if `out` and `x` differ in length.
pub fn exp_into(x: &[f32], out: &mut [f32]) {
    map(Routine::Exp, x, out);
}

/// Writes [`ln`] of every element of `x` to `out`.
///
/// # Panics
///
/// Panics if `out` and `x` differ in length.
pub fn ln_into(x: &[f32], out: &mut [f32]) {
    map(Routine::Ln, x, out);
}

/// The routine a slice kernel applies.
#[derive(Clone, Copy)]
enum Routine {
    Tanh,
    Exp,
    Ln,
}

/// Applies `routine` to every element of `x`, writing to `out`: eight
/// lanes at a time in the AVX2+FMA body when the CPU has both, else one
/// element at a time with the scalar port.
fn map(routine: Routine, x: &[f32], out: &mut [f32]) {
    assert_eq!(out.len(), x.len(), "math: output length");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: AVX2 and FMA were detected at runtime just above, and the
        // assertion above makes `out` as long as `x`, which is all the body
        // needs: it reads and writes whole groups of eight within the two
        // slices, and the last partial group under a mask of its length.
        unsafe { map_avx2(routine, x, out) };
        return;
    }
    let f = match routine {
        Routine::Tanh => tanh,
        Routine::Exp => exp,
        Routine::Ln => ln,
    };
    for (o, &v) in out.iter_mut().zip(x) {
        *o = f(v);
    }
}

/// AVX2+FMA body of [`map`]: each group of eight elements in one vector.
/// The last partial group is loaded and stored under a lane mask, its
/// empty lanes set to 1.0, an input every routine takes on its main path.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA, and `out` must be as long as `x`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn map_avx2(routine: Routine, x: &[f32], out: &mut [f32]) {
    let mut groups = x.chunks_exact(8);
    let mut outs = out.chunks_exact_mut(8);
    for (xs, os) in (&mut groups).zip(&mut outs) {
        _mm256_storeu_ps(
            os.as_mut_ptr(),
            lanes(routine, _mm256_loadu_ps(xs.as_ptr())),
        );
    }
    let tail = groups.remainder();
    if !tail.is_empty() {
        // Lanes below `tail.len()`: masked-off lanes are neither read nor
        // written, so the partial group never leaves either slice.
        let mask = _mm256_cmpgt_epi32(
            _mm256_set1_epi32(tail.len() as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        );
        let v = _mm256_blendv_ps(
            _mm256_set1_ps(1.0),
            _mm256_maskload_ps(tail.as_ptr(), mask),
            _mm256_castsi256_ps(mask),
        );
        _mm256_maskstore_ps(outs.into_remainder().as_mut_ptr(), mask, lanes(routine, v));
    }
}

/// `routine` on one vector of eight lanes.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn lanes(routine: Routine, x: __m256) -> __m256 {
    match routine {
        Routine::Tanh => tanh8(x),
        Routine::Exp => exp8(x),
        Routine::Ln => ln8(x),
    }
}

/// Blend mask of the lanes whose signed 32-bit integer in `a` exceeds `b`.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn gt(a: __m256i, b: i32) -> __m256 {
    _mm256_castsi256_ps(_mm256_cmpgt_epi32(a, _mm256_set1_epi32(b)))
}

/// Blend mask of the lanes whose signed 32-bit integer in `a` is below `b`.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn lt(a: __m256i, b: i32) -> __m256 {
    _mm256_castsi256_ps(_mm256_cmpgt_epi32(_mm256_set1_epi32(b), a))
}

/// Blend mask of the lanes whose 32-bit integer in `a` equals `b`.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn eq(a: __m256i, b: i32) -> __m256 {
    _mm256_castsi256_ps(_mm256_cmpeq_epi32(a, _mm256_set1_epi32(b)))
}

/// `y · 2^k` for the lanes of `exponent = k << 23`, by adding k to the
/// exponent field.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn scale(y: __m256, exponent: __m256i) -> __m256 {
    _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256(y), exponent))
}

/// Eight lanes of [`tanh`]: every branch is evaluated and the lanes pick
/// theirs by blending.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn tanh8(x: __m256) -> __m256 {
    let bits = _mm256_castps_si256(x);
    let ix = _mm256_and_si256(bits, _mm256_set1_epi32(0x7fff_ffff));
    let sign = _mm256_castsi256_ps(_mm256_andnot_si256(ix, bits));
    let ax = _mm256_castsi256_ps(ix);
    let (one, two) = (_mm256_set1_ps(1.0), _mm256_set1_ps(2.0));
    // |x| >= 1: t = expm1(2|x|) and 1 − 2/(t+2); else t = expm1(−2|x|)
    // and −t/(t+2).
    let big = gt(ix, 0x3f7f_ffff);
    let arg = _mm256_blendv_ps(
        _mm256_mul_ps(ax, _mm256_set1_ps(-2.0)),
        _mm256_add_ps(ax, ax),
        big,
    );
    let t = expm1_8(arg);
    let neg_t = _mm256_xor_ps(t, _mm256_set1_ps(-0.0));
    let q = _mm256_div_ps(_mm256_blendv_ps(neg_t, two, big), _mm256_add_ps(t, two));
    let z = _mm256_blendv_ps(q, _mm256_sub_ps(one, q), big);
    let z = _mm256_xor_ps(z, sign);
    // |x| < 2^-55, zero included: x(1+x).
    let tiny = lt(ix, 0x2400_0000);
    let z = _mm256_blendv_ps(z, _mm256_mul_ps(_mm256_add_ps(one, x), x), tiny);
    // |x| >= 22: ±1; ±inf and NaN take 1/x ± 1, which is ±1 or NaN.
    let pm_one = _mm256_or_ps(one, sign);
    let inf_nan = _mm256_add_ps(_mm256_div_ps(one, x), pm_one);
    let saturated = _mm256_blendv_ps(pm_one, inf_nan, gt(ix, 0x7f7f_ffff));
    _mm256_blendv_ps(z, saturated, gt(ix, 0x41af_ffff))
}

/// Eight lanes of [`expm1`], on the arguments [`tanh8`] passes (those of
/// [`expm1`], where k is never 1): every value of k is evaluated and the
/// lanes pick theirs by blending.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn expm1_8(x: __m256) -> __m256 {
    let bits = _mm256_castps_si256(x);
    let hx = _mm256_and_si256(bits, _mm256_set1_epi32(0x7fff_ffff));
    let sign = _mm256_castsi256_ps(_mm256_andnot_si256(hx, bits));
    let (one, half) = (_mm256_set1_ps(1.0), _mm256_set1_ps(0.5));
    // k is 0 up to ln2/2, −1 up to 1.5·ln2 (only negative x gets there),
    // then x/ln2 ± 1/2 truncated. With t = k, hi = x − t·LN2_HI and
    // lo = t·LN2_LO reproduce the k = −1 and the k = 0 reductions exactly.
    let k_far = _mm256_cvttps_epi32(_mm256_add_ps(
        _mm256_or_ps(half, sign),
        _mm256_mul_ps(_mm256_set1_ps(INV_LN2), x),
    ));
    // A true comparison lane is all ones, which is −1.
    let k = _mm256_castps_si256(gt(hx, 0x3eb1_7218));
    let k = _mm256_blendv_epi8(k, k_far, _mm256_castps_si256(gt(hx, 0x3f85_1591)));
    let t = _mm256_cvtepi32_ps(k);
    let hi = _mm256_sub_ps(x, _mm256_mul_ps(t, _mm256_set1_ps(LN2_HI)));
    let lo = _mm256_mul_ps(t, _mm256_set1_ps(LN2_LO));
    let r = _mm256_sub_ps(hi, lo);
    let c = _mm256_sub_ps(_mm256_sub_ps(hi, r), lo);
    // The rational approximation on r.
    let hfx = _mm256_mul_ps(r, half);
    let hxs = _mm256_mul_ps(r, hfx);
    let mut r1 = _mm256_mul_ps(hxs, _mm256_set1_ps(Q5));
    for q in [Q4, Q3, Q2, Q1] {
        r1 = _mm256_mul_ps(hxs, _mm256_add_ps(_mm256_set1_ps(q), r1));
    }
    let r1 = _mm256_add_ps(one, r1);
    let t = _mm256_sub_ps(_mm256_set1_ps(3.0), _mm256_mul_ps(r1, hfx));
    let e = _mm256_mul_ps(
        hxs,
        _mm256_div_ps(
            _mm256_sub_ps(r1, t),
            _mm256_sub_ps(_mm256_set1_ps(6.0), _mm256_mul_ps(r, t)),
        ),
    );
    let k_zero = _mm256_sub_ps(r, _mm256_sub_ps(_mm256_mul_ps(r, e), hxs));
    let e = _mm256_sub_ps(_mm256_sub_ps(_mm256_mul_ps(r, _mm256_sub_ps(e, c)), c), hxs);
    let e_r = _mm256_sub_ps(e, r);
    let k_minus_one = _mm256_sub_ps(_mm256_mul_ps(half, _mm256_sub_ps(r, e)), half);
    let exponent = _mm256_slli_epi32::<23>(k);
    let k_out = _mm256_sub_ps(scale(_mm256_sub_ps(one, e_r), exponent), one);
    let t_low = _mm256_sub_epi32(
        _mm256_set1_epi32(0x3f80_0000),
        _mm256_srlv_epi32(_mm256_set1_epi32(0x0100_0000), k),
    );
    let k_low = scale(_mm256_sub_ps(_mm256_castsi256_ps(t_low), e_r), exponent);
    let t_high = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_sub_epi32(
        _mm256_set1_epi32(0x7f),
        k,
    )));
    let k_high = scale(
        _mm256_add_ps(_mm256_sub_ps(r, _mm256_add_ps(e, t_high)), one),
        exponent,
    );
    let y = _mm256_blendv_ps(k_out, k_high, _mm256_and_ps(gt(k, 22), lt(k, 57)));
    let y = _mm256_blendv_ps(y, k_low, _mm256_and_ps(gt(k, 1), lt(k, 23)));
    let y = _mm256_blendv_ps(y, k_minus_one, eq(k, -1));
    let y = _mm256_blendv_ps(y, k_zero, eq(k, 0));
    // |x| < 2^-25: x itself.
    _mm256_blendv_ps(y, x, lt(hx, 0x3300_0000))
}

/// Eight lanes of [`exp`]; lanes with |x| >= 88, infinite or NaN take the
/// scalar port.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn exp8(x: __m256) -> __m256 {
    let y = _mm256_set_m128(
        exp4(_mm256_extractf128_ps::<1>(x)),
        exp4(_mm256_castps256_ps128(x)),
    );
    let abs = _mm256_and_si256(_mm256_castps_si256(x), _mm256_set1_epi32(0x7fff_ffff));
    let special = _mm256_movemask_ps(gt(abs, 0x42af_ffff));
    if special == 0 {
        y
    } else {
        patch(x, y, special, exp)
    }
}

/// Four lanes of [`exp`]'s main path, in double precision.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn exp4(x: __m128) -> __m128 {
    let inv_ln2_n = _mm256_set1_pd(EXP_INV_LN2_N);
    let shift = _mm256_set1_pd(EXP_SHIFT);
    let xd = _mm256_cvtps_pd(x);
    let kd = _mm256_fmadd_pd(inv_ln2_n, xd, shift);
    let ki = _mm256_castpd_si256(kd);
    let r = _mm256_fmsub_pd(inv_ln2_n, xd, _mm256_sub_pd(kd, shift));
    // The index is masked to 0..32, inside `EXP_TAB`.
    let idx = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
    let tab = _mm256_i64gather_epi64::<8>(EXP_TAB.as_ptr().cast(), idx);
    let s = _mm256_castsi256_pd(_mm256_add_epi64(tab, _mm256_slli_epi64::<47>(ki)));
    let z = _mm256_fmadd_pd(_mm256_set1_pd(EXP_C[0]), r, _mm256_set1_pd(EXP_C[1]));
    let r2 = _mm256_mul_pd(r, r);
    let y = _mm256_fmadd_pd(_mm256_set1_pd(EXP_C[2]), r, _mm256_set1_pd(1.0));
    _mm256_cvtpd_ps(_mm256_mul_pd(_mm256_fmadd_pd(z, r2, y), s))
}

/// Eight lanes of [`ln`]; lanes below 2^-126, infinite or NaN take the
/// scalar port.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn ln8(x: __m256) -> __m256 {
    let ix = _mm256_castps_si256(x);
    let tmp = _mm256_sub_epi32(ix, _mm256_set1_epi32(0x3f33_0000));
    // The index is masked to 0..16, inside the `LOG_*` tables.
    let i = _mm256_and_si256(_mm256_srli_epi32::<19>(tmp), _mm256_set1_epi32(15));
    let k = _mm256_srai_epi32::<23>(tmp);
    let z = _mm256_castsi256_ps(_mm256_sub_epi32(
        ix,
        _mm256_and_si256(tmp, _mm256_set1_epi32(0xff80_0000_u32 as i32)),
    ));
    let y = _mm256_set_m128(
        ln4(
            _mm256_extractf128_ps::<1>(z),
            _mm256_extracti128_si256::<1>(i),
            _mm256_extracti128_si256::<1>(k),
        ),
        ln4(
            _mm256_castps256_ps128(z),
            _mm256_castsi256_si128(i),
            _mm256_castsi256_si128(k),
        ),
    );
    // ln 1 is +0 exactly.
    let y = _mm256_andnot_ps(eq(ix, 0x3f80_0000), y);
    // Special when ix − 2^23 >= 0x7f000000 as unsigned.
    let u = _mm256_sub_epi32(ix, _mm256_set1_epi32(0x0080_0000));
    let limit = _mm256_max_epu32(u, _mm256_set1_epi32(0x7f00_0000));
    let special = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(limit, u)));
    if special == 0 {
        y
    } else {
        patch(x, y, special, ln)
    }
}

/// Four lanes of [`ln`]'s main path, in double precision, from the
/// reduced `z`, the table index `i` and the exponent `k`.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA, and every lane of `i` must lie in
/// `0..16`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn ln4(z: __m128, i: __m128i, k: __m128i) -> __m128 {
    let invc = _mm256_i32gather_pd::<8>(LOG_INVC.as_ptr().cast(), i);
    let logc = _mm256_i32gather_pd::<8>(LOG_LOGC.as_ptr().cast(), i);
    let r = _mm256_fmsub_pd(_mm256_cvtps_pd(z), invc, _mm256_set1_pd(1.0));
    let y0 = _mm256_fmadd_pd(_mm256_cvtepi32_pd(k), _mm256_set1_pd(LN2), logc);
    let r2 = _mm256_mul_pd(r, r);
    let y = _mm256_fmadd_pd(r, _mm256_set1_pd(LOG_A[1]), _mm256_set1_pd(LOG_A[2]));
    let y = _mm256_fmadd_pd(r2, _mm256_set1_pd(LOG_A[0]), y);
    _mm256_cvtpd_ps(_mm256_fmadd_pd(r2, y, _mm256_add_pd(r, y0)))
}

/// Replaces the lanes of `y` set in the bit mask `lanes` by `f` of the
/// same lanes of `x`.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[cold]
unsafe fn patch(x: __m256, y: __m256, lanes: i32, f: fn(f32) -> f32) -> __m256 {
    let (mut xs, mut ys) = ([0.0f32; 8], [0.0f32; 8]);
    _mm256_storeu_ps(xs.as_mut_ptr(), x);
    _mm256_storeu_ps(ys.as_mut_ptr(), y);
    for (lane, (y, &x)) in ys.iter_mut().zip(&xs).enumerate() {
        if lanes >> lane & 1 != 0 {
            *y = f(x);
        }
    }
    _mm256_loadu_ps(ys.as_ptr())
}
