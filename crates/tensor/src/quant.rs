//! Symmetric per-row int8 quantization, with exact `i32` products.
//!
//! [`QuantMatrix`] stores a row-major `i8` payload plus one `f32` scale per
//! row (`scale = max_abs(row) / 127`, zero-point 0). Quantizing costs one
//! pass; dequantizing an element is `q * scale`, so the round-trip error is
//! bounded by `scale / 2` per element.
//!
//! [`QuantRows`] quantizes a batch of activations straight into `i8` codes
//! plus per-row scales, and [`QuantRows::matmul_nt_into`] multiplies them by
//! a [`QuantMatrix`] on an integer kernel and dequantizes on writeback:
//! `out[i][j] = acc as f32 · x_scale[i] · w_scale[j]`, where `acc` is the
//! `i32` dot product of the codes of input row `i` and weight row `j`. A
//! `QuantMatrix` derives, once, when it is quantized or deserialized, a
//! packed panel of its codes for that kernel: blocks of [`BLOCK`] rows, each
//! row's codes in groups of [`GROUP`] along `k`, zero-padded.
//!
//! The kernel has three bodies, chosen at run time by CPU feature, in order
//! of preference ([`QuantRows::matmul_isa`] names the one this CPU runs):
//!
//! * AVX-512 VNNI: `vpdpbusd` multiplies four unsigned bytes by four signed
//!   bytes and adds the four products to an `i32` lane. The activation codes
//!   go in as `code XOR 0x80`, which is `code + 128` as `u8`, and each
//!   output subtracts its precomputed `128 · Σ w` afterwards.
//! * AVX2: `vpmaddwd` on codes sign-extended to `i16`.
//! * A portable `i32` loop.
//!
//! Every `i32` lane accumulates one output (AVX2: one output's even or odd
//! code pairs, joined by one add at the end) for the whole `k` loop, so no
//! output ends in a horizontal reduction. Integer sums are exact in any
//! order, so the bodies split rows, outputs and `k` as suits them and all
//! give the same bits, for every `threads` setting.
//!
//! `acc as f32` is exact too: a product of two codes is at most
//! `127 · 127 = 16 129`, so for a shared dimension `k ≤` [`MAX_EXACT_DEPTH`]
//! (1 040) `|acc| < 2²⁴`. With the `+128` offset a VNNI lane stays below
//! `255 · 127 · 1 040 < 2³¹`, so no body overflows at that depth.

use std::fmt;

use anole_json::{field, json_struct, FromJson, Value};

use crate::matrix::{Matrix, ShapeError};

/// Largest shared dimension for which `acc as f32` of the `i32` sum of code
/// products is exact: `k · 127² < 2²⁴`.
pub const MAX_EXACT_DEPTH: usize = (1 << 24) / (127 * 127);

/// Outputs per block of the packed panel: the `i32` lanes of one 512-bit
/// vector.
const BLOCK: usize = 16;
/// Codes per group along `k`: the bytes one `i32` lane of `vpdpbusd`
/// multiplies and sums.
const GROUP: usize = 4;
/// Panel blocks of one tile of the VNNI body: 64 outputs.
const TILE_BLOCKS: usize = 4;

/// Row-major `i8` matrix with one symmetric `f32` scale per row.
///
/// The dequantized value of element `(i, j)` is `data[i][j] as f32 *
/// scales[i]`. An all-zero row quantizes to scale 0 and an all-zero payload.
/// The serialized form is the payload and the scales; the packed panel the
/// integer kernel reads is derived from them and held alongside.
#[derive(Clone, Default, PartialEq)]
pub struct QuantMatrix {
    rows: usize,
    cols: usize,
    data: Vec<i8>,
    scales: Vec<f32>,
    /// The payload as `⌈rows / 16⌉` blocks of `⌈cols / 4⌉` groups of 16 rows
    /// × 4 codes: byte `((b · groups + g) · 16 + o) · 4 + c` is element
    /// `(16b + o, 4g + c)`, and 0 past the payload's edges.
    panel: Vec<i8>,
    /// `128 · Σₖ data[j][k]` for each row `j`, padded with zeros to whole
    /// blocks: what the `+128` offset of the VNNI body adds to output `j`.
    offset_sums: Vec<i32>,
}

json_struct!(write QuantMatrix { rows, cols, data, scales });

/// Reads the written fields shape-checked (the payload must hold
/// `rows × cols` values and `rows` scales) and derives the packed panel.
impl FromJson for QuantMatrix {
    fn from_json(value: &Value) -> Result<Self, anole_json::Error> {
        let (rows, cols): (usize, usize) =
            (field(value, "rows", None)?, field(value, "cols", None)?);
        let data: Vec<i8> = field(value, "data", None)?;
        let scales: Vec<f32> = field(value, "scales", None)?;
        let shape_err = |len| {
            let err = ShapeError::new("deserialize", (rows, cols), (len, 1));
            anole_json::Error::new(err.to_string())
        };
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(shape_err(data.len()));
        }
        if scales.len() != rows {
            return Err(shape_err(scales.len()));
        }
        Ok(Self::from_parts(rows, cols, data, scales))
    }
}

/// Shows the stored fields only: the panel is derived from the payload.
impl fmt::Debug for QuantMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QuantMatrix")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("data", &self.data)
            .field("scales", &self.scales)
            .finish()
    }
}

impl QuantMatrix {
    /// Quantizes `m` with one symmetric scale per row.
    pub fn quantize(m: &Matrix) -> Self {
        let mut q = QuantRows::default();
        q.quantize_from(m);
        let data = (0..q.rows).flat_map(|i| q.row(i).iter().copied()).collect();
        Self::from_parts(m.rows(), m.cols(), data, q.scales)
    }

    /// A matrix of the given payload and scales, with its panel derived.
    fn from_parts(rows: usize, cols: usize, data: Vec<i8>, scales: Vec<f32>) -> Self {
        let groups = cols.div_ceil(GROUP);
        let blocks = rows.div_ceil(BLOCK);
        let mut panel = vec![0i8; blocks * groups * BLOCK * GROUP];
        let mut offset_sums = vec![0i32; blocks * BLOCK];
        for (j, row) in data.chunks_exact(cols.max(1)).take(rows).enumerate() {
            let (b, o) = (j / BLOCK, j % BLOCK);
            for (k, &w) in row.iter().enumerate() {
                panel[((b * groups + k / GROUP) * BLOCK + o) * GROUP + k % GROUP] = w;
            }
            offset_sums[j] = 128 * row.iter().map(|&w| i32::from(w)).sum::<i32>();
        }
        Self {
            rows,
            cols,
            data,
            scales,
            panel,
            offset_sums,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The `i8` payload of row `i`.
    pub fn row(&self, i: usize) -> &[i8] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Per-row symmetric scales (`len == rows`).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Bytes of numeric payload: `rows·cols` i8 weights + `rows` f32 scales.
    ///
    /// This is the footprint the device memory model charges for a resident
    /// quantized matrix. It leaves out the derived panel, which only the
    /// host keeps.
    pub fn storage_bytes(&self) -> u64 {
        self.data.len() as u64 + 4 * self.scales.len() as u64
    }

    /// Dequantizes back to f32 (`q * row_scale`).
    pub fn dequantize(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            let scale = self.scales[i];
            let src = self.row(i);
            for (dst, &q) in out.row_mut(i).iter_mut().zip(src) {
                *dst = q as f32 * scale;
            }
        }
        out
    }
}

/// Codes per row of a panel or a batch of codes: `cols` rounded up to whole
/// groups.
fn padded_depth(cols: usize) -> usize {
    cols.div_ceil(GROUP) * GROUP
}

/// A batch of `f32` rows quantized as [`QuantMatrix::quantize`] quantizes
/// them, held as `i8` codes plus one scale per row.
///
/// This is the activation scratch of an int8 layer:
/// [`QuantRows::quantize_from`] is allocation-free once the buffers have
/// grown to the largest batch seen.
#[derive(Debug, Clone, Default)]
pub struct QuantRows {
    rows: usize,
    cols: usize,
    /// `rows` rows of `cols` codes, each zero-padded to whole groups.
    codes: Vec<i8>,
    scales: Vec<f32>,
}

impl QuantRows {
    /// Quantizes every row of `x`, overwriting the previous batch.
    ///
    /// Each row takes one pass for its largest magnitude and one for its
    /// codes, compiled for AVX-512F or AVX2 where the CPU has them, so that
    /// both passes run in vector lanes.
    pub fn quantize_from(&mut self, x: &Matrix) {
        let (rows, cols) = x.shape();
        let depth = padded_depth(cols);
        (self.rows, self.cols) = (rows, cols);
        self.codes.resize(rows * depth, 0);
        self.scales.resize(rows, 0.0);
        let (codes, scales) = (&mut self.codes[..], &mut self.scales[..]);
        match Body::detect() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `detect` saw AVX-512F at run time.
            Body::Avx512Vnni => unsafe { quantize_rows_avx512f(x, depth, codes, scales) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `detect` saw AVX2 at run time.
            Body::Avx2 => unsafe { quantize_rows_avx2(x, depth, codes, scales) },
            _ => quantize_rows(x, depth, codes, scales),
        }
    }

    /// The codes of row `i`, without padding.
    fn row(&self, i: usize) -> &[i8] {
        &self.codes[i * padded_depth(self.cols)..][..self.cols]
    }

    /// `self · rhsᵀ`, dequantized on writeback, into `out` (resized as
    /// scratch).
    ///
    /// `self` is `m×k` and `rhs` is `n×k`, so the result is `m×n`: the NT
    /// shape a dense layer needs when its weights are stored transposed.
    /// Element `(i, j)` is `acc as f32 · x_scale[i] · w_scale[j]`,
    /// multiplied in that order, where the scales are those of row `i` of
    /// `self` and row `j` of `rhs`, and `acc` is the `i32` dot product of
    /// their codes, exact in `f32` while `k ≤` [`MAX_EXACT_DEPTH`].
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the shared dimensions differ.
    pub fn matmul_nt_into(&self, rhs: &QuantMatrix, out: &mut Matrix) -> Result<(), ShapeError> {
        if self.cols != rhs.cols {
            return Err(ShapeError::new(
                "matmul_nt",
                (self.rows, self.cols),
                rhs.shape(),
            ));
        }
        debug_assert!(rhs.cols <= MAX_EXACT_DEPTH, "k too large for exact sums");
        out.resize_scratch(self.rows, rhs.rows);
        product(self, rhs, out.as_mut_slice());
        Ok(())
    }

    /// The instruction set of the int8 body this CPU runs, in order of
    /// preference: `"avx512_vnni"`, `"avx2"` or `"portable"`.
    ///
    /// Every product and every quantized row gives the same bits on each;
    /// only the speed differs.
    pub fn matmul_isa() -> &'static str {
        match Body::detect() {
            Body::Avx512Vnni => "avx512_vnni",
            Body::Avx2 => "avx2",
            Body::Portable => "portable",
        }
    }
}

/// The int8 body this CPU runs, in order of preference.
#[derive(Clone, Copy)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
enum Body {
    Avx512Vnni,
    Avx2,
    Portable,
}

impl Body {
    /// The first body the CPU supports. `is_x86_feature_detected!` caches
    /// its CPUID probe, so this costs a few loads per call.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            if has!("avx512f") && has!("avx512vnni") {
                return Body::Avx512Vnni;
            }
            if has!("avx2") {
                return Body::Avx2;
            }
        }
        Body::Portable
    }
}

/// Writes the `m × n` product of [`QuantRows::matmul_nt_into`] into `out`
/// on the body this CPU runs.
///
/// # Panics
///
/// Panics if an operand is shorter than its shape says; the check runs in
/// release builds too, because the SIMD bodies read through raw pointers.
fn product(x: &QuantRows, w: &QuantMatrix, out: &mut [f32]) {
    assert_operands(x, w, out);
    match Body::detect() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `detect` saw AVX-512F and AVX-512 VNNI at run time, and
        // `assert_operands` bounds every access the body makes.
        Body::Avx512Vnni => unsafe { product_vnni(x, w, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `detect` saw AVX2 at run time, and `assert_operands`
        // bounds every access the body makes.
        Body::Avx2 => unsafe { product_avx2(x, w, out) },
        _ => product_portable(x, w, out),
    }
}

/// Asserts that the operands of [`product`] hold what their shapes say:
/// `x.rows` rows of codes padded as deep as the panel, `n = w.rows` scales,
/// a panel and offset sums of whole blocks, and `m · n` outputs.
fn assert_operands(x: &QuantRows, w: &QuantMatrix, out: &[f32]) {
    let (depth, blocks) = (padded_depth(w.cols), w.rows.div_ceil(BLOCK));
    assert_eq!(x.cols, w.cols, "int8 product: shared dimension");
    assert_eq!(x.codes.len(), x.rows * depth, "int8 product: codes length");
    assert_eq!(x.scales.len(), x.rows, "int8 product: row scales");
    assert_eq!(w.scales.len(), w.rows, "int8 product: weight scales");
    assert_eq!(
        w.panel.len(),
        blocks * BLOCK * depth,
        "int8 product: panel length"
    );
    assert_eq!(
        w.offset_sums.len(),
        blocks * BLOCK,
        "int8 product: offset sums"
    );
    assert_eq!(out.len(), x.rows * w.rows, "int8 product: output length");
}

/// Portable body of [`product`]: one input row against one panel block at a
/// time, sixteen `i32` accumulators over every group.
fn product_portable(x: &QuantRows, w: &QuantMatrix, out: &mut [f32]) {
    let (n, depth) = (w.rows, padded_depth(w.cols));
    let block_len = BLOCK * depth;
    for i in 0..x.rows {
        let codes = &x.codes[i * depth..][..depth];
        let out_row = &mut out[i * n..][..n];
        for b in 0..n.div_ceil(BLOCK) {
            let panel = &w.panel[b * block_len..][..block_len];
            let mut acc = [0i32; BLOCK];
            for (x4, w_g) in codes
                .chunks_exact(GROUP)
                .zip(panel.chunks_exact(BLOCK * GROUP))
            {
                for (acc, w4) in acc.iter_mut().zip(w_g.chunks_exact(GROUP)) {
                    for (&x, &w) in x4.iter().zip(w4) {
                        *acc += i32::from(x) * i32::from(w);
                    }
                }
            }
            let j0 = b * BLOCK;
            let outputs = out_row[j0..].iter_mut().zip(&w.scales[j0..]);
            for ((o, &w_scale), &acc) in outputs.zip(&acc) {
                *o = acc as f32 * x.scales[i] * w_scale;
            }
        }
    }
}

/// `code XOR 0x80` in each byte of a group: `code + 128` as `u8`.
#[cfg(target_arch = "x86_64")]
const OFFSET: i32 = 0x8080_8080_u32 as i32;

/// AVX-512 VNNI body of [`product`]: one input row against up to
/// [`TILE_BLOCKS`] panel blocks at a time, with `k` split over two sets of
/// accumulators, so that a single frame's forward is not one dependent chain
/// per output.
///
/// # Safety
///
/// The CPU must support AVX-512F and AVX-512 VNNI, and the operands must
/// pass [`assert_operands`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
unsafe fn product_vnni(x: &QuantRows, w: &QuantMatrix, out: &mut [f32]) {
    let blocks = w.rows.div_ceil(BLOCK);
    for i in 0..x.rows {
        for b0 in (0..blocks).step_by(TILE_BLOCKS) {
            with_const!(TILE_BLOCKS.min(blocks - b0), V in [1, 2, 3, 4] => {
                tile_vnni::<V>(x, w, i, b0, out)
            });
        }
    }
}

/// One tile of [`product_vnni`]: input row `i` against panel blocks
/// `b0..b0 + V`. Even groups go to the first set of accumulators and odd
/// groups to the second.
///
/// # Safety
///
/// The CPU must support AVX-512F and AVX-512 VNNI, the operands must pass
/// [`assert_operands`], and the row and blocks must exist.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
#[inline]
unsafe fn tile_vnni<const V: usize>(
    x: &QuantRows,
    w: &QuantMatrix,
    i: usize,
    b0: usize,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let depth = padded_depth(w.cols);
    let (xs, ws) = (
        x.codes.as_ptr().add(i * depth),
        w.panel.as_ptr().add(b0 * BLOCK * depth),
    );
    let groups = depth / GROUP;
    let mut acc = [[_mm512_setzero_si512(); V]; 2];
    for g in (0..groups - groups % 2).step_by(2) {
        group_vnni(&mut acc[0], xs, ws, depth, g);
        group_vnni(&mut acc[1], xs, ws, depth, g + 1);
    }
    if groups % 2 == 1 {
        group_vnni(&mut acc[0], xs, ws, depth, groups - 1);
    }
    let (n, j0) = (w.rows, b0 * BLOCK);
    let cols = (n - j0).min(V * BLOCK);
    // Every lane of the last vector when `cols` fills it.
    let mask: __mmask16 = u16::MAX >> ((BLOCK - cols % BLOCK) % BLOCK);
    let x_scale = _mm512_set1_ps(x.scales[i]);
    let [evens, odds] = acc;
    for (v, (even, odd)) in evens.into_iter().zip(odds).enumerate() {
        let j = j0 + v * BLOCK;
        let offset_sum = _mm512_loadu_si512(w.offset_sums.as_ptr().add(j).cast());
        let sum = _mm512_add_epi32(even, odd);
        let exact = _mm512_cvtepi32_ps(_mm512_sub_epi32(sum, offset_sum));
        let o = out.as_mut_ptr().add(i * n + j);
        if v == V - 1 {
            let w_scale = _mm512_maskz_loadu_ps(mask, w.scales.as_ptr().add(j));
            let y = _mm512_mul_ps(_mm512_mul_ps(exact, x_scale), w_scale);
            _mm512_mask_storeu_ps(o, mask, y);
        } else {
            let w_scale = _mm512_loadu_ps(w.scales.as_ptr().add(j));
            _mm512_storeu_ps(o, _mm512_mul_ps(_mm512_mul_ps(exact, x_scale), w_scale));
        }
    }
}

/// Group `g` of a [`tile_vnni`]: the row's four offset codes, read at `xs`,
/// times `V` panel vectors, read at `ws` with block stride `16 · depth`,
/// added to `acc`.
///
/// # Safety
///
/// The CPU must support AVX-512F and AVX-512 VNNI, and group `g` of the row
/// and of the `V` blocks must be in bounds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
#[inline]
unsafe fn group_vnni<const V: usize>(
    acc: &mut [std::arch::x86_64::__m512i; V],
    xs: *const i8,
    ws: *const i8,
    depth: usize,
    g: usize,
) {
    use std::arch::x86_64::*;
    let x4 = xs.add(g * GROUP).cast::<i32>().read_unaligned();
    let x_g = _mm512_set1_epi32(x4 ^ OFFSET);
    for (v, acc) in acc.iter_mut().enumerate() {
        let w_g = _mm512_loadu_si512(ws.add((v * depth + g * GROUP) * BLOCK).cast());
        *acc = _mm512_dpbusd_epi32(*acc, x_g, w_g);
    }
}

/// AVX2 body of [`product`]: one input row against up to two panel blocks
/// (32 outputs) at a time, as up to four halves of eight outputs.
///
/// # Safety
///
/// The CPU must support AVX2, and the operands must pass
/// [`assert_operands`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn product_avx2(x: &QuantRows, w: &QuantMatrix, out: &mut [f32]) {
    const HALF: usize = BLOCK / 2;
    for i in 0..x.rows {
        for j0 in (0..w.rows).step_by(2 * BLOCK) {
            with_const!((w.rows - j0).min(2 * BLOCK).div_ceil(HALF), H in [1, 2, 3, 4] => {
                row_avx2::<H>(x, w, i, j0, out)
            });
        }
    }
}

/// `H` halves of eight outputs of [`product_avx2`], from output `j0` (a
/// block boundary) of input row `i`. Each group sign-extends 32 panel bytes
/// per half to `i16` in two vectors, four outputs × four codes each, and
/// `vpmaddwd` against the row's four codes adds each output's two code
/// pairs to two `i32` lanes; one pairwise add at the end joins them.
///
/// # Safety
///
/// The CPU must support AVX2, the operands must pass [`assert_operands`],
/// and row `i` and the `H` halves must exist.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn row_avx2<const H: usize>(
    x: &QuantRows,
    w: &QuantMatrix,
    i: usize,
    j0: usize,
    out: &mut [f32],
) {
    use crate::matrix::{LANES, TAIL_MASKS};
    use std::arch::x86_64::*;
    let depth = padded_depth(w.cols);
    let (xs, ws) = (
        x.codes.as_ptr().add(i * depth),
        w.panel.as_ptr().add(j0 * depth),
    );
    let mut acc = [[_mm256_setzero_si256(); 2]; H];
    for g in 0..depth / GROUP {
        let x4 = xs.add(g * GROUP).cast::<i32>().read_unaligned();
        // The four codes as i16 in every 64-bit lane.
        let x_g = _mm256_broadcastq_epi64(_mm_cvtepi8_epi16(_mm_cvtsi32_si128(x4)));
        for (h, acc) in acc.iter_mut().enumerate() {
            // Half `h` is the first or second 32 bytes of a block's group.
            let p = ws.add(((h / 2) * depth + g * GROUP) * BLOCK + (h % 2) * 2 * BLOCK);
            for (q, acc) in acc.iter_mut().enumerate() {
                let w_q = _mm256_cvtepi8_epi16(_mm_loadu_si128(p.add(q * BLOCK).cast()));
                *acc = _mm256_add_epi32(*acc, _mm256_madd_epi16(w_q, x_g));
            }
        }
    }
    let n = w.rows;
    let x_scale = _mm256_set1_ps(x.scales[i]);
    for (h, acc) in acc.iter().enumerate() {
        let j = j0 + h * LANES;
        // Lanes [o0, o1, o4, o5 | o2, o3, o6, o7], put in order.
        let sum = _mm256_permute4x64_epi64::<0b11_01_10_00>(_mm256_hadd_epi32(acc[0], acc[1]));
        let tail = (n - j).min(LANES) % LANES;
        let mask = _mm256_loadu_si256(TAIL_MASKS[LANES - tail..].as_ptr().cast::<__m256i>());
        let o = out.as_mut_ptr().add(i * n + j);
        if tail == 0 {
            let w_scale = _mm256_loadu_ps(w.scales.as_ptr().add(j));
            let y = _mm256_mul_ps(_mm256_mul_ps(_mm256_cvtepi32_ps(sum), x_scale), w_scale);
            _mm256_storeu_ps(o, y);
        } else {
            let w_scale = _mm256_maskload_ps(w.scales.as_ptr().add(j), mask);
            let y = _mm256_mul_ps(_mm256_mul_ps(_mm256_cvtepi32_ps(sum), x_scale), w_scale);
            _mm256_maskstore_ps(o, mask, y);
        }
    }
}

/// Quantizes every row of `x`: row `i`'s codes into
/// `codes[i · depth..][..depth]`, zero-padded past `x.cols()`, and its scale
/// into `scales[i]`, for `x.rows() == scales.len()` rows.
///
/// `scale = max_abs / 127`; values map through `round(v · 127 / max_abs)`
/// clamped to `[-127, 127]` (−128 is never produced, keeping the code
/// symmetric), as [`round_level`] rounds, NaN to 0. An all-zero row gets
/// scale 0 and all-zero codes. The largest magnitude is kept in eight lanes
/// and both loops are branch-free, so the compiler vectorises them.
///
/// # Panics
///
/// Panics if `codes` is shorter than `scales.len()` rows of `depth` codes or
/// `depth < x.cols()`.
#[inline(always)]
fn quantize_rows(x: &Matrix, depth: usize, codes: &mut [i8], scales: &mut [f32]) {
    const LANES: usize = 8;
    for (i, scale) in scales.iter_mut().enumerate() {
        let row = x.row(i);
        let (codes, padding) = codes[i * depth..][..depth].split_at_mut(row.len());
        let mut lanes = [0.0f32; LANES];
        let chunks = row.chunks_exact(LANES);
        let tail = chunks.remainder();
        // A NaN magnitude fails `a > m`, so the lanes hold the largest
        // non-NaN magnitude, as a fold of `f32::max` over the row would; the
        // comparison compiles to one vector max, `f32::max` to several ops.
        let max = |m: f32, a: f32| if a > m { a } else { m };
        for chunk in chunks {
            for (m, v) in lanes.iter_mut().zip(chunk) {
                *m = max(*m, v.abs());
            }
        }
        for (m, v) in lanes.iter_mut().zip(tail) {
            *m = max(*m, v.abs());
        }
        let max_abs = lanes.into_iter().fold(0.0f32, max);
        *scale = max_abs / 127.0;
        let inv = if max_abs == 0.0 { 0.0 } else { 127.0 / max_abs };
        for (code, &v) in codes.iter_mut().zip(row) {
            // SAFETY: `round_level` returns an integer in [-127, 127],
            // which `i32` represents exactly. The checked `as` conversion
            // would keep this loop from vectorising.
            *code = unsafe { round_level(v * inv).to_int_unchecked::<i32>() } as i8;
        }
        padding.fill(0);
    }
}

/// [`quantize_rows`] compiled for AVX-512F: the same code in sixteen lanes.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn quantize_rows_avx512f(x: &Matrix, depth: usize, codes: &mut [i8], scales: &mut [f32]) {
    quantize_rows(x, depth, codes, scales)
}

/// [`quantize_rows`] compiled for AVX2: the same code in eight lanes.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_rows_avx2(x: &Matrix, depth: usize, codes: &mut [i8], scales: &mut [f32]) {
    quantize_rows(x, depth, codes, scales)
}

/// `x.round().clamp(-127.0, 127.0) as i8 as f32`, NaN to `+0.0` included,
/// without the libm `roundf` call or a saturating integer conversion, so
/// that loops over it vectorise.
///
/// A NaN magnitude fails both comparisons and becomes 0. Adding `2²³`
/// rounds the clamped magnitude to an integer, ties to even, and
/// subtracting it again is exact. A tie that went down to even then goes
/// up, which rounds half away from zero as `f32::round` does, and
/// `0.0 - r` restores the sign without ever producing `-0.0`.
#[inline]
fn round_level(x: f32) -> f32 {
    const TWO_POW_23: f32 = 8_388_608.0;
    let a = x.abs();
    let a = if a <= 127.0 {
        a
    } else if a > 127.0 {
        127.0
    } else {
        0.0
    };
    let r = (a + TWO_POW_23) - TWO_POW_23;
    let r = if a - r == 0.5 { r + 1.0 } else { r };
    if x < 0.0 {
        0.0 - r
    } else {
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{rng_from_seed, Seed};

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = rng_from_seed(Seed(seed));
        Matrix::random_normal(rows, cols, 1.0, &mut rng)
    }

    fn naive_i8(a: &QuantMatrix, b: &QuantMatrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                let mut acc = 0i32;
                for k in 0..a.cols() {
                    acc += a.row(i)[k] as i32 * b.row(j)[k] as i32;
                }
                out.set(i, j, acc as f32 * a.scales()[i] * b.scales()[j]);
            }
        }
        out
    }

    fn quant_rows(m: &Matrix) -> QuantRows {
        let mut q = QuantRows::default();
        q.quantize_from(m);
        q
    }

    fn matmul_nt(a: &Matrix, b: &QuantMatrix) -> Result<Matrix, ShapeError> {
        let mut out = Matrix::default();
        quant_rows(a).matmul_nt_into(b, &mut out)?;
        Ok(out)
    }

    #[test]
    fn round_trip_error_is_bounded_per_row() {
        let m = random_matrix(7, 13, 11);
        let q = QuantMatrix::quantize(&m);
        let back = q.dequantize();
        for i in 0..m.rows() {
            let bound = q.scales()[i] * 0.5 + 1e-6;
            for j in 0..m.cols() {
                assert!(
                    (m.get(i, j) - back.get(i, j)).abs() <= bound,
                    "({i},{j}) err {} > {bound}",
                    (m.get(i, j) - back.get(i, j)).abs()
                );
            }
        }
    }

    #[test]
    fn zero_row_quantizes_to_zero_scale() {
        let m = Matrix::zeros(3, 5);
        let q = QuantMatrix::quantize(&m);
        assert_eq!(q.scales(), &[0.0, 0.0, 0.0]);
        assert_eq!(q.dequantize(), m);
    }

    #[test]
    fn quant_rows_hold_the_codes_of_quant_matrix() {
        let m = random_matrix(5, 19, 12);
        let (q, rows) = (QuantMatrix::quantize(&m), quant_rows(&m));
        assert_eq!(rows.scales, q.scales());
        for i in 0..m.rows() {
            assert_eq!(rows.row(i), q.row(i));
        }
    }

    #[test]
    fn matmul_nt_matches_naive_reference() {
        let (a, b) = (random_matrix(9, 33, 1), random_matrix(6, 33, 2));
        let bq = QuantMatrix::quantize(&b);
        let got = matmul_nt(&a, &bq).unwrap();
        assert_eq!(got, naive_i8(&QuantMatrix::quantize(&a), &bq));
    }

    #[test]
    fn matmul_nt_rejects_mismatched_k() {
        let b = QuantMatrix::quantize(&random_matrix(2, 4, 6));
        assert!(matmul_nt(&random_matrix(2, 3, 5), &b).is_err());
    }

    #[test]
    fn exact_depth_bound_keeps_every_sum_below_2_pow_24() {
        let exact = |k: usize| k * 127 * 127 < 1 << 24;
        assert_eq!(MAX_EXACT_DEPTH, 1040);
        assert!(exact(MAX_EXACT_DEPTH) && !exact(MAX_EXACT_DEPTH + 1));
        // The VNNI body's offset lanes: (127 + 128) · 127 per product.
        assert!(MAX_EXACT_DEPTH * 255 * 127 < i32::MAX as usize);
    }

    /// The libm rounding that `round_level` must reproduce.
    fn reference_level(v: f32) -> f32 {
        f32::from(v.round().clamp(-127.0, 127.0) as i8)
    }

    #[test]
    fn round_level_matches_libm_rounding_on_every_f32_from_a_quarter_to_128() {
        let (lo, hi) = (0.25f32.to_bits(), 128.0f32.to_bits());
        for bits in lo..=hi {
            for v in [f32::from_bits(bits), -f32::from_bits(bits)] {
                assert_eq!(
                    round_level(v).to_bits(),
                    reference_level(v).to_bits(),
                    "{v:e}"
                );
            }
        }
    }

    #[test]
    fn round_level_matches_libm_rounding_on_special_values() {
        let tiny = [
            0.0,
            f32::from_bits(1),
            f32::MIN_POSITIVE / 3.0,
            f32::MIN_POSITIVE,
        ];
        let ties = [0.249_999_99, 0.499_999_97, 0.5, 126.5, 127.49, 127.5, 128.5];
        let huge = [1e9, f32::MAX, f32::INFINITY, f32::NAN];
        for &v in tiny.iter().chain(&ties).chain(&huge) {
            for v in [v, -v] {
                assert_eq!(
                    round_level(v).to_bits(),
                    reference_level(v).to_bits(),
                    "{v:e}"
                );
            }
        }
    }

    /// Every product body this CPU has, by name, each called directly:
    /// dispatch alone would reach only the first of them.
    fn bodies() -> Vec<(&'static str, Body)> {
        let mut bodies = vec![("portable", Body::Portable)];
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            if has!("avx2") {
                bodies.push(("avx2", Body::Avx2));
            }
            if has!("avx512f") && has!("avx512vnni") {
                bodies.push(("avx512_vnni", Body::Avx512Vnni));
            }
        }
        bodies
    }

    /// [`product`] on `body`, without dispatch.
    fn product_on(body: Body, x: &QuantRows, w: &QuantMatrix, out: &mut [f32]) {
        assert_operands(x, w, out);
        match body {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `bodies` lists this body only where the CPU has
            // AVX-512F and AVX-512 VNNI, and `assert_operands` bounds every
            // access, as in `product`.
            Body::Avx512Vnni => unsafe { product_vnni(x, w, out) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `bodies` lists this body only where the CPU has AVX2,
            // and `assert_operands` bounds every access, as above.
            Body::Avx2 => unsafe { product_avx2(x, w, out) },
            _ => product_portable(x, w, out),
        }
    }

    /// `x` quantized into buffers that held nonzero codes as deep as the
    /// padding, so that unwritten padding shows.
    fn quantize_over_filler(x: &Matrix) -> QuantRows {
        let mut q = quant_rows(&Matrix::filled(x.rows(), padded_depth(x.cols()), 1.0));
        q.quantize_from(x);
        q
    }

    /// The scalar quantizer written out: the largest magnitude by one fold,
    /// then `round_level` per element.
    fn reference_codes(row: &[f32]) -> (Vec<i8>, f32) {
        let max_abs = row.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        if max_abs == 0.0 {
            return (vec![0; row.len()], 0.0);
        }
        let inv = 127.0 / max_abs;
        (
            row.iter().map(|&v| round_level(v * inv) as i8).collect(),
            max_abs / 127.0,
        )
    }

    /// Random rows, then rows that stress the quantizer and the writeback:
    /// all zeros, a scale whose `127 / max_abs` overflows, ±inf, NaN next to
    /// finite values, all NaN, and rows coding to ±127 throughout.
    fn hard_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut m = random_matrix(rows, cols, seed);
        let specials: [fn(usize) -> f32; 8] = [
            |_| 0.0,
            |k| [1e-38, -3e-38, 0.0, 2.5e-39][k % 4],
            |k| [f32::INFINITY, -1.0, 0.5, f32::NEG_INFINITY][k % 4],
            |k| [f32::NAN, 3.0, -7.25, 0.0][k % 4],
            |_| f32::NAN,
            |_| -1.0,
            |_| 1.0,
            |k| [127.0, -0.5, 0.5, -1.5, 2.5, -126.5, 63.5, -0.0][k % 8],
        ];
        // Row i is special (i + seed) mod 10 while that names one, so each
        // special lands in several batch sizes and a one-row batch is random
        // for some seeds.
        for i in 0..rows {
            if let Some(special) = specials.get((i + seed as usize) % (specials.len() + 2)) {
                for (k, v) in m.row_mut(i).iter_mut().enumerate() {
                    *v = special(k);
                }
            }
        }
        m
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn int8_bodies_match_the_i32_reference_bit_for_bit() {
        const GUARD: usize = BLOCK;
        let bodies = bodies();
        let mut seed = 0u64;
        for m in [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 257] {
            for depth in [0usize, 1, 3, 4, 5, 31, 32, 33, 48, 64, 1040] {
                seed += 1;
                let x = hard_matrix(m, depth, seed);
                let want_x: Vec<(Vec<i8>, f32)> =
                    (0..m).map(|i| reference_codes(x.row(i))).collect();
                let q = quantize_over_filler(&x);
                let padded = padded_depth(depth);
                for (i, (codes, scale)) in want_x.iter().enumerate() {
                    let label = format!("m={m} k={depth} row {i}");
                    let (got, pad) = q.codes[i * padded..][..padded].split_at(depth);
                    assert_eq!(got, &codes[..], "codes {label}");
                    assert!(pad.iter().all(|&c| c == 0), "padding {label}");
                    assert_eq!(q.scales[i].to_bits(), scale.to_bits(), "scale {label}");
                }
                // Every block width and every tail of a 16-lane vector, and
                // outputs past a second block.
                for n in 1..=40 {
                    let w = QuantMatrix::quantize(&hard_matrix(n, depth, seed * 41 + n as u64));
                    let mut want = Vec::with_capacity(m * n);
                    for (x_codes, x_scale) in &want_x {
                        for j in 0..n {
                            let acc: i32 = x_codes
                                .iter()
                                .zip(w.row(j))
                                .map(|(&a, &b)| i32::from(a) * i32::from(b))
                                .sum();
                            want.push((acc as f32 * x_scale * w.scales()[j]).to_bits());
                        }
                    }
                    // A NaN guard past the output catches a stray store.
                    let mut buf = vec![f32::NAN; m * n + GUARD];
                    for &(name, body) in &bodies {
                        let label = format!("{name} m={m} k={depth} n={n}");
                        buf.fill(f32::NAN);
                        product_on(body, &q, &w, &mut buf[..m * n]);
                        assert_eq!(bits(&buf[..m * n]), want, "{label}");
                        assert!(buf[m * n..].iter().all(|v| v.is_nan()), "guard {label}");
                    }
                }
            }
        }
    }

    #[test]
    fn quantize_from_matches_round_level_on_every_f32_from_a_quarter_to_128() {
        // Each row holds 127 and then 511 magnitudes with both signs, so the
        // scale is 1 and each code is `round_level(v)`, until the magnitudes
        // pass 127 and set their own scale, where the scalar quantizer is
        // the reference. The width, 1,023, leaves a tail in every lane width.
        const PAIRS: usize = 511;
        const BATCH: usize = 256;
        let (mut next, hi) = (0.25f32.to_bits(), 128.0f32.to_bits());
        let mut x = Matrix::zeros(BATCH, 1 + 2 * PAIRS);
        while next <= hi {
            for i in 0..BATCH {
                let row = x.row_mut(i);
                row.fill(0.0);
                row[0] = 127.0;
                for (pair, bits) in row[1..].chunks_exact_mut(2).zip(next..=hi) {
                    pair.copy_from_slice(&[f32::from_bits(bits), -f32::from_bits(bits)]);
                }
                next += PAIRS as u32;
            }
            let want: Vec<(Vec<i8>, f32)> = (0..BATCH).map(|i| reference_codes(x.row(i))).collect();
            for (i, (codes, scale)) in want.iter().enumerate() {
                if x.row(i).iter().all(|v| v.abs() <= 127.0) {
                    assert_eq!(*scale, 1.0);
                    assert!(codes
                        .iter()
                        .zip(x.row(i))
                        .all(|(&c, &v)| c == round_level(v) as i8));
                }
            }
            let q = quant_rows(&x);
            for (i, (codes, scale)) in want.iter().enumerate() {
                assert_eq!(q.row(i), &codes[..], "row from {:e}", x.get(i, 1));
                assert_eq!(q.scales[i].to_bits(), scale.to_bits(), "row {i}");
            }
        }
    }

    #[test]
    fn reading_rejects_payloads_of_the_wrong_length() {
        let read = |data: usize, scales: usize| {
            let data = anole_json::to_string(&vec![1i8; data]);
            let scales = anole_json::to_string(&vec![0.5f32; scales]);
            anole_json::from_str::<QuantMatrix>(&format!(
                r#"{{"rows":2,"cols":3,"data":{data},"scales":{scales}}}"#
            ))
        };
        let q = read(6, 2).unwrap();
        assert_eq!(q.shape(), (2, 3));
        assert_eq!(q.offset_sums[..2], [3 * 128, 3 * 128]);
        assert!(read(5, 2).is_err());
        assert!(read(6, 1).is_err());
        assert!(read(6, 3).is_err());
    }

    #[test]
    fn panel_holds_each_code_at_its_block_group_and_lane() {
        let q = QuantMatrix::quantize(&random_matrix(19, 6, 13));
        // Two blocks of 16 rows, two groups of 4 codes (6 padded to 8).
        assert_eq!(
            (q.panel.len(), q.offset_sums.len()),
            (2 * 2 * BLOCK * GROUP, 2 * BLOCK)
        );
        for b in 0..2 {
            for g in 0..2 {
                for o in 0..BLOCK {
                    for c in 0..GROUP {
                        let (j, k) = (b * BLOCK + o, g * GROUP + c);
                        let want = if j < 19 && k < 6 { q.row(j)[k] } else { 0 };
                        assert_eq!(q.panel[((b * 2 + g) * BLOCK + o) * GROUP + c], want);
                    }
                }
            }
        }
        for j in 0..2 * BLOCK {
            let sum = if j < 19 {
                q.row(j).iter().map(|&w| i32::from(w)).sum()
            } else {
                0
            };
            assert_eq!(q.offset_sums[j], 128 * sum);
        }
    }

    #[test]
    fn json_pins_the_bytes_and_rederives_the_panel() {
        let q = QuantMatrix::quantize(&Matrix::from_rows(&[&[1.0, -0.5], &[0.0, 0.0]]).unwrap());
        let json = anole_json::to_string(&q);
        assert_eq!(
            json,
            r#"{"rows":2,"cols":2,"data":[127,-64,0,0],"scales":[0.007874016,0.0]}"#
        );
        let back: QuantMatrix = anole_json::from_str(&json).unwrap();
        assert_eq!(back, q);
        assert_eq!((back.panel, back.offset_sums), (q.panel, q.offset_sums));
    }

    #[test]
    fn debug_shows_the_stored_fields_only() {
        let q = QuantMatrix::quantize(&Matrix::filled(1, 2, 1.0));
        assert_eq!(
            format!("{q:?}"),
            "QuantMatrix { rows: 1, cols: 2, data: [127, 127], scales: [0.007874016] }"
        );
    }

    #[test]
    fn storage_bytes_is_quarter_of_f32() {
        let q = QuantMatrix::quantize(&random_matrix(16, 64, 9));
        // 16·64 i8 + 16 f32 scales vs 16·64 f32.
        assert_eq!(q.storage_bytes(), 16 * 64 + 16 * 4);
        assert!(q.storage_bytes() * 3 < 16 * 64 * 4);
    }
}
