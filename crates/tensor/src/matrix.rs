//! Row-major dense `f32` matrix with the kernels the reproduction needs.

use std::fmt;
use std::ops::{Add, Mul, Sub};

use anole_json::{field, json_struct, FromJson, Value};

use crate::StdRng;

/// Error returned when matrix shapes are incompatible for an operation.
///
/// # Examples
///
/// ```
/// use anole_tensor::Matrix;
///
/// let a = Matrix::zeros(2, 3);
/// let b = Matrix::zeros(2, 3);
/// assert!(a.matmul(&b).is_err()); // inner dimensions 3 vs 2 disagree
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    op: &'static str,
    lhs: (usize, usize),
    rhs: (usize, usize),
}

impl ShapeError {
    /// Creates a shape error for operation `op` between shapes `lhs`/`rhs`.
    ///
    /// Public so downstream crates building fused kernels on raw slices can
    /// report mismatches with the same error type as the matrix operations.
    pub fn new(op: &'static str, lhs: (usize, usize), rhs: (usize, usize)) -> Self {
        Self { op, lhs, rhs }
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "incompatible shapes for {}: {}x{} vs {}x{}",
            self.op, self.lhs.0, self.lhs.1, self.rhs.0, self.rhs.1
        )
    }
}

impl std::error::Error for ShapeError {}

/// `f32` lanes of one 256-bit vector.
pub(crate) const LANES: usize = 8;
/// `f32` lanes of one 512-bit vector.
const WIDE_LANES: usize = 16;
/// Output rows of one tile of the AVX-512 body.
const TILE_ROWS: usize = 4;
/// Edge of the square blocks of [`Matrix::transpose_into`]: a 64×64 f32
/// block (16 KiB) fits in L1.
const TRANSPOSE_BLOCK: usize = 64;
/// Output columns of one register block: eight 256-bit or four 512-bit
/// vectors of accumulators.
const BLOCK_COLS: usize = 8 * LANES;

/// The left operand of a product, read through strides so that `matmul`
/// (rows of `self`) and `matmul_tn` (columns of `self`) share one kernel:
/// element `(i, k)` is `data[i * row_stride + k * k_stride]`, for
/// `k < depth`.
#[derive(Clone, Copy)]
struct Lhs<'a> {
    data: &'a [f32],
    row_stride: usize,
    k_stride: usize,
    depth: usize,
}

/// The body [`gemm`] runs on this CPU, in order of preference.
#[derive(Clone, Copy)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
enum Body {
    Avx512f,
    Avx,
    Portable,
}

impl Body {
    /// The first body the CPU supports; `Avx512f` means AVX as well.
    /// `is_x86_feature_detected!` caches its CPUID probe, so this costs two
    /// loads per call.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx") {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Body::Avx512f;
            }
            return Body::Avx;
        }
        Body::Portable
    }
}

/// Writes the `rows × n` product `lhs · b` into `out`, where `b` is
/// row-major `lhs.depth × n`.
///
/// Each output element is one accumulator that starts at `+0.0` and adds its
/// `k` terms in ascending order, each term a separate multiply then add, so
/// every element rounds exactly like the textbook loop. The bodies differ
/// only in how they split the output into blocks whose accumulators stay in
/// registers for the whole `k` loop: tiles of up to [`TILE_ROWS`] rows ×
/// [`BLOCK_COLS`] columns in zmm registers (AVX-512F), or one row × up to
/// [`BLOCK_COLS`] columns in ymm registers (AVX, and the portable body in
/// safe code). A split of rows and columns never reorders a sum, so every
/// body gives the same bits. The body is chosen at runtime by CPU feature,
/// and a product of fewer rows than a tile runs the AVX body.
///
/// # Panics
///
/// Panics if an operand is shorter than the shapes say; the check runs in
/// release builds too, because the SIMD bodies read through raw pointers.
fn gemm(lhs: Lhs<'_>, rows: usize, b: &[f32], n: usize, out: &mut [f32]) {
    assert_operands(lhs, rows, b, n, out);
    match Body::detect() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `detect` saw AVX-512F at runtime, and `assert_operands`
        // bounds every access the body makes: lhs element (i, k) for
        // i < rows and k < depth, the `n` columns of row k of `b`, and the
        // `n` columns of each output row.
        Body::Avx512f if rows >= TILE_ROWS => unsafe { gemm_avx512(lhs, rows, b, n, out) },
        // A product with fewer rows than a tile, such as a single frame's
        // forward, stays on the AVX body: with the tile, the engine's
        // per-frame step measured slower.
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `detect` saw AVX at runtime, and `assert_operands` bounds
        // every access, as above.
        Body::Avx512f | Body::Avx => unsafe { gemm_avx(lhs, rows, b, n, out) },
        _ => gemm_portable(lhs, rows, b, n, out),
    }
}

/// Asserts that the operands of [`gemm`] hold what their shapes say.
fn assert_operands(lhs: Lhs<'_>, rows: usize, b: &[f32], n: usize, out: &[f32]) {
    assert_eq!(out.len(), rows * n, "gemm: output length");
    assert_eq!(b.len(), lhs.depth * n, "gemm: rhs length");
    if let (Some(last_row), Some(last_k)) = (rows.checked_sub(1), lhs.depth.checked_sub(1)) {
        let last = last_row * lhs.row_stride + last_k * lhs.k_stride;
        assert!(last < lhs.data.len(), "gemm: lhs length");
    }
}

/// Lane masks for the last, partial vector of a block: entries
/// `LANES - tail .. 2·LANES - tail` enable the first `tail` lanes.
#[cfg(target_arch = "x86_64")]
pub(crate) static TAIL_MASKS: [i32; 2 * LANES] =
    [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

/// AVX-512F body of [`gemm`]: tiles of up to [`TILE_ROWS`] output rows ×
/// [`BLOCK_COLS`] columns, so each vector of `b` loaded per `k` feeds every
/// row of the tile. A tile holds up to sixteen zmm accumulators, and the
/// last `n mod 16` columns of a block ride in a vector loaded and stored
/// under a `__mmask16`.
///
/// # Safety
///
/// The CPU must support AVX-512F, and the operands must pass the length
/// assertions of [`gemm`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gemm_avx512(lhs: Lhs<'_>, rows: usize, b: &[f32], n: usize, out: &mut [f32]) {
    for i0 in (0..rows).step_by(TILE_ROWS) {
        let tile_rows = TILE_ROWS.min(rows - i0);
        // At depth 0 `lhs` and `b` may be empty and nothing is read through
        // `a` or `bj`, so both are formed with `wrapping_add`, which makes no
        // in-bounds promise.
        let a = lhs.data.as_ptr().wrapping_add(i0 * lhs.row_stride);
        for j0 in (0..n).step_by(BLOCK_COLS) {
            let cols = BLOCK_COLS.min(n - j0);
            // Every lane of the last vector when `cols` fills it.
            let mask = u16::MAX >> ((WIDE_LANES - cols % WIDE_LANES) % WIDE_LANES);
            let (bj, oj) = (b.as_ptr().wrapping_add(j0), out.as_mut_ptr().add(i0 * n + j0));
            with_const!(tile_rows, R in [1, 2, 3, 4] => {
                with_const!(cols.div_ceil(WIDE_LANES), V in [1, 2, 3, 4] => {
                    tile_avx512::<R, V>(a, lhs, bj, n, mask, oj)
                })
            });
        }
    }
}

/// One tile of [`gemm_avx512`]: `R` output rows of `V` vectors of columns
/// starting at `out`, the last vector of each row under `mask`. Row `r` of
/// the tile reads the left operand at `a.add(r * lhs.row_stride)`; both
/// `b` and `out` have row stride `ld`.
///
/// # Safety
///
/// The CPU must support AVX-512F; `a.add(r * lhs.row_stride + k *
/// lhs.k_stride)` for `r < R` and `k < lhs.depth`, the enabled lanes of
/// `b.add(k * ld)` and those of `out.add(r * ld)` must be in bounds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn tile_avx512<const R: usize, const V: usize>(
    a: *const f32,
    lhs: Lhs<'_>,
    b: *const f32,
    ld: usize,
    mask: std::arch::x86_64::__mmask16,
    out: *mut f32,
) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm512_setzero_ps(); V]; R];
    for k in 0..lhs.depth {
        let (a_k, b_k) = (a.add(k * lhs.k_stride), b.add(k * ld));
        let mut a_ik = [_mm512_setzero_ps(); R];
        for (r, a_ik) in a_ik.iter_mut().enumerate() {
            *a_ik = _mm512_set1_ps(*a_k.add(r * lhs.row_stride));
        }
        for v in 0..V {
            let b_kj = if v == V - 1 {
                _mm512_maskz_loadu_ps(mask, b_k.add(v * WIDE_LANES))
            } else {
                _mm512_loadu_ps(b_k.add(v * WIDE_LANES))
            };
            for (acc, &a_ik) in acc.iter_mut().zip(&a_ik) {
                acc[v] = _mm512_add_ps(acc[v], _mm512_mul_ps(a_ik, b_kj));
            }
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        let out_r = out.add(r * ld);
        for (v, &acc) in acc.iter().enumerate() {
            if v == V - 1 {
                _mm512_mask_storeu_ps(out_r.add(v * WIDE_LANES), mask, acc);
            } else {
                _mm512_storeu_ps(out_r.add(v * WIDE_LANES), acc);
            }
        }
    }
}

/// AVX body of [`gemm`]: `_mm256_mul_ps` then `_mm256_add_ps` per term, up
/// to eight ymm accumulators per block, and a masked vector for the last
/// `n mod 8` columns.
///
/// # Safety
///
/// The CPU must support AVX, and the operands must pass the length
/// assertions of [`gemm`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn gemm_avx(lhs: Lhs<'_>, rows: usize, b: &[f32], n: usize, out: &mut [f32]) {
    use std::arch::x86_64::{__m256i, _mm256_loadu_si256};
    for i in 0..rows {
        // `a` and `bj` are formed as in `gemm_avx512`.
        let a = lhs.data.as_ptr().wrapping_add(i * lhs.row_stride);
        for j0 in (0..n).step_by(BLOCK_COLS) {
            let cols = BLOCK_COLS.min(n - j0);
            let tail = cols % LANES;
            let mask = _mm256_loadu_si256(TAIL_MASKS[LANES - tail..].as_ptr().cast::<__m256i>());
            let (bj, oj) = (b.as_ptr().wrapping_add(j0), out.as_mut_ptr().add(i * n + j0));
            with_const!(cols.div_ceil(LANES), V in [1, 2, 3, 4, 5, 6, 7, 8] => if tail == 0 {
                block_avx::<V, false>(a, lhs.k_stride, lhs.depth, bj, n, mask, oj)
            } else {
                block_avx::<V, true>(a, lhs.k_stride, lhs.depth, bj, n, mask, oj)
            });
        }
    }
}

/// One register block of [`gemm_avx`]: `V` vectors of output columns
/// starting at `out`, the last one masked by `mask` when `MASKED`.
///
/// # Safety
///
/// The CPU must support AVX; `a.add(k * a_step)` for `k < depth`, the
/// enabled lanes of `b.add(k * ldb)` and `out` must be in bounds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
unsafe fn block_avx<const V: usize, const MASKED: bool>(
    a: *const f32,
    a_step: usize,
    depth: usize,
    b: *const f32,
    ldb: usize,
    mask: std::arch::x86_64::__m256i,
    out: *mut f32,
) {
    use std::arch::x86_64::*;
    let mut acc = [_mm256_setzero_ps(); V];
    for k in 0..depth {
        let a_ik = _mm256_broadcast_ss(&*a.add(k * a_step));
        let b_k = b.add(k * ldb);
        for (v, acc) in acc.iter_mut().enumerate() {
            let b_kj = if MASKED && v == V - 1 {
                _mm256_maskload_ps(b_k.add(v * LANES), mask)
            } else {
                _mm256_loadu_ps(b_k.add(v * LANES))
            };
            *acc = _mm256_add_ps(*acc, _mm256_mul_ps(a_ik, b_kj));
        }
    }
    for (v, acc) in acc.iter().enumerate() {
        if MASKED && v == V - 1 {
            _mm256_maskstore_ps(out.add(v * LANES), mask, *acc);
        } else {
            _mm256_storeu_ps(out.add(v * LANES), *acc);
        }
    }
}

/// Portable body of [`gemm`]: the blocks of [`gemm_avx`] in safe code, with
/// the last `n mod 8` columns of a row in a shorter final vector.
fn gemm_portable(lhs: Lhs<'_>, rows: usize, b: &[f32], n: usize, out: &mut [f32]) {
    for i in 0..rows {
        let out_row = &mut out[i * n..(i + 1) * n];
        for (p, out_block) in out_row.chunks_mut(BLOCK_COLS).enumerate() {
            let j0 = p * BLOCK_COLS;
            let cols = out_block.len();
            with_const!(cols.div_ceil(LANES), V in [1, 2, 3, 4, 5, 6, 7, 8] => if cols % LANES == 0 {
                block_portable::<V, false>(lhs, i, b, n, j0, out_block)
            } else {
                block_portable::<V, true>(lhs, i, b, n, j0, out_block)
            });
        }
    }
}

/// One register block of [`gemm_portable`]: columns `j0..j0 + out.len()` of
/// output row `i` as `V` vectors of [`LANES`] accumulators, the last one
/// partial when `MASKED`.
#[inline]
fn block_portable<const V: usize, const MASKED: bool>(
    lhs: Lhs<'_>,
    i: usize,
    b: &[f32],
    n: usize,
    j0: usize,
    out: &mut [f32],
) {
    let full = if MASKED { V - 1 } else { V };
    let mut acc = [[0.0f32; LANES]; V];
    for k in 0..lhs.depth {
        let a_ik = lhs.data[i * lhs.row_stride + k * lhs.k_stride];
        let b_k = &b[k * n + j0..][..out.len()];
        for (v, acc) in acc.iter_mut().enumerate().take(full) {
            let b_kj: &[f32; LANES] = b_k[v * LANES..][..LANES].try_into().expect("full vector");
            for (o, &b) in acc.iter_mut().zip(b_kj) {
                *o += a_ik * b;
            }
        }
        if MASKED {
            for (o, &b) in acc[V - 1].iter_mut().zip(&b_k[full * LANES..]) {
                *o += a_ik * b;
            }
        }
    }
    for (dst, acc) in out.chunks_mut(LANES).zip(&acc) {
        dst.copy_from_slice(&acc[..dst.len()]);
    }
}

/// A row-major dense matrix of `f32` values.
///
/// `Matrix` is the workhorse of the reproduction: network activations,
/// weights, scene embeddings, and cluster centroids are all `Matrix` values.
/// Rows index samples, columns index features, matching the convention of the
/// neural-network crate.
///
/// # Examples
///
/// ```
/// use anole_tensor::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// assert_eq!(m.get(1, 0), 3.0);
/// assert_eq!(m.row(1), &[3.0, 4.0]);
/// # Ok::<(), anole_tensor::ShapeError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

json_struct!(write Matrix { rows, cols, data });

/// Reads the written fields shape-checked: a payload whose length is not
/// `rows × cols` does not read.
impl FromJson for Matrix {
    fn from_json(value: &Value) -> Result<Self, anole_json::Error> {
        let (rows, cols): (usize, usize) = (field(value, "rows", None)?, field(value, "cols", None)?);
        let data: Vec<f32> = field(value, "data", None)?;
        if rows.checked_mul(cols) != Some(data.len()) {
            let err = ShapeError::new("deserialize", (rows, cols), (data.len(), 1));
            return Err(anole_json::Error::new(err.to_string()));
        }
        Ok(Self { rows, cols, data })
    }
}

impl Matrix {
    /// Creates a matrix of zeros with the given shape.
    ///
    /// # Examples
    ///
    /// ```
    /// let m = anole_tensor::Matrix::zeros(2, 3);
    /// assert_eq!(m.shape(), (2, 3));
    /// assert!(m.iter().all(|&v| v == 0.0));
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n`×`n` identity matrix.
    #[cfg(test)]
    fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the rows have differing lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Result<Self, ShapeError> {
        if rows.is_empty() {
            return Ok(Self::zeros(0, 0));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(ShapeError::new("from_rows", (rows.len(), cols), (1, r.len())));
            }
            data.extend_from_slice(r);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a single-row matrix from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Self {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Creates a matrix with entries drawn uniformly from `[lo, hi)`.
    pub fn random_uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut StdRng) -> Self {
        let data = (0..rows * cols).map(|_| rng.f32_in(lo..hi)).collect();
        Self { rows, cols, data }
    }

    /// Creates a matrix with standard-normal entries scaled by `scale`.
    ///
    /// Uses the Box–Muller transform so the only dependency is a uniform RNG.
    pub fn random_normal(rows: usize, cols: usize, scale: f32, rng: &mut StdRng) -> Self {
        let n = rows * cols;
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1 = rng.f32_in(f32::EPSILON..1.0);
            let u2 = rng.f32();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * scale);
            if data.len() < n {
                data.push(r * theta.sin() * scale);
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows()` or `col >= cols()`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows()` or `col >= cols()`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Borrows row `row` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows()`.
    #[inline]
    pub fn row(&self, row: usize) -> &[f32] {
        assert!(row < self.rows, "row index out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutably borrows row `row` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows()`.
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        assert!(row < self.rows, "row index out of bounds");
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Iterates over all entries in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.data.iter()
    }

    /// Borrows the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning the row-major data vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reshapes `self` to `rows`×`cols`, reusing the existing allocation.
    ///
    /// The resulting contents are **unspecified** (a mix of old values and
    /// zeros); callers must fully overwrite the matrix before reading it.
    /// This is the workhorse of the workspace-reuse pattern: once a scratch
    /// matrix has been grown to its steady-state size, reshaping it again is
    /// allocation-free because [`Vec::resize`] within capacity does not touch
    /// the allocator.
    pub fn resize_scratch(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Makes `self` a copy of `src`, reusing the existing allocation.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.resize_scratch(src.rows, src.cols);
        self.data.copy_from_slice(&src.data);
    }

    /// Returns a new matrix holding the selected rows, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Self {
        let mut out = Self::default();
        self.gather_rows_into(indices, &mut out);
        out
    }

    /// Writes the selected rows, in order, into `out` (reusing its buffer).
    ///
    /// Allocation-free once `out` has reached its steady-state capacity; the
    /// trainer uses this instead of [`Matrix::select_rows`] so mini-batch
    /// gathers stop materialising a fresh matrix per step.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.resize_scratch(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
    }

    /// Stacks matrices vertically.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if column counts disagree.
    pub fn vstack(parts: &[&Matrix]) -> Result<Self, ShapeError> {
        let parts: Vec<&&Matrix> = parts.iter().filter(|m| m.rows > 0).collect();
        if parts.is_empty() {
            return Ok(Self::zeros(0, 0));
        }
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|m| m.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for m in parts {
            if m.cols != cols {
                return Err(ShapeError::new("vstack", (rows, cols), m.shape()));
            }
            data.extend_from_slice(&m.data);
        }
        Ok(Self { rows, cols, data })
    }

    /// Matrix product `self · rhs`.
    ///
    /// Every output element has one accumulator that starts at `+0.0` and
    /// adds its `k` terms in ascending `k`, each term a separate multiply
    /// and then an add: no fused multiply-add, so each element rounds exactly
    /// like the textbook `acc += a[i][k] * b[k][j]` loop. One of three bodies
    /// runs, chosen at runtime by CPU feature ([`Matrix::matmul_isa`] names
    /// it). The AVX-512F body keeps the accumulators of a tile of four
    /// output rows × up to 64 columns in registers while `k` runs; a product
    /// of fewer rows runs the AVX body. The AVX body and the portable body,
    /// its algorithm in safe code, keep those of one row × up to 64 columns.
    /// Tiles split rows and columns, never `k`, so all three give the same
    /// bits. Zero entries need no skip: an
    /// accumulator that starts at `+0.0` never becomes `-0.0`, so adding a
    /// zero term leaves it unchanged on finite data.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        let mut out = Matrix::default();
        self.matmul_into(rhs, &mut out)?;
        Ok(out)
    }

    /// The instruction set of the first product body this CPU supports, in
    /// order of preference: `"avx512f"`, `"avx"` or `"portable"`. With
    /// AVX-512F, a product of fewer than four rows still runs the AVX body.
    ///
    /// Every product gives the same bits on each; only the speed differs.
    pub fn matmul_isa() -> &'static str {
        match Body::detect() {
            Body::Avx512f => "avx512f",
            Body::Avx => "avx",
            Body::Portable => "portable",
        }
    }

    /// [`Matrix::matmul`] writing into a caller-provided buffer.
    ///
    /// `out` is reshaped with [`Matrix::resize_scratch`] and fully
    /// overwritten, so the call is allocation-free once `out` has warm
    /// capacity. Results are bit-identical to [`Matrix::matmul`] — the
    /// allocating wrapper is this method on a fresh matrix.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `self.cols() != rhs.rows()`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<(), ShapeError> {
        if self.cols != rhs.rows {
            return Err(ShapeError::new("matmul", self.shape(), rhs.shape()));
        }
        out.resize_scratch(self.rows, rhs.cols);
        if self.data.is_empty() || rhs.data.is_empty() {
            out.data.fill(0.0);
            return Ok(());
        }
        let lhs = Lhs {
            data: &self.data,
            row_stride: self.cols,
            k_stride: 1,
            depth: self.cols,
        };
        gemm(lhs, self.rows, &rhs.data, rhs.cols, &mut out.data);
        Ok(())
    }

    /// Matrix product `selfᵀ · rhs` without materializing the transpose.
    ///
    /// Runs the [`Matrix::matmul`] kernel with `self` read down its columns,
    /// so each output element accumulates its `k` terms (the rows of `self`
    /// and `rhs`) in ascending order from `+0.0`, with no fused
    /// multiply-add — the same rounding contract and the same runtime
    /// dispatch by CPU feature.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `self.rows() != rhs.rows()`.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        let mut out = Matrix::default();
        self.matmul_tn_into(rhs, &mut out)?;
        Ok(out)
    }

    /// [`Matrix::matmul_tn`] writing into a caller-provided buffer.
    ///
    /// Same reshape-and-overwrite contract as [`Matrix::matmul_into`]:
    /// allocation-free with warm capacity, bit-identical to the allocating
    /// wrapper.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `self.rows() != rhs.rows()`.
    pub fn matmul_tn_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<(), ShapeError> {
        if self.rows != rhs.rows {
            return Err(ShapeError::new("matmul_tn", self.shape(), rhs.shape()));
        }
        out.resize_scratch(self.cols, rhs.cols);
        if self.data.is_empty() || rhs.data.is_empty() {
            out.data.fill(0.0);
            return Ok(());
        }
        let lhs = Lhs {
            data: &self.data,
            row_stride: 1,
            k_stride: self.cols,
            depth: self.rows,
        };
        gemm(lhs, self.cols, &rhs.data, rhs.cols, &mut out.data);
        Ok(())
    }

    /// Matrix product `self · rhsᵀ` without the caller materializing the
    /// transpose.
    ///
    /// Packs `rhsᵀ` into a scratch matrix with the blocked transpose and
    /// runs [`Matrix::matmul`] over it, so the backward-pass product gets
    /// the same register-blocked kernel, the same no-FMA ascending-`k`
    /// rounding and the same runtime dispatch as the forward one. The
    /// pack costs one O(rows·cols) transpose against an O(rows·cols·n)
    /// product, and reading `rhs` row by row per output element instead
    /// would serialize each element on one accumulator chain.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `self.cols() != rhs.cols()`.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        let mut rhs_t = Matrix::default();
        let mut out = Matrix::default();
        self.matmul_nt_into(rhs, &mut rhs_t, &mut out)?;
        Ok(out)
    }

    /// [`Matrix::matmul_nt`] writing into caller-provided buffers.
    ///
    /// `rhs_t` receives the packed transpose of `rhs` and `out` the product;
    /// both are reshaped with [`Matrix::resize_scratch`], so the call is
    /// allocation-free once they have warm capacity.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `self.cols() != rhs.cols()`.
    pub fn matmul_nt_into(
        &self,
        rhs: &Matrix,
        rhs_t: &mut Matrix,
        out: &mut Matrix,
    ) -> Result<(), ShapeError> {
        if self.cols != rhs.cols {
            return Err(ShapeError::new("matmul_nt", self.shape(), rhs.shape()));
        }
        rhs.transpose_into(rhs_t);
        self.matmul_into(rhs_t, out)
    }

    /// Returns the transpose.
    ///
    /// Blocked into 64×64 squares so both source reads and destination
    /// writes stay within a cache-resident window instead of striding the
    /// full matrix per element.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::default();
        self.transpose_into(&mut out);
        out
    }

    /// [`Matrix::transpose`] writing into a caller-provided buffer.
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.resize_scratch(self.cols, self.rows);
        for i0 in (0..self.rows).step_by(TRANSPOSE_BLOCK) {
            let i1 = (i0 + TRANSPOSE_BLOCK).min(self.rows);
            for j0 in (0..self.cols).step_by(TRANSPOSE_BLOCK) {
                let j1 = (j0 + TRANSPOSE_BLOCK).min(self.cols);
                for i in i0..i1 {
                    for j in j0..j1 {
                        out.data[j * self.rows + i] = self.data[i * self.cols + j];
                    }
                }
            }
        }
    }

    /// Adds `row` (a 1×cols matrix, typically a bias) to every row in place.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `row` is not a single row of matching width.
    pub fn add_row_broadcast_assign(&mut self, row: &Matrix) -> Result<(), ShapeError> {
        if row.rows != 1 || row.cols != self.cols {
            return Err(ShapeError::new("add_row_broadcast", self.shape(), row.shape()));
        }
        for i in 0..self.rows {
            let cols = self.cols;
            let r = &mut self.data[i * cols..(i + 1) * cols];
            for (o, &b) in r.iter_mut().zip(row.data.iter()) {
                *o += b;
            }
        }
        Ok(())
    }

    /// Sums the rows into a 1×cols matrix.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::default();
        self.sum_rows_into(&mut out);
        out
    }

    /// [`Matrix::sum_rows`] writing into a caller-provided 1×cols buffer.
    pub fn sum_rows_into(&self, out: &mut Matrix) {
        out.resize_scratch(1, self.cols);
        out.data.fill(0.0);
        for i in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(i).iter()) {
                *o += v;
            }
        }
    }

    /// Applies `f` to every entry, returning a new matrix.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f` to every entry in place.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Element-wise product (Hadamard).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if shapes disagree.
    pub fn hadamard(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        if self.shape() != rhs.shape() {
            return Err(ShapeError::new("hadamard", self.shape(), rhs.shape()));
        }
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| a * b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Multiplies every entry by `s`, returning a new matrix.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|v| v * s)
    }

    /// In-place `self += other * s` (AXPY).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if shapes disagree.
    pub fn axpy(&mut self, s: f32, other: &Matrix) -> Result<(), ShapeError> {
        if self.shape() != other.shape() {
            return Err(ShapeError::new("axpy", self.shape(), other.shape()));
        }
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += s * b;
        }
        Ok(())
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Maximum absolute entry, or 0.0 for an empty matrix.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Self::zeros(0, 0)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self.get(i, j))?;
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics if shapes disagree; use [`Matrix::axpy`] for a fallible variant.
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix addition shape mismatch");
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics if shapes disagree.
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix subtraction shape mismatch");
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Mul<f32> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f32) -> Matrix {
        self.scale(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{rng_from_seed, Seed};

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_matmul_is_identity_map() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let id = Matrix::identity(3);
        assert_eq!(a.matmul(&id).unwrap(), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap());
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let err = a.matmul(&b).unwrap_err();
        assert!(err.to_string().contains("matmul"));
    }

    /// The textbook product: one accumulator per element from `+0.0`, `k`
    /// ascending, every term added (zeros included).
    fn textbook_bits(lhs: Lhs<'_>, m: usize, b: &[f32], n: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(m * n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for k in 0..lhs.depth {
                    acc += lhs.data[i * lhs.row_stride + k * lhs.k_stride] * b[k * n + j];
                }
                out.push(acc.to_bits());
            }
        }
        out
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn avx_and_portable_bodies_match_the_textbook_loop_bit_for_bit() {
        // Run every body the CPU has directly: dispatch alone would reach
        // only the first of them.
        const GUARD: usize = WIDE_LANES;
        let mut rng = rng_from_seed(Seed(15));
        // Full four-row tiles and every remainder of one.
        for m in 1usize..=9 {
            for depth in [0usize, 1, 7, 32, 64] {
                // About 40% exact zeros and 7% negative zeros, like ReLU
                // activations and their gradients.
                let a = Matrix::random_normal(m, depth, 1.0, &mut rng).map(|v| {
                    if v < -0.25 {
                        0.0
                    } else if v > 1.5 {
                        -0.0
                    } else {
                        v
                    }
                });
                let a_t = a.transpose();
                // Every block width (1..=8 ymm or 1..=4 zmm vectors), every
                // tail lane count of both, and a second block.
                for n in 1..=72 {
                    let b = Matrix::random_normal(depth, n, 1.0, &mut rng);
                    // `a` read along its rows, as `matmul` does, and `aᵀ`
                    // read down its columns, as `matmul_tn` does.
                    let row_major = Lhs {
                        data: a.as_slice(),
                        row_stride: depth,
                        k_stride: 1,
                        depth,
                    };
                    let col_read = Lhs {
                        data: a_t.as_slice(),
                        row_stride: 1,
                        k_stride: m,
                        depth,
                    };
                    for (layout, lhs) in [("matmul", row_major), ("matmul_tn", col_read)] {
                        let want = textbook_bits(lhs, m, b.as_slice(), n);
                        let label = format!("{layout} m={m} k={depth} n={n}");
                        // A NaN guard past the output catches a stray store;
                        // it is checked after each body, before the next one
                        // refills the buffer.
                        let check = |buf: &[f32], body: &str| {
                            assert_eq!(bits(&buf[..m * n]), want, "{body} {label}");
                            let guard_intact = buf[m * n..].iter().all(|v| v.is_nan());
                            assert!(guard_intact, "{body} guard {label}");
                        };
                        let mut buf = vec![f32::NAN; m * n + GUARD];
                        gemm_portable(lhs, m, b.as_slice(), n, &mut buf[..m * n]);
                        check(&buf, "portable");
                        #[cfg(target_arch = "x86_64")]
                        if std::arch::is_x86_feature_detected!("avx") {
                            buf.fill(f32::NAN);
                            let out = &mut buf[..m * n];
                            assert_operands(lhs, m, b.as_slice(), n, out);
                            // SAFETY: AVX was detected just above, and
                            // `assert_operands` bounds every access, as in
                            // `gemm`.
                            unsafe { gemm_avx(lhs, m, b.as_slice(), n, out) };
                            check(&buf, "avx");
                        }
                        #[cfg(target_arch = "x86_64")]
                        if std::arch::is_x86_feature_detected!("avx512f") {
                            buf.fill(f32::NAN);
                            let out = &mut buf[..m * n];
                            assert_operands(lhs, m, b.as_slice(), n, out);
                            // SAFETY: AVX-512F was detected just above, and
                            // `assert_operands` bounds every access, as in
                            // `gemm`.
                            unsafe { gemm_avx512(lhs, m, b.as_slice(), n, out) };
                            check(&buf, "avx512f");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn zero_terms_round_like_a_zero_skipping_loop() {
        // The kernel adds every term, zeros included. On finite data that gives
        // the bits of a loop that skips zero terms: the accumulator starts at
        // +0.0 and can never become -0.0, so adding a ±0.0 term changes nothing.
        let mut rng = rng_from_seed(Seed(99));
        let b = Matrix::random_normal(12, 10, 1.0, &mut rng);
        for zero_share in [0.0f32, 0.2, 0.25, 0.3, 0.9] {
            let mut a = Matrix::random_normal(9, 12, 1.0, &mut rng);
            let total = a.len();
            for idx in 0..((total as f32 * zero_share) as usize) {
                let (r, c) = (idx / a.cols(), idx % a.cols());
                a.set(r, c, 0.0);
            }
            // Reference computed by hand in ascending k, skipping zero terms.
            let mut want = Matrix::zeros(a.rows(), b.cols());
            for i in 0..a.rows() {
                for k in 0..a.cols() {
                    let a_ik = a.get(i, k);
                    for j in 0..b.cols() {
                        if a_ik != 0.0 {
                            want.set(i, j, want.get(i, j) + a_ik * b.get(k, j));
                        }
                    }
                }
            }
            let got = a.matmul(&b).unwrap();
            assert_eq!(
                bits(got.as_slice()),
                bits(want.as_slice()),
                "zero_share={zero_share}"
            );
        }
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let mut rng = rng_from_seed(Seed(7));
        let a = Matrix::random_normal(4, 3, 1.0, &mut rng);
        let b = Matrix::random_normal(4, 5, 1.0, &mut rng);
        let fast = a.matmul_tn(&b).unwrap();
        let slow = a.transpose().matmul(&b).unwrap();
        for (x, y) in fast.iter().zip(slow.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let mut rng = rng_from_seed(Seed(9));
        let a = Matrix::random_normal(4, 3, 1.0, &mut rng);
        let b = Matrix::random_normal(5, 3, 1.0, &mut rng);
        let fast = a.matmul_nt(&b).unwrap();
        let slow = a.matmul(&b.transpose()).unwrap();
        for (x, y) in fast.iter().zip(slow.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn transpose_involution() {
        let mut rng = rng_from_seed(Seed(3));
        let a = Matrix::random_uniform(3, 7, -1.0, 1.0, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_row_broadcast_adds_bias_to_each_row() {
        let mut a = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0]]).unwrap();
        let b = Matrix::row_vector(&[10.0, 20.0]);
        a.add_row_broadcast_assign(&b).unwrap();
        assert_eq!(a, Matrix::from_rows(&[&[11.0, 21.0], &[12.0, 22.0]]).unwrap());
    }

    #[test]
    fn sum_rows_accumulates_columns() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        assert_eq!(a.sum_rows(), Matrix::row_vector(&[9.0, 12.0]));
    }

    #[test]
    fn select_rows_picks_in_order() {
        let a = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0]]).unwrap();
        let s = a.select_rows(&[2, 0]);
        assert_eq!(s, Matrix::from_rows(&[&[2.0], &[0.0]]).unwrap());
    }

    #[test]
    fn vstack_concatenates_rows() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let v = Matrix::vstack(&[&a, &b]).unwrap();
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn vstack_rejects_mismatched_columns() {
        let a = Matrix::zeros(1, 2);
        let b = Matrix::zeros(1, 3);
        assert!(Matrix::vstack(&[&a, &b]).is_err());
    }

    #[test]
    fn hadamard_multiplies_elementwise() {
        let a = Matrix::from_rows(&[&[2.0, 3.0]]).unwrap();
        let b = Matrix::from_rows(&[&[4.0, 5.0]]).unwrap();
        assert_eq!(a.hadamard(&b).unwrap(), Matrix::from_rows(&[&[8.0, 15.0]]).unwrap());
    }

    #[test]
    fn axpy_accumulates_scaled_matrix() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a, Matrix::filled(2, 2, 2.0));
    }

    #[test]
    fn random_normal_has_roughly_unit_variance() {
        let mut rng = rng_from_seed(Seed(42));
        let m = Matrix::random_normal(100, 100, 1.0, &mut rng);
        let mean: f32 = m.iter().sum::<f32>() / m.len() as f32;
        let var: f32 = m.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / m.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn display_is_never_empty() {
        let rendered = format!("{}", Matrix::zeros(0, 0));
        assert!(!rendered.is_empty());
    }

    #[test]
    fn reading_rejects_a_payload_of_the_wrong_length() {
        let read = |rows: usize, cols: usize, len: usize| {
            let data = anole_json::to_string(&vec![1.0f32; len]);
            anole_json::from_str::<Matrix>(&format!(
                r#"{{"rows":{rows},"cols":{cols},"data":{data}}}"#
            ))
        };
        assert_eq!(read(2, 3, 6).unwrap().shape(), (2, 3));
        assert!(read(2, 3, 5).is_err());
        assert!(read(2, 3, 7).is_err());
        assert!(read(usize::MAX, 2, 0).is_err());
    }

    #[test]
    fn json_pins_the_bytes_and_round_trips_bit_for_bit() {
        let m = Matrix::from_rows(&[&[1.5, -0.0, f32::MAX], &[f32::from_bits(1), 0.1, -2.5]]).unwrap();
        let json = anole_json::to_string(&m);
        assert_eq!(
            json,
            r#"{"rows":2,"cols":3,"data":[1.5,-0.0,3.4028235e38,1e-45,0.1,-2.5]}"#
        );
        let back: Matrix = anole_json::from_str(&json).unwrap();
        let bits = |m: &Matrix| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&m));
        assert_eq!(back.shape(), m.shape());
    }
}
