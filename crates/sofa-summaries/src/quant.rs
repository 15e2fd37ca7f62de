//! Scalar quantization for the compressed refine tier.
//!
//! Between the word-block lower bound (symbolic, ~`word_len` floats per
//! candidate) and the exact `f32` scan (`series_len` floats per candidate)
//! sits a third price point: the raw series quantized to one byte per
//! value. Two types share the work:
//!
//! * [`QuantGrid`] — the quantizer itself, trained **once per index**
//!   (the FAISS scalar-quantizer shape): per-position minima `min_j` plus
//!   one *shared* scale `Δ = max_j (max_j - min_j) / 255`; a value `x_j`
//!   is stored as `c = clamp(round((x_j - min_j) / Δ), 0, 255)`. A global
//!   grid is what makes the tier cheap at query time — the query is
//!   quantized **once per query**, not once per visited leaf. Sharing `Δ`
//!   across positions is what makes the lower bound cheap: the quantized
//!   distance between two rows reduces to `Δ · √S` with
//!   `S = Σ_j (c_j - c'_j)²` a plain integer — exactly the sum the
//!   `sofa-simd` `quant_lower_bound` kernel accumulates 8 candidates at a
//!   time.
//! * [`QuantBlock`] — one leaf's codes under that grid, laid out
//!   group-major then position-major (the `WordBlock` shape of PRs 3–5):
//!   group `g` holds `series_len * 8` bytes, position `j` at
//!   `codes[g*series_len*8 + j*8 + lane]`; pad lanes of the last group
//!   mirror the last real row.
//!
//! Codes alone cannot prune an *exact* index. For each row the block
//! stores `err = ‖x - x̂‖` (unsquared, `x̂` the dequantized row, computed in
//! `f64` and inflated so it upper-bounds the real error). By the triangle
//! inequality,
//!
//! ```text
//! ‖q - x‖  ≥  ‖q̂ - x̂‖ - ‖q - q̂‖ - ‖x - x̂‖  =  Δ·√S - err_q - err_x
//! ```
//!
//! so `max(Δ·√S - err_q - err_x, 0)²` lower-bounds the true squared
//! distance. One final haircut ([`QuantBlock::lane_bound`]'s `slack`)
//! accounts for the `f32` rounding of the exact kernel the bound is
//! compared against, making it sound to skip a candidate whenever the
//! bound meets the best-so-far — under every dispatch tier, including the
//! sequentially accumulating scalar one.
//!
//! Because each row's error is computed against the codes **actually
//! stored**, the bound stays valid for *any* grid — rows outside the
//! trained ranges just clamp to the extreme codes and carry a larger
//! error (a weaker, never wrong, bound). That is what lets the grid be
//! trained once on a sample and reused verbatim across inserts and
//! repacks.

use sofa_simd::BLOCK_LANES;

/// Inflation applied to computed reconstruction errors so the stored value
/// upper-bounds the exact real error despite `f64` rounding (which is at
/// most ~`n · 2⁻⁵²` relative — orders of magnitude below this margin).
const ERR_INFLATION: f64 = 1.0 + 1e-9;

/// Relative inflation applied to abandon thresholds, covering the `f64`
/// rounding of the threshold computation itself.
const THR_INFLATION: f64 = 1.0 + 1e-12;

/// The index-wide affine quantizer: per-position minima plus one shared
/// scale (see the module docs). Train with [`QuantGrid::train`], encode
/// leaves with [`QuantBlock::build`], encode queries with
/// [`QuantGrid::quantize_query`].
#[derive(Clone, Debug)]
pub struct QuantGrid {
    series_len: usize,
    /// Shared quantization step (positive, finite — degenerate training
    /// data is rejected by [`QuantGrid::train`]).
    scale: f32,
    /// Per-position minima, `series_len` entries.
    mins: Vec<f32>,
    /// `1 - (series_len + 16) · ε₃₂`: multiplied onto the squared bound so
    /// that meeting the best-so-far implies the *computed* `f32` distance
    /// would too, whichever tier computes it.
    slack: f64,
    /// Multiplicative inflation for the `f32` query-error pass of
    /// [`Self::quantize_query`]: covers the relative rounding of the
    /// products and the blocked accumulation.
    qerr_mul: f64,
    /// Additive inflation for the same pass: covers the *absolute* `f32`
    /// error of reconstructing a code (`min + c·Δ`), which a relative term
    /// cannot, scaled to the whole vector (`∝ √n · amplitude`).
    qerr_add: f64,
}

impl QuantGrid {
    /// Trains the grid on `data.len() / series_len` rows (typically a
    /// sample of the index). Returns `None` for grids the tier cannot
    /// price: empty, non-finite, or constant data (`scale == 0`, where
    /// the bound is vacuous), data so small the scale is denormal (the
    /// `f32` query pass needs normal arithmetic), or rows longer than
    /// the integer kernel's accumulator budget.
    #[must_use]
    pub fn train(data: &[f32], series_len: usize) -> Option<Self> {
        if series_len == 0 {
            return None;
        }
        debug_assert_eq!(data.len() % series_len, 0);
        Self::train_rows(data.chunks_exact(series_len), series_len)
    }

    /// [`QuantGrid::train`] over rows read where they lie — a strided
    /// sample of an arena, say (`arena.chunks_exact(n).step_by(s)`) —
    /// with no copy of the sample. The grid depends only on the rows and
    /// their order, so it is bit-identical to training on their
    /// concatenation.
    #[must_use]
    pub fn train_rows<'a>(
        rows: impl IntoIterator<Item = &'a [f32]>,
        series_len: usize,
    ) -> Option<Self> {
        if series_len == 0 || series_len > sofa_simd::QUANT_MAX_POSITIONS {
            return None;
        }
        let mut mins = vec![f32::INFINITY; series_len];
        let mut maxs = vec![f32::NEG_INFINITY; series_len];
        for row in rows {
            debug_assert_eq!(row.len(), series_len);
            // Lane-wise min/max over whole rows: vectorizes.
            for ((lo, hi), &x) in mins.iter_mut().zip(maxs.iter_mut()).zip(row) {
                *lo = lo.min(x);
                *hi = hi.max(x);
            }
        }
        // No rows leave the minima at +inf: rejected below.
        let range = mins.iter().zip(maxs.iter()).map(|(&lo, &hi)| hi - lo).fold(0.0f32, f32::max);
        let scale = range / 255.0;
        // A denormal scale breaks the `f32` fast path: `1/scale`
        // overflows and the rounding analysis behind `qerr_*` assumes
        // normal arithmetic — so the tier bows out below `MIN_POSITIVE`
        // (z-normalized serving data sits ~35 orders of magnitude above).
        if !scale.is_finite() || scale < f32::MIN_POSITIVE || mins.iter().any(|m| !m.is_finite()) {
            return None;
        }
        let slack = 1.0 - (series_len as f64 + 16.0) * f64::from(f32::EPSILON);
        // Inflations for the f32 query-error pass (see `quantize_query`).
        // `amp` bounds every reconstructed value: |min_j + c·Δ| ≤
        // max_j |min_j| + 255·Δ. Reconstructing in f32 costs ≤ ~3ε·amp
        // absolute error per position; over the vector norm that is
        // ≤ 3ε·amp·√n, with a generous 2x safety factor folded in.
        let eps = f64::from(f32::EPSILON);
        let amp = mins.iter().fold(0.0f32, |a, &m| a.max(m.abs())) + 255.0 * scale;
        let qerr_mul = 1.0 + (series_len as f64 / 8.0 + 16.0) * eps;
        let qerr_add = 6.0 * eps * f64::from(amp) * (series_len as f64).sqrt();
        Some(Self { series_len, scale, mins, slack, qerr_mul, qerr_add })
    }

    /// Series length the grid was trained for.
    #[must_use]
    pub fn series_len(&self) -> usize {
        self.series_len
    }

    /// The shared quantization step.
    #[must_use]
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Per-position minima — with [`QuantGrid::scale`] and
    /// [`QuantGrid::series_len`], the grid's complete persistent state
    /// (the `slack`/`qerr_*` inflations are deterministic functions of
    /// these three and are recomputed on restore).
    #[must_use]
    pub fn mins(&self) -> &[f32] {
        &self.mins
    }

    /// Rebuilds a grid from its persisted parts, recomputing the derived
    /// rounding inflations with the same arithmetic as
    /// [`QuantGrid::train`] — a restored grid is bit-identical to the
    /// trained one.
    ///
    /// # Errors
    /// A human-readable description when the parts could not have come
    /// from a successful `train` call (wrong `mins` length, non-finite
    /// values, or a scale below `f32::MIN_POSITIVE`).
    pub fn from_parts(series_len: usize, scale: f32, mins: Vec<f32>) -> Result<Self, String> {
        if series_len == 0 || series_len > sofa_simd::QUANT_MAX_POSITIONS {
            return Err(format!("series length {series_len} outside the quant tier's range"));
        }
        if mins.len() != series_len {
            return Err(format!("{} minima for series length {series_len}", mins.len()));
        }
        if !scale.is_finite() || scale < f32::MIN_POSITIVE || mins.iter().any(|m| !m.is_finite()) {
            return Err("non-finite or denormal grid parameters".to_string());
        }
        // Identical formulas (and evaluation order) to `train`, so the
        // derived fields restore bit-for-bit.
        let slack = 1.0 - (series_len as f64 + 16.0) * f64::from(f32::EPSILON);
        let eps = f64::from(f32::EPSILON);
        let amp = mins.iter().fold(0.0f32, |a, &m| a.max(m.abs())) + 255.0 * scale;
        let qerr_mul = 1.0 + (series_len as f64 / 8.0 + 16.0) * eps;
        let qerr_add = 6.0 * eps * f64::from(amp) * (series_len as f64).sqrt();
        Ok(Self { series_len, scale, mins, slack, qerr_mul, qerr_add })
    }

    /// Quantizes a (z-normalized) query under the grid, writing
    /// `series_len` codes into `qcodes` and returning the query's
    /// reconstruction-error bound `‖q - q̂‖`. Queries outside the grid's
    /// value ranges clamp to the extreme codes — the error bound absorbs
    /// the clipping, so the lower bound stays valid (just weaker).
    ///
    /// # Panics
    /// Panics if `q` or `qcodes` is shorter than `series_len`.
    #[must_use]
    pub fn quantize_query(&self, q: &[f32], qcodes: &mut [u8]) -> f64 {
        // One fused branch- and call-free f32 pass so the (once-per-query)
        // quantize vectorizes. f32 arithmetic is fine for the *codes* (any
        // codes are valid as long as the error is computed against the
        // codes actually stored); the f32 *error* accumulation is made
        // conservative by the precomputed `qerr_mul`/`qerr_add` inflations
        // (relative rounding of products and blocked sums, plus the
        // absolute f32 error of reconstructing `min + c·Δ`).
        let inv = 1.0 / self.scale;
        let n = self.series_len;
        let mut acc = [0.0f32; 8];
        let mut j = 0usize;
        while j < n {
            let end = (j + 8).min(n);
            for (i, jj) in (j..end).enumerate() {
                let x = q[jj];
                let min = self.mins[jj];
                // Round-half-up via truncation: the operand is clamped
                // non-negative first, and the high clamp keeps it < 256.
                // `t` is integer-valued in [0, 255], so the u8 store is
                // exact and `rec` reconstructs the stored code.
                let t = ((x - min) * inv + 0.5).clamp(0.0, 255.9).trunc();
                qcodes[jj] = t as u8;
                let d = x - (min + t * self.scale);
                acc[i] += d * d;
            }
            j = end;
        }
        let total: f64 = acc.iter().map(|&a| f64::from(a)).sum();
        total.sqrt() * self.qerr_mul + self.qerr_add
    }

    /// Heap bytes held by the grid.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.mins.capacity() * std::mem::size_of::<f32>()
    }
}

/// One leaf's codes + per-row error bounds under a shared [`QuantGrid`]
/// (see the module docs for the layout and the lower-bound math).
#[derive(Clone, Debug)]
pub struct QuantBlock {
    n: usize,
    series_len: usize,
    /// Copy of the grid's scale (the only grid parameter the query-time
    /// bound math needs — keeping it inline avoids chasing a pointer in
    /// the per-group threshold computation).
    scale: f32,
    /// Copy of the grid's `f32`-comparison slack.
    slack: f64,
    /// `n_groups * series_len * 8` codes, group-major then position-major.
    codes: Vec<u8>,
    /// Per-lane unsquared reconstruction-error bounds, `n_groups * 8`
    /// entries (pad lanes mirror the last real row).
    errs: Vec<f64>,
}

impl QuantBlock {
    /// Encodes `n = data.len() / series_len` contiguous rows under `grid`.
    /// Returns `None` when the lengths disagree or the leaf is empty —
    /// callers fall back to the exact path. Non-finite rows encode with a
    /// non-finite error bound, which disables pruning for exactly those
    /// rows.
    #[must_use]
    pub fn build(grid: &QuantGrid, data: &[f32], series_len: usize) -> Option<Self> {
        Self::encode_into(grid, data, series_len, Vec::new(), Vec::new())
    }

    /// Lengths of the `(codes, errs)` buffers of a block over `n` rows of
    /// `series_len` values.
    #[must_use]
    pub fn buffer_lens(n: usize, series_len: usize) -> (usize, usize) {
        let groups = n.div_ceil(BLOCK_LANES);
        (groups * series_len * BLOCK_LANES, groups * BLOCK_LANES)
    }

    /// [`QuantBlock::build`] into caller-supplied buffers, which become
    /// the block's. They are resized to [`QuantBlock::buffer_lens`] and
    /// every entry is overwritten, so buffers allocated at those lengths
    /// make the encode allocation-free: a caller can allocate on one
    /// thread and encode on another.
    ///
    /// The encode is `sofa_simd::quant_encode`: round half up via
    /// truncation of the clamped operand, a branch-free code; any code is
    /// sound because each row's error is measured against the codes
    /// stored. A NaN value stores code 0 and makes its row's error NaN,
    /// which disables pruning for that row.
    #[must_use]
    pub fn encode_into(
        grid: &QuantGrid,
        data: &[f32],
        series_len: usize,
        mut codes: Vec<u8>,
        mut errs: Vec<f64>,
    ) -> Option<Self> {
        let n = data.len().checked_div(series_len)?;
        if series_len != grid.series_len || n == 0 {
            return None;
        }
        debug_assert_eq!(data.len() % series_len, 0);
        let (n_codes, n_errs) = Self::buffer_lens(n, series_len);
        codes.resize(n_codes, 0);
        errs.resize(n_errs, 0.0);
        let data = &data[..n * series_len];
        sofa_simd::quant_encode(data, &grid.mins, grid.scale, &mut codes, &mut errs);
        for e in &mut errs {
            *e = e.sqrt() * ERR_INFLATION;
        }
        Some(Self { n, series_len, scale: grid.scale, slack: grid.slack, codes, errs })
    }

    /// Number of real rows priced by this block.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The full code buffer (`n_groups * series_len * 8` bytes,
    /// group-major then position-major) — the flat serialization form.
    #[must_use]
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// The full per-lane error-bound buffer (`n_groups * 8` entries) —
    /// the flat serialization form.
    #[must_use]
    pub fn errs(&self) -> &[f64] {
        &self.errs
    }

    /// Series length the codes were encoded for.
    #[must_use]
    pub fn series_len(&self) -> usize {
        self.series_len
    }

    /// Rebuilds a block from its persisted parts under `grid` (which
    /// supplies the scale and comparison slack, exactly as
    /// [`QuantBlock::build`] captures them), validating the layout
    /// invariants so corrupted lengths cannot produce out-of-bounds group
    /// slices later.
    ///
    /// # Errors
    /// A human-readable description when the shapes are inconsistent with
    /// `n` rows of `grid.series_len()` values.
    pub fn from_parts(
        grid: &QuantGrid,
        n: usize,
        codes: Vec<u8>,
        errs: Vec<f64>,
    ) -> Result<Self, String> {
        if n == 0 {
            return Err("a quant block prices at least one row".to_string());
        }
        let series_len = grid.series_len;
        let groups = n.div_ceil(BLOCK_LANES);
        let want_codes = groups
            .checked_mul(series_len)
            .and_then(|v| v.checked_mul(BLOCK_LANES))
            .ok_or_else(|| "code shape overflows".to_string())?;
        if codes.len() != want_codes {
            return Err(format!(
                "{} codes for {n} rows of length {series_len} (expected {want_codes})",
                codes.len()
            ));
        }
        if errs.len() != groups * BLOCK_LANES {
            return Err(format!(
                "{} error bounds for {groups} groups (expected {})",
                errs.len(),
                groups * BLOCK_LANES
            ));
        }
        Ok(Self { n, series_len, scale: grid.scale, slack: grid.slack, codes, errs })
    }

    /// Number of 8-lane groups (last one padded).
    #[must_use]
    pub fn n_groups(&self) -> usize {
        self.n.div_ceil(BLOCK_LANES)
    }

    /// Group `g`'s codes: `series_len * 8` bytes, position-major — the
    /// `codes` operand of `sofa_simd::quant_lower_bound`.
    ///
    /// # Panics
    /// Panics if `g` is out of range.
    #[must_use]
    pub fn group_codes(&self, g: usize) -> &[u8] {
        let stride = self.series_len * BLOCK_LANES;
        &self.codes[g * stride..(g + 1) * stride]
    }

    /// Group `g`'s per-lane reconstruction-error bounds (8 entries).
    ///
    /// # Panics
    /// Panics if `g` is out of range.
    #[must_use]
    pub fn group_errs(&self, g: usize) -> &[f64] {
        &self.errs[g * BLOCK_LANES..(g + 1) * BLOCK_LANES]
    }

    /// Per-lane integer abandon thresholds for group `g` against a squared
    /// best-so-far: the smallest `thr` such that a code-distance sum
    /// `S > thr` guarantees [`Self::lane_bound`]`(S) > bsf_sq` — letting
    /// the integer kernel prune whole groups without ever leaving integer
    /// arithmetic. Lanes whose threshold does not fit `i32` (or a
    /// non-finite/zero best-so-far) get `i32::MAX`, which disables
    /// abandoning for them.
    pub fn thresholds(&self, g: usize, bsf_sq: f32, err_q: f64, thr: &mut [i32; BLOCK_LANES]) {
        let errs = self.group_errs(g);
        if !(bsf_sq.is_finite() && bsf_sq >= 0.0) {
            thr.fill(i32::MAX);
            return;
        }
        let need = (f64::from(bsf_sq) / self.slack).sqrt();
        let inv = 1.0 / f64::from(self.scale);
        for (lane, t) in thr.iter_mut().enumerate() {
            let r = (errs[lane] + err_q + need) * inv;
            let bound = r * r * THR_INFLATION;
            *t = if bound < f64::from(i32::MAX) { bound.ceil() as i32 } else { i32::MAX };
        }
    }

    /// Turns one lane's integer code-distance sum into a lower bound on
    /// the *computed* squared `f32` distance between query and row:
    /// `max(Δ·√S - err_row - err_q, 0)² · slack`. Compare `≥` against the
    /// squared best-so-far (as `f64`) to skip the exact scan soundly.
    #[must_use]
    pub fn lane_bound(&self, s: i32, err_row: f64, err_q: f64) -> f64 {
        let lb = f64::from(self.scale) * f64::from(s).sqrt() - err_row - err_q;
        if lb <= 0.0 {
            0.0
        } else {
            lb * lb * self.slack
        }
    }

    /// Heap bytes held by the block (codes dominate: ~1 byte per stored
    /// value, a quarter of the `f32` arena it shadows).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.codes.capacity() + self.errs.capacity() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofa_simd::{euclidean_sq, quant_lower_bound};

    fn dataset(count: usize, n: usize) -> Vec<f32> {
        let mut data = Vec::with_capacity(count * n);
        for r in 0..count {
            let phase = r as f32 * 0.37;
            let mut row: Vec<f32> = (0..n)
                .map(|j| (j as f32 * 0.21 + phase).sin() + 0.3 * (j as f32 * 0.05).cos())
                .collect();
            sofa_simd::znormalize(&mut row);
            data.extend_from_slice(&row);
        }
        data
    }

    fn grid_and_block(data: &[f32], n: usize) -> (QuantGrid, QuantBlock) {
        let grid = QuantGrid::train(data, n).expect("non-degenerate data");
        let block = QuantBlock::build(&grid, data, n).expect("same length");
        (grid, block)
    }

    #[test]
    fn rejects_degenerate_training_data() {
        assert!(QuantGrid::train(&[], 8).is_none());
        assert!(QuantGrid::train(&[1.0; 32], 8).is_none(), "constant data has scale 0");
        assert!(QuantGrid::train(&[f32::NAN; 32], 8).is_none());
        assert!(QuantGrid::train(&[1.0; 8], 0).is_none());
    }

    #[test]
    fn block_rejects_length_mismatch_and_empty() {
        let data = dataset(10, 64);
        let grid = QuantGrid::train(&data, 64).unwrap();
        assert!(QuantBlock::build(&grid, &data, 32).is_none());
        assert!(QuantBlock::build(&grid, &[], 64).is_none());
    }

    /// The row-at-a-time `f64` encode that `QuantBlock::build` ran before
    /// the encode moved into the `sofa-simd` kernel: the stored bytes must
    /// not change.
    fn reference_block(grid: &QuantGrid, data: &[f32], n: usize) -> (Vec<u8>, Vec<f64>) {
        let rows = data.len() / n;
        let groups = rows.div_ceil(BLOCK_LANES);
        let mut codes = vec![0u8; groups * n * BLOCK_LANES];
        let mut errs = vec![0f64; groups * BLOCK_LANES];
        let scale = f64::from(grid.scale);
        let inv = 1.0 / scale;
        let mins: Vec<f64> = grid.mins.iter().map(|&m| f64::from(m)).collect();
        for g in 0..groups {
            for lane in 0..BLOCK_LANES {
                let r = (g * BLOCK_LANES + lane).min(rows - 1);
                let mut err_sq = 0.0f64;
                for ((j, &x), &min) in data[r * n..(r + 1) * n].iter().enumerate().zip(&mins) {
                    let c = ((f64::from(x) - min) * inv + 0.5).clamp(0.0, 255.9) as u8;
                    codes[g * n * BLOCK_LANES + j * BLOCK_LANES + lane] = c;
                    let d = f64::from(x) - (min + f64::from(c) * scale);
                    err_sq += d * d;
                }
                errs[g * BLOCK_LANES + lane] = err_sq.sqrt() * ERR_INFLATION;
            }
        }
        (codes, errs)
    }

    #[test]
    fn build_keeps_the_reference_bytes() {
        let n = 40;
        let grid = QuantGrid::train(&dataset(30, n), n).expect("grid");
        // In-grid rows, rows far outside it, and non-finite values.
        let mut data: Vec<f32> = dataset(13, n);
        data.extend(dataset(6, n).iter().map(|&x| x * 30.0 - 11.0));
        data[5] = f32::NAN;
        data[n + 2] = f32::INFINITY;
        data[3 * n] = f32::NEG_INFINITY;
        for rows in [1, 7, 8, 9, 19] {
            let rows_data = &data[..rows * n];
            let qb = QuantBlock::build(&grid, rows_data, n).expect("block");
            let (codes, errs) = reference_block(&grid, rows_data, n);
            assert_eq!(qb.codes(), &codes[..], "rows={rows}");
            let bits = |e: &[f64]| e.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(qb.errs()), bits(&errs), "rows={rows}");
            // Preallocated buffers (even wrongly sized ones) give the same block.
            let (nc, ne) = QuantBlock::buffer_lens(rows, n);
            let pre = QuantBlock::encode_into(&grid, rows_data, n, vec![7; nc], vec![1.0; ne + 3])
                .expect("block");
            assert_eq!(pre.codes(), qb.codes());
            assert_eq!(bits(pre.errs()), bits(qb.errs()));
        }
    }

    #[test]
    fn strided_training_matches_a_copied_sample() {
        let n = 24;
        let data = dataset(101, n);
        for stride in [1, 2, 7] {
            let sample: Vec<f32> =
                data.chunks_exact(n).step_by(stride).flatten().copied().collect();
            let copied = QuantGrid::train(&sample, n).expect("grid");
            let strided =
                QuantGrid::train_rows(data.chunks_exact(n).step_by(stride), n).expect("grid");
            assert_eq!(strided.scale().to_bits(), copied.scale().to_bits());
            assert_eq!(strided.mins(), copied.mins());
        }
        assert!(QuantGrid::train_rows(data.chunks_exact(n).take(0), n).is_none());
    }

    #[test]
    fn codes_reconstruct_within_error_bound() {
        let n = 64;
        let data = dataset(21, n);
        let (grid, qb) = grid_and_block(&data, n);
        assert_eq!(qb.n(), 21);
        assert_eq!(qb.n_groups(), 3);
        for g in 0..qb.n_groups() {
            let codes = qb.group_codes(g);
            let errs = qb.group_errs(g);
            for lane in 0..BLOCK_LANES {
                let r = (g * BLOCK_LANES + lane).min(qb.n() - 1);
                let row = &data[r * n..(r + 1) * n];
                let mut err_sq = 0.0f64;
                for (j, &x) in row.iter().enumerate() {
                    let c = f64::from(codes[j * BLOCK_LANES + lane]);
                    let rec = f64::from(grid.mins[j]) + c * f64::from(grid.scale());
                    err_sq += (f64::from(x) - rec).powi(2);
                }
                assert!(err_sq.sqrt() <= errs[lane], "g={g} lane={lane}");
            }
        }
    }

    #[test]
    fn rows_outside_the_grid_clamp_but_stay_sound() {
        let n = 32;
        let train = dataset(12, n);
        let grid = QuantGrid::train(&train, n).expect("grid");
        // Rows far outside the trained ranges: codes clamp, errors grow.
        let wild: Vec<f32> = dataset(5, n).iter().map(|&x| x * 40.0 + 7.0).collect();
        let qb = QuantBlock::build(&grid, &wild, n).expect("block");
        let q = &train[..n];
        let mut qcodes = vec![0u8; n];
        let err_q = grid.quantize_query(q, &mut qcodes);
        let never = [i32::MAX; BLOCK_LANES];
        let mut sums = [0i32; BLOCK_LANES];
        let _ = quant_lower_bound(&qcodes, qb.group_codes(0), &never, &mut sums);
        let errs = qb.group_errs(0);
        for lane in 0..qb.n().min(BLOCK_LANES) {
            let bound = qb.lane_bound(sums[lane], errs[lane], err_q);
            let exact = f64::from(euclidean_sq(q, &wild[lane * n..(lane + 1) * n]));
            assert!(bound <= exact, "lane {lane}: bound {bound} exceeds exact {exact}");
        }
    }

    #[test]
    fn lane_bound_never_exceeds_exact_distance() {
        let n = 96;
        let rows = 40;
        let data = dataset(rows, n);
        let (grid, qb) = grid_and_block(&data, n);
        let queries = dataset(7, n);
        let mut qcodes = vec![0u8; n];
        let mut sums = [0i32; BLOCK_LANES];
        let never = [i32::MAX; BLOCK_LANES];
        for q in queries.chunks_exact(n) {
            let err_q = grid.quantize_query(q, &mut qcodes);
            for g in 0..qb.n_groups() {
                let abandoned = quant_lower_bound(&qcodes, qb.group_codes(g), &never, &mut sums);
                assert!(!abandoned);
                let errs = qb.group_errs(g);
                for lane in 0..BLOCK_LANES {
                    let r = g * BLOCK_LANES + lane;
                    if r >= qb.n() {
                        break;
                    }
                    let bound = qb.lane_bound(sums[lane], errs[lane], err_q);
                    let exact = f64::from(euclidean_sq(q, &data[r * n..(r + 1) * n]));
                    assert!(bound <= exact, "row {r}: bound {bound} exceeds exact {exact}");
                }
            }
        }
    }

    #[test]
    fn thresholds_are_conservative() {
        let n = 64;
        let data = dataset(30, n);
        let (grid, qb) = grid_and_block(&data, n);
        let queries = dataset(5, n);
        let mut qcodes = vec![0u8; n];
        let mut sums = [0i32; BLOCK_LANES];
        let mut thr = [0i32; BLOCK_LANES];
        let never = [i32::MAX; BLOCK_LANES];
        for q in queries.chunks_exact(n) {
            let err_q = grid.quantize_query(q, &mut qcodes);
            for bsf in [0.5f32, 5.0, 50.0] {
                for g in 0..qb.n_groups() {
                    qb.thresholds(g, bsf, err_q, &mut thr);
                    let _ = quant_lower_bound(&qcodes, qb.group_codes(g), &never, &mut sums);
                    let errs = qb.group_errs(g);
                    for lane in 0..BLOCK_LANES {
                        if sums[lane] > thr[lane] {
                            // Crossing the threshold must imply the fixed-up
                            // bound beats the best-so-far.
                            let bound = qb.lane_bound(sums[lane], errs[lane], err_q);
                            assert!(bound > f64::from(bsf), "bsf={bsf} lane={lane}");
                        }
                    }
                }
            }
        }
        // Degenerate best-so-far disables abandoning outright.
        qb.thresholds(0, f32::INFINITY, 0.0, &mut thr);
        assert_eq!(thr, [i32::MAX; BLOCK_LANES]);
    }

    #[test]
    fn grid_from_parts_restores_bit_identically() {
        let n = 64;
        let data = dataset(25, n);
        let grid = QuantGrid::train(&data, n).expect("grid");
        let restored = QuantGrid::from_parts(grid.series_len(), grid.scale(), grid.mins().to_vec())
            .expect("valid parts");
        assert_eq!(restored.scale().to_bits(), grid.scale().to_bits());
        assert_eq!(restored.slack.to_bits(), grid.slack.to_bits());
        assert_eq!(restored.qerr_mul.to_bits(), grid.qerr_mul.to_bits());
        assert_eq!(restored.qerr_add.to_bits(), grid.qerr_add.to_bits());
        // The restored grid quantizes queries identically.
        let q = &data[..n];
        let (mut c1, mut c2) = (vec![0u8; n], vec![0u8; n]);
        let e1 = grid.quantize_query(q, &mut c1);
        let e2 = restored.quantize_query(q, &mut c2);
        assert_eq!(c1, c2);
        assert_eq!(e1.to_bits(), e2.to_bits());
        // Invalid parts are rejected.
        assert!(QuantGrid::from_parts(0, 1.0, vec![]).is_err());
        assert!(QuantGrid::from_parts(4, 1.0, vec![0.0; 3]).is_err());
        assert!(QuantGrid::from_parts(4, 0.0, vec![0.0; 4]).is_err());
        assert!(QuantGrid::from_parts(4, f32::NAN, vec![0.0; 4]).is_err());
    }

    #[test]
    fn block_from_parts_restores_bit_identically() {
        let n = 48;
        let data = dataset(19, n);
        let (grid, qb) = grid_and_block(&data, n);
        let restored =
            QuantBlock::from_parts(&grid, qb.n(), qb.codes().to_vec(), qb.errs().to_vec())
                .expect("valid parts");
        assert_eq!(restored.n(), qb.n());
        assert_eq!(restored.series_len(), qb.series_len());
        assert_eq!(restored.codes(), qb.codes());
        for (a, b) in restored.errs().iter().zip(qb.errs()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(restored.scale.to_bits(), qb.scale.to_bits());
        assert_eq!(restored.slack.to_bits(), qb.slack.to_bits());
        // Shape violations are rejected.
        assert!(QuantBlock::from_parts(&grid, 0, vec![], vec![]).is_err());
        assert!(QuantBlock::from_parts(&grid, 3, vec![0; 7], vec![0.0; 8]).is_err());
        assert!(QuantBlock::from_parts(&grid, 3, vec![0; n * BLOCK_LANES], vec![0.0; 7]).is_err());
    }
}
