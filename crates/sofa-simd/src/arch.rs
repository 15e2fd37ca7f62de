//! Explicit ISA kernels behind the runtime dispatcher (x86-64 AVX2+FMA).
//!
//! These are the only functions in the workspace's compute layer that use
//! `unsafe`: `std::arch` intrinsics plus raw-pointer loads. Safety is
//! confined to two facts, checked at the call boundary:
//!
//! 1. the dispatcher ([`crate::dispatch::active_tier`]) only selects this
//!    module when `cpuid` reports AVX2 and FMA, and
//! 2. every load stays inside the bounds of the slices passed in (the
//!    loops below only touch whole 8-lane chunks; tails are scalar).
//!
//! **Bit-compatibility contract.** The exactness tests run the full query
//! suite under every tier and require identical answers, so the
//! AVX2 kernels for `euclidean_sq`, `euclidean_sq_early_abandon` and the
//! block lower bound perform *exactly* the same floating-point operations
//! in the same association order as the portable `F32x8` kernels: the
//! same 8-lane vertical accumulation, the same pairwise horizontal
//! reduction `(s01+s23)+(s45+s67)`, and separate multiply/add (no FMA
//! contraction, which would change rounding). FMA is used only in [`dot`],
//! whose callers (the FAISS-flat baseline) never feed results into
//! exactness-sensitive pruning against another tier's arithmetic.
#![allow(unsafe_code)] // the one ISA-kernel module; crate denies elsewhere

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use core::arch::x86_64::*;

    /// `true` when the AVX2+FMA kernels may run. `is_x86_feature_detected!`
    /// caches its answer in a static, so this is one relaxed atomic load —
    /// the safe wrappers below re-verify it instead of trusting callers,
    /// which keeps them sound (not just "safe if the dispatcher behaved").
    #[inline(always)]
    fn supported() -> bool {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }

    /// Safe entry points: verify CPU support, then call the
    /// `#[target_feature]` kernels.
    pub(crate) fn euclidean_sq_checked(a: &[f32], b: &[f32]) -> f32 {
        assert!(supported(), "AVX2 kernels dispatched on a CPU without AVX2+FMA");
        // SAFETY: AVX2+FMA verified above; slice bounds are respected by
        // the kernel (whole 8-lane chunks + scalar tail).
        unsafe { euclidean_sq(a, b) }
    }

    /// Safe wrapper over the early-abandoning AVX2 distance kernel.
    pub(crate) fn euclidean_sq_early_abandon_checked(a: &[f32], b: &[f32], bsf_sq: f32) -> f32 {
        assert!(supported(), "AVX2 kernels dispatched on a CPU without AVX2+FMA");
        // SAFETY: as above.
        unsafe { euclidean_sq_early_abandon(a, b, bsf_sq) }
    }

    /// Safe wrapper over the AVX2+FMA dot-product kernel.
    pub(crate) fn dot_checked(a: &[f32], b: &[f32]) -> f32 {
        assert!(supported(), "AVX2 kernels dispatched on a CPU without AVX2+FMA");
        // SAFETY: as above.
        unsafe { dot(a, b) }
    }

    /// Safe wrapper over the AVX2 block lower-bound kernel. Re-checks the
    /// layout itself (this wrapper is the soundness boundary — it must
    /// not rely on callers having validated the slices).
    pub(crate) fn block_lower_bound_checked(
        values: &[f32],
        weights: &[f32],
        bounds: &[f32],
        bsf_sq: f32,
        out: &mut [f32; 8],
    ) -> bool {
        assert!(supported(), "AVX2 kernels dispatched on a CPU without AVX2+FMA");
        assert_eq!(bounds.len(), values.len() * crate::block::BOUNDS_STRIDE);
        assert_eq!(weights.len(), values.len());
        // SAFETY: AVX2+FMA verified above; the layout asserts guarantee
        // every load stays in bounds.
        unsafe { block_lower_bound(values, weights, bounds, bsf_sq, out) }
    }

    /// Safe wrapper over the AVX2 *masked* block lower-bound kernel.
    /// `init` carries the per-lane accumulator seeds (`0.0` live, `+inf`
    /// dead — computed by the dispatcher so all tiers share one
    /// definition). Re-checks the layout itself (soundness boundary).
    pub(crate) fn block_lower_bound_masked_checked(
        values: &[f32],
        weights: &[f32],
        bounds: &[f32],
        bsf_sq: f32,
        init: [f32; 8],
        out: &mut [f32; 8],
    ) -> bool {
        assert!(supported(), "AVX2 kernels dispatched on a CPU without AVX2+FMA");
        assert_eq!(bounds.len(), values.len() * crate::block::BOUNDS_STRIDE);
        assert_eq!(weights.len(), values.len());
        // SAFETY: AVX2+FMA verified above; the layout asserts guarantee
        // every load stays in bounds.
        unsafe { block_lower_bound_masked(values, weights, bounds, bsf_sq, init, out) }
    }

    /// Safe wrapper over the AVX2 quantized lower-bound kernel. Re-checks
    /// the layout itself (soundness boundary, as above).
    pub(crate) fn quant_lower_bound_checked(
        qcodes: &[u8],
        codes: &[u8],
        thr: &[i32; 8],
        out: &mut [i32; 8],
    ) -> bool {
        assert!(supported(), "AVX2 kernels dispatched on a CPU without AVX2+FMA");
        assert_eq!(codes.len(), qcodes.len() * 8);
        // SAFETY: AVX2 verified above; the layout assert guarantees every
        // 8-byte lane load stays in bounds.
        unsafe { quant_lower_bound(qcodes, codes, thr, out) }
    }

    /// Safe wrapper over the AVX2 quant encoder. Re-checks the layout
    /// itself (soundness boundary, as above): `n` rows of `mins.len()`
    /// values, whole groups of codes and one sum per lane.
    pub(crate) fn quant_encode_checked(
        rows: &[f32],
        n: usize,
        mins: &[f32],
        scale: f32,
        codes: &mut [u8],
        err_sq: &mut [f64],
    ) {
        assert!(supported(), "AVX2 kernels dispatched on a CPU without AVX2+FMA");
        let len = mins.len();
        assert!((1..=crate::QUANT_MAX_POSITIONS).contains(&len));
        assert!(n > 0 && rows.len() == n * len);
        let groups = n.div_ceil(8);
        assert_eq!(codes.len(), groups * len * 8);
        assert_eq!(err_sq.len(), groups * 8);
        // SAFETY: AVX2 verified above; the asserts bound every gather
        // index by the rows and every store by the output slices (see the
        // kernel).
        unsafe { quant_encode(rows, n, mins, scale, codes, err_sq) }
    }

    /// Hints the CPU to load every cache line of `data` into all cache
    /// levels. A prefetch never faults and has no architectural effect.
    #[inline]
    pub(crate) fn prefetch<T>(data: &[T]) {
        let bytes = core::mem::size_of_val(data);
        let base = data.as_ptr().cast::<i8>();
        let mut off = 0;
        while off < bytes {
            // SAFETY: `off < bytes`, so the pointer stays inside `data`;
            // SSE (which provides the instruction) is baseline on x86-64.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(base.add(off)) };
            off += 64;
        }
    }

    /// Pairwise horizontal sum matching `F32x8::horizontal_sum` exactly:
    /// `(a0+a1 + (a2+a3)) + (a4+a5 + (a6+a7))`.
    ///
    /// # Safety
    /// Requires AVX2 support (guaranteed by the dispatcher).
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn hsum_pairwise(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        // [a0+a1, a2+a3, a4+a5, a6+a7]
        let pairs = _mm_hadd_ps(lo, hi);
        // [s01+s23, s45+s67, s01+s23, s45+s67]
        let quads = _mm_hadd_ps(pairs, pairs);
        // (s01+s23) + (s45+s67)
        _mm_cvtss_f32(_mm_add_ss(quads, _mm_movehdup_ps(quads)))
    }

    /// AVX2 squared Euclidean distance; bit-identical to the portable
    /// 8-lane kernel.
    ///
    /// # Safety
    /// Requires AVX2+FMA support and `a.len() == b.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn euclidean_sq(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let chunks = n / 8;
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            let va = _mm256_loadu_ps(a.as_ptr().add(c * 8));
            let vb = _mm256_loadu_ps(b.as_ptr().add(c * 8));
            let d = _mm256_sub_ps(va, vb);
            // mul+add (not FMA): matches the portable kernel's rounding.
            acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
        }
        let mut sum = hsum_pairwise(acc);
        for i in chunks * 8..n {
            let d = a.get_unchecked(i) - b.get_unchecked(i);
            sum += d * d;
        }
        sum
    }

    /// AVX2 early-abandoning squared Euclidean distance; bit-identical to
    /// the portable kernel (same two-chunk check cadence, same reduction
    /// order, same abandon points).
    ///
    /// # Safety
    /// Requires AVX2+FMA support and `a.len() == b.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn euclidean_sq_early_abandon(a: &[f32], b: &[f32], bsf_sq: f32) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let chunks = n / 8;
        let mut sum = 0.0f32;
        let mut c = 0;
        while c + 1 < chunks {
            let off = c * 8;
            let d0 = _mm256_sub_ps(
                _mm256_loadu_ps(a.as_ptr().add(off)),
                _mm256_loadu_ps(b.as_ptr().add(off)),
            );
            let d1 = _mm256_sub_ps(
                _mm256_loadu_ps(a.as_ptr().add(off + 8)),
                _mm256_loadu_ps(b.as_ptr().add(off + 8)),
            );
            let sq = _mm256_add_ps(_mm256_mul_ps(d0, d0), _mm256_mul_ps(d1, d1));
            sum += hsum_pairwise(sq);
            if sum > bsf_sq {
                return sum;
            }
            c += 2;
        }
        while c < chunks {
            let off = c * 8;
            let d = _mm256_sub_ps(
                _mm256_loadu_ps(a.as_ptr().add(off)),
                _mm256_loadu_ps(b.as_ptr().add(off)),
            );
            sum += hsum_pairwise(_mm256_mul_ps(d, d));
            if sum > bsf_sq {
                return sum;
            }
            c += 1;
        }
        for i in chunks * 8..n {
            let d = a.get_unchecked(i) - b.get_unchecked(i);
            sum += d * d;
        }
        sum
    }

    /// AVX2+FMA dot product (the flat-baseline GEMM kernel). Uses fused
    /// multiply-add, so it is *not* bit-identical to the portable path —
    /// it is strictly more accurate.
    ///
    /// # Safety
    /// Requires AVX2+FMA support and `a.len() == b.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let chunks = n / 8;
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            let va = _mm256_loadu_ps(a.as_ptr().add(c * 8));
            let vb = _mm256_loadu_ps(b.as_ptr().add(c * 8));
            acc = _mm256_fmadd_ps(va, vb, acc);
        }
        let mut sum = hsum_pairwise(acc);
        for i in chunks * 8..n {
            sum += a.get_unchecked(i) * b.get_unchecked(i);
        }
        sum
    }

    /// AVX2 block lower bound: 8 candidates per call, position-major
    /// bounds layout (see [`crate::block`]). Bit-identical to the scalar
    /// and portable block kernels (same op order, same every-4-positions
    /// whole-group abandon cadence). Returns `true` when every lane's
    /// (possibly partial) sum exceeds `bsf_sq`.
    ///
    /// # Safety
    /// Requires AVX2+FMA support; slice lengths must satisfy the layout
    /// contract (`bounds.len() == values.len() * 16`,
    /// `weights.len() == values.len()`).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn block_lower_bound(
        values: &[f32],
        weights: &[f32],
        bounds: &[f32],
        bsf_sq: f32,
        out: &mut [f32; 8],
    ) -> bool {
        debug_assert_eq!(bounds.len(), values.len() * crate::block::BOUNDS_STRIDE);
        debug_assert_eq!(weights.len(), values.len());
        let zero = _mm256_setzero_ps();
        let vbsf = _mm256_set1_ps(bsf_sq);
        let mut acc = zero;
        for j in 0..values.len() {
            let lo = _mm256_loadu_ps(bounds.as_ptr().add(j * 16));
            let hi = _mm256_loadu_ps(bounds.as_ptr().add(j * 16 + 8));
            let vq = _mm256_set1_ps(*values.get_unchecked(j));
            let vw = _mm256_set1_ps(*weights.get_unchecked(j));
            // dist(q, [lo, hi]) = max(lo - q, q - hi, 0): at most one of
            // the two differences is positive because lo <= hi.
            let d_below = _mm256_sub_ps(lo, vq);
            let d_above = _mm256_sub_ps(vq, hi);
            let d = _mm256_max_ps(_mm256_max_ps(d_below, d_above), zero);
            let wd = _mm256_mul_ps(vw, d);
            acc = _mm256_add_ps(acc, _mm256_mul_ps(wd, d));
            // Whole-group early abandon every 4 positions: one compare +
            // movemask amortized over 4 * 8 lane updates.
            if j % 4 == 3 {
                let gt = _mm256_cmp_ps::<_CMP_GT_OQ>(acc, vbsf);
                if _mm256_movemask_ps(gt) == 0xFF {
                    _mm256_storeu_ps(out.as_mut_ptr(), acc);
                    return true;
                }
            }
        }
        _mm256_storeu_ps(out.as_mut_ptr(), acc);
        let gt = _mm256_cmp_ps::<_CMP_GT_OQ>(acc, vbsf);
        _mm256_movemask_ps(gt) == 0xFF
    }

    /// AVX2 masked block lower bound: identical to [`block_lower_bound`]
    /// except the accumulator starts from `init` instead of zero. Dead
    /// lanes (seeded `+inf`) absorb every add without producing NaN (the
    /// per-position `d` is always finite), so live lanes remain
    /// bit-identical to the unmasked kernel while dead lanes satisfy every
    /// abandon checkpoint automatically.
    ///
    /// # Safety
    /// Requires AVX2+FMA support; slice lengths must satisfy the layout
    /// contract (`bounds.len() == values.len() * 16`,
    /// `weights.len() == values.len()`).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn block_lower_bound_masked(
        values: &[f32],
        weights: &[f32],
        bounds: &[f32],
        bsf_sq: f32,
        init: [f32; 8],
        out: &mut [f32; 8],
    ) -> bool {
        debug_assert_eq!(bounds.len(), values.len() * crate::block::BOUNDS_STRIDE);
        debug_assert_eq!(weights.len(), values.len());
        let zero = _mm256_setzero_ps();
        let vbsf = _mm256_set1_ps(bsf_sq);
        let mut acc = _mm256_loadu_ps(init.as_ptr());
        for j in 0..values.len() {
            let lo = _mm256_loadu_ps(bounds.as_ptr().add(j * 16));
            let hi = _mm256_loadu_ps(bounds.as_ptr().add(j * 16 + 8));
            let vq = _mm256_set1_ps(*values.get_unchecked(j));
            let vw = _mm256_set1_ps(*weights.get_unchecked(j));
            let d_below = _mm256_sub_ps(lo, vq);
            let d_above = _mm256_sub_ps(vq, hi);
            let d = _mm256_max_ps(_mm256_max_ps(d_below, d_above), zero);
            let wd = _mm256_mul_ps(vw, d);
            acc = _mm256_add_ps(acc, _mm256_mul_ps(wd, d));
            if j % 4 == 3 {
                let gt = _mm256_cmp_ps::<_CMP_GT_OQ>(acc, vbsf);
                if _mm256_movemask_ps(gt) == 0xFF {
                    _mm256_storeu_ps(out.as_mut_ptr(), acc);
                    return true;
                }
            }
        }
        _mm256_storeu_ps(out.as_mut_ptr(), acc);
        let gt = _mm256_cmp_ps::<_CMP_GT_OQ>(acc, vbsf);
        _mm256_movemask_ps(gt) == 0xFF
    }

    /// AVX2 quantized lower-bound sweep: 8 candidates per call over
    /// position-major `u8` codes (see `crate::quant`), two positions per
    /// step. The two 8-lane rows are interleaved bytewise
    /// (`unpacklo_epi8`: `[p₀l₀, p₁l₀, p₀l₁, p₁l₁, …]`) so that after an
    /// unsigned absolute difference against the pair-splatted query codes
    /// and a `u8 → i16` widening, `madd_epi16(v, v)` pairs *same-lane
    /// adjacent-position* squares — one multiply-add covers 16 code bytes
    /// where a naive per-position `mullo_epi32` covers 8 (and at twice the
    /// instruction cost), which is what lets this sweep beat the `f32`
    /// kernel per byte. `|d| ≤ 255`, so `d² ≤ 65025` and each i16 product
    /// pair fits i32 exactly. Integer arithmetic is exact, so this tier is
    /// bit-identical to the scalar/portable tiers by construction. Whole-
    /// group early abandon every 16 positions against the per-lane
    /// thresholds `thr`; returns `true` when every lane's (possibly
    /// partial) sum exceeds its threshold.
    ///
    /// # Safety
    /// Requires AVX2 support and `codes.len() == qcodes.len() * 8`
    /// (accumulator overflow is prevented by the dispatcher's
    /// `QUANT_MAX_POSITIONS` layout check).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn quant_lower_bound(
        qcodes: &[u8],
        codes: &[u8],
        thr: &[i32; 8],
        out: &mut [i32; 8],
    ) -> bool {
        debug_assert_eq!(codes.len(), qcodes.len() * 8);
        let vthr = _mm256_loadu_si256(thr.as_ptr().cast());
        let mut acc = _mm256_setzero_si256();
        let p = qcodes.len();
        let mut j = 0usize;
        while j + 2 <= p {
            // 16 lane codes for positions j, j+1, interleaved per lane.
            let a = _mm_loadl_epi64(codes.as_ptr().add(j * 8).cast());
            let b = _mm_loadl_epi64(codes.as_ptr().add((j + 1) * 8).cast());
            let c = _mm_unpacklo_epi8(a, b);
            // The query pair in the same interleaving: [qⱼ, qⱼ₊₁] × 8.
            let q = _mm_set1_epi16(i16::from_le_bytes([qcodes[j], qcodes[j + 1]]));
            // Unsigned |c - q| via saturating subtractions in both orders.
            let ad = _mm_or_si128(_mm_subs_epu8(c, q), _mm_subs_epu8(q, c));
            let v = _mm256_cvtepu8_epi16(ad);
            // Low 128 bits hold lanes 0–3, high bits lanes 4–7 — `out`'s
            // natural i32 order.
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(v, v));
            j += 2;
            // Same checkpoint positions as the scalar tier (after 16, 32,
            // … positions), so partial sums — and therefore the abandon
            // decision — stay bit-identical.
            if j % 16 == 0 {
                let gt = _mm256_cmpgt_epi32(acc, vthr);
                if _mm256_movemask_ps(_mm256_castsi256_ps(gt)) == 0xFF {
                    _mm256_storeu_si256(out.as_mut_ptr().cast(), acc);
                    return true;
                }
            }
        }
        if j < p {
            // Odd trailing position: widen to i32 and square directly.
            let lanes8 = _mm_loadl_epi64(codes.as_ptr().add(j * 8).cast());
            let lanes = _mm256_cvtepu8_epi32(lanes8);
            let vq = _mm256_set1_epi32(i32::from(qcodes[j]));
            let d = _mm256_sub_epi32(vq, lanes);
            acc = _mm256_add_epi32(acc, _mm256_mullo_epi32(d, d));
        }
        _mm256_storeu_si256(out.as_mut_ptr().cast(), acc);
        let gt = _mm256_cmpgt_epi32(acc, vthr);
        _mm256_movemask_ps(_mm256_castsi256_ps(gt)) == 0xFF
    }

    /// Transposes 8 rows of 8 values into 8 columns: `out[j][lane] =
    /// rows[lane][j]` (24 in-lane and cross-lane shuffles).
    ///
    /// # Safety
    /// Requires AVX2 support.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn transpose8(r: [__m256; 8]) -> [__m256; 8] {
        let t0 = _mm256_unpacklo_ps(r[0], r[1]);
        let t1 = _mm256_unpackhi_ps(r[0], r[1]);
        let t2 = _mm256_unpacklo_ps(r[2], r[3]);
        let t3 = _mm256_unpackhi_ps(r[2], r[3]);
        let t4 = _mm256_unpacklo_ps(r[4], r[5]);
        let t5 = _mm256_unpackhi_ps(r[4], r[5]);
        let t6 = _mm256_unpacklo_ps(r[6], r[7]);
        let t7 = _mm256_unpackhi_ps(r[6], r[7]);
        let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        [
            _mm256_permute2f128_ps::<0x20>(u0, u4),
            _mm256_permute2f128_ps::<0x20>(u1, u5),
            _mm256_permute2f128_ps::<0x20>(u2, u6),
            _mm256_permute2f128_ps::<0x20>(u3, u7),
            _mm256_permute2f128_ps::<0x31>(u0, u4),
            _mm256_permute2f128_ps::<0x31>(u1, u5),
            _mm256_permute2f128_ps::<0x31>(u2, u6),
            _mm256_permute2f128_ps::<0x31>(u3, u7),
        ]
    }

    /// AVX2 quant encoder: one 8-row group at a time, position-major.
    /// Whole 8-position blocks of the group's 8 rows are loaded and
    /// transposed so each vector holds one position across the rows;
    /// the ragged tail is gathered. The codes and the per-lane error
    /// sums are computed in two 4-lane `f64` halves with the scalar
    /// tier's operations in its order (separate multiply and add, no
    /// FMA), so codes and sums are bit-identical to it.
    ///
    /// # Safety
    /// Requires AVX2 support, `n >= 1`, `rows.len() == n * mins.len()`,
    /// `1 <= mins.len() <= QUANT_MAX_POSITIONS` (gather offsets fit
    /// `i32`), `codes.len() == n_groups * mins.len() * 8` and
    /// `err_sq.len() == n_groups * 8`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn quant_encode(
        rows: &[f32],
        n: usize,
        mins: &[f32],
        scale: f32,
        codes: &mut [u8],
        err_sq: &mut [f64],
    ) {
        let len = mins.len();
        let vscale = _mm256_set1_pd(f64::from(scale));
        let vinv = _mm256_set1_pd(1.0 / f64::from(scale));
        let half = _mm256_set1_pd(0.5);
        let zero = _mm256_setzero_pd();
        let top = _mm256_set1_pd(255.9);
        for g in 0..n.div_ceil(8) {
            let first = g * 8;
            // Row offsets (in values) from the group's first row; pad
            // lanes of the last group mirror the last row.
            let offs: [usize; 8] =
                core::array::from_fn(|lane| ((first + lane).min(n - 1) - first) * len);
            let base = rows.as_ptr().add(first * len);
            let out = codes.as_mut_ptr().add(g * len * 8);
            let (mut acc_lo, mut acc_hi) = (zero, zero);
            // Position `j` of the 8 rows, as 8 `f32` lanes.
            let mut encode = |j: usize, x: __m256| {
                let x_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(x));
                let x_hi = _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(x));
                let min = _mm256_set1_pd(f64::from(mins[j]));
                // clamp((x - min)·inv + 0.5, 0, 255.9), truncated. `max`
                // returns its second operand when the first is NaN, so a
                // NaN value gets code 0, as the scalar `as u8` cast gives.
                let code = |x: __m256d| {
                    let t = _mm256_add_pd(_mm256_mul_pd(_mm256_sub_pd(x, min), vinv), half);
                    let t = _mm256_min_pd(_mm256_max_pd(t, zero), top);
                    _mm256_round_pd::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(t)
                };
                let (c_lo, c_hi) = (code(x_lo), code(x_hi));
                // The error is measured against the stored code, so a NaN
                // value keeps a NaN error.
                let d_lo = _mm256_sub_pd(x_lo, _mm256_add_pd(min, _mm256_mul_pd(c_lo, vscale)));
                let d_hi = _mm256_sub_pd(x_hi, _mm256_add_pd(min, _mm256_mul_pd(c_hi, vscale)));
                acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(d_lo, d_lo));
                acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(d_hi, d_hi));
                // Codes are integers in [0, 255]: narrow i32 → i16 → u8
                // without saturating, and store the 8 lanes as one run.
                let words = _mm_packs_epi32(_mm256_cvttpd_epi32(c_lo), _mm256_cvttpd_epi32(c_hi));
                _mm_storel_epi64(out.add(j * 8).cast(), _mm_packus_epi16(words, words));
            };
            let mut j = 0;
            while j + 8 <= len {
                let block: [__m256; 8] =
                    core::array::from_fn(|lane| _mm256_loadu_ps(base.add(offs[lane] + j)));
                for (k, x) in transpose8(block).into_iter().enumerate() {
                    encode(j + k, x);
                }
                j += 8;
            }
            if j < len {
                let vidx = _mm256_setr_epi32(
                    offs[0] as i32,
                    offs[1] as i32,
                    offs[2] as i32,
                    offs[3] as i32,
                    offs[4] as i32,
                    offs[5] as i32,
                    offs[6] as i32,
                    offs[7] as i32,
                );
                while j < len {
                    encode(j, _mm256_i32gather_ps::<4>(base.add(j), vidx));
                    j += 1;
                }
            }
            _mm256_storeu_pd(err_sq.as_mut_ptr().add(first), acc_lo);
            _mm256_storeu_pd(err_sq.as_mut_ptr().add(first + 4), acc_hi);
        }
    }
}
