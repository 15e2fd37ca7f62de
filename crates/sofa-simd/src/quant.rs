//! The 8-candidates-at-a-time *quantized* lower-bound kernel.
//!
//! [`crate::block_lower_bound`] prices candidates from their symbolic
//! summaries; survivors historically paid a full `f32` scan (4 bytes per
//! value) right away. This kernel powers the compressed middle tier in
//! between: candidates are stored as affine-quantized `u8` codes (1 byte
//! per value, quantization owned by the caller), and the kernel
//! accumulates the **integer** squared code distance
//! `S[lane] = Σ_j (qcode[j] - code[j][lane])²` for 8 candidates per call.
//! The caller turns `S` into a valid lower bound on the true `f32`
//! distance with one floating-point fixup per lane (scale + reconstruction
//! error terms — see `sofa-summaries`' quant block); this module only owns
//! the bandwidth-bound integer sweep.
//!
//! ## Layout contract
//!
//! For a group of 8 candidates and `p` positions, `codes` holds `p * 8`
//! bytes: position `j` occupies `codes[j*8 .. j*8+8]` (lane = candidate) —
//! the same position-major SoA shape as the word-block bounds, at 1/16th
//! the bytes per (position, lane). `qcodes` holds the query's `p` codes
//! under the same quantizer.
//!
//! ## Early abandoning
//!
//! `thr` carries one precomputed integer threshold per lane: the smallest
//! code-distance sum at which the lane's fixed-up lower bound is known to
//! meet the caller's best-so-far (the caller inverts its fixup once per
//! group; `i32::MAX` disables abandoning for a lane). Every 16 positions
//! the 8 running sums are compared against `thr`; once every lane exceeds
//! its threshold the group is abandoned (`true` is returned and `out`
//! holds partial sums, each `> thr`). Partial sums are monotonically
//! non-decreasing, so abandoning on a partial sum is sound.
//!
//! All three tiers perform pure integer arithmetic, which is exact in any
//! evaluation order — the tiers are bit-identical **by construction**, not
//! merely by matching operation order as the `f32` kernels must.
//!
//! ## Encoding
//!
//! [`quant_encode`] is the write side: it turns rows of `f32` values into
//! those codes, in groups of 8 rows stored position-major (each
//! position's 8 codes one 8-byte run).
//! A code is `clamp(round((x - min_j) / Δ), 0, 255)` computed in `f64`
//! (half up, via truncation of `+ 0.5`); NaN stores code 0, ±Inf clamp to
//! the extreme codes. Alongside the codes it returns each lane's squared
//! reconstruction error `Σ_j (x_j - (min_j + c_j·Δ))²`, accumulated in
//! position order per lane with separate multiply and add (no FMA) — so
//! the codes and sums of every tier are bit-identical. Pad lanes of the
//! last group mirror the last row. The encoder has two tiers: the scalar
//! reference, which the scalar and portable dispatch tiers both run, and
//! the AVX2 kernel.

use crate::dispatch::{active_tier, KernelTier};
use crate::vector::LANES;

/// Maximum positions per quantized sweep: `32768 * 255²` still fits `i32`,
/// one more position could overflow the lane accumulators.
pub const QUANT_MAX_POSITIONS: usize = 32_768;

fn check_quant_layout(qcodes: &[u8], codes: &[u8]) {
    assert!(
        qcodes.len() <= QUANT_MAX_POSITIONS,
        "quantized sweep over {} positions could overflow i32 accumulators",
        qcodes.len()
    );
    assert_eq!(codes.len(), qcodes.len() * LANES, "codes must hold 8 lanes per query position");
}

/// Reference scalar tier of the quantized lower-bound sweep. Integer
/// arithmetic is exact, so every tier returns identical sums.
pub fn quant_lower_bound_scalar(
    qcodes: &[u8],
    codes: &[u8],
    thr: &[i32; LANES],
    out: &mut [i32; LANES],
) -> bool {
    check_quant_layout(qcodes, codes);
    *out = [0i32; LANES];
    for (j, &qc) in qcodes.iter().enumerate() {
        let q = i32::from(qc);
        let pos = &codes[j * LANES..(j + 1) * LANES];
        for lane in 0..LANES {
            let d = q - i32::from(pos[lane]);
            out[lane] += d * d;
        }
        if j % 16 == 15 && out.iter().zip(thr.iter()).all(|(&s, &t)| s > t) {
            return true;
        }
    }
    out.iter().zip(thr.iter()).all(|(&s, &t)| s > t)
}

/// Portable tier: the same integer sweep with the 8-lane inner loop kept
/// free of cross-lane dependencies so it auto-vectorizes. Bit-identical to
/// the scalar tier (integer arithmetic is order-independent).
pub fn quant_lower_bound_portable(
    qcodes: &[u8],
    codes: &[u8],
    thr: &[i32; LANES],
    out: &mut [i32; LANES],
) -> bool {
    check_quant_layout(qcodes, codes);
    let mut acc = [0i32; LANES];
    for (j, &qc) in qcodes.iter().enumerate() {
        let q = i32::from(qc);
        let pos = &codes[j * LANES..(j + 1) * LANES];
        let mut d = [0i32; LANES];
        for lane in 0..LANES {
            d[lane] = q - i32::from(pos[lane]);
        }
        for lane in 0..LANES {
            acc[lane] += d[lane] * d[lane];
        }
        if j % 16 == 15 && acc.iter().zip(thr.iter()).all(|(&s, &t)| s > t) {
            *out = acc;
            return true;
        }
    }
    *out = acc;
    acc.iter().zip(thr.iter()).all(|(&s, &t)| s > t)
}

/// Integer squared code distances between one quantized query and 8
/// quantized candidates in a single sweep, dispatched to the fastest
/// available tier ([`crate::dispatch::active_tier`]).
///
/// Writes each lane's sum `Σ_j (qcode[j] - code[j][lane])²` (or a partial
/// sum `> thr[lane]` when the group was abandoned) into `out`; returns
/// `true` when every lane exceeds its threshold (whole group pruned). See
/// the module docs for the `codes` layout and threshold semantics.
///
/// # Panics
/// Panics if the slice lengths violate the layout contract or the
/// position count exceeds [`QUANT_MAX_POSITIONS`].
#[inline]
pub fn quant_lower_bound(
    qcodes: &[u8],
    codes: &[u8],
    thr: &[i32; LANES],
    out: &mut [i32; LANES],
) -> bool {
    match active_tier() {
        KernelTier::Scalar => quant_lower_bound_scalar(qcodes, codes, thr, out),
        KernelTier::Portable => quant_lower_bound_portable(qcodes, codes, thr, out),
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => {
            check_quant_layout(qcodes, codes);
            crate::arch::x86::quant_lower_bound_checked(qcodes, codes, thr, out)
        }
        #[cfg(not(target_arch = "x86_64"))]
        KernelTier::Avx2 => quant_lower_bound_portable(qcodes, codes, thr, out),
    }
}

/// [`quant_lower_bound`] with a per-lane predicate bitmap (the filtered
/// query path): bit `i` of `live` set means lane `i` participates.
///
/// Implemented as a threshold override: a dead lane's threshold becomes
/// `-1`, so its (always non-negative) integer sum exceeds it from position
/// zero — the lane auto-satisfies every abandon checkpoint and the
/// caller's `sum > thr` rejection alike. Because the sweep itself is
/// untouched, live lanes are bit-identical to the unmasked kernel on
/// every tier *by construction*, and a group whose survivors are all
/// pruned abandons earlier than the unmasked sweep would.
///
/// # Panics
/// Panics if the slice lengths violate the layout contract or the
/// position count exceeds [`QUANT_MAX_POSITIONS`].
#[inline]
pub fn quant_lower_bound_masked(
    qcodes: &[u8],
    codes: &[u8],
    thr: &[i32; LANES],
    live: u8,
    out: &mut [i32; LANES],
) -> bool {
    let mut t = *thr;
    for (lane, tl) in t.iter_mut().enumerate() {
        if live & (1 << lane) == 0 {
            *tl = -1;
        }
    }
    quant_lower_bound(qcodes, codes, &t, out)
}

/// Checks the [`quant_encode`] layout and returns the row count.
fn check_encode_layout(rows: &[f32], mins: &[f32], codes: &[u8], err_sq: &[f64]) -> usize {
    let len = mins.len();
    assert!(
        (1..=QUANT_MAX_POSITIONS).contains(&len),
        "quant encode over {len} positions (1..={QUANT_MAX_POSITIONS} supported)"
    );
    assert!(!rows.is_empty() && rows.len() % len == 0, "rows must be a whole number of series");
    let n = rows.len() / len;
    let groups = n.div_ceil(LANES);
    assert_eq!(codes.len(), groups * len * LANES, "codes must hold 8 lanes per position per group");
    assert_eq!(err_sq.len(), groups * LANES, "err_sq must hold one sum per lane");
    n
}

/// The storage row behind lane `lane` of group `g`: pad lanes of the last
/// group mirror the last row.
#[inline]
fn lane_row(g: usize, lane: usize, n: usize) -> usize {
    (g * LANES + lane).min(n - 1)
}

/// Reference scalar tier of [`quant_encode`]: one row at a time.
///
/// # Panics
/// As [`quant_encode`].
pub fn quant_encode_scalar(
    rows: &[f32],
    mins: &[f32],
    scale: f32,
    codes: &mut [u8],
    err_sq: &mut [f64],
) {
    let n = check_encode_layout(rows, mins, codes, err_sq);
    let len = mins.len();
    let scale = f64::from(scale);
    let inv = 1.0 / scale;
    for g in 0..n.div_ceil(LANES) {
        let base = g * len * LANES;
        for lane in 0..LANES {
            let r = lane_row(g, lane, n);
            let mut sum = 0.0f64;
            for (j, (&x, &min)) in rows[r * len..(r + 1) * len].iter().zip(mins).enumerate() {
                let (x, min) = (f64::from(x), f64::from(min));
                // The `as u8` cast truncates the clamped operand (round
                // half up) and sends NaN to code 0.
                let c = ((x - min) * inv + 0.5).clamp(0.0, 255.9) as u8;
                codes[base + j * LANES + lane] = c;
                let d = x - (min + f64::from(c) * scale);
                sum += d * d;
            }
            err_sq[g * LANES + lane] = sum;
        }
    }
}

/// Encodes `rows.len() / mins.len()` row-major rows under the affine
/// quantizer (`mins`, one shared `scale`), dispatched to the fastest
/// available tier ([`crate::dispatch::active_tier`]); see the module
/// docs for the arithmetic.
///
/// `codes` receives `n_groups * len * 8` bytes, group-major then
/// position-major (the layout [`quant_lower_bound`] reads), and `err_sq`
/// one squared reconstruction error per lane (`n_groups * 8` entries).
/// Every entry of both is written; pad lanes mirror the last row.
///
/// # Panics
/// Panics if `mins` is empty or longer than [`QUANT_MAX_POSITIONS`],
/// `rows` is empty or not a whole number of rows, or `codes`/`err_sq`
/// are not exactly the sizes above.
#[inline]
pub fn quant_encode(rows: &[f32], mins: &[f32], scale: f32, codes: &mut [u8], err_sq: &mut [f64]) {
    match active_tier() {
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => {
            let n = check_encode_layout(rows, mins, codes, err_sq);
            crate::arch::x86::quant_encode_checked(rows, n, mins, scale, codes, err_sq);
        }
        _ => quant_encode_scalar(rows, mins, scale, codes, err_sq),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NEVER: [i32; LANES] = [i32::MAX; LANES];

    /// Position-major codes for 8 candidates: `lanes[j][lane]`.
    fn codes_of(lanes: &[[u8; LANES]]) -> Vec<u8> {
        lanes.iter().flatten().copied().collect()
    }

    fn reference_sums(qcodes: &[u8], lanes: &[[u8; LANES]]) -> [i64; LANES] {
        let mut s = [0i64; LANES];
        for (j, &qc) in qcodes.iter().enumerate() {
            for lane in 0..LANES {
                let d = i64::from(qc) - i64::from(lanes[j][lane]);
                s[lane] += d * d;
            }
        }
        s
    }

    #[test]
    fn zero_distance_for_identical_codes() {
        let p = 20;
        let lanes: Vec<[u8; LANES]> = (0..p).map(|j| [(j * 7 % 251) as u8; LANES]).collect();
        let qcodes: Vec<u8> = (0..p).map(|j| (j * 7 % 251) as u8).collect();
        let mut out = [-1i32; LANES];
        let abandoned = quant_lower_bound(&qcodes, &codes_of(&lanes), &NEVER, &mut out);
        assert!(!abandoned);
        assert_eq!(out, [0; LANES]);
    }

    #[test]
    fn sums_match_wide_reference() {
        // Extreme codes at a ragged length: the maximal per-position
        // contribution (255²) across a non-multiple-of-16 sweep.
        let p = 37;
        let lanes: Vec<[u8; LANES]> = (0..p)
            .map(|j| {
                let mut row = [0u8; LANES];
                for (i, r) in row.iter_mut().enumerate() {
                    *r = ((j * 31 + i * 97) % 256) as u8;
                }
                row
            })
            .collect();
        let qcodes: Vec<u8> = (0..p).map(|j| if j % 2 == 0 { 255 } else { 0 }).collect();
        let mut out = [0i32; LANES];
        let abandoned = quant_lower_bound(&qcodes, &codes_of(&lanes), &NEVER, &mut out);
        assert!(!abandoned);
        let expect = reference_sums(&qcodes, &lanes);
        for lane in 0..LANES {
            assert_eq!(i64::from(out[lane]), expect[lane], "lane {lane}");
        }
    }

    #[test]
    fn tiers_agree_exactly() {
        for p in [1usize, 7, 16, 17, 48, 129] {
            let lanes: Vec<[u8; LANES]> = (0..p)
                .map(|j| {
                    let mut row = [0u8; LANES];
                    for (i, r) in row.iter_mut().enumerate() {
                        *r = ((j * 13 + i * 5 + 11) % 256) as u8;
                    }
                    row
                })
                .collect();
            let codes = codes_of(&lanes);
            let qcodes: Vec<u8> = (0..p).map(|j| ((j * 29 + 3) % 256) as u8).collect();
            for thr_val in [i32::MAX, 500_000, 1_000, 0] {
                let thr = [thr_val; LANES];
                let mut scalar = [0i32; LANES];
                let mut portable = [0i32; LANES];
                let mut dispatched = [0i32; LANES];
                let a1 = quant_lower_bound_scalar(&qcodes, &codes, &thr, &mut scalar);
                let a2 = quant_lower_bound_portable(&qcodes, &codes, &thr, &mut portable);
                let a3 = quant_lower_bound(&qcodes, &codes, &thr, &mut dispatched);
                assert_eq!(a1, a2, "p={p} thr={thr_val}: abandon decision diverged");
                assert_eq!(a1, a3, "p={p} thr={thr_val}: dispatched abandon diverged");
                assert_eq!(scalar, portable, "p={p} thr={thr_val}");
                assert_eq!(scalar, dispatched, "p={p} thr={thr_val}");
            }
        }
    }

    #[test]
    fn abandons_only_when_every_lane_exceeds_its_threshold() {
        let p = 32;
        // Lane 0 stays at distance 0; the rest are far away.
        let lanes: Vec<[u8; LANES]> = (0..p)
            .map(|_| {
                let mut row = [255u8; LANES];
                row[0] = 0;
                row
            })
            .collect();
        let qcodes = vec![0u8; p];
        let codes = codes_of(&lanes);
        let mut out = [0i32; LANES];
        // Per-lane thresholds: lane 0's can never be met.
        let mut thr = [0i32; LANES];
        thr[0] = i32::MAX;
        assert!(!quant_lower_bound(&qcodes, &codes, &thr, &mut out));
        assert_eq!(out[0], 0);
        // Once lane 0's threshold is meetable, the group abandons at the
        // first checkpoint with partial sums.
        thr[0] = -1;
        let abandoned = quant_lower_bound(&qcodes, &codes, &thr, &mut out);
        assert!(abandoned);
        for lane in 0..LANES {
            assert!(out[lane] > thr[lane], "lane {lane}: {} <= {}", out[lane], thr[lane]);
        }
    }

    #[test]
    fn masked_live_lanes_match_unmasked_all_256_masks() {
        let p = 33;
        let lanes: Vec<[u8; LANES]> = (0..p)
            .map(|j| {
                let mut row = [0u8; LANES];
                for (i, r) in row.iter_mut().enumerate() {
                    *r = ((j * 17 + i * 41 + 7) % 256) as u8;
                }
                row
            })
            .collect();
        let codes = codes_of(&lanes);
        let qcodes: Vec<u8> = (0..p).map(|j| ((j * 53 + 19) % 256) as u8).collect();
        let mut full = [0i32; LANES];
        assert!(!quant_lower_bound(&qcodes, &codes, &NEVER, &mut full));
        for thr_val in [i32::MAX, 400_000, 0] {
            let thr = [thr_val; LANES];
            for live in 0u16..=255 {
                let live = live as u8;
                let mut out = [0i32; LANES];
                let abandoned = quant_lower_bound_masked(&qcodes, &codes, &thr, live, &mut out);
                if !abandoned {
                    for lane in 0..LANES {
                        if live & (1 << lane) != 0 {
                            assert_eq!(out[lane], full[lane], "live lane {lane}");
                        }
                    }
                }
                // A fully-dead group must abandon at the first checkpoint.
                if live == 0 {
                    assert!(abandoned, "all-dead group must abandon (thr={thr_val})");
                }
                // Abandoning requires every live lane past its threshold.
                if abandoned && thr_val == i32::MAX {
                    assert_eq!(live, 0, "thr=MAX can only abandon all-dead groups");
                }
            }
        }
    }

    #[test]
    fn masked_full_mask_matches_unmasked() {
        let p = 19;
        let lanes: Vec<[u8; LANES]> = (0..p)
            .map(|j| {
                let mut row = [0u8; LANES];
                for (i, r) in row.iter_mut().enumerate() {
                    *r = ((j * 13 + i * 5 + 11) % 256) as u8;
                }
                row
            })
            .collect();
        let codes = codes_of(&lanes);
        let qcodes: Vec<u8> = (0..p).map(|j| ((j * 29 + 3) % 256) as u8).collect();
        for thr_val in [i32::MAX, 1_000, 0] {
            let thr = [thr_val; LANES];
            let mut plain = [0i32; LANES];
            let mut masked = [0i32; LANES];
            let a = quant_lower_bound(&qcodes, &codes, &thr, &mut plain);
            let b = quant_lower_bound_masked(&qcodes, &codes, &thr, 0xFF, &mut masked);
            assert_eq!(a, b, "thr={thr_val}");
            assert_eq!(plain, masked, "thr={thr_val}");
        }
    }

    type Tier = fn(&[f32], &[f32], f32, &mut [u8], &mut [f64]);

    /// Encodes with every tier, asserting bit-identical codes and sums.
    fn encode_all_tiers(rows: &[f32], mins: &[f32], scale: f32) -> (Vec<u8>, Vec<f64>) {
        let groups = (rows.len() / mins.len()).div_ceil(LANES);
        let run = |f: Tier| {
            let mut codes = vec![0xAAu8; groups * mins.len() * LANES];
            let mut sums = vec![-1.0f64; groups * LANES];
            f(rows, mins, scale, &mut codes, &mut sums);
            (codes, sums.iter().map(|s| s.to_bits()).collect::<Vec<_>>())
        };
        let scalar = run(quant_encode_scalar);
        assert_eq!(scalar, run(quant_encode), "dispatched tier diverged");
        (scalar.0, scalar.1.into_iter().map(f64::from_bits).collect())
    }

    #[test]
    fn encode_tiers_agree_and_pad_lanes_mirror_the_last_row() {
        for (n, len) in [(1usize, 1usize), (3, 5), (8, 16), (9, 7), (17, 33)] {
            let rows: Vec<f32> =
                (0..n * len).map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.071).collect();
            let mins: Vec<f32> = (0..len).map(|j| -2.0 + j as f32 * 0.01).collect();
            let (codes, sums) = encode_all_tiers(&rows, &mins, 0.02);
            let last = (n - 1) % LANES;
            let g = (n - 1) / LANES;
            for lane in last + 1..LANES {
                assert_eq!(sums[g * LANES + lane].to_bits(), sums[g * LANES + last].to_bits());
                for j in 0..len {
                    let at = |l: usize| codes[g * len * LANES + j * LANES + l];
                    assert_eq!(at(lane), at(last), "n={n} pad lane {lane} position {j}");
                }
            }
        }
    }

    #[test]
    fn encode_clamps_infinities_and_zeroes_nan() {
        let rows = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e30, -1e30, 0.5];
        let (codes, sums) = encode_all_tiers(&rows, &[0.0], 0.01);
        let lane_codes = &codes[..rows.len()];
        assert_eq!(lane_codes, &[0, 255, 0, 255, 0, 50]);
        assert!(sums[0].is_nan(), "a NaN value keeps a NaN error");
        assert_eq!(sums[1], f64::INFINITY);
        assert_eq!(sums[2], f64::INFINITY);
        assert!(sums[5] < 1e-6);
    }

    #[test]
    #[should_panic(expected = "8 lanes per query position")]
    fn rejects_mismatched_layout() {
        let mut out = [0i32; LANES];
        let _ = quant_lower_bound(&[0u8; 4], &[0u8; 4 * LANES - 1], &NEVER, &mut out);
    }
}
