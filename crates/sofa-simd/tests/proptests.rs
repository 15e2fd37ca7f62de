//! Property tests of the SIMD kernels: every tier (scalar reference,
//! portable 8-lane, and whatever the dispatcher selects — AVX2 on capable
//! x86-64) must agree on arbitrary inputs, including ragged lengths
//! (1..=257), denormal values, and arbitrary early-abandon points.
//!
//! Two strengths of agreement are asserted:
//!
//! * the **dispatched** kernels match the **portable** tier **bit for
//!   bit** for `euclidean_sq` / `euclidean_sq_early_abandon`, and all
//!   three tiers match bit for bit for the block lower bound (those
//!   kernels are written with identical operation order precisely so
//!   query answers cannot depend on the tier);
//! * the scalar reference (different summation order) matches within a
//!   relative tolerance.
//!
//! The quant encoder is held to the first standard: the dispatched tier's
//! codes and error sums are bit-identical to the scalar reference's, NaN
//! and ±Inf included.

use proptest::prelude::*;
use sofa_simd::{
    active_tier, block_lower_bound, block_lower_bound_portable, block_lower_bound_scalar,
    euclidean_sq, euclidean_sq_early_abandon, euclidean_sq_early_abandon_portable,
    euclidean_sq_early_abandon_scalar, euclidean_sq_portable, euclidean_sq_scalar, quant_encode,
    quant_encode_scalar, znormalize, F32x8, KernelTier, Mask8, BLOCK_LANES, BOUNDS_STRIDE,
    QUANT_MAX_POSITIONS,
};

fn pair_strategy() -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
    (1usize..=257).prop_flat_map(|n| {
        (proptest::collection::vec(-50.0f32..50.0, n), proptest::collection::vec(-50.0f32..50.0, n))
    })
}

/// Pairs whose differences are denormal-scale: exercises gradual
/// underflow in every tier.
fn denormal_pair_strategy() -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
    (1usize..=64).prop_flat_map(|n| {
        (
            proptest::collection::vec(-1.0e-40f32..1.0e-40, n),
            proptest::collection::vec(-1.0e-40f32..1.0e-40, n),
        )
    })
}

/// A block-kernel input: l positions, 8 candidates with valid intervals
/// (lo <= hi), query values and positive weights.
#[allow(clippy::type_complexity)]
fn block_strategy() -> impl Strategy<Value = (Vec<f32>, Vec<f32>, Vec<f32>)> {
    (1usize..=33).prop_flat_map(|l| {
        (
            proptest::collection::vec(-10.0f32..10.0, l),
            proptest::collection::vec(0.5f32..4.0, l),
            // Interval midpoints and half-widths per (position, lane).
            proptest::collection::vec((-10.0f32..10.0, 0.0f32..3.0), l * BLOCK_LANES),
        )
            .prop_map(|(values, weights, intervals)| {
                let l = values.len();
                let mut bounds = Vec::with_capacity(l * BOUNDS_STRIDE);
                for j in 0..l {
                    for lane in 0..BLOCK_LANES {
                        let (mid, half) = intervals[j * BLOCK_LANES + lane];
                        bounds.push(mid - half);
                    }
                    for lane in 0..BLOCK_LANES {
                        let (mid, half) = intervals[j * BLOCK_LANES + lane];
                        bounds.push(mid + half);
                    }
                }
                (values, weights, bounds)
            })
    })
}

/// A quant-encode input: 1–17 rows (so the last group has pad lanes) of
/// a length from 1 to `QUANT_MAX_POSITIONS` (mostly short; one case in
/// eight near the maximum), per-position minima and a positive scale.
/// Values mix in-grid ones with ones far outside the grid, ±Inf and NaN.
#[allow(clippy::type_complexity)]
fn encode_strategy() -> impl Strategy<Value = (Vec<f32>, Vec<f32>, f32)> {
    (1usize..=17, 0u8..8, 1usize..=300, 0usize..64, 0.001f32..0.05).prop_flat_map(
        |(rows, pick, short, near_max, scale)| {
            let len = if pick == 0 { QUANT_MAX_POSITIONS - near_max } else { short };
            (
                proptest::collection::vec((0u8..32, -1.0f32..1.0), rows * len),
                proptest::collection::vec(-3.0f32..-1.0, len),
                Just(scale),
            )
                .prop_map(|(values, mins, scale)| {
                    let rows = values
                        .into_iter()
                        .map(|(kind, x)| match kind {
                            0 => f32::NAN,
                            1 => f32::INFINITY,
                            2 => f32::NEG_INFINITY,
                            3..=5 => x * 1e4,
                            _ => x * 3.0,
                        })
                        .collect();
                    (rows, mins, scale)
                })
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn simd_distance_matches_scalar((a, b) in pair_strategy()) {
        let s = euclidean_sq_scalar(&a, &b);
        let v = euclidean_sq(&a, &b);
        prop_assert!((s - v).abs() <= 1e-3 * s.max(1.0), "scalar={s} simd={v}");
    }

    #[test]
    fn dispatched_distance_matches_portable_bitwise((a, b) in pair_strategy()) {
        // On the scalar tier the dispatched kernel IS the scalar one; on
        // every other tier it must reproduce the portable bits exactly.
        if active_tier() != KernelTier::Scalar {
            prop_assert_eq!(
                euclidean_sq(&a, &b).to_bits(),
                euclidean_sq_portable(&a, &b).to_bits()
            );
        } else {
            prop_assert_eq!(
                euclidean_sq(&a, &b).to_bits(),
                euclidean_sq_scalar(&a, &b).to_bits()
            );
        }
    }

    #[test]
    fn dispatched_early_abandon_matches_portable_bitwise(
        (a, b) in pair_strategy(),
        frac in 0.0f32..2.0,
    ) {
        let exact = euclidean_sq_scalar(&a, &b);
        for bsf in [f32::INFINITY, exact * frac, 0.0] {
            if active_tier() != KernelTier::Scalar {
                prop_assert_eq!(
                    euclidean_sq_early_abandon(&a, &b, bsf).to_bits(),
                    euclidean_sq_early_abandon_portable(&a, &b, bsf).to_bits(),
                    "bsf={}", bsf
                );
            } else {
                prop_assert_eq!(
                    euclidean_sq_early_abandon(&a, &b, bsf).to_bits(),
                    euclidean_sq_early_abandon_scalar(&a, &b, bsf).to_bits(),
                    "bsf={}", bsf
                );
            }
        }
    }

    #[test]
    fn tiers_agree_on_denormals((a, b) in denormal_pair_strategy()) {
        // Denormal inputs must not diverge the tiers (flush-to-zero would).
        if active_tier() != KernelTier::Scalar {
            prop_assert_eq!(
                euclidean_sq(&a, &b).to_bits(),
                euclidean_sq_portable(&a, &b).to_bits()
            );
        }
        let s = euclidean_sq_scalar(&a, &b);
        let v = euclidean_sq(&a, &b);
        prop_assert!((s - v).abs() <= 1e-3 * s.max(1e-30), "scalar={s} simd={v}");
    }

    #[test]
    fn early_abandon_exact_under_infinite_bound((a, b) in pair_strategy()) {
        let s = euclidean_sq_scalar(&a, &b);
        let v = euclidean_sq_early_abandon(&a, &b, f32::INFINITY);
        prop_assert!((s - v).abs() <= 1e-3 * s.max(1.0));
    }

    /// The early-abandon contract: a return value <= bsf is the exact
    /// distance; a value > bsf means "pruned" and the exact distance is
    /// also > bsf (no false prunes).
    #[test]
    fn early_abandon_contract((a, b) in pair_strategy(), frac in 0.0f32..2.0) {
        let exact = euclidean_sq_scalar(&a, &b);
        let bsf = exact * frac;
        let r = euclidean_sq_early_abandon(&a, &b, bsf);
        if r <= bsf {
            prop_assert!((r - exact).abs() <= 1e-3 * exact.max(1.0));
        } else {
            prop_assert!(exact > bsf - 1e-3 * exact.max(1.0), "false prune: exact={exact} bsf={bsf}");
        }
    }

    #[test]
    fn block_tiers_agree_bitwise(
        (values, weights, bounds) in block_strategy(),
        frac in 0.0f32..2.0,
    ) {
        let mut reference = [0.0f32; BLOCK_LANES];
        block_lower_bound_scalar(
            &values, &weights, &bounds, f32::INFINITY, &mut reference,
        );
        let max_lb = reference.iter().fold(0.0f32, |m, &x| m.max(x));
        for bsf in [f32::INFINITY, max_lb * frac, 0.0] {
            let mut scalar = [0.0f32; BLOCK_LANES];
            let mut portable = [0.0f32; BLOCK_LANES];
            let mut dispatched = [0.0f32; BLOCK_LANES];
            let a1 = block_lower_bound_scalar(&values, &weights, &bounds, bsf, &mut scalar);
            let a2 = block_lower_bound_portable(&values, &weights, &bounds, bsf, &mut portable);
            let a3 = block_lower_bound(&values, &weights, &bounds, bsf, &mut dispatched);
            prop_assert_eq!(a1, a2, "abandon decision (portable) at bsf={}", bsf);
            prop_assert_eq!(a1, a3, "abandon decision (dispatched) at bsf={}", bsf);
            for i in 0..BLOCK_LANES {
                prop_assert_eq!(scalar[i].to_bits(), portable[i].to_bits(), "lane {}", i);
                prop_assert_eq!(scalar[i].to_bits(), dispatched[i].to_bits(), "lane {}", i);
            }
        }
    }

    /// The block kernel's abandon signal is conservative: whenever it
    /// reports `true`, every lane's full lower bound really exceeds bsf.
    #[test]
    fn block_abandon_is_sound(
        (values, weights, bounds) in block_strategy(),
        frac in 0.0f32..1.5,
    ) {
        let mut full = [0.0f32; BLOCK_LANES];
        block_lower_bound(&values, &weights, &bounds, f32::INFINITY, &mut full);
        let min_full = full.iter().fold(f32::INFINITY, |m, &x| m.min(x));
        let bsf = min_full * frac;
        let mut out = [0.0f32; BLOCK_LANES];
        if block_lower_bound(&values, &weights, &bounds, bsf, &mut out) {
            // Partial sums only grow, so sums > bsf at abandon time imply
            // full sums > bsf.
            prop_assert!(out.iter().all(|&s| s > bsf));
            prop_assert!(min_full > bsf - 1e-3 * min_full.abs().max(1.0));
        }
    }

    #[test]
    fn znorm_idempotent(series in proptest::collection::vec(-100.0f32..100.0, 2..200)) {
        let mut once = series.clone();
        znormalize(&mut once);
        let mut twice = once.clone();
        znormalize(&mut twice);
        for (x, y) in once.iter().zip(twice.iter()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn select_blend_is_lanewise(
        a in proptest::collection::vec(-10.0f32..10.0, 8),
        b in proptest::collection::vec(-10.0f32..10.0, 8),
        mask in proptest::collection::vec(proptest::bool::ANY, 8),
    ) {
        let va = F32x8::from_slice(&a);
        let vb = F32x8::from_slice(&b);
        let mut m = [false; 8];
        m.copy_from_slice(&mask);
        let r = F32x8::select(Mask8::from_bools(m), va, vb).to_array();
        for i in 0..8 {
            prop_assert_eq!(r[i], if mask[i] { a[i] } else { b[i] });
        }
    }

    #[test]
    fn horizontal_sum_matches_iter(vals in proptest::collection::vec(-100.0f32..100.0, 8)) {
        let v = F32x8::from_slice(&vals);
        let expect: f32 = vals.iter().sum();
        prop_assert!((v.horizontal_sum() - expect).abs() < 1e-2 * expect.abs().max(1.0));
    }

    /// The scalar reference and the dispatched encode (AVX2 on capable
    /// x86-64; the scalar loop on the portable tier) write the same codes
    /// and the same error-sum bits.
    #[test]
    #[allow(clippy::type_complexity)]
    fn quant_encode_tiers_agree_bitwise((rows, mins, scale) in encode_strategy()) {
        let groups = (rows.len() / mins.len()).div_ceil(BLOCK_LANES);
        let run = |f: fn(&[f32], &[f32], f32, &mut [u8], &mut [f64])| {
            let mut codes = vec![0x5Au8; groups * mins.len() * BLOCK_LANES];
            let mut sums = vec![-1.0f64; groups * BLOCK_LANES];
            f(&rows, &mins, scale, &mut codes, &mut sums);
            (codes, sums.iter().map(|e| e.to_bits()).collect::<Vec<_>>())
        };
        prop_assert!(run(quant_encode_scalar) == run(quant_encode), "dispatched tier diverged");
    }
}
