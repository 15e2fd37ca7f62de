//! Extension experiment: deep-tree serving (`ext-deep`).
//!
//! The scaled-down registry profiles build *flat forests* — thousands of
//! single-leaf subtrees priced by the `RootLbd` XOR gate alone — so the
//! collect sweep's hierarchy never engages there (the PR-4 bench note).
//! This experiment turns the new root-key concentration knob up instead:
//! nearly every series belongs to one hierarchically clustered prototype
//! family sharing a root key, so the index grows **deep subtrees with
//! separable sub-branches** (the MESSI-on-seismic regime). The query
//! stream is *known-item serving* — near-duplicates of indexed series
//! (dedup lookups, re-identification), the workload where the best-so-far
//! collapses immediately and pricing the collect fringe becomes the
//! dominant query cost. The same stream is answered on two builds of the
//! same data — hierarchy-aware level blocks (the default) versus the
//! PR-4 leaf-only collect sweep (`collect_levels(0)`) — so the win of a
//! near-root prune retiring whole leaf ranges is measured directly, A/B,
//! in one binary.
//!
//! Measurement protocol: the two arms are rebuilt fresh in alternating
//! order (ABBA) so allocator/page locality cannot favor either side, each
//! pass visits the queries at a rotated offset so scheduler throttling
//! decorrelates from query identity, and the per-query minimum across all
//! passes is reported — the standard noise-floor estimate on shared
//! hardware.
//!
//! The experiment also exercises the online half of deep-tree serving:
//! an insert burst through the append-only delta, reporting the delta
//! rows left over, the fold count and the time per fold (each fold
//! regrows and repacks the whole forest). Exactness versus the flat
//! brute force is asserted with the delta beside the tree and after the
//! final fold; the `deep_exactness_deviations` metrics must stay 0.

use super::Suite;
use crate::report::{f1, f2, f3, Report};
use sofa::baselines::FlatL2;
use sofa::data::{Dataset, FamilyShape};
use sofa::stats::percentile;
use sofa::{MessiIndex, SofaIndex};

/// Relative tolerance for distance agreement with the flat baseline
/// (different kernels sum in different orders).
const TOL: f32 = 1e-3;

/// Counts queries whose best-distance (`nn` returns the squared
/// distance) disagrees with the flat baseline beyond tolerance.
fn exactness_deviations(
    nn: impl Fn(&[f32]) -> f32,
    flat: &FlatL2,
    queries: &[f32],
    n: usize,
) -> usize {
    let mut deviations = 0usize;
    for q in queries.chunks(n) {
        let a = nn(q);
        let b = flat.nn(q).dist_sq;
        if (a - b).abs() > TOL * a.max(1.0) {
            deviations += 1;
        }
    }
    deviations
}

/// Updates per-query minima over `passes` rotated sweeps of the stream.
fn time_stream_min(
    nn: impl Fn(&[f32]),
    queries: &[f32],
    n: usize,
    passes: usize,
    ms: &mut Vec<f64>,
) {
    let nq = queries.len() / n;
    if ms.is_empty() {
        ms.resize(nq, f64::INFINITY);
    }
    for pass in 0..passes {
        for j in 0..nq {
            // Rotated visit order: throttle windows land on different
            // queries each pass, so the per-query min discards them.
            let qi = (j + pass * 17 + 5) % nq;
            let q = &queries[qi * n..(qi + 1) * n];
            let (_, secs) = crate::timed(|| nn(q));
            let v = crate::ms(secs);
            if v < ms[qi] {
                ms[qi] = v;
            }
        }
    }
}

/// `ext-deep`: level-block collect versus the leaf-only sweep on a
/// concentrated (deep-tree) known-item workload, plus the insert-delta /
/// fold serving cycle.
pub fn ext_deep(suite: &Suite) -> Report {
    let mut r = Report::new("ext-deep", "deep-tree collect: level blocks vs leaf-only sweep");
    let mut spec = suite
        .specs()
        .iter()
        .find(|s| s.name == "Deep1b")
        .expect("registry")
        .clone()
        .with_concentration(0.99);
    // Enough instance noise that sub-clusters spread over several
    // quantization bins (fine splits instead of fat degenerate leaves).
    spec.instance_noise = 0.25;
    // Four times the standard scaled count (capped), because tree depth —
    // not breadth — is what this profile exists to exercise.
    let count = (spec.scaled_count(suite.cfg.scale, suite.cfg.min_series) * 4).clamp(2_400, 96_000);
    let n_holdout = suite.cfg.n_queries.clamp(8, 32);
    let dataset = spec.generate(count, n_holdout);
    let n = dataset.series_len();
    // Known-item query stream: near-duplicates of indexed rows spread
    // across the whole archive.
    let n_queries = 48usize;
    let known_item_stream = |ds: &Dataset| -> Vec<f32> {
        (0..n_queries)
            .flat_map(|qi| {
                let row = qi * 997 % count;
                ds.series(row)
                    .iter()
                    .enumerate()
                    .map(|(t, &x)| x * (1.0 + 0.0008 * (((t + qi) % 7) as f32 - 3.0)))
                    .collect::<Vec<f32>>()
            })
            .collect()
    };
    let queries: Vec<f32> = known_item_stream(&dataset);
    r.para(&format!(
        "Workload: {} at root-key concentration 0.99 (hierarchical \
         prototype family) — {count} series of length {n}; the timed \
         stream is {n_queries} known-item queries (near-duplicates of \
         indexed rows), where the BSF collapses immediately and collect \
         pricing dominates. Word length 12, leaf capacity 8, serial query \
         path (the A/B isolates the collect algorithm, not pool \
         dispatch). `level` prices the top levels of internal nodes \
         8-wide and retires whole descendant leaf ranges per pruned lane; \
         `leaf-only` is the PR-4 sweep over the leaf fringe alone. Arms \
         are rebuilt fresh in ABBA order and timed as per-query minima \
         over rotated passes.",
        spec.name
    ));

    let build = |levels: usize| {
        let idx = SofaIndex::builder()
            .threads(1)
            .leaf_capacity(8)
            .word_len(12)
            .sample_ratio(suite.cfg.sample_ratio)
            .collect_levels(levels)
            .build_sofa(dataset.data(), n)
            .expect("SOFA build");
        for q in queries.chunks(n) {
            idx.nn(q).expect("warmup");
        }
        idx
    };
    let default_levels = sofa::index::node::DEFAULT_COLLECT_LEVELS;

    // Tree shape + exactness gate on the first level build.
    let probe = build(default_levels);
    let s = probe.stats();
    r.para(&format!(
        "Tree shape: {} subtrees, {} leaves, max depth {}, mean depth {} \
         — concentrated as intended (the historical profiles build \
         thousands of single-leaf subtrees at depth 0).",
        s.subtrees,
        s.leaves,
        s.max_depth,
        f1(s.avg_depth),
    ));
    r.metric("deep_tree_subtrees", s.subtrees as f64);
    r.metric("deep_tree_leaves", s.leaves as f64);
    r.metric("deep_tree_max_depth", s.max_depth as f64);

    // Exactness first: both collect strategies must match the brute force
    // on the known-item stream and on hold-out queries. This is the
    // acceptance gate — a fast wrong answer is worthless.
    let flat = FlatL2::new(dataset.data(), n, 1);
    let leaf_only_probe = build(0);
    let mut deviations = 0usize;
    for qs in [&queries[..], dataset.queries()] {
        deviations += exactness_deviations(|q| probe.nn(q).expect("query").dist_sq, &flat, qs, n);
        deviations +=
            exactness_deviations(|q| leaf_only_probe.nn(q).expect("query").dist_sq, &flat, qs, n);
    }
    assert_eq!(deviations, 0, "deep-tree collect must stay exact");
    r.metric("deep_exactness_deviations", deviations as f64);

    // Collect-work counters over the stream (level arm vs leaf-only arm).
    let mut level_groups = 0usize;
    let mut retired = 0usize;
    let mut fringe_level = 0usize;
    let mut fringe_leaf_only = 0usize;
    for q in queries.chunks(n) {
        let (_, sa) = probe.knn_with_stats(q, 1).expect("stats");
        let (_, sb) = leaf_only_probe.knn_with_stats(q, 1).expect("stats");
        level_groups += sa.collect_level_groups_swept;
        retired += sa.collect_leaves_retired_by_levels;
        fringe_level += sa.collect_groups_swept;
        fringe_leaf_only += sb.collect_groups_swept;
    }
    drop(probe);
    drop(leaf_only_probe);

    // ABBA timing: fresh builds per round, alternating order.
    let passes = 3usize;
    let mut level_ms: Vec<f64> = Vec::new();
    let mut leaf_ms: Vec<f64> = Vec::new();
    for round in 0..4 {
        if round % 2 == 0 {
            let a = build(default_levels);
            time_stream_min(
                |q| {
                    a.nn(q).expect("query");
                },
                &queries,
                n,
                passes,
                &mut level_ms,
            );
            drop(a);
            let b = build(0);
            time_stream_min(
                |q| {
                    b.nn(q).expect("query");
                },
                &queries,
                n,
                passes,
                &mut leaf_ms,
            );
        } else {
            let b = build(0);
            time_stream_min(
                |q| {
                    b.nn(q).expect("query");
                },
                &queries,
                n,
                passes,
                &mut leaf_ms,
            );
            drop(b);
            let a = build(default_levels);
            time_stream_min(
                |q| {
                    a.nn(q).expect("query");
                },
                &queries,
                n,
                passes,
                &mut level_ms,
            );
        }
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;

    let nqf = n_queries as f64;
    r.table(
        &[
            "collect",
            "mean (ms)",
            "p50 (ms)",
            "p99 (ms)",
            "fringe groups/query",
            "level groups/query",
        ],
        &[
            vec![
                "level blocks".into(),
                f3(mean(&level_ms)),
                f3(percentile(&level_ms, 50.0)),
                f3(percentile(&level_ms, 99.0)),
                f2(fringe_level as f64 / nqf),
                f2(level_groups as f64 / nqf),
            ],
            vec![
                "leaf-only (PR-4)".into(),
                f3(mean(&leaf_ms)),
                f3(percentile(&leaf_ms, 50.0)),
                f3(percentile(&leaf_ms, 99.0)),
                f2(fringe_leaf_only as f64 / nqf),
                "0.00".into(),
            ],
        ],
    );
    r.metric("deep_level_mean_ms", mean(&level_ms));
    r.metric("deep_level_p50_ms", percentile(&level_ms, 50.0));
    r.metric("deep_level_p99_ms", percentile(&level_ms, 99.0));
    r.metric("deep_leaf_mean_ms", mean(&leaf_ms));
    r.metric("deep_leaf_p50_ms", percentile(&leaf_ms, 50.0));
    r.metric("deep_leaf_p99_ms", percentile(&leaf_ms, 99.0));
    r.metric("deep_mean_speedup", mean(&leaf_ms) / mean(&level_ms).max(1e-12));
    r.metric(
        "deep_p99_speedup",
        percentile(&leaf_ms, 99.0) / percentile(&level_ms, 99.0).max(1e-12),
    );
    r.metric("deep_level_groups_per_query", level_groups as f64 / nqf);
    r.metric("deep_leaves_retired_per_query", retired as f64 / nqf);
    r.para(&format!(
        "Level-block collect answers the stream at {} ms mean / {} ms p99 \
         versus {} / {} for the leaf-only sweep — a {:.2}x mean and \
         {:.2}x p99 speedup. Per query, {} level groups retired {} leaf \
         lanes through pruned ancestors, cutting the fringe sweep from {} \
         to {} kernel groups.",
        f3(mean(&level_ms)),
        f3(percentile(&level_ms, 99.0)),
        f3(mean(&leaf_ms)),
        f3(percentile(&leaf_ms, 99.0)),
        mean(&leaf_ms) / mean(&level_ms).max(1e-12),
        percentile(&leaf_ms, 99.0) / percentile(&level_ms, 99.0).max(1e-12),
        f2(level_groups as f64 / nqf),
        f2(retired as f64 / nqf),
        f2(fringe_leaf_only as f64 / nqf),
        f2(fringe_level as f64 / nqf),
    ));

    // --- Online half: an insert burst through the append-only delta.
    // Every `ONLINE_LEAF`-th insert fills the delta and folds it into a
    // regrown, packed tree. The burst is capped at `ONLINE_FOLDS` folds
    // (each regrows the whole forest) and ends half-way through a delta,
    // so both serving states — delta beside the tree, and freshly folded —
    // are checked against the flat baseline over the same rows.
    const ONLINE_LEAF: usize = 8;
    const ONLINE_FOLDS: usize = 32;
    let split = count * 4 / 5;
    let burst = (count - split).min(ONLINE_FOLDS * ONLINE_LEAF + ONLINE_LEAF / 2);
    let mut online = SofaIndex::builder()
        .threads(1)
        .leaf_capacity(ONLINE_LEAF)
        .word_len(12)
        .sample_ratio(suite.cfg.sample_ratio)
        .build_sofa(&dataset.data()[..split * n], n)
        .expect("SOFA build");
    let mut insert_ms = Vec::with_capacity(burst);
    for row in dataset.data()[split * n..(split + burst) * n].chunks(n) {
        let (inserted, secs) = crate::timed(|| online.insert(row));
        inserted.expect("insert");
        insert_ms.push(crate::ms(secs));
    }
    let grown = online.stats();
    // The insert that fills the delta is the one that folds.
    let mut fold_ms = Vec::new();
    let mut delta_us = Vec::new();
    for (i, &ms) in insert_ms.iter().enumerate() {
        if (i + 1) % ONLINE_LEAF == 0 {
            fold_ms.push(ms);
        } else {
            delta_us.push(ms * 1e3);
        }
    }
    assert_eq!(grown.folds as usize, fold_ms.len(), "one fold per filled delta");
    r.metric("deep_delta_rows_after_burst", grown.delta_rows as f64);
    r.metric("deep_folds", grown.folds as f64);
    r.metric("deep_fold_mean_ms", mean(&fold_ms));
    r.metric("deep_fold_max_ms", fold_ms.iter().copied().fold(0.0, f64::max));
    r.metric("deep_delta_insert_p50_us", percentile(&delta_us, 50.0));
    let flat_online = FlatL2::new(&dataset.data()[..(split + burst) * n], n, 1);
    let delta_dev =
        exactness_deviations(|q| online.nn(q).expect("query").dist_sq, &flat_online, &queries, n);
    online.repack_leaves();
    let folded_dev =
        exactness_deviations(|q| online.nn(q).expect("query").dist_sq, &flat_online, &queries, n);
    assert_eq!(delta_dev + folded_dev, 0, "delta and folded serving must stay exact");
    r.metric("deep_exactness_deviations_online", (delta_dev + folded_dev) as f64);
    r.para(&format!(
        "Insert burst ({burst} rows into a {ONLINE_LEAF}-row delta over a \
         {split}-row tree): {} folds at {} ms mean / {} ms max each, delta \
         inserts at {} us p50, {} rows left in the delta. Queries stayed \
         exact with the delta scanned beside the tree and again after \
         `repack_leaves` folded it.",
        grown.folds,
        f3(mean(&fold_ms)),
        f3(fold_ms.iter().copied().fold(0.0, f64::max)),
        f1(percentile(&delta_us, 50.0)),
        grown.delta_rows,
    ));

    // --- MESSI A/B arm on the PAA-shaped family (PR-5 deferral).
    // The Signal-shaped family above displaces branches with raw
    // prototype deltas, whose spectral content a PAA front end largely
    // averages away — so the deep-tree regime above is only fair to
    // SFA's adaptive coefficient selection. `FamilyShape::Paa` collapses
    // every family delta into per-segment means (pure PAA-space
    // displacement, segments matched to the word length), giving the
    // iSAX/MESSI summarization the same view of the cluster tree: the
    // honest A/B of the two tree methods on deep workloads.
    let paa_spec = spec.clone().with_family_shape(FamilyShape::Paa { segments: 12 });
    let paa_dataset = paa_spec.generate(count, n_holdout);
    let paa_queries: Vec<f32> = known_item_stream(&paa_dataset);
    let flat_paa = FlatL2::new(paa_dataset.data(), n, 1);
    let build_sofa_on = |ds: &Dataset, warm: &[f32]| {
        let idx = SofaIndex::builder()
            .threads(1)
            .leaf_capacity(8)
            .word_len(12)
            .sample_ratio(suite.cfg.sample_ratio)
            .build_sofa(ds.data(), n)
            .expect("SOFA build");
        for q in warm.chunks(n) {
            idx.nn(q).expect("warmup");
        }
        idx
    };
    let build_messi_on = |ds: &Dataset, warm: &[f32]| {
        let idx = MessiIndex::builder()
            .threads(1)
            .leaf_capacity(8)
            .word_len(12)
            .sample_ratio(suite.cfg.sample_ratio)
            .build_messi(ds.data(), n)
            .expect("MESSI build");
        for q in warm.chunks(n) {
            idx.nn(q).expect("warmup");
        }
        idx
    };

    // Tree shapes + exactness gate across methods and family shapes.
    let messi_signal = build_messi_on(&dataset, &queries);
    let messi_paa = build_messi_on(&paa_dataset, &paa_queries);
    let sofa_paa = build_sofa_on(&paa_dataset, &paa_queries);
    let ms_sig = messi_signal.stats();
    let ms_paa = messi_paa.stats();
    let sf_paa = sofa_paa.stats();
    let mut messi_dev = 0usize;
    messi_dev +=
        exactness_deviations(|q| messi_signal.nn(q).expect("query").dist_sq, &flat, &queries, n);
    messi_dev += exactness_deviations(
        |q| messi_paa.nn(q).expect("query").dist_sq,
        &flat_paa,
        &paa_queries,
        n,
    );
    messi_dev += exactness_deviations(
        |q| sofa_paa.nn(q).expect("query").dist_sq,
        &flat_paa,
        &paa_queries,
        n,
    );
    assert_eq!(messi_dev, 0, "MESSI/SOFA must stay exact on both family shapes");
    r.metric("deep_messi_exactness_deviations", messi_dev as f64);
    drop(messi_signal);
    drop(messi_paa);
    drop(sofa_paa);

    // ABBA timing of the two methods on the *same* PAA-shaped stream.
    let mut sofa_paa_ms: Vec<f64> = Vec::new();
    let mut messi_paa_ms: Vec<f64> = Vec::new();
    for round in 0..2 {
        if round % 2 == 0 {
            let a = build_sofa_on(&paa_dataset, &paa_queries);
            time_stream_min(
                |q| {
                    a.nn(q).expect("query");
                },
                &paa_queries,
                n,
                2,
                &mut sofa_paa_ms,
            );
            drop(a);
            let b = build_messi_on(&paa_dataset, &paa_queries);
            time_stream_min(
                |q| {
                    b.nn(q).expect("query");
                },
                &paa_queries,
                n,
                2,
                &mut messi_paa_ms,
            );
        } else {
            let b = build_messi_on(&paa_dataset, &paa_queries);
            time_stream_min(
                |q| {
                    b.nn(q).expect("query");
                },
                &paa_queries,
                n,
                2,
                &mut messi_paa_ms,
            );
            drop(b);
            let a = build_sofa_on(&paa_dataset, &paa_queries);
            time_stream_min(
                |q| {
                    a.nn(q).expect("query");
                },
                &paa_queries,
                n,
                2,
                &mut sofa_paa_ms,
            );
        }
    }

    r.table(
        &["method", "family shape", "subtrees", "max depth", "mean (ms)", "p99 (ms)"],
        &[
            vec![
                "MESSI (iSAX)".into(),
                "Signal".into(),
                ms_sig.subtrees.to_string(),
                ms_sig.max_depth.to_string(),
                "-".into(),
                "-".into(),
            ],
            vec![
                "MESSI (iSAX)".into(),
                "Paa".into(),
                ms_paa.subtrees.to_string(),
                ms_paa.max_depth.to_string(),
                f3(mean(&messi_paa_ms)),
                f3(percentile(&messi_paa_ms, 99.0)),
            ],
            vec![
                "SOFA (SFA)".into(),
                "Paa".into(),
                sf_paa.subtrees.to_string(),
                sf_paa.max_depth.to_string(),
                f3(mean(&sofa_paa_ms)),
                f3(percentile(&sofa_paa_ms, 99.0)),
            ],
        ],
    );
    r.metric("deep_messi_signal_max_depth", ms_sig.max_depth as f64);
    r.metric("deep_messi_paa_max_depth", ms_paa.max_depth as f64);
    r.metric("deep_sofa_paa_max_depth", sf_paa.max_depth as f64);
    r.metric("deep_messi_paa_mean_ms", mean(&messi_paa_ms));
    r.metric("deep_sofa_paa_mean_ms", mean(&sofa_paa_ms));
    r.metric("deep_paa_messi_over_sofa", mean(&messi_paa_ms) / mean(&sofa_paa_ms).max(1e-12));
    r.para(&format!(
        "PAA-shaped family: MESSI's tree concentrates ({} subtrees, max \
         depth {}, vs {} / {} on the Signal-shaped family), and on the \
         same PAA-shaped known-item stream MESSI answers at {} ms mean \
         vs SOFA's {} ms ({:.2}x) — both exact. The family-shape knob \
         makes the deep-tree comparison symmetric instead of baked \
         against PAA front ends.",
        ms_paa.subtrees,
        ms_paa.max_depth,
        ms_sig.subtrees,
        ms_sig.max_depth,
        f3(mean(&messi_paa_ms)),
        f3(mean(&sofa_paa_ms)),
        mean(&messi_paa_ms) / mean(&sofa_paa_ms).max(1e-12),
    ));
    r
}
