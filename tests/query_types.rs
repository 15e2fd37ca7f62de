//! Oracle suite for the generalized query funnel: range, filtered kNN
//! and max-inner-product must return **bit-identical** answers to a
//! brute-force oracle, on every path — direct calls, quant tier on and
//! off, through the `sofa-serve` coalescer in mixed-kind ticks, and
//! across shard merges. CI replays this binary under
//! `SOFA_FORCE_SCALAR=1`, so the predicate-masked and IP kernels are
//! proven exact on every dispatch tier.
//!
//! The oracle reproduces the refine phase's exact arithmetic: rows and
//! queries are z-normalized with the same dispatched kernel the build
//! uses, and distances come from `euclidean_sq_early_abandon` with an
//! infinite bound — the identical accumulation order the funnel uses
//! for any candidate it runs to completion, so comparisons are in bits,
//! not tolerances.

use sofa::serve::ResultSlot;
use sofa::simd::{dot, euclidean_sq_early_abandon, znormalize};
use sofa::summaries::ip_score;
use sofa::{
    CancelToken, IndexError, IpNeighbor, Neighbor, QueryKind, QueryStats, RowFilter, ServeConfig,
    ServeError, Server, ShardedSofaIndex, SofaIndex,
};
use std::sync::Arc;
use std::time::Duration;

/// A named predicate pattern: `(label, admit-fn)`.
type Pattern = (&'static str, Box<dyn Fn(usize) -> bool>);

fn dataset(count: usize, n: usize, seed: usize) -> Vec<f32> {
    let mut data = Vec::with_capacity(count * n);
    for r in 0..count {
        for t in 0..n {
            let x = t as f32;
            let rr = (r + seed) as f32;
            data.push((x * 0.19 + rr).sin() + 0.6 * (x * (0.31 + (rr % 11.0) * 0.17)).cos());
        }
    }
    data
}

/// Brute-force ground truth over the same z-normalized rows the index
/// stores, scored with the same dispatched kernels the funnel scores
/// with.
struct Oracle {
    rows: Vec<f32>,
    n: usize,
    count: usize,
}

impl Oracle {
    fn new(data: &[f32], n: usize) -> Self {
        let mut rows = data.to_vec();
        // The facade normalizes rows once (so the SFA model learns from
        // the normalized view) and `Index::build` normalizes again;
        // z-normalization is only *approximately* idempotent, so the
        // oracle must replay both passes to match the stored rows in
        // bits.
        for row in rows.chunks_mut(n) {
            znormalize(row);
            znormalize(row);
        }
        Oracle { rows, n, count: data.len() / n }
    }

    fn znorm_query(&self, query: &[f32]) -> Vec<f32> {
        let mut q = query.to_vec();
        znormalize(&mut q);
        q
    }

    /// Every admitted row's exact distance, sorted by `(dist_sq, row)` —
    /// the same total order `KnnSet` keeps.
    fn dists(&self, query: &[f32], admit: impl Fn(usize) -> bool) -> Vec<Neighbor> {
        let q = self.znorm_query(query);
        let mut out: Vec<Neighbor> = (0..self.count)
            .filter(|&r| admit(r))
            .map(|r| {
                let x = &self.rows[r * self.n..(r + 1) * self.n];
                let d = euclidean_sq_early_abandon(&q, x, f32::INFINITY);
                Neighbor { row: r as u32, dist_sq: d }
            })
            .collect();
        out.sort_unstable();
        out
    }

    fn knn(&self, query: &[f32], k: usize, admit: impl Fn(usize) -> bool) -> Vec<Neighbor> {
        let mut all = self.dists(query, admit);
        all.truncate(k);
        all
    }

    fn range(&self, query: &[f32], r_sq: f32) -> Vec<Neighbor> {
        let mut all = self.dists(query, |_| true);
        all.retain(|nb| nb.dist_sq <= r_sq);
        all
    }

    /// Top-k by inner product with the z-normalized query, ranked by the
    /// Parseval score `2n - q·x` (ascending), ties by row — the order
    /// the IP funnel ranks in. Returns the true dot products.
    fn top_ip(&self, query: &[f32], k: usize) -> Vec<IpNeighbor> {
        let q = self.znorm_query(query);
        let mut scored: Vec<(f32, u32, f32)> = (0..self.count)
            .map(|r| {
                let x = &self.rows[r * self.n..(r + 1) * self.n];
                let ip = dot(&q, x);
                (ip_score(self.n, ip), r as u32, ip)
            })
            .collect();
        scored.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        scored.truncate(k);
        scored.into_iter().map(|(_, row, ip)| IpNeighbor { row, ip }).collect()
    }
}

fn assert_bits_eq(got: &[Neighbor], want: &[Neighbor], tag: &str) {
    assert_eq!(got.len(), want.len(), "{tag}: cardinality");
    for (rank, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(g.row, w.row, "{tag} rank {rank}: row");
        assert_eq!(
            g.dist_sq.to_bits(),
            w.dist_sq.to_bits(),
            "{tag} rank {rank}: dist {} vs {}",
            g.dist_sq,
            w.dist_sq
        );
    }
}

/// One query of any kind through `query_into`: the answer plus its
/// work counters.
fn query(
    index: &SofaIndex,
    q: &[f32],
    kind: &QueryKind,
) -> Result<(Vec<Neighbor>, QueryStats), IndexError> {
    let mut out = Vec::new();
    let stats = index.query_into(q, kind, &mut out)?;
    Ok((out, stats))
}

fn build(data: &[f32], n: usize, quant: bool) -> SofaIndex {
    SofaIndex::builder()
        .threads(2)
        .leaf_capacity(24)
        .sample_ratio(0.4)
        .quant_refine(quant)
        .build_sofa(data, n)
        .expect("build")
}

/// Range queries return exactly the brute-force ball — including rows
/// tied bit-exactly at the radius — with the quant tier on and off.
#[test]
fn range_matches_brute_force_including_ties_at_radius() {
    let n = 64;
    let count = 900;
    let data = dataset(count, n, 3);
    let oracle = Oracle::new(&data, n);
    for quant in [false, true] {
        let index = build(&data, n, quant);
        for qi in 0..12 {
            let q = &data[(qi * 37 % count) * n..][..n];
            let all = oracle.dists(q, |_| true);
            // A radius sitting bit-exactly on a stored distance: the tied
            // row (and any bit-equal twins) must be returned.
            let tie = all[10].dist_sq;
            for (r_sq, tag) in [
                (tie, "tie"),
                (all[0].dist_sq * 0.5, "tiny"),
                (all[count - 1].dist_sq, "all"),
                (0.0, "zero"),
            ] {
                let got = index.range(q, r_sq).expect("range");
                assert_bits_eq(&got, &oracle.range(q, r_sq), &format!("quant={quant} q{qi} {tag}"));
            }
            let (hits, stats) =
                query(&index, q, &QueryKind::Range { r_sq: tie }).expect("range stats");
            assert_eq!(stats.range_hits, hits.len(), "range_hits counter");
            assert!(hits.iter().any(|nb| nb.dist_sq.to_bits() == tie.to_bits()), "tie row kept");
        }
    }
}

/// Filtered kNN is bit-identical to brute-force post-filtering at every
/// selectivity, and never returns a rejected row.
#[test]
fn filtered_knn_is_bit_identical_to_post_filtering() {
    let n = 64;
    let count = 900;
    let data = dataset(count, n, 7);
    let oracle = Oracle::new(&data, n);
    for quant in [false, true] {
        let index = build(&data, n, quant);
        let cases: Vec<Pattern> = vec![
            ("half", Box::new(|r| r % 2 == 0)),
            ("tenth", Box::new(|r| r % 10 == 3)),
            ("block", Box::new(move |r| r >= count / 2)),
            ("one", Box::new(|r| r == 421)),
        ];
        for (tag, admit) in &cases {
            let filter = Arc::new(RowFilter::from_fn(count, admit));
            let kind = QueryKind::KnnFiltered { k: 10, filter };
            for qi in 0..8 {
                let q = &data[(qi * 101 % count) * n..][..n];
                let (got, _) = query(&index, q, &kind).expect("filtered");
                assert!(got.iter().all(|nb| admit(nb.row as usize)), "rejected row leaked");
                let want = oracle.knn(q, 10, admit);
                assert_bits_eq(&got, &want, &format!("quant={quant} q{qi} {tag}"));
            }
        }
        // The masked kernels actually mask: a selective predicate must
        // reject candidate lanes inside the funnel, not after it.
        let filter = Arc::new(RowFilter::from_fn(count, |r| r % 10 == 3));
        let kind = QueryKind::KnnFiltered { k: 10, filter };
        let (_, stats) = query(&index, &data[..n], &kind).expect("stats");
        assert!(stats.predicate_lanes_masked > 0, "predicate never masked a lane");
    }
}

/// Max-inner-product answers carry the true dot products and rank
/// exactly as the brute-force Parseval ordering.
#[test]
fn ip_queries_match_brute_force() {
    let n = 64;
    let count = 700;
    let data = dataset(count, n, 11);
    let oracle = Oracle::new(&data, n);
    for quant in [false, true] {
        let index = build(&data, n, quant);
        for qi in 0..10 {
            let q = &data[(qi * 67 % count) * n..][..n];
            let got = index.knn_ip(q, 5).expect("knn_ip");
            let want = oracle.top_ip(q, 5);
            assert_eq!(got.len(), want.len(), "quant={quant} q{qi}");
            for (rank, (g, w)) in got.iter().zip(want.iter()).enumerate() {
                assert_eq!(g.row, w.row, "quant={quant} q{qi} rank {rank}");
                assert_eq!(g.ip.to_bits(), w.ip.to_bits(), "quant={quant} q{qi} rank {rank}: ip");
            }
            let best = index.knn_ip(q, 1).expect("top ip")[0];
            assert_eq!(best.row, want[0].row);
            assert_eq!(best.ip.to_bits(), want[0].ip.to_bits());
        }
    }
}

/// Mixed-kind ticks through the serve coalescer return exactly what the
/// direct per-query calls return, under concurrent submission.
#[test]
fn serve_mixed_ticks_agree_with_direct_calls() {
    let n = 64;
    let count = 600;
    let data = dataset(count, n, 19);
    let index = Arc::new(build(&data, n, true));
    let filter = Arc::new(RowFilter::from_fn(count, |r| r % 3 != 1));
    let filtered = QueryKind::KnnFiltered { k: 5, filter };
    // A small fill target + wait window so concurrent submitters of
    // *different* kinds coalesce into shared ticks.
    let server = Server::new(
        Arc::clone(&index),
        ServeConfig::new().fill_target(4).max_wait(Duration::from_micros(200)),
    );
    std::thread::scope(|s| {
        for caller in 0..8 {
            let server = &server;
            let index = &index;
            let filtered = &filtered;
            let data = &data;
            s.spawn(move || {
                for i in 0..10 {
                    let q = &data[((caller * 31 + i * 7) % count) * n..][..n];
                    match (caller + i) % 4 {
                        0 => {
                            let got = server.knn(q, 5).expect("serve knn");
                            assert_bits_eq(&got, &index.knn(q, 5).expect("knn"), "mixed knn");
                        }
                        1 => {
                            let got = server.query(q, filtered.clone()).expect("serve filtered");
                            let (want, _) = query(index, q, filtered).expect("filtered");
                            assert_bits_eq(&got, &want, "mixed filtered");
                        }
                        2 => {
                            let r_sq = index.nn(q).expect("nn").dist_sq * 4.0;
                            let got = server.range(q, r_sq).expect("serve range");
                            assert_bits_eq(
                                &got,
                                &index.range(q, r_sq).expect("range"),
                                "mixed range",
                            );
                        }
                        _ => {
                            let got = server.knn_ip(q, 3).expect("serve ip");
                            let want = index.knn_ip(q, 3).expect("knn_ip");
                            for (g, w) in got.iter().zip(want.iter()) {
                                assert_eq!(g.row, w.row, "mixed ip row");
                                // The serve path recovers the dot from the
                                // funnel score (one f64 rounding).
                                assert!((g.ip - w.ip).abs() <= 1e-3 * w.ip.abs().max(1.0));
                            }
                        }
                    }
                }
            });
        }
    });
    let stats = server.stats();
    assert_eq!(stats.queries, 80);
}

mod adversarial {
    use super::*;
    use proptest::prelude::*;

    /// Arbitrary dataset whose row count is deliberately *not* aligned
    /// to the 8-lane kernel groups most of the time, so the last block
    /// group is padded and the predicate bitmap is shorter than the
    /// padded group.
    fn arb_dataset(n: usize) -> impl Strategy<Value = Vec<f32>> {
        (9usize..48).prop_flat_map(move |rows| proptest::collection::vec(-8.0f32..8.0, rows * n))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        /// Hostile predicate shapes — an all-zero bitmap, a single
        /// surviving row, alternating lanes, and a bitmap whose tail
        /// group is padding — are bit-identical to brute-force
        /// post-filtering, with the quant tier on and off.
        #[test]
        fn hostile_filters_match_post_filtering(
            data in arb_dataset(32),
            survivor_sel in 0usize..1000,
            quant in proptest::bool::ANY,
        ) {
            let n = 32;
            let count = data.len() / n;
            let index = SofaIndex::builder()
                .word_len(8)
                .leaf_capacity(8)
                .threads(2)
                .sample_ratio(1.0)
                .quant_refine(quant)
                .build_sofa(&data, n)
                .expect("build");
            let oracle = Oracle::new(&data, n);
            let survivor = survivor_sel % count;
            let patterns: Vec<Pattern> = vec![
                ("all-zero", Box::new(|_| false)),
                ("single-survivor", Box::new(move |r| r == survivor)),
                ("alternating", Box::new(|r| r % 2 == 0)),
                // Rejecting the tail rows puts every admitted row next
                // to masked padding lanes in the final 8-wide group.
                ("tail-padding", Box::new(move |r| r < count.saturating_sub(count % 8 + 1))),
            ];
            let q = &data[survivor * n..][..n];
            for (tag, admit) in &patterns {
                let filter = Arc::new(RowFilter::from_fn(count, admit));
                let kind = QueryKind::KnnFiltered { k: 5, filter };
                let (got, _) = query(&index, q, &kind).expect("filtered");
                prop_assert!(
                    got.iter().all(|nb| admit(nb.row as usize)),
                    "{tag}: rejected row leaked"
                );
                let want = oracle.knn(q, 5, admit);
                prop_assert_eq!(got.len(), want.len(), "{} cardinality", tag);
                for (g, w) in got.iter().zip(want.iter()) {
                    prop_assert_eq!(g.row, w.row, "{} row", tag);
                    prop_assert_eq!(g.dist_sq.to_bits(), w.dist_sq.to_bits(), "{} dist", tag);
                }
            }
        }

        /// A radius sitting bit-exactly on a stored row's distance keeps
        /// that row in the answer on arbitrary data.
        #[test]
        fn range_keeps_ties_exactly_at_the_radius(
            data in arb_dataset(32),
            tie_sel in 0usize..1000,
            quant in proptest::bool::ANY,
        ) {
            let n = 32;
            let count = data.len() / n;
            let index = SofaIndex::builder()
                .word_len(8)
                .leaf_capacity(8)
                .threads(2)
                .sample_ratio(1.0)
                .quant_refine(quant)
                .build_sofa(&data, n)
                .expect("build");
            let oracle = Oracle::new(&data, n);
            let q = &data[..n];
            let all = oracle.dists(q, |_| true);
            let tie = all[tie_sel % count];
            let got = index.range(q, tie.dist_sq).expect("range");
            let want = oracle.range(q, tie.dist_sq);
            prop_assert_eq!(got.len(), want.len(), "cardinality at r_sq={}", tie.dist_sq);
            for (g, w) in got.iter().zip(want.iter()) {
                prop_assert_eq!(g.row, w.row);
                prop_assert_eq!(g.dist_sq.to_bits(), w.dist_sq.to_bits());
            }
            prop_assert!(
                got.iter().any(|nb| nb.row == tie.row),
                "row {} tied exactly at the radius was dropped", tie.row
            );
        }
    }
}

/// Shard fan-out + merge is bit-identical to an unsharded build over
/// the same rows, for every query kind.
#[test]
fn sharded_queries_agree_with_unsharded() {
    let n = 64;
    let count = 800;
    let data = dataset(count, n, 23);
    let unsharded = build(&data, n, true);
    let sharded: ShardedSofaIndex = SofaIndex::builder()
        .threads(2)
        .leaf_capacity(24)
        .sample_ratio(0.4)
        .quant_refine(true)
        .build_sofa_sharded(&data, n, 3)
        .expect("sharded build");
    let filter = Arc::new(RowFilter::from_fn(count, |r| r % 4 != 2));
    for qi in 0..10 {
        let q = &data[(qi * 83 % count) * n..][..n];
        let knn = sharded.query(q, QueryKind::Knn { k: 7 }).expect("sharded knn");
        assert_bits_eq(&knn, &unsharded.knn(q, 7).expect("knn"), "shard knn");

        let kf = QueryKind::KnnFiltered { k: 7, filter: Arc::clone(&filter) };
        let filt = sharded.query(q, kf.clone()).expect("sharded filtered");
        let (want, _) = query(&unsharded, q, &kf).expect("filtered");
        assert_bits_eq(&filt, &want, "shard filtered");

        let r_sq = unsharded.nn(q).expect("nn").dist_sq * 6.0;
        let rng = sharded.query(q, QueryKind::Range { r_sq }).expect("sharded range");
        assert_bits_eq(&rng, &unsharded.range(q, r_sq).expect("range"), "shard range");

        let ip = sharded.query(q, QueryKind::Ip { k: 4 }).expect("sharded ip");
        let want_ip = unsharded.knn_ip(q, 4).expect("knn_ip");
        assert_eq!(ip.len(), want_ip.len(), "shard ip cardinality");
        for (g, w) in ip.iter().zip(want_ip.iter()) {
            assert_eq!(g.row, w.row, "shard ip row");
            // Sharded IP answers travel as funnel scores in `dist_sq`.
            assert_eq!(
                g.dist_sq.to_bits(),
                ip_score(n, w.ip).to_bits(),
                "shard ip score for row {}",
                g.row
            );
        }
    }
}

/// Every front end — `Index::query_into`, `Index::query_batch`,
/// `ShardedIndex::query` and `Server::query` — refuses the same
/// malformed requests with the same error variant through the one
/// shared validator, and none of them panics. Inserts refuse non-finite
/// rows without changing the index.
#[test]
fn every_front_end_rejects_bad_requests_alike() {
    let n = 64;
    let count = 300;
    let data = dataset(count, n, 29);
    let index = Arc::new(build(&data, n, true));
    let sharded: ShardedSofaIndex = SofaIndex::builder()
        .threads(2)
        .leaf_capacity(24)
        .sample_ratio(0.4)
        .build_sofa_sharded(&data, n, 2)
        .expect("sharded build");
    let server = Server::new(Arc::clone(&index), ServeConfig::new());
    let q = &data[..n];
    let with = |i: usize, x: f32| {
        let mut bad = q.to_vec();
        bad[i] = x;
        bad
    };
    let short_filter = Arc::new(RowFilter::from_fn(count - 1, |_| true));
    let bad = IndexError::BadQuery(String::new());
    let cases = [
        ("wrong length", q[..n - 1].to_vec(), QueryKind::Knn { k: 3 }, &bad),
        ("k = 0", q.to_vec(), QueryKind::Knn { k: 0 }, &bad),
        ("ip k = 0", q.to_vec(), QueryKind::Ip { k: 0 }, &bad),
        ("radius -1", q.to_vec(), QueryKind::Range { r_sq: -1.0 }, &bad),
        ("radius NaN", q.to_vec(), QueryKind::Range { r_sq: f32::NAN }, &bad),
        ("radius +Inf", q.to_vec(), QueryKind::Range { r_sq: f32::INFINITY }, &bad),
        ("filter length", q.to_vec(), QueryKind::KnnFiltered { k: 3, filter: short_filter }, &bad),
        ("NaN query", with(3, f32::NAN), QueryKind::Knn { k: 3 }, &IndexError::NonFinite),
        ("-Inf query", with(0, f32::NEG_INFINITY), QueryKind::Ip { k: 2 }, &IndexError::NonFinite),
    ];
    for (tag, query, kind, want) in &cases {
        let mut out = Vec::new();
        let slot = [ResultSlot::new(Vec::new())];
        let served = match server.query(query, kind.clone()) {
            Err(ServeError::Index(e)) => e,
            other => panic!("{tag}: the server answered {other:?}"),
        };
        for (front, got) in [
            ("Index::query_into", index.query_into(query, kind, &mut out).map(drop)),
            (
                "Index::query_batch",
                index.query_batch(query, std::slice::from_ref(kind), &slot, &[]),
            ),
            ("ShardedIndex::query", sharded.query(query, kind.clone()).map(drop)),
            ("Server::query", Err(served)),
        ] {
            let err = got.expect_err(tag);
            assert_eq!(
                std::mem::discriminant(&err),
                std::mem::discriminant(*want),
                "{tag} via {front}: {err}"
            );
        }
    }

    // Batch shape: `kinds`, `outs` and a non-empty `cancels` must each
    // match the query count (the server builds its own ticks).
    let two: Vec<f32> = q.iter().chain(q).copied().collect();
    let kinds = [QueryKind::Knn { k: 1 }, QueryKind::Knn { k: 1 }];
    let slots: Vec<ResultSlot> = (0..2).map(|_| ResultSlot::new(Vec::new())).collect();
    let tokens = [CancelToken::new()];
    for (tag, kinds, outs, cancels) in [
        ("kinds", &kinds[..1], &slots[..], &[][..]),
        ("outs", &kinds[..], &slots[..1], &[][..]),
        ("cancels", &kinds[..], &slots[..], &tokens[..]),
    ] {
        for err in [
            index.query_batch(&two, kinds, outs, cancels).expect_err(tag),
            sharded.query_batch(&two, kinds, outs, cancels).expect_err(tag),
        ] {
            assert!(matches!(err, IndexError::BadQuery(_)), "{tag}: {err}");
        }
    }
    assert_eq!(server.stats().queries, 0, "no refused request reached a tick");

    let mut growing = build(&data, n, true);
    let before = growing.n_series();
    assert_eq!(growing.insert(&with(5, f32::NAN)), Err(IndexError::NonFinite));
    let pair: Vec<f32> = q.iter().copied().chain(with(7, f32::INFINITY)).collect();
    assert_eq!(growing.insert_all(&pair), Err(IndexError::NonFinite));
    assert_eq!(growing.n_series(), before, "a refused insert must not add rows");
}
