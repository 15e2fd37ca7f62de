//! Snapshot round-trip exactness: an index reopened from its snapshot
//! must answer 500 mixed queries bit-identically to the live index
//! that wrote it, and row-identically to a brute-force ground truth —
//! with the quantized refine tier on and off, and through the
//! micro-batching `Server` front-end.

use sofa::baselines::FlatL2;
use sofa::summaries::Summarization;
use sofa::{Builder, ExecPool, MessiIndex, ServeConfig, Server, SofaIndex};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn dataset(count: usize, n: usize, seed: usize) -> Vec<f32> {
    let mut data = Vec::with_capacity(count * n);
    for r in 0..count {
        for t in 0..n {
            let x = t as f32;
            let r = (r + seed) as f32;
            data.push(
                (x * 0.17 + r).sin()
                    + 0.8 * (x * (0.4 + (r % 11.0) * 0.11) + r * 0.3).cos()
                    + 0.3 * (x * 2.1 - r).sin(),
            );
        }
    }
    data
}

fn tmp_path(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("sofa-roundtrip-{}-{tag}-{id}.idx", std::process::id()))
}

/// 500 mixed queries: varying k, single-path and batch-path, verified
/// bit-for-bit against the live index and row-for-row against FlatL2.
fn run_query_suite(name: &str, live: &SofaIndex, opened: &SofaIndex, flat: &FlatL2, n: usize) {
    let queries = dataset(500, n, 40_000);
    for (qi, q) in queries.chunks(n).enumerate() {
        let k = 1 + qi % 10;
        let a = live.knn(q, k).expect("live query");
        let b = opened.knn(q, k).expect("opened query");
        assert_eq!(a.len(), b.len(), "{name} query {qi} k={k}");
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.row, y.row, "{name} query {qi} k={k}");
            assert_eq!(
                x.dist_sq.to_bits(),
                y.dist_sq.to_bits(),
                "{name} query {qi} k={k}: dist bits differ"
            );
        }
        let truth = flat.knn_one(q, k);
        for (y, w) in b.iter().zip(truth.iter()) {
            assert_eq!(y.row, w.row, "{name} query {qi} k={k}: snapshot vs FlatL2");
        }
    }
}

#[test]
fn sofa_round_trip_500_queries_bit_identical() {
    let n = 64;
    let data = dataset(900, n, 0);
    let pool = ExecPool::shared(2);
    let live = Builder::default()
        .pool(Arc::clone(&pool))
        .leaf_capacity(60)
        .sample_ratio(0.5)
        .build_sofa(&data, n)
        .expect("build");
    let flat = FlatL2::new(&data, n, 2);

    let path = tmp_path("sofa");
    let bytes = live.snapshot(&path).expect("snapshot");
    assert!(bytes > 0);
    let opened = Builder::default().pool(Arc::clone(&pool)).open_sofa(&path).expect("open");
    assert!(opened.is_mapped() && !live.is_mapped());
    assert_eq!(opened.n_series(), live.n_series());
    assert_eq!(opened.sfa().name(), live.sfa().name());

    run_query_suite("sofa", &live, &opened, &flat, n);

    // The quantized refine tier must survive the round trip: identical
    // answers whether it is consulted or bypassed.
    assert_eq!(opened.quant_refine_enabled(), live.quant_refine_enabled());
    opened.set_quant_refine(false);
    live.set_quant_refine(false);
    run_query_suite("sofa/quant-off", &live, &opened, &flat, n);
    opened.set_quant_refine(true);
    live.set_quant_refine(true);

    // Batch path agrees with the single-query path on the mapped index.
    let queries = dataset(16, n, 55_000);
    let batch = opened.knn_batch(&queries, 5).expect("batch");
    for (qi, q) in queries.chunks(n).enumerate() {
        assert_eq!(batch[qi], live.knn(q, 5).expect("live"), "batch query {qi}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn messi_round_trip_matches_live_and_flat() {
    let n = 64;
    let data = dataset(700, n, 3);
    let live =
        MessiIndex::builder().threads(2).leaf_capacity(50).build_messi(&data, n).expect("build");
    let flat = FlatL2::new(&data, n, 2);

    let path = tmp_path("messi");
    live.snapshot(&path).expect("snapshot");
    let opened = MessiIndex::open(&path).expect("open");
    assert!(opened.is_mapped());

    let queries = dataset(100, n, 91_000);
    for (qi, q) in queries.chunks(n).enumerate() {
        let k = 1 + qi % 7;
        let a = live.knn(q, k).expect("live");
        let b = opened.knn(q, k).expect("opened");
        assert_eq!(a, b, "query {qi} k={k}");
        for (y, w) in b.iter().zip(flat.knn_one(q, k).iter()) {
            assert_eq!(y.row, w.row, "query {qi} k={k}: snapshot vs FlatL2");
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn quant_disabled_build_round_trips_without_grid() {
    let n = 64;
    let data = dataset(400, n, 7);
    let live = SofaIndex::builder()
        .threads(2)
        .leaf_capacity(40)
        .sample_ratio(0.5)
        .quant_refine(false)
        .build_sofa(&data, n)
        .expect("build");

    let path = tmp_path("noquant");
    live.snapshot(&path).expect("snapshot");
    let opened = SofaIndex::open(&path).expect("open");
    assert!(!opened.quant_refine_enabled());

    let flat = FlatL2::new(&data, n, 2);
    let queries = dataset(60, n, 123);
    for (qi, q) in queries.chunks(n).enumerate() {
        let a = live.knn(q, 3).expect("live");
        let b = opened.knn(q, 3).expect("opened");
        assert_eq!(a, b, "query {qi}");
        assert_eq!(b[0].row, flat.nn(q).row, "query {qi} vs FlatL2");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn server_over_reopened_snapshot_is_bit_identical() {
    let n = 64;
    let data = dataset(600, n, 11);
    let live = Arc::new(
        SofaIndex::builder()
            .threads(2)
            .leaf_capacity(50)
            .sample_ratio(0.5)
            .build_sofa(&data, n)
            .expect("build"),
    );
    let path = tmp_path("server");
    live.snapshot(&path).expect("snapshot");
    let opened = Arc::new(SofaIndex::open(&path).expect("open"));

    let server = Server::new(Arc::clone(&opened), ServeConfig::new().fill_target(3));
    let queries = dataset(18, n, 2222);
    std::thread::scope(|s| {
        for caller in 0..3usize {
            let server = &server;
            let live = &live;
            let queries = &queries;
            s.spawn(move || {
                for (qi, q) in queries.chunks(n).enumerate() {
                    let k = 1 + (caller + qi) % 5;
                    assert_eq!(
                        server.knn(q, k).expect("coalesced"),
                        live.knn(q, k).expect("live"),
                        "caller {caller} query {qi} k={k}"
                    );
                }
            });
        }
    });
    std::fs::remove_file(&path).ok();
}

#[test]
fn reopened_index_keeps_growing_and_snapshots_again() {
    let n = 64;
    let data = dataset(300, n, 21);
    let live = SofaIndex::builder()
        .threads(2)
        .leaf_capacity(40)
        .sample_ratio(0.5)
        .build_sofa(&data, n)
        .expect("build");
    let path = tmp_path("regrow");
    live.snapshot(&path).expect("snapshot");

    let mut opened = SofaIndex::open(&path).expect("open");
    let extra = dataset(50, n, 40);
    // Below the leaf capacity (40) inserts only grow the delta; the one
    // that fills it folds, which promotes the mapped arenas to owned.
    opened.insert_all(&extra[..39 * n]).expect("insert");
    assert!(opened.is_mapped(), "delta inserts must leave the mapped arenas alone");
    opened.insert_all(&extra[39 * n..]).expect("insert");
    assert!(!opened.is_mapped(), "the fold must promote mapped arenas to owned");
    assert_eq!((opened.stats().folds, opened.stats().delta_rows), (1, 10));
    opened.repack_leaves();

    // The grown index snapshots and reopens, answering over all rows.
    let path2 = tmp_path("regrow2");
    opened.snapshot(&path2).expect("second snapshot");
    let second = SofaIndex::open(&path2).expect("second open");
    assert_eq!(second.n_series(), 350);
    let mut all = Vec::new();
    for chunk in data.chunks(n).chain(extra.chunks(n)) {
        all.extend_from_slice(chunk);
    }
    let flat = FlatL2::new(&all, n, 2);
    for q in dataset(20, n, 31_337).chunks(n) {
        assert_eq!(second.nn(q).expect("query").row, flat.nn(q).row);
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&path2).ok();
}

/// Builds the growing index of the delta tests: 300 rows, leaf capacity
/// 40, then `extra` rows inserted (all below the capacity, so they stay
/// in the delta).
fn grown_sofa(extra: usize) -> (SofaIndex, Vec<f32>) {
    let n = 64;
    let mut all = dataset(300, n, 21);
    let mut index = SofaIndex::builder()
        .threads(2)
        .leaf_capacity(40)
        .sample_ratio(0.5)
        .build_sofa(&all, n)
        .expect("build");
    let rows = dataset(extra, n, 1000);
    index.insert_all(&rows).expect("insert");
    all.extend_from_slice(&rows);
    (index, all)
}

#[test]
fn snapshot_with_a_partly_full_delta_reopens_every_row() {
    let n = 64;
    let (live, all) = grown_sofa(25);
    assert_eq!((live.stats().delta_rows, live.stats().folds), (25, 0));
    let path = tmp_path("delta");
    live.snapshot(&path).expect("snapshot");
    let opened = SofaIndex::open(&path).expect("open");
    assert!(opened.is_mapped(), "the tree still serves from the mapping");
    assert_eq!((opened.n_series(), opened.stats().delta_rows), (325, 25));
    // Same row ids: every row, delta rows included, holds its series.
    for row in 0..325 {
        assert_eq!(opened.raw().series(row), live.raw().series(row), "row {row}");
    }
    // Bit-identical to the live index and row-identical to brute force,
    // with the delta rows as their own nearest neighbours.
    let flat = FlatL2::new(&all, n, 2);
    run_query_suite("delta", &live, &opened, &flat, n);
    for (i, q) in all[300 * n..].chunks(n).enumerate() {
        assert_eq!(opened.nn(q).expect("query").row, 300 + i as u32, "delta row {i}");
    }
    std::fs::remove_file(&path).ok();
}

/// A format-1 snapshot written before the delta existed, after online
/// inserts had split leaves in place and left them unpacked: `dataset(300,
/// 64, 21)` built with SOFA (2 threads, leaf capacity 8, 4-symbol words,
/// sample ratio 0.5, automatic repacking off), then `dataset(50, 64,
/// 1000)` inserted — 70 leaves, 48 of them unpacked, one subtree the
/// inserts created, and collect lanes pointing at split nodes.
const V1_UNPACKED: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/snapshot_v1_unpacked.idx");

#[test]
fn version_1_snapshot_with_unpacked_leaves_opens_and_answers_exactly() {
    let n = 64;
    let info = sofa::describe(V1_UNPACKED).expect("describe");
    assert_eq!(info.format_version, 1);
    assert_eq!(info.capabilities.n_rows, 350);
    let opened = SofaIndex::open(V1_UNPACKED).expect("open a stale format-1 file");
    // Folded once at open: every leaf packed, nothing in the delta.
    let s = opened.stats();
    assert_eq!((s.n_series, s.delta_rows, s.folds), (350, 0, 1));
    assert_eq!(s.packed_leaves, s.leaves);
    let mut all = dataset(300, n, 21);
    all.extend_from_slice(&dataset(50, n, 1000));
    let flat = FlatL2::new(&all, n, 2);
    for (qi, q) in dataset(200, n, 40_000).chunks(n).enumerate() {
        let k = 1 + qi % 10;
        let got = opened.knn(q, k).expect("query");
        for (g, w) in got.iter().zip(flat.knn_one(q, k).iter()) {
            assert_eq!(g.row, w.row, "query {qi} k={k}");
        }
    }
    // Row ids survived: every stored row is its own nearest neighbour.
    for (row, q) in all.chunks(n).enumerate() {
        assert_eq!(opened.nn(q).expect("query").row, row as u32, "row {row}");
    }
}
