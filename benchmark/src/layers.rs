//! Per-layer measurements of the traced run: the query funnel's counters
//! and call spans over sampled queries, and the kernels each layer is
//! built on, timed in isolation.

use crate::common::{median, secs, Metrics, Rng};
use crate::oracle::normalized;
use crate::trace::Tracer;
use sofa::index::Index;
use sofa::summaries::{QueryContext, Sfa};
use sofa::{ExecPool, QueryStats};
use std::hint::black_box;
use std::time::Instant;

/// Neighbors per query in every workload.
pub const K: usize = 10;

/// Spans and counters of the query funnel over `queries`, on every shard
/// of the index (one shard for an unsharded index). Request ids start at
/// `req0`. Per query, each shard is asked for its approximate seed, a
/// plain k-NN and a counted k-NN; the counters are summed over shards,
/// since a sharded query runs every shard's funnel.
pub fn funnel(t: &Tracer, shards: &[&Index<Sfa>], queries: &[&[f32]], req0: u64, m: &mut Metrics) {
    let mut total = QueryStats::default();
    for (i, q) in queries.iter().enumerate() {
        let req = req0 + i as u64;
        t.span("request", req, 0, |p| {
            let zq = normalized(q);
            t.span("summaries.prep", req, p, |_| {
                black_box(QueryContext::new(shards[0].summarization(), &zq).word());
            });
            for shard in shards {
                t.span("index.seed", req, p, |_| black_box(shard.approximate_nn(q)))
                    .expect("approximate seed");
                t.span("index.knn", req, p, |_| black_box(shard.knn(q, K))).expect("k-NN");
                let (_, st) = t
                    .span("index.knn_with_stats", req, p, |_| shard.knn_with_stats(q, K))
                    .expect("counted k-NN");
                add(&mut total, &st);
            }
        });
    }
    let per_q = |v: usize| v as f64 / queries.len() as f64;
    m.put("index.query_us", t.median_us("index.knn"));
    m.put("index.seed_us", t.median_us("index.seed"));
    m.put("index.lbd_checked", per_q(total.series_lbd_checked));
    m.put("index.rows_refined", per_q(total.series_refined));
    let checked = total.series_lbd_checked.max(1) as f64;
    m.put("index.prune_ratio", 1.0 - total.series_refined as f64 / checked);
    m.put("index.leaves_refined", per_q(total.leaves_refined));
    m.put("index.nodes_pruned", per_q(total.nodes_pruned));
    m.put("index.refine_bytes", per_q(total.refine_bytes));
    m.put("index.quant_groups", per_q(total.quant_groups_swept));
    let lanes = (8 * total.quant_groups_swept).max(1) as f64;
    m.put("index.quant_kill_ratio", total.quant_lanes_killed as f64 / lanes);
    m.put("summaries.prep_us", t.median_us("summaries.prep"));
}

fn add(sum: &mut QueryStats, s: &QueryStats) {
    sum.series_lbd_checked += s.series_lbd_checked;
    sum.series_refined += s.series_refined;
    sum.leaves_refined += s.leaves_refined;
    sum.nodes_pruned += s.nodes_pruned;
    sum.refine_bytes += s.refine_bytes;
    sum.quant_groups_swept += s.quant_groups_swept;
    sum.quant_lanes_killed += s.quant_lanes_killed;
}

/// Median over five repetitions of the time per call of `f`, run
/// `iters` times per repetition, in ns.
fn ns_per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut reps: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            secs(t) * 1e9 / iters as f64
        })
        .collect();
    median(&mut reps)
}

/// The kernels under the funnel at series length `n`, each timed alone:
/// the dispatched L2 kernel streamed over `rows` (the stored rows, far
/// above cache), the 8-candidate word and quantized lower bounds, the
/// real DFT of query prep, and a no-op broadcast on the index's pool.
pub fn kernels(n: usize, rows: &[f32], pool: &ExecPool, copy_gbps: f64, m: &mut Metrics) {
    let mut rng = Rng::new(n as u64);
    let q: Vec<f32> = (0..n).map(|_| rng.below(1000) as f32 / 500.0 - 1.0).collect();

    let count = rows.len() / n;
    let mut scan: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut acc = 0.0f32;
            for r in rows.chunks_exact(n) {
                acc += sofa::simd::euclidean_sq(black_box(&q), r);
            }
            black_box(acc);
            secs(t)
        })
        .collect();
    let scan_s = median(&mut scan);
    m.put("simd.l2_ns", scan_s * 1e9 / count as f64);
    m.put("simd.l2_gbps", (count * n * 4) as f64 / scan_s / 1e9);

    // One 8-candidate group at the default word length of 16.
    let word = 16;
    let values: Vec<f32> = (0..word).map(|_| rng.below(1000) as f32 / 100.0 - 5.0).collect();
    let weights = vec![2.0f32; word];
    let mut bounds = Vec::with_capacity(word * sofa::simd::BOUNDS_STRIDE);
    for _ in 0..word {
        let lo: Vec<f32> = (0..8).map(|_| rng.below(1000) as f32 / 100.0 - 6.0).collect();
        bounds.extend_from_slice(&lo);
        bounds.extend(lo.iter().map(|x| x + 1.0));
    }
    let mut out = [0.0f32; 8];
    let ns = ns_per_call(200_000, || {
        black_box(sofa::simd::block_lower_bound(
            black_box(&values),
            &weights,
            &bounds,
            f32::INFINITY,
            &mut out,
        ));
    });
    m.put("simd.mindist_block_ns", ns);

    let qcodes: Vec<u8> = (0..n).map(|_| rng.below(256) as u8).collect();
    let codes: Vec<u8> = (0..8 * n).map(|_| rng.below(256) as u8).collect();
    let thr = [i32::MAX; 8];
    let mut sums = [0i32; 8];
    let ns = ns_per_call(100_000, || {
        black_box(sofa::simd::quant_lower_bound(black_box(&qcodes), &codes, &thr, &mut sums));
    });
    m.put("simd.quant_lb_ns", ns);
    m.put("simd.copy_gbps", copy_gbps);

    let mut dft = sofa::fft::RealDft::new(n);
    let mut coeffs = vec![0.0f32; 2 * dft.num_coefficients()];
    let ns = ns_per_call(100_000, || dft.transform_into(black_box(&q), &mut coeffs));
    m.put("fft.rdft_ns", ns);

    let ns = ns_per_call(2_000, || {
        pool.broadcast(|lane| {
            black_box(lane);
        })
    });
    m.put("exec.broadcast_us", ns / 1e3);
}

/// The paper's scan comparator: brute-force k-NN over the same rows for a
/// few sampled queries, in ms per query.
pub fn flat_baseline(t: &Tracer, rows: Vec<f32>, n: usize, queries: &[&[f32]], m: &mut Metrics) {
    let flat = sofa::baselines::FlatL2::new_owned(rows, n, crate::common::nproc());
    for (i, q) in queries.iter().enumerate() {
        t.span("baselines.flat", u64::MAX - i as u64, 0, |_| black_box(flat.knn_one(q, K)));
    }
    m.put("baselines.flat_ms", t.median_us("baselines.flat") / 1e3);
}
