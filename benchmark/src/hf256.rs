//! `hf256-single`: the paper's headline regime. LenDB-profile broadband
//! series of length 256, ~200k rows (~200 MB, far above the cache); one
//! closed-loop client asks `knn(q, 10)` of held-out queries. No serve
//! layer and no writes: pruning, refine and the kernels do the work. The
//! traced run also probes the serve and shard layers over the same rows
//! (see `serve`).

use crate::common::{self, median, part_percentile, secs, Metrics, Outcome, Params, Rng};
use crate::layers::{self, K};
use crate::oracle::{bits_eq, normalized, Oracle, TopK};
use crate::serve;
use crate::trace::{traced, Tracer};
use sofa::{Neighbor, SofaIndex};
use std::time::Instant;

/// Builds timed per run; set-up is their median.
const SETUPS: usize = 5;
/// The closed loop's latency limit, for `slo_qps`.
const LIMIT_MS: f64 = 5.0;

pub fn run(p: &Params, copy_gbps: f64) -> Outcome {
    let rows = p.size(200_000, 3_000);
    let nq = p.size(1024, 16);
    let ds = common::dataset_spec("LenDB", p.seed).generate(rows, nq);
    let n = ds.series_len();
    let query_rows = ds.queries().to_vec();
    let queries: Vec<&[f32]> = query_rows.chunks(n).collect();

    let oracle = Oracle::from_built(ds.data(), n);
    let zq: Vec<Vec<f32>> = queries.iter().map(|q| normalized(q)).collect();
    let mut want = vec![TopK::new(K); nq];
    oracle.knn_into(&zq, 0, &mut want, common::nproc());

    let mut setup = Vec::new();
    let mut breakdown = Vec::new();
    let mut index = None;
    for _ in 0..SETUPS {
        drop(index.take());
        let t = Instant::now();
        let built = SofaIndex::builder().build_sofa(ds.data(), n).expect("build");
        setup.push(secs(t));
        breakdown.push(built.build_breakdown());
        index = Some(built);
    }
    let index = index.expect("at least one build");
    println!("set-up: {setup:.3?} s");
    // The rows stay only for the traced run's serve probe.
    let data = p.trace.then_some(ds);

    // Warm: one pass over the query pool.
    for q in &queries {
        index.knn(q, K).expect("warm-up k-NN");
    }

    // The closed loop makes passes over the pool, each visiting every
    // query once in a fresh seeded order, so every pass asks the same
    // work. Statistics are taken per complete pass and read across passes
    // (see `part_percentile`; throughputs at the median pass). Under
    // trace, odd passes are traced and even ones not, so the tracing
    // overhead is measured on the same index in the same run.
    let mut rng = Rng::new(p.seed);
    let tracer = p.trace.then(Tracer::new);
    let mut answers: Vec<(usize, Result<Vec<Neighbor>, sofa::IndexError>)> = Vec::new();
    let (mut lat_ms, mut pass_s) = (Vec::new(), Vec::new());
    let start = Instant::now();
    'run: loop {
        let tr = tracer.as_ref().filter(|_| lat_ms.len() % 2 == 1);
        let mut order: Vec<usize> = (0..nq).collect();
        for i in (1..nq).rev() {
            order.swap(i, rng.below(i + 1));
        }
        let pass = Instant::now();
        let mut lat = Vec::with_capacity(nq);
        for qi in order {
            if secs(start) >= p.seconds {
                // A partial pass counts only when no pass completed.
                if lat_ms.is_empty() {
                    pass_s.push(secs(pass));
                    lat_ms.push(lat);
                }
                break 'run;
            }
            let req = answers.len() as u64;
            let t = Instant::now();
            let got = traced(tr, "request", req, 0, |id| {
                traced(tr, "index.knn", req, id, |_| index.knn(queries[qi], K))
            });
            lat.push(secs(t) * 1e3);
            answers.push((qi, got));
        }
        pass_s.push(secs(pass));
        lat_ms.push(lat);
    }

    let mut m = Metrics::default();
    let mut served = Vec::new();
    if let (Some(t), Some(data)) = (tracer.as_ref(), data) {
        let sample: Vec<&[f32]> = queries.iter().take(64).copied().collect();
        layers::funnel(t, &[index.raw()], &sample, 1 << 32, &mut m);
        served = serve::probe(t, data.data(), n, &sample, &mut m);
        drop(data);
        let (mut transform, mut tree): (Vec<f64>, Vec<f64>) = breakdown.into_iter().unzip();
        m.put("index.build_transform_s", median(&mut transform));
        m.put("index.build_tree_s", median(&mut tree));
        m.put("index.fallback_leaf_pct", index.stats().fallback_leaf_pct);
        layers::kernels(n, oracle.rows(), index.pool(), copy_gbps, &mut m);
        layers::flat_baseline(t, oracle.into_rows(), n, &sample[..8], &mut m);
        let mut qps = [Vec::new(), Vec::new()];
        for (i, s) in pass_s.iter().enumerate() {
            qps[i % 2].push(nq as f64 / s);
        }
        // A run too short for a traced pass reports no overhead.
        let [mut untraced, mut traced] = qps;
        if !traced.is_empty() {
            m.put(
                "trace.overhead_pct",
                100.0 * (1.0 - median(&mut traced) / median(&mut untraced)),
            );
        }
        t.save("hf256-single", p.seed);
    } else {
        let setup_s = median(&mut setup);
        let per_pass = |f: &dyn Fn(&Vec<f64>) -> f64| {
            median(&mut lat_ms.iter().zip(&pass_s).map(|(l, s)| f(l) / s).collect::<Vec<_>>())
        };
        m.put("setup_s", setup_s);
        m.put("qps", per_pass(&|l| l.len() as f64));
        m.put("p50_ms", part_percentile(&lat_ms, 50.0));
        m.put("p99_ms", part_percentile(&lat_ms, 99.0));
        m.put("slo_qps", per_pass(&|l| l.iter().filter(|&&x| x <= LIMIT_MS).count() as f64));
        m.put("insert_rows_per_s", rows as f64 / setup_s);
    }

    let mut failed = 0;
    let mut inexact = 0;
    let checks = answers.iter().map(|(q, got)| (q, got.as_ref().ok()));
    let served_checks = served.iter().map(|(q, got)| (q, got.as_ref().ok()));
    for (&q, got) in checks.chain(served_checks) {
        match got {
            Some(got) => inexact += u64::from(!bits_eq(got, want[q].items())),
            None => failed += 1,
        }
    }
    let attempted = (answers.len() + served.len()) as u64;
    Outcome { metrics: m, attempted, failed, inexact }
}
