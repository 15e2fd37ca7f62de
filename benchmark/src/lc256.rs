//! `lc256-ingest`: writes beside reads on a mapped snapshot.
//! ISC_EHB_DepthPhases-profile series with instance noise 0.5 (the
//! low-contrast regime), length 256, ~100k rows. Build and snapshot are
//! preparation; set-up is `SofaIndex::open` plus the first query. One
//! client then alternates a `knn_batch` of 32 queries with a burst of
//! 1000 single-row inserts, across several auto-repack cycles. Refine is
//! bandwidth-bound here and the quantized tier kills the most candidates;
//! the inserts exercise copy-on-write promotion, fallback leaves and
//! auto-repack.

use crate::common::{
    self, median, part_percentile, percentile, secs, Metrics, Outcome, Params, Rng,
};
use crate::layers::{self, K};
use crate::oracle::{bits_eq, normalized, Oracle, TopK};
use crate::trace::{traced, Tracer};
use sofa::{Neighbor, SofaIndex};
use std::time::Instant;

/// Queries per batch call.
const BATCH: usize = 32;
/// Rows per insert burst.
const BURST: usize = 1000;
/// Opens timed per run; set-up is their median.
const OPENS: usize = 5;
/// The batch call's latency limit, for `slo_qps`.
const LIMIT_MS: f64 = 500.0;

/// One batch call of the timed phase.
struct Round {
    queries: Vec<usize>,
    /// Rows in the index when the batch ran.
    rows: usize,
    answers: Result<Vec<Vec<Neighbor>>, sofa::IndexError>,
}

pub fn run(p: &Params, copy_gbps: f64) -> Outcome {
    let rows = p.size(100_000, 3_000);
    let stream_rows = p.size(100_000, 6_000);
    let nq = p.size(128, 48);
    let mut spec = common::dataset_spec("ISC_EHB_DepthPhases", p.seed);
    spec.instance_noise = 0.5;
    let ds = spec.generate(rows + stream_rows, nq);
    let n = ds.series_len();
    let (built, stream) = ds.data().split_at(rows * n);
    let queries: Vec<&[f32]> = ds.queries().chunks(n).collect();

    // Preparation, untimed: build and snapshot.
    let path = common::scratch_dir().join(format!("lc256-ingest-{}.snapshot", p.seed));
    let prep = SofaIndex::builder().build_sofa(built, n).expect("build");
    let (build_transform_s, build_tree_s) = prep.build_breakdown();
    let snapshot_bytes = prep.snapshot(&path).expect("snapshot");
    drop(prep);

    let mut oracle = Oracle::from_built(built, n);
    let zq: Vec<Vec<f32>> = queries.iter().map(|q| normalized(q)).collect();
    let mut want = vec![TopK::new(K); nq];
    oracle.knn_into(&zq, 0, &mut want, common::nproc());

    let mut attempted = 0;
    let mut failed = 0;
    let mut inexact = 0;
    let (mut setup, mut open_s, mut first_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut index = None;
    for _ in 0..OPENS {
        drop(index.take());
        let t = Instant::now();
        let opened = SofaIndex::open(&path).expect("open the snapshot");
        let opened_s = secs(t);
        let first = opened.knn(queries[0], K);
        setup.push(secs(t));
        open_s.push(opened_s);
        first_ms.push((secs(t) - opened_s) * 1e3);
        attempted += 1;
        match first {
            Ok(got) => inexact += u64::from(!bits_eq(&got, want[0].items())),
            Err(_) => failed += 1,
        }
        index = Some(opened);
    }
    let mut index = index.expect("at least one open");
    println!("set-up: {setup:.3?} s");

    let tracer = p.trace.then(Tracer::new);
    let mut rng = Rng::new(p.seed);
    let mut rounds = Vec::new();
    // Call latencies per round: a round's p50 and p99 rest on its 1001
    // calls, and the run reads them across rounds (see `part_percentile`).
    let mut lat_ms = Vec::new();
    let mut batch_ms = Vec::new();
    let mut insert_us = Vec::new();
    let mut fallback_pct = Vec::new();
    let (mut batch_s, mut insert_s, mut inserted) = (0.0, 0.0, 0usize);
    // Under trace, rounds alternate untraced and traced so the tracing
    // overhead is measured on the same index in the same run.
    let mut slice_q = [0usize; 2];
    let mut slice_s = [0.0f64; 2];
    let mut req = 0u64;
    let start = Instant::now();
    while secs(start) < p.seconds && inserted + BURST <= stream_rows {
        let on = p.trace && rounds.len() % 2 == 1;
        let tr = tracer.as_ref().filter(|_| on);
        let picked: Vec<usize> = (0..BATCH).map(|_| rng.below(nq)).collect();
        let batch: Vec<f32> = picked.iter().flat_map(|&q| queries[q].iter().copied()).collect();
        if p.trace {
            fallback_pct.push(index.stats().fallback_leaf_pct);
        }
        let t = Instant::now();
        let answers = traced(tr, "request", req, 0, |id| {
            traced(tr, "index.knn_batch", req, id, |_| index.knn_batch(&batch, K))
        });
        let dt = secs(t);
        req += 1;
        batch_s += dt;
        let mut calls_ms = vec![dt * 1e3];
        batch_ms.push(dt * 1e3);
        slice_q[usize::from(on)] += BATCH;
        slice_s[usize::from(on)] += dt;
        rounds.push(Round { queries: picked, rows: rows + inserted, answers });

        let burst = Instant::now();
        for row in stream[inserted * n..(inserted + BURST) * n].chunks(n) {
            let t = Instant::now();
            let ok = traced(tr, "request", req, 0, |id| {
                traced(tr, "index.insert", req, id, |_| index.insert(row))
            });
            let dt = secs(t);
            req += 1;
            attempted += 1;
            failed += u64::from(ok.is_err());
            insert_us.push(dt * 1e6);
            calls_ms.push(dt * 1e3);
        }
        lat_ms.push(calls_ms);
        insert_s += secs(burst);
        inserted += BURST;
    }

    // Replay the ingest into the oracle and check every batch answer
    // against the rows that existed when it ran.
    let mut checked_rows = rows;
    for round in &rounds {
        for row in stream[(checked_rows - rows) * n..(round.rows - rows) * n].chunks(n) {
            oracle.push_inserted(row);
        }
        oracle.knn_into(&zq, checked_rows, &mut want, common::nproc());
        checked_rows = round.rows;
        attempted += BATCH as u64;
        match &round.answers {
            Ok(answers) => {
                for (&q, got) in round.queries.iter().zip(answers) {
                    inexact += u64::from(!bits_eq(got, want[q].items()));
                }
            }
            Err(_) => failed += BATCH as u64,
        }
    }
    std::fs::remove_file(&path).expect("remove the snapshot");

    let queries_done = (rounds.len() * BATCH) as f64;
    let mut m = Metrics::default();
    if let Some(t) = tracer.as_ref() {
        m.put("index.build_transform_s", build_transform_s);
        m.put("index.build_tree_s", build_tree_s);
        m.put("index.first_insert_ms", insert_us[0] / 1e3);
        m.put("index.insert_us.p50", percentile(&mut insert_us, 50.0));
        m.put("index.insert_us.max", percentile(&mut insert_us, 100.0));
        m.put(
            "index.fallback_leaf_pct",
            fallback_pct.iter().sum::<f64>() / fallback_pct.len() as f64,
        );
        m.put("snapshot.open_s", median(&mut open_s));
        m.put("snapshot.first_query_ms", median(&mut first_ms));
        m.put("snapshot.bytes", snapshot_bytes as f64);
        let sample: Vec<&[f32]> = queries.iter().take(32).copied().collect();
        layers::funnel(t, &[index.raw()], &sample, 1 << 32, &mut m);
        layers::kernels(n, oracle.rows(), index.pool(), copy_gbps, &mut m);
        layers::flat_baseline(t, oracle.into_rows(), n, &sample[..8], &mut m);
        // A run too short for a traced round reports no overhead.
        if slice_s[1] > 0.0 {
            let qps_untraced = slice_q[0] as f64 / slice_s[0];
            let qps_traced = slice_q[1] as f64 / slice_s[1];
            m.put("trace.overhead_pct", 100.0 * (1.0 - qps_traced / qps_untraced));
        }
        t.save("lc256-ingest", p.seed);
    } else {
        let met = batch_ms.iter().filter(|&&l| l <= LIMIT_MS).count();
        m.put("setup_s", median(&mut setup));
        m.put("qps", queries_done / batch_s);
        m.put("p50_ms", part_percentile(&lat_ms, 50.0));
        m.put("p99_ms", part_percentile(&lat_ms, 99.0));
        m.put("slo_qps", (met * BATCH) as f64 / batch_s);
        m.put("insert_rows_per_s", inserted as f64 / insert_s);
    }
    println!(
        "ingest: {} rounds, {inserted} rows inserted, {:.1} ms per batch",
        rounds.len(),
        1e3 * batch_s / rounds.len().max(1) as f64
    );
    Outcome { metrics: m, attempted, failed, inexact }
}
