//! The serve and shard layers, probed in the traced run of
//! `hf256-single`: the workload's rows in a 2-way `ShardedSofaIndex`
//! behind a `Server` with the default `ServeConfig`. Two submitter threads
//! offer k-NN requests on a fixed schedule; then the same queries are
//! asked one at a time through the server, the sharded index and each
//! shard, so the serve and shard layers' own costs show.

use crate::common::{median, percentile, Metrics};
use crate::layers::K;
use crate::trace::Tracer;
use sofa::{Neighbor, QueryKind, ServeConfig, ServeError, Server, ShardedSofaIndex, SofaIndex};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
/// Submitter threads: at most `nproc` (2) load threads.
const SUBMITTERS: usize = 2;
/// Offered rate in requests/s, well below the served capacity on a
/// 2-vCPU Xeon, and how long it is offered.
const RATE: f64 = 400.0;
const OFFER_S: f64 = 2.0;

type Sharded = Arc<ShardedSofaIndex>;
/// One offered request's answer, with the index of its query.
type Answer = (usize, Result<Vec<Neighbor>, ServeError>);

/// Runs the probe over `data` (row-major, length `n`) and returns the
/// answer of every offered request with its query's index, for the
/// exactness check.
pub fn probe(
    t: &Tracer,
    data: &[f32],
    n: usize,
    queries: &[&[f32]],
    m: &mut Metrics,
) -> Vec<Answer> {
    let sharded: Sharded =
        Arc::new(SofaIndex::builder().build_sofa_sharded(data, n, SHARDS).expect("sharded build"));
    let server = Server::new(Arc::clone(&sharded), ServeConfig::default());
    for q in queries {
        server.knn(q, K).expect("warm-up query");
    }

    let stats0 = server.stats();
    let (answers, mut late_ms) = offer(t, &server, queries);
    let stats1 = server.stats();
    let dq = (stats1.queries - stats0.queries) as f64;
    let wait = stats1.mean_ticket_wait_us * stats1.queries as f64
        - stats0.mean_ticket_wait_us * stats0.queries as f64;
    m.put("serve.queue_wait_us", wait / dq.max(1.0));
    m.put("serve.tick_fill", dq / (stats1.ticks - stats0.ticks).max(1) as f64);
    m.put("serve.ticks", (stats1.ticks - stats0.ticks) as f64);
    m.put("serve.max_queue_depth", stats1.max_queue_depth as f64);
    m.put("serve.shed", (stats1.shed - stats0.shed) as f64);
    m.put("serve.expired", (stats1.expired - stats0.expired) as f64);
    m.put("serve.aborted", (stats1.aborted - stats0.aborted) as f64);
    m.put("gen.late_p99_ms", percentile(&mut late_ms, 99.0));

    one_at_a_time(t, &server, &sharded, queries, m);
    answers
}

/// Offers `RATE` k-NN requests per second for `OFFER_S` from `SUBMITTERS`
/// threads, cycling through `queries`, and returns the answers and how
/// late each request was sent.
fn offer(t: &Tracer, server: &Server<Sharded>, queries: &[&[f32]]) -> (Vec<Answer>, Vec<f64>) {
    let total = (RATE * OFFER_S) as usize;
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..SUBMITTERS)
            .map(|_| {
                s.spawn(|| {
                    let (mut answers, mut late) = (Vec::new(), Vec::new());
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break (answers, late);
                        }
                        let due = start + Duration::from_secs_f64(i as f64 / RATE);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        late.push(due.elapsed().as_secs_f64() * 1e3);
                        let q = i % queries.len();
                        let req = (1 << 40) + i as u64;
                        answers.push((
                            q,
                            t.span("request", req, 0, |id| {
                                t.span("serve.query", req, id, |_| server.knn(queries[q], K))
                            }),
                        ));
                    }
                })
            })
            .collect();
        let (mut answers, mut late) = (Vec::new(), Vec::new());
        for w in workers {
            let (a, l) = w.join().expect("submitter thread panicked");
            answers.extend(a);
            late.extend(l);
        }
        (answers, late)
    })
}

/// `Server::query` against a direct sharded call on the same query, and
/// the sharded call against its slowest shard's `Index::knn`.
fn one_at_a_time(
    t: &Tracer,
    server: &Server<Sharded>,
    sharded: &ShardedSofaIndex,
    queries: &[&[f32]],
    m: &mut Metrics,
) {
    let knn = QueryKind::Knn { k: K };
    for (i, q) in queries.iter().enumerate() {
        let req = (1 << 48) + i as u64;
        t.span("request", req, 0, |p| {
            t.span("serve.query", req, p, |_| server.query(q, knn.clone())).expect("served");
            t.span("shard.query", req, p, |_| sharded.query(q, knn.clone())).expect("sharded");
            for shard in sharded.shards() {
                t.span("shard.index_knn", req, p, |_| shard.knn(q, K)).expect("shard k-NN");
            }
        });
    }
    let direct = t.by_request("shard.query");
    let per_shard = t.by_request("shard.index_knn");
    let mut fanout = Vec::new();
    let mut imbalance = 0.0;
    for (req, call) in &direct {
        let shards = &per_shard[req];
        let slowest = shards.iter().copied().fold(0.0, f64::max);
        let mean = shards.iter().sum::<f64>() / shards.len() as f64;
        fanout.push(call[0] - slowest);
        imbalance += slowest / mean;
    }
    let mut overhead: Vec<f64> = t
        .by_request("serve.query")
        .iter()
        .filter(|(r, _)| direct.contains_key(r))
        .map(|(r, s)| s[0] - direct[r][0])
        .collect();
    m.put("serve.overhead_us", median(&mut overhead));
    m.put("shard.fanout_us", median(&mut fanout));
    m.put("shard.imbalance", imbalance / direct.len() as f64);
}
