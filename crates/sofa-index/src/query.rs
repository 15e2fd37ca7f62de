//! Exact query answering (paper §IV-C, Figure 5 stage 2).
//!
//! The three GEMINI phases — approximate seed, parallel collect, parallel
//! refine — are documented on the crate root. All pruning decisions flow
//! through one [`PruneBound`] policy object (see [`crate::prune`]): the
//! same funnel answers **k-NN** (shrinking k-th-best bound), **range**
//! (fixed epsilon radius, strict pruning, ties at the radius kept), and
//! **max-inner-product** (the Parseval score-to-L2-radius conversion),
//! each exactly. Every surviving candidate pays a SIMD lower-bound check
//! before its exact score is computed, both early-abandoned against the
//! policy's squared-L2 threshold.
//!
//! Filtered queries thread a [`RowFilter`] predicate *into* the funnel:
//! the approximate seed skips rejected rows (so the bound never tightens
//! on an inadmissible row — a correctness requirement, not an
//! optimization), and the refine sweeps AND the per-group live mask into
//! the SIMD kernels ([`mindist_block_masked`] /
//! [`quant_lower_bound_masked`]), where dead lanes price as `+inf` and
//! accelerate whole-group abandons. Live lanes stay bit-identical to the
//! unfiltered sweep across every kernel tier.
//!
//! Both batched sweeps run here. The **collect phase** prices each
//! subtree with one [`RootLbd`] XOR evaluation, then sweeps the subtree's
//! leaves 8 at a time through [`mindist_node_block`] over the
//! build-time-resolved [`crate::CollectBlock`] (whole groups of leaves
//! abandon against the bound mid-sum); the **refine phase** then
//! lower-bounds each surviving leaf's candidates 8 at a time through
//! [`mindist_block`]. Scalar `mindist_node` survives only on the cold
//! approximate descent.
//!
//! Rows inserted since the last fold live in the index's delta, outside
//! the tree. Every query kind answers tree ∪ delta: once the tree funnel
//! has run (unchanged), the delta rows are scanned across the pool lanes
//! through the same [`PruneBound`] — word lower bound first
//! ([`mindist_simd`]), then the exact kernel. Bounds only tighten, so
//! tree pruning decisions made before the delta was seen stay valid. The
//! delta never holds more than one leaf's worth of rows.
//!
//! Parallel phases execute on the index's persistent
//! [`sofa_exec::ExecPool`] (no per-query thread spawning), and every
//! per-query buffer — context values, query word, queues, k-NN heap,
//! range hit list, dead-lane markers — comes from a pooled
//! [`crate::scratch::QueryScratch`], so the steady-state serial path
//! performs zero heap allocations and [`Index::query_batch`] lanes reuse
//! one scratch per lane across the whole mini-batch.

use crate::bsf::{IpNeighbor, Neighbor};
use crate::filter::RowFilter;
use crate::node::{root_key, LeafPack, NodeKind, Subtree};
use crate::prune::{IpBound, KnnBound, PruneBound, RangeBound};
use crate::scratch::{LaneScratch, LeafQueue, QueryScratch, QueueEntry};
use crate::{Index, IndexError};
use parking_lot::Mutex;
use sofa_exec::CancelToken;
use sofa_simd::{quant_lower_bound, quant_lower_bound_masked, BLOCK_LANES, BOUNDS_STRIDE};
use sofa_summaries::{
    mindist_block, mindist_block_masked, mindist_level_block, mindist_node, mindist_node_block,
    mindist_simd, QueryContext, RootLbd, Summarization,
};
use std::cmp::Reverse;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Minimum word-bound survivors in an 8-lane group before the quantized
/// refine tier prices it. The integer sweep streams the whole group's
/// codes (`8n` bytes) until every lane resolves, so a sparse group —
/// where most lanes are already dead and the few survivors keep the
/// sweep alive to the end — costs more than the `f32` scans it could
/// retire. Only near-full groups, where one pass over the codes can
/// kill several rows at a quarter of their `f32` traffic, clear the
/// bar (value tuned empirically on the `ext-throughput` A/B arms).
const QUANT_MIN_SURVIVORS: usize = 6;

/// Delta rows a lane claims per step of the delta scan: large enough to
/// amortize the shared counter, small enough to spread a full delta
/// (one leaf, 20,000 rows by default) across the pool lanes.
const DELTA_CHUNK: usize = 256;

/// Counters describing how much work one query performed — the raw
/// material for the paper's pruning-power discussion (§V-E).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Leaves pushed into the priority queues.
    pub leaves_collected: usize,
    /// Leaves whose series were actually examined.
    pub leaves_refined: usize,
    /// Nodes pruned by a node-level lower bound: whole subtrees at the
    /// root gate, collect-block lanes (individually or by whole-group
    /// abandon), and scalar-DFS nodes on the fallback paths.
    pub nodes_pruned: usize,
    /// Per-series lower-bound evaluations (predicate-rejected rows are
    /// never evaluated and excluded here).
    pub series_lbd_checked: usize,
    /// Per-series exact evaluations (survived the LBD).
    pub series_refined: usize,
    /// Queues abandoned because their minimum exceeded the bound.
    pub queues_abandoned: usize,
    /// 8-candidate groups swept by the block lower-bound kernel.
    pub block_groups_swept: usize,
    /// Candidate lanes pruned by the block sweep (whole-group abandons
    /// plus individual lanes at or above the bound).
    pub block_lanes_abandoned: usize,
    /// 8-leaf groups swept by the collect-phase node-block kernel.
    pub collect_groups_swept: usize,
    /// 8-node groups swept by the hierarchy-level collect kernel (deep
    /// trees only; each pruned lane retires a whole leaf range).
    pub collect_level_groups_swept: usize,
    /// Leaf-fringe lanes retired wholesale by a pruned ancestor level
    /// lane — leaves the collect phase never had to price individually.
    pub collect_leaves_retired_by_levels: usize,
    /// 8-candidate groups swept by the quantized refine kernel (the
    /// compressed middle tier between the word bound and the exact scan).
    pub quant_groups_swept: usize,
    /// Candidate lanes the quantized tier pruned after the word bound let
    /// them through — exact `f32` scans that never happened.
    pub quant_lanes_killed: usize,
    /// Refine-phase candidate lanes a [`RowFilter`] predicate rejected
    /// before any bound was evaluated (each masked lane is counted once,
    /// whether its group was swept masked or skipped outright). Zero for
    /// unfiltered queries.
    pub predicate_lanes_masked: usize,
    /// Rows a range query returned (`d² <= r²`). Zero for k-NN/IP
    /// queries, whose answer count is just `min(k, candidates)`.
    pub range_hits: usize,
    /// Estimated refine-phase bytes read: word-block bounds swept + quant
    /// codes swept + exact rows scanned. The funnel's bandwidth metric.
    pub refine_bytes: usize,
    /// 1 if this query was abandoned by cooperative cancellation (its
    /// deadline expired or it was shed mid-flight). A cancelled query
    /// produced **no** answer — the other counters describe the partial
    /// work it burned before the checkpoint fired — and it is counted in
    /// [`crate::IndexStats::queries_cancelled`], not `queries_served`.
    pub cancelled: usize,
}

#[derive(Default)]
struct AtomicStats {
    leaves_collected: AtomicUsize,
    leaves_refined: AtomicUsize,
    nodes_pruned: AtomicUsize,
    series_lbd_checked: AtomicUsize,
    series_refined: AtomicUsize,
    queues_abandoned: AtomicUsize,
    block_groups_swept: AtomicUsize,
    block_lanes_abandoned: AtomicUsize,
    collect_groups_swept: AtomicUsize,
    collect_level_groups_swept: AtomicUsize,
    collect_leaves_retired_by_levels: AtomicUsize,
    quant_groups_swept: AtomicUsize,
    quant_lanes_killed: AtomicUsize,
    predicate_lanes_masked: AtomicUsize,
    refine_bytes: AtomicUsize,
}

/// Per-query scratch of the quantized refine tier: the query's codes
/// under the index-wide grid and its reconstruction-error norm. The grid
/// is shared by every leaf, so both are computed at most once per query —
/// lazily, on the first group that engages the tier — and reused across
/// every leaf a worker refines. `err_q == NaN` marks the codes as
/// not-yet-computed.
struct QuantScratch {
    codes: [u8; crate::node::QUANT_REFINE_MAX_LEN],
    err_q: f64,
}

impl QuantScratch {
    fn new() -> Self {
        Self { codes: [0; crate::node::QUANT_REFINE_MAX_LEN], err_q: f64::NAN }
    }
}

impl AtomicStats {
    fn snapshot(&self) -> QueryStats {
        QueryStats {
            leaves_collected: self.leaves_collected.load(Ordering::Relaxed),
            leaves_refined: self.leaves_refined.load(Ordering::Relaxed),
            nodes_pruned: self.nodes_pruned.load(Ordering::Relaxed),
            series_lbd_checked: self.series_lbd_checked.load(Ordering::Relaxed),
            series_refined: self.series_refined.load(Ordering::Relaxed),
            queues_abandoned: self.queues_abandoned.load(Ordering::Relaxed),
            block_groups_swept: self.block_groups_swept.load(Ordering::Relaxed),
            block_lanes_abandoned: self.block_lanes_abandoned.load(Ordering::Relaxed),
            collect_groups_swept: self.collect_groups_swept.load(Ordering::Relaxed),
            collect_level_groups_swept: self.collect_level_groups_swept.load(Ordering::Relaxed),
            collect_leaves_retired_by_levels: self
                .collect_leaves_retired_by_levels
                .load(Ordering::Relaxed),
            quant_groups_swept: self.quant_groups_swept.load(Ordering::Relaxed),
            quant_lanes_killed: self.quant_lanes_killed.load(Ordering::Relaxed),
            predicate_lanes_masked: self.predicate_lanes_masked.load(Ordering::Relaxed),
            range_hits: 0,
            refine_bytes: self.refine_bytes.load(Ordering::Relaxed),
            cancelled: 0,
        }
    }
}

/// The query request: one kind per query, for single queries
/// ([`Index::query_into`]), mixed batches ([`Index::query_batch`]) and
/// serving front-ends that coalesce heterogeneous tickets into one tick.
///
/// Results always travel as [`Neighbor`] vectors, best first:
///
/// * `Knn`/`KnnFiltered` — `dist_sq` is the squared z-normalized
///   Euclidean distance.
/// * `Range` — every row with `dist_sq <= r_sq` (ties at the radius
///   included), sorted by `(dist_sq, row)`.
/// * `Ip` — `dist_sq` carries the **score** `2n - q·x` (ascending score
///   = descending inner product); convert with
///   [`sofa_summaries::ip_from_score`] or use [`Index::knn_ip`], which
///   recomputes exact dot products for the answer rows.
#[derive(Clone, Debug)]
pub enum QueryKind {
    /// Exact k-nearest-neighbors under squared Euclidean distance.
    Knn {
        /// How many neighbors to return.
        k: usize,
    },
    /// k-NN restricted to the rows a [`RowFilter`] admits — exactly the
    /// result of running k-NN over the admitted subset alone.
    KnnFiltered {
        /// How many neighbors to return.
        k: usize,
        /// The row predicate (must cover exactly `n_series` rows).
        filter: Arc<RowFilter>,
    },
    /// Every row within squared radius `r_sq` of the query.
    Range {
        /// Squared inclusion radius (finite, non-negative).
        r_sq: f32,
    },
    /// Top-k rows by inner product with the z-normalized query.
    Ip {
        /// How many rows to return.
        k: usize,
    },
}

impl QueryKind {
    /// Checks this kind's parameters: `k >= 1`, a finite non-negative
    /// radius, and — when the executor's row count `n_rows` is known — a
    /// filter covering exactly that many rows.
    ///
    /// # Errors
    /// Returns [`IndexError::BadQuery`] naming the violated rule.
    pub fn validate(&self, n_rows: Option<usize>) -> Result<(), IndexError> {
        let bad = |msg: String| Err(IndexError::BadQuery(msg));
        match (self, n_rows) {
            (
                QueryKind::Knn { k: 0 }
                | QueryKind::KnnFiltered { k: 0, .. }
                | QueryKind::Ip { k: 0 },
                _,
            ) => bad("k must be at least 1".into()),
            (QueryKind::KnnFiltered { filter, .. }, Some(rows)) if filter.len() != rows => {
                bad(format!("filter covers {} rows but the index holds {rows}", filter.len()))
            }
            (QueryKind::Range { r_sq }, _) if !(r_sq.is_finite() && *r_sq >= 0.0) => {
                bad(format!("range radius² must be finite and non-negative, got {r_sq}"))
            }
            _ => Ok(()),
        }
    }
}

/// The request check every front end (`Index`, and the sharded index
/// and server in `sofa-serve`) runs before a query reaches the funnel:
/// `queries` holds exactly `kinds.len()` row-major series of `series_len`
/// finite values, there is one output slot per query and either no
/// cancellation token or one per query, and every kind passes
/// [`QueryKind::validate`] against `n_rows`.
///
/// # Errors
/// Returns [`IndexError::BadQuery`] on a shape mismatch or an invalid
/// kind, and [`IndexError::NonFinite`] if a query value is NaN or ±Inf
/// (the funnel would otherwise answer it as a constant series).
pub fn validate_batch(
    queries: &[f32],
    series_len: usize,
    kinds: &[QueryKind],
    n_rows: Option<usize>,
    n_outs: usize,
    n_cancels: usize,
) -> Result<(), IndexError> {
    let m = kinds.len();
    if queries.len() != m * series_len || n_outs != m || (n_cancels != 0 && n_cancels != m) {
        return Err(IndexError::BadQuery(format!(
            "{} floats, {n_outs} output slots and {n_cancels} cancellation tokens \
             for {m} queries of length {series_len}",
            queries.len()
        )));
    }
    if queries.iter().any(|x| !x.is_finite()) {
        return Err(IndexError::NonFinite);
    }
    kinds.iter().try_for_each(|kind| kind.validate(n_rows))
}

/// Has this query's cancellation token fired? (`None` = uncancellable.)
#[inline]
fn fired(cancel: Option<&CancelToken>) -> bool {
    cancel.is_some_and(CancelToken::is_cancelled)
}

/// Moves one answered query's results out of the scratch into `out`
/// (cleared first, best first): the sorted hit list for range, the
/// k-NN/IP set otherwise.
fn drain_results(scratch: &mut QueryScratch, kind: &QueryKind, out: &mut Vec<Neighbor>) {
    out.clear();
    if let QueryKind::Range { .. } = kind {
        let hits = scratch.range.get_mut();
        // Deterministic output independent of worker interleaving.
        hits.sort_unstable();
        out.append(hits);
    } else {
        scratch.knn.drain_sorted_into(out);
    }
}

impl<S: Summarization> Index<S> {
    /// Answers one query of any [`QueryKind`] into `out` (cleared first,
    /// best first, encoded per [`QueryKind`]) and returns its work
    /// counters. Each funnel phase of the lone query runs across the
    /// pool. With a warmed-up scratch pool and a buffer that has held the
    /// answer before, the call performs no heap allocation.
    ///
    /// A `KnnFiltered` predicate is enforced *inside* the funnel: rejected
    /// rows never seed or tighten the bound, and refine-phase lane groups
    /// AND the bitmap into the SIMD sweeps (dead lanes price as `+inf`
    /// and speed up whole-group abandons) — not by post-filtering a wider
    /// answer, which would be both wrong at the bound and slower. Range
    /// pruning is strict, so ties exactly at the radius are included.
    ///
    /// # Errors
    /// As [`validate_batch`]: [`IndexError::BadQuery`] on a length
    /// mismatch or an invalid kind, [`IndexError::NonFinite`] on a NaN or
    /// ±Inf query value.
    pub fn query_into(
        &self,
        query: &[f32],
        kind: &QueryKind,
        out: &mut Vec<Neighbor>,
    ) -> Result<QueryStats, IndexError> {
        let kinds = std::slice::from_ref(kind);
        validate_batch(query, self.series_len, kinds, Some(self.n_series()), 1, 0)?;
        let mut scratch = self.scratch();
        let stats =
            self.query_on_scratch(&mut scratch, query, kind, None, self.pool.threads() == 1);
        drain_results(&mut scratch, kind, out);
        Ok(stats)
    }

    /// Answers a row-major batch, query `i` as `kinds[i]` into `outs[i]`
    /// (each cleared first, encoded per [`QueryKind`]). Queries are
    /// spread across the worker pool — each lane claims queries off a
    /// counter and runs the serial per-query path, reusing one pooled
    /// scratch for every query it claims, so a warm batch allocates
    /// nothing (the FAISS mini-batch model, applied to the tree). A batch
    /// of one keeps intra-query parallelism. This is the engine behind
    /// the micro-batching front-ends; exactly one
    /// [`crate::IndexStats::queries_served`] count is recorded per
    /// answered slot.
    ///
    /// `cancels` is either empty (no cancellation) or one
    /// [`CancelToken`] per query. A query whose token fires — its
    /// deadline passed or a canceller called [`CancelToken::cancel`] —
    /// is abandoned at the next checkpoint (group-sweep granularity
    /// inside collect and refine): its output slot is **not** written,
    /// it lands in `queries_cancelled` instead of `queries_served`, and
    /// its partial work is discarded. Abandonment always latches the
    /// token's fired flag first, so a caller that observes
    /// `!is_cancelled_now()` after this returns knows that slot holds a
    /// complete exact answer.
    ///
    /// # Errors
    /// As [`validate_batch`]: shape mismatches between `queries`,
    /// `kinds`, `outs` and a non-empty `cancels`, an invalid kind, or a
    /// non-finite query value.
    pub fn query_batch(
        &self,
        queries: &[f32],
        kinds: &[QueryKind],
        outs: &[Mutex<Vec<Neighbor>>],
        cancels: &[CancelToken],
    ) -> Result<(), IndexError> {
        let n_queries = kinds.len();
        let n_rows = Some(self.n_series());
        validate_batch(queries, self.series_len, kinds, n_rows, outs.len(), cancels.len())?;
        match n_queries {
            0 => {}
            1 => {
                // A lone query still gets intra-query parallelism, with
                // the token (if any) threaded through the phases.
                let mut scratch = self.scratch();
                let serial = self.pool.threads() == 1;
                let stats = self.query_on_scratch(
                    &mut scratch,
                    queries,
                    &kinds[0],
                    cancels.first(),
                    serial,
                );
                if stats.cancelled == 0 {
                    drain_results(&mut scratch, &kinds[0], &mut outs[0].lock());
                }
            }
            _ if self.pool.threads() == 1 => {
                let mut scratch = self.scratch();
                for i in 0..n_queries {
                    self.batch_query_on_scratch(&mut scratch, queries, kinds, outs, cancels, i);
                }
            }
            _ => {
                let next_query = AtomicUsize::new(0);
                // A tick smaller than the pool leaves the excess lanes
                // asleep: per-tick dispatch cost scales with the queries
                // available.
                self.pool.broadcast_limit(n_queries, |_| {
                    // One scratch per lane for the whole batch: queues,
                    // heaps, context buffers and the DFT executor are
                    // reused across every query this lane claims.
                    let mut scratch = self.scratch();
                    loop {
                        let i = next_query.fetch_add(1, Ordering::Relaxed);
                        if i >= n_queries {
                            break;
                        }
                        self.batch_query_on_scratch(&mut scratch, queries, kinds, outs, cancels, i);
                    }
                });
            }
        }
        Ok(())
    }

    /// Exact 1-NN under z-normalized Euclidean distance.
    ///
    /// # Errors
    /// As [`Index::query_into`].
    pub fn nn(&self, query: &[f32]) -> Result<Neighbor, IndexError> {
        Ok(self.knn(query, 1)?[0])
    }

    /// Exact k-NN, best first. Returns `min(k, n_series)` neighbors.
    ///
    /// # Errors
    /// As [`Index::query_into`].
    pub fn knn(&self, query: &[f32], k: usize) -> Result<Vec<Neighbor>, IndexError> {
        self.knn_with_stats(query, k).map(|(nn, _)| nn)
    }

    /// [`Index::knn`] into a caller-owned buffer: [`Index::query_into`]
    /// with [`QueryKind::Knn`], allocation-free once warm.
    ///
    /// # Errors
    /// As [`Index::query_into`].
    pub fn knn_into(
        &self,
        query: &[f32],
        k: usize,
        out: &mut Vec<Neighbor>,
    ) -> Result<(), IndexError> {
        self.query_into(query, &QueryKind::Knn { k }, out).map(drop)
    }

    /// Exact k-NN plus per-query work counters.
    ///
    /// # Errors
    /// As [`Index::query_into`].
    pub fn knn_with_stats(
        &self,
        query: &[f32],
        k: usize,
    ) -> Result<(Vec<Neighbor>, QueryStats), IndexError> {
        let mut out = Vec::with_capacity(k.min(self.n_series()));
        let stats = self.query_into(query, &QueryKind::Knn { k }, &mut out)?;
        Ok((out, stats))
    }

    /// Exact k-NN for a row-major batch of queries, best first per query:
    /// [`Index::query_batch`] with a uniform [`QueryKind::Knn`].
    ///
    /// # Errors
    /// As [`Index::query_batch`].
    pub fn knn_batch(&self, queries: &[f32], k: usize) -> Result<Vec<Vec<Neighbor>>, IndexError> {
        let n_queries = queries.len() / self.series_len;
        let kind = QueryKind::Knn { k };
        // Checked up front so an empty batch still refuses `k == 0`.
        kind.validate(None)?;
        let kinds = vec![kind; n_queries];
        let outs: Vec<Mutex<Vec<Neighbor>>> =
            (0..n_queries).map(|_| Mutex::new(Vec::new())).collect();
        self.query_batch(queries, &kinds, &outs, &[])?;
        Ok(outs.into_iter().map(Mutex::into_inner).collect())
    }

    /// Exact range search: every row with squared distance `<= r_sq`,
    /// sorted by `(dist_sq, row)` — [`Index::query_into`] with
    /// [`QueryKind::Range`]. Ties exactly at the radius are included.
    ///
    /// # Errors
    /// As [`Index::query_into`].
    pub fn range(&self, query: &[f32], r_sq: f32) -> Result<Vec<Neighbor>, IndexError> {
        let mut out = Vec::new();
        self.query_into(query, &QueryKind::Range { r_sq }, &mut out)?;
        Ok(out)
    }

    /// Exact top-k rows by inner product with the z-normalized query,
    /// best (largest dot) first.
    ///
    /// Internally this runs through the same L2 pruning funnel as k-NN:
    /// maximizing `q·x` over z-normalized rows is minimizing the Parseval
    /// score `2n - q·x`, and the current k-th-best score converts to a
    /// squared-L2 radius every existing `mindist` bound prunes against
    /// (see `sofa-summaries`'s `ip_l2_radius` and its soundness property
    /// test). Unlike a [`QueryKind::Ip`] answer, which carries scores,
    /// the returned `ip` values are exact dot products recomputed per
    /// answer row.
    ///
    /// # Errors
    /// As [`Index::query_into`].
    pub fn knn_ip(&self, query: &[f32], k: usize) -> Result<Vec<IpNeighbor>, IndexError> {
        let mut scored = Vec::with_capacity(k.min(self.n_series()));
        self.query_into(query, &QueryKind::Ip { k }, &mut scored)?;
        // The same normalization the funnel applied to the query.
        let mut q = query.to_vec();
        sofa_simd::znormalize(&mut q);
        Ok(scored
            .iter()
            .map(|nb| IpNeighbor {
                row: nb.row,
                ip: sofa_simd::dot(&q, self.series(nb.row as usize)),
            })
            .collect())
    }

    /// One batch lane's handling of query `i`: run the serial per-query
    /// path with its token (if any); on completion write the output slot
    /// and mark the token complete, on cancellation leave the slot
    /// untouched (the caller must treat unmarked slots as unanswered).
    fn batch_query_on_scratch(
        &self,
        scratch: &mut QueryScratch,
        queries: &[f32],
        kinds: &[QueryKind],
        outs: &[Mutex<Vec<Neighbor>>],
        cancels: &[CancelToken],
        i: usize,
    ) {
        let n = self.series_len;
        let query = &queries[i * n..(i + 1) * n];
        let stats = self.query_on_scratch(scratch, query, &kinds[i], cancels.get(i), true);
        if stats.cancelled == 0 {
            drain_results(scratch, &kinds[i], &mut outs[i].lock());
        }
    }

    /// Normalizes `query` into the scratch and answers it as `kind` — on
    /// the pool when `serial` is false, inline otherwise. The results are
    /// left in the scratch (`knn` or `range` per the kind); if `cancel`
    /// fired the snapshot has `cancelled == 1` and the scratch contents
    /// must be discarded.
    fn query_on_scratch(
        &self,
        scratch: &mut QueryScratch,
        query: &[f32],
        kind: &QueryKind,
        cancel: Option<&CancelToken>,
        serial: bool,
    ) -> QueryStats {
        if fired(cancel) {
            // Expired before any work: skip even the query transform.
            return self.finish_query(&AtomicStats::default(), true);
        }
        // Range queries don't use the k-NN set; 1 keeps its reset cheap.
        let k = match kind {
            QueryKind::Knn { k } | QueryKind::KnnFiltered { k, .. } | QueryKind::Ip { k } => *k,
            QueryKind::Range { .. } => 1,
        };
        self.prepare_scratch(scratch, query, k);
        let s: &QueryScratch = scratch;
        let ctx = QueryContext::borrowed(&self.query_env, &s.values);
        let stats = AtomicStats::default();
        let knn = KnnBound { set: &s.knn };
        match kind {
            QueryKind::Knn { .. } => self.drive(s, &ctx, &knn, None, true, serial, &stats, cancel),
            QueryKind::KnnFiltered { filter, .. } => {
                self.drive(s, &ctx, &knn, Some(&**filter), true, serial, &stats, cancel);
            }
            QueryKind::Range { r_sq } => {
                // No approximate seed: the radius is fixed (seeding can't
                // tighten it), and the hit list has no row dedup, so
                // scoring the home leaf twice would double-report.
                let pb = RangeBound { r_sq: *r_sq, hits: &s.range };
                self.drive(s, &ctx, &pb, None, false, serial, &stats, cancel);
            }
            QueryKind::Ip { .. } => {
                let pb = IpBound { set: &s.knn, n: self.series_len };
                self.drive(s, &ctx, &pb, None, true, serial, &stats, cancel);
            }
        }
        let mut snapshot = self.finish_query(&stats, fired(cancel));
        if snapshot.cancelled == 0 {
            if let QueryKind::Range { .. } = kind {
                snapshot.range_hits = s.range.lock().len();
            }
        }
        snapshot
    }

    /// Runs the three funnel phases under one [`PruneBound`] policy: the
    /// optional approximate seed, then collect, then refine — serially
    /// inline or with pool lanes claiming subtrees/queues.
    #[allow(clippy::too_many_arguments)]
    fn drive<B: PruneBound>(
        &self,
        s: &QueryScratch,
        ctx: &QueryContext<'_>,
        pb: &B,
        filter: Option<&RowFilter>,
        seed: bool,
        serial: bool,
        stats: &AtomicStats,
        cancel: Option<&CancelToken>,
    ) {
        // --- Phase 1: approximate search seeds the bound (skipped for
        // range queries, whose bound is fixed).
        if seed {
            self.approximate_into(&s.q, &s.qword, ctx, &s.root_lbd, pb, filter);
        }

        // --- Phase 2: collect unpruned leaves into priority queues.
        let push_counter = AtomicUsize::new(0);
        // Delta rows are claimed in chunks off this counter (phase 4).
        let next_delta = AtomicUsize::new(0);
        if serial {
            {
                let mut lane_scratch = s.lanes[0].lock();
                for (i, subtree) in self.subtrees.iter().enumerate() {
                    if fired(cancel) {
                        break;
                    }
                    debug_assert!(i <= u32::MAX as usize, "subtree index exceeds u32");
                    self.collect_subtree(
                        subtree,
                        i as u32,
                        ctx,
                        &s.root_lbd,
                        pb,
                        &s.queues,
                        &push_counter,
                        &mut lane_scratch,
                        stats,
                        cancel,
                    );
                }
            }
            if !fired(cancel) {
                self.refine_from_queues(
                    0, &s.q, &s.queues, &s.done, ctx, pb, filter, stats, cancel,
                );
            }
            self.scan_delta(&next_delta, &s.q, ctx, pb, filter, stats, cancel);
            return;
        }
        // Pool lanes claim subtrees off an atomic counter.
        let next_subtree = AtomicUsize::new(0);
        self.pool.broadcast(|lane| {
            let mut lane_scratch = s.lanes[lane].lock();
            loop {
                let i = next_subtree.fetch_add(1, Ordering::Relaxed);
                if i >= self.subtrees.len() || fired(cancel) {
                    break;
                }
                debug_assert!(i <= u32::MAX as usize, "subtree index exceeds u32");
                self.collect_subtree(
                    &self.subtrees[i],
                    i as u32,
                    ctx,
                    &s.root_lbd,
                    pb,
                    &s.queues,
                    &push_counter,
                    &mut lane_scratch,
                    stats,
                    cancel,
                );
            }
        });

        // --- Phase 3: refine from the queues, one lane per worker slot;
        // --- phase 4: each lane then joins the delta scan.
        if !fired(cancel) {
            self.pool.broadcast(|worker| {
                self.refine_from_queues(
                    worker, &s.q, &s.queues, &s.done, ctx, pb, filter, stats, cancel,
                );
                self.scan_delta(&next_delta, &s.q, ctx, pb, filter, stats, cancel);
            });
        }
    }

    /// Snapshots one query's counters and routes it to the right
    /// index-lifetime audit: `queries_served` for completed queries,
    /// `queries_cancelled` for abandoned ones (whose partial sweep work
    /// is still visible in the returned per-query counters).
    fn finish_query(&self, stats: &AtomicStats, cancelled: bool) -> QueryStats {
        let mut snapshot = stats.snapshot();
        if cancelled {
            snapshot.cancelled = 1;
            self.counters.record_cancelled();
        } else {
            self.record_query_counters(&snapshot);
        }
        snapshot
    }

    /// Fills the scratch's per-query state: normalized query, context
    /// values, query word, root-penalty table, k-NN set, range hit list
    /// and queue flags. Performs no allocation once the buffers are warm.
    fn prepare_scratch(&self, s: &mut QueryScratch, query: &[f32], k: usize) {
        s.q.clear();
        s.q.extend_from_slice(query);
        sofa_simd::znormalize(&mut s.q);
        self.summarization.query_values_reusing(&s.q, &mut s.transform, &mut s.values);
        s.begin(k);
        let ctx = QueryContext::borrowed(&self.query_env, &s.values);
        // The query word is the quantization of the context's values — no
        // second transform needed.
        ctx.word_into(&mut s.qword);
        s.root_lbd.rebuild(&ctx);
    }

    /// Mirrors one query's sweep counters into the index-lifetime totals
    /// reported by [`crate::IndexStats`].
    fn record_query_counters(&self, stats: &QueryStats) {
        self.counters.record_query();
        self.counters.record_block_sweep(
            stats.block_groups_swept as u64,
            stats.block_lanes_abandoned as u64,
        );
        self.counters.record_collect_sweep(
            stats.collect_groups_swept as u64,
            stats.collect_level_groups_swept as u64,
            stats.collect_leaves_retired_by_levels as u64,
        );
        self.counters.record_quant_sweep(
            stats.quant_groups_swept as u64,
            stats.quant_lanes_killed as u64,
            stats.refine_bytes as u64,
        );
    }

    /// Approximate 1-NN only (the paper's "Approximate Search" stage used
    /// on its own): descend to the query's home leaf and return the best
    /// real distance there. The answer is not guaranteed exact.
    ///
    /// # Errors
    /// As [`Index::query_into`].
    pub fn approximate_nn(&self, query: &[f32]) -> Result<Neighbor, IndexError> {
        validate_batch(query, self.series_len, &[QueryKind::Knn { k: 1 }], None, 1, 0)?;
        let mut scratch = self.scratch();
        self.prepare_scratch(&mut scratch, query, 1);
        let s: &QueryScratch = &scratch;
        let ctx = QueryContext::borrowed(&self.query_env, &s.values);
        self.approximate_into(&s.q, &s.qword, &ctx, &s.root_lbd, &KnnBound { set: &s.knn }, None);
        s.knn.sorted().first().copied().ok_or_else(|| IndexError::BadQuery("index is empty".into()))
    }

    /// Approximate search (paper §IV-C): identify the leaf with the
    /// smallest lower-bound distance and seed the bound from its series.
    ///
    /// The query's home subtree (exact root-key match) is tried first; the
    /// descent then follows the child with the smaller node-level mindist,
    /// which is robust even when individual word bits of the query are
    /// noisy. When no subtree matches the key, the subtree whose root has
    /// the smallest mindist is used instead — evaluated through the
    /// precomputed [`RootLbd`] table, once per subtree (the former
    /// `min_by` recomputed the full scalar `mindist_node` for both sides
    /// of every comparison).
    ///
    /// Filtered queries skip rejected rows *before* scoring: a filtered
    /// row must never tighten the bound, or an admissible farther
    /// neighbor could be wrongly pruned.
    fn approximate_into<B: PruneBound>(
        &self,
        q: &[f32],
        qword: &[u8],
        ctx: &QueryContext<'_>,
        root_lbd: &RootLbd,
        pb: &B,
        filter: Option<&RowFilter>,
    ) {
        let admits = |row: u32| filter.map_or(true, |f| f.admits(row as usize));
        let key = root_key(qword, self.summarization.symbol_bits());
        let subtree = match self.subtrees.binary_search_by_key(&key, |s| s.key) {
            Ok(i) => &self.subtrees[i],
            Err(_) => {
                let mut best = (f32::INFINITY, 0usize);
                for (i, st) in self.subtrees.iter().enumerate() {
                    let d = root_lbd.eval(st.key);
                    if d < best.0 {
                        best = (d, i);
                    }
                }
                &self.subtrees[best.1]
            }
        };
        let mut node = &subtree.nodes[0];
        loop {
            match &node.kind {
                NodeKind::Leaf { rows, pack } => {
                    // Stream the leaf's contiguous arena run. An abandoned
                    // distance (> bound) is rejected by the policy's offer
                    // anyway, so no exactness hazard here.
                    let start = pack.as_ref().expect("built trees pack every leaf").start as usize;
                    for slot in start..start + rows.len() {
                        let row = self.slot_to_row[slot];
                        if admits(row) {
                            pb.score_and_offer(q, self.series_at_slot(slot), row);
                        }
                    }
                    return;
                }
                NodeKind::Inner { left, right, .. } => {
                    let l = &subtree.nodes[*left as usize];
                    let r = &subtree.nodes[*right as usize];
                    let dl = mindist_node(ctx, &l.prefixes, &l.bits);
                    let dr = mindist_node(ctx, &r.prefixes, &r.bits);
                    node = if dl <= dr { l } else { r };
                }
            }
        }
    }

    /// Prices one subtree against the bound and pushes its surviving
    /// leaves into the queues: one [`RootLbd`] XOR evaluation gates the
    /// whole subtree; on deep subtrees a top-down **level sweep** then
    /// prices the top levels of internal nodes 8 per dispatched kernel
    /// call, where each pruned lane retires its entire descendant leaf
    /// range; finally the surviving leaf-fringe lanes are priced 8 per
    /// call (whole groups abandoning mid-sum against the bound).
    ///
    /// Collect is filter-agnostic: node bounds hold for every row under a
    /// node, admitted or not, so pruning decisions are unchanged and the
    /// predicate is applied at refine granularity.
    #[allow(clippy::too_many_arguments)]
    fn collect_subtree<B: PruneBound>(
        &self,
        subtree: &Subtree,
        subtree_idx: u32,
        ctx: &QueryContext<'_>,
        root_lbd: &RootLbd,
        pb: &B,
        queues: &[Mutex<LeafQueue>],
        push_counter: &AtomicUsize,
        lane_scratch: &mut LaneScratch,
        stats: &AtomicStats,
        cancel: Option<&CancelToken>,
    ) {
        // The root's 1-bit-per-position label is fully determined by the
        // subtree key: the precomputed XOR-penalty evaluation prices the
        // whole subtree in a few bit operations (this gate runs for every
        // subtree of every query).
        let root_bound = root_lbd.eval(subtree.key);
        if pb.prunes(root_bound) {
            stats.nodes_pruned.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if subtree.nodes.len() == 1 {
            // Single-leaf subtree (wide forests produce thousands): the
            // root evaluation above *is* the leaf's exact bound — its
            // 1-bit prefixes are fully determined by the key — so a
            // block sweep would only re-derive it the slow way.
            if let NodeKind::Leaf { rows, .. } = &subtree.nodes[0].kind {
                if !rows.is_empty() {
                    push_leaf(root_bound, subtree_idx, 0, queues, push_counter);
                    stats.leaves_collected.fetch_add(1, Ordering::Relaxed);
                }
                return;
            }
        }
        let cb = subtree.collect.as_ref().expect("multi-node subtrees carry a collect block");
        let mut lbs = [0.0f32; BLOCK_LANES];

        // --- Level sweep (deep subtrees only): price the top levels of
        // internal nodes top-down; a pruned lane marks its whole
        // descendant leaf range dead before the fringe is ever touched.
        // Because the fringe is in DFS order, every lane's descendants
        // form the contiguous span `[leaf_lo, leaf_hi)`; at the moment
        // level `d` is swept, a lane's span is either fully alive or was
        // killed wholesale by an ancestor, so checking its first leaf
        // suffices.
        let use_levels = !cb.levels.is_empty();
        if use_levels {
            lane_scratch.reset_dead(cb.node_ids.len());
            let mut retired = 0usize;
            for (lvl, lanes_meta) in cb.levels.iter().enumerate() {
                let block = cb.level_blocks.level(lvl);
                for g in 0..block.n_groups() {
                    // Cancellation checkpoint at group-sweep granularity:
                    // an expired query stops pricing levels mid-subtree.
                    if fired(cancel) {
                        return;
                    }
                    let lanes = block.lanes_in(g);
                    let base = g * BLOCK_LANES;
                    if (0..lanes)
                        .all(|i| lane_scratch.dead[lanes_meta.leaf_spans[base + i].0 as usize])
                    {
                        continue;
                    }
                    stats.collect_level_groups_swept.fetch_add(1, Ordering::Relaxed);
                    let bound = pb.l2_bound();
                    let group_abandoned =
                        mindist_level_block(ctx, &cb.level_blocks, lvl, g, bound, &mut lbs);
                    for (i, &lbd) in lbs.iter().enumerate().take(lanes) {
                        let (lo, hi) = lanes_meta.leaf_spans[base + i];
                        if lane_scratch.dead[lo as usize] {
                            continue;
                        }
                        // On a whole-group abandon every lane's (partial)
                        // sum already exceeded the kernel threshold
                        // (strictly — valid for every policy); otherwise
                        // re-ask the policy, whose bound only tightens as
                        // refinement overlaps.
                        if group_abandoned || pb.prunes(lbd) {
                            stats.nodes_pruned.fetch_add(1, Ordering::Relaxed);
                            retired += (hi - lo) as usize;
                            lane_scratch.mark_dead(lo as usize, hi as usize);
                        }
                    }
                }
            }
            stats.collect_leaves_retired_by_levels.fetch_add(retired, Ordering::Relaxed);
        }

        // --- Leaf-fringe sweep over the survivors.
        let LaneScratch { dead, dead_in_group } = lane_scratch;
        #[allow(clippy::needless_range_loop)] // g also derives the lane base
        for g in 0..cb.block.n_groups() {
            // Cancellation checkpoint at group-sweep granularity.
            if fired(cancel) {
                return;
            }
            let lanes = cb.block.lanes_in(g);
            let base = g * BLOCK_LANES;
            if use_levels && dead_in_group[g] as usize == lanes {
                // The whole group was retired by ancestor prunes: no
                // kernel call, and the skip test is one byte compare.
                continue;
            }
            let bound = pb.l2_bound();
            stats.collect_groups_swept.fetch_add(1, Ordering::Relaxed);
            if mindist_node_block(ctx, &cb.block, g, bound, &mut lbs) {
                // Every lane's (partial) sum strictly exceeded the
                // threshold: 8 leaves pruned in one shot.
                stats.nodes_pruned.fetch_add(lanes, Ordering::Relaxed);
                continue;
            }
            for (i, &lbd) in lbs.iter().enumerate().take(lanes) {
                if use_levels && dead[base + i] {
                    continue; // already counted at the ancestor prune
                }
                // Re-ask the policy: its bound tightens as refinement
                // overlaps.
                if pb.prunes(lbd) {
                    stats.nodes_pruned.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                let id = cb.node_ids[base + i];
                if subtree.nodes[id as usize].rows().is_empty() {
                    continue;
                }
                push_leaf(lbd, subtree_idx, id, queues, push_counter);
                stats.leaves_collected.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Drains queues starting at `worker`'s own queue: pop the minimum
    /// leaf, abandon the whole queue once its minimum is pruned by the
    /// policy, otherwise refine the leaf's series.
    #[allow(clippy::too_many_arguments)]
    fn refine_from_queues<B: PruneBound>(
        &self,
        worker: usize,
        q: &[f32],
        queues: &[Mutex<LeafQueue>],
        done: &[AtomicBool],
        ctx: &QueryContext<'_>,
        pb: &B,
        filter: Option<&RowFilter>,
        stats: &AtomicStats,
        cancel: Option<&CancelToken>,
    ) {
        let nq = queues.len();
        let mut quant = QuantScratch::new();
        loop {
            let mut progressed = false;
            for offset in 0..nq {
                // Cancellation checkpoint per popped leaf: an expired
                // query stops draining its queues mid-refine.
                if fired(cancel) {
                    return;
                }
                let qi = (worker + offset) % nq;
                if done[qi].load(Ordering::Acquire) {
                    continue;
                }
                let entry = queues[qi].lock().pop();
                let Some(Reverse(entry)) = entry else {
                    done[qi].store(true, Ordering::Release);
                    continue;
                };
                progressed = true;
                if pb.prunes(entry.lbd) {
                    // Everything left in this queue has a larger lower
                    // bound: abandon it wholesale (paper §IV-C).
                    done[qi].store(true, Ordering::Release);
                    stats.queues_abandoned.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                self.refine_leaf(entry, q, ctx, pb, filter, stats, &mut quant, cancel);
            }
            if !progressed && done.iter().all(|d| d.load(Ordering::Acquire)) {
                break;
            }
            if !progressed {
                // All queues momentarily empty but not flagged: flag them.
                for d in done {
                    d.store(true, Ordering::Release);
                }
            }
        }
    }

    /// Evaluates every series in a leaf: lower bounds first, exact scores
    /// only for survivors; both early-abandon on the policy's threshold.
    ///
    /// Every leaf is packed: the block kernel lower-bounds 8 candidates
    /// per call over the SoA word block, then exact distances stream over
    /// the leaf's contiguous arena run.
    #[allow(clippy::too_many_arguments)]
    fn refine_leaf<B: PruneBound>(
        &self,
        entry: QueueEntry,
        q: &[f32],
        ctx: &QueryContext<'_>,
        pb: &B,
        filter: Option<&RowFilter>,
        stats: &AtomicStats,
        qscratch: &mut QuantScratch,
        cancel: Option<&CancelToken>,
    ) {
        // Chaos hook: `ext-chaos` arms this to panic or stall inside the
        // refine funnel, underneath every batching/serving layer.
        let _ = sofa_exec::failpoint::fire("sofa-index::refine_leaf");
        let subtree = &self.subtrees[entry.subtree as usize];
        let node = &subtree.nodes[entry.node as usize];
        stats.leaves_refined.fetch_add(1, Ordering::Relaxed);
        let pack = node.pack().expect("queues hold packed leaves only");
        self.refine_leaf_packed(
            pack,
            node.rows().len(),
            q,
            ctx,
            pb,
            filter,
            stats,
            qscratch,
            cancel,
        );
    }

    /// The batched refinement path over a packed leaf — a three-stage
    /// funnel. The word lower bound prices 8 lanes per call over the SoA
    /// bounds; word survivors are re-priced by the scalar-quantized tier
    /// (one integer sweep over 1-byte codes, ~4x less traffic than the
    /// raw series); only lanes both tiers fail to kill pay the exact
    /// `f32` scan. Both cheap tiers are conservative lower bounds, so the
    /// funnel never changes results — only how much memory they cost.
    ///
    /// With a [`RowFilter`], each group's live mask pre-ANDs the
    /// predicate into the sweep: a fully rejected group skips every
    /// kernel, a partially rejected one runs the masked kernels (dead
    /// lanes price `+inf`/auto-resolve, accelerating whole-group
    /// abandons), and a fully admitted one takes the exact unmasked path.
    #[allow(clippy::too_many_arguments)]
    fn refine_leaf_packed<B: PruneBound>(
        &self,
        pack: &LeafPack,
        n_rows: usize,
        q: &[f32],
        ctx: &QueryContext<'_>,
        pb: &B,
        filter: Option<&RowFilter>,
        stats: &AtomicStats,
        qscratch: &mut QuantScratch,
        cancel: Option<&CancelToken>,
    ) {
        let block = &pack.block;
        debug_assert_eq!(block.n(), n_rows);
        let start = pack.start as usize;
        let n = self.series_len;
        let quant = match (&self.quant_grid, pack.quant.as_ref()) {
            (Some(grid), Some(qb)) if self.quant_refine_enabled() => Some((grid, qb)),
            _ => None,
        };
        let mut lbs = [0.0f32; BLOCK_LANES];
        let mut qthr = [0i32; BLOCK_LANES];
        let mut qsums = [0i32; BLOCK_LANES];
        let mut refined = 0usize;
        let mut lanes_abandoned = 0usize;
        let mut quant_groups = 0usize;
        let mut quant_killed = 0usize;
        let mut predicate_masked = 0usize;
        for g in 0..block.n_groups() {
            // Cancellation checkpoint at group-sweep granularity: the
            // partial offers already made are discarded wholesale by the
            // caller, so bailing mid-leaf cannot skew exactness.
            if fired(cancel) {
                break;
            }
            let bound = pb.l2_bound();
            let lanes = block.lanes_in(g);
            // Predicate mask: bit `i` lives iff the filter admits lane
            // `i`'s row. Pad lanes past `lanes` never get a bit, so a
            // bitmap that ends mid-group can't admit a phantom row (the
            // unmasked path ignores pads via `take(lanes)` as before).
            let (live, masked) = match filter {
                None => (0xFFu8, 0usize),
                Some(f) => {
                    let mut m = 0u8;
                    for i in 0..lanes {
                        if f.admits(self.slot_to_row[start + g * BLOCK_LANES + i] as usize) {
                            m |= 1 << i;
                        }
                    }
                    (m, lanes - m.count_ones() as usize)
                }
            };
            predicate_masked += masked;
            if live == 0 {
                // Whole group predicate-rejected: no kernel runs at all.
                continue;
            }
            let group_abandoned = if masked == 0 {
                mindist_block(ctx, block, g, bound, &mut lbs)
            } else {
                mindist_block_masked(ctx, block, g, bound, live, &mut lbs)
            };
            if group_abandoned {
                // Every live lane's (partial) sum exceeded the bound: the
                // whole group is pruned in one shot.
                lanes_abandoned += lanes - masked;
                continue;
            }
            // Quantized middle tier: one integer sweep re-prices the
            // whole group from 1-byte codes before any lane touches the
            // f32 arena. Only engaged when enough lanes survived the word
            // bound: the sweep reads all 8 lanes' codes (`8n` bytes,
            // roughly the traffic of two `f32` row scans), so pricing a
            // lone straggler costs more than the one scan it could save.
            // Dead lanes carry `+inf` word bounds, so they never count as
            // survivors.
            let mut quant_priced = false;
            if let Some((grid, qb)) = quant {
                let survivors = lbs.iter().take(lanes).filter(|&&l| !pb.prunes(l)).count();
                if survivors >= QUANT_MIN_SURVIVORS {
                    if qscratch.err_q.is_nan() {
                        // First engagement anywhere in this query: encode
                        // the query under the index-wide grid. Every
                        // later leaf reuses the same codes.
                        qscratch.err_q = grid.quantize_query(q, &mut qscratch.codes[..n]);
                    }
                    qb.thresholds(g, pb.l2_bound(), qscratch.err_q, &mut qthr);
                    quant_groups += 1;
                    let all_resolved = if masked == 0 {
                        quant_lower_bound(
                            &qscratch.codes[..n],
                            qb.group_codes(g),
                            &qthr,
                            &mut qsums,
                        )
                    } else {
                        quant_lower_bound_masked(
                            &qscratch.codes[..n],
                            qb.group_codes(g),
                            &qthr,
                            live,
                            &mut qsums,
                        )
                    };
                    if all_resolved {
                        // Every live lane's integer sum crossed its
                        // threshold: all word survivors die without
                        // touching f32 data (partial sums only grow, so
                        // the verdict is already final, and the threshold
                        // guarantee is strict — safe for range ties).
                        for (i, &l) in lbs.iter().enumerate().take(lanes) {
                            if live & (1 << i) == 0 {
                                continue; // counted in predicate_masked
                            }
                            if pb.prunes(l) {
                                lanes_abandoned += 1;
                            } else {
                                quant_killed += 1;
                            }
                        }
                        continue;
                    }
                    quant_priced = true;
                }
            }
            for (i, &lbd) in lbs.iter().enumerate().take(lanes) {
                if live & (1 << i) == 0 {
                    continue; // predicate-rejected; counted once per group
                }
                // Re-ask the policy: its bound tightens as lanes refine.
                if pb.prunes(lbd) {
                    lanes_abandoned += 1;
                    continue;
                }
                if quant_priced {
                    let (_, qb) = quant.expect("quant_priced implies a quant block");
                    let qlb = qb.lane_bound(qsums[i], qb.group_errs(g)[i], qscratch.err_q);
                    if pb.prunes_f64(qlb) {
                        quant_killed += 1;
                        continue;
                    }
                }
                refined += 1;
                let slot = start + g * BLOCK_LANES + i;
                pb.score_and_offer(q, self.series_at_slot(slot), self.slot_to_row[slot]);
            }
        }
        // Refine-traffic estimate: word bounds are BOUNDS_STRIDE f32 per
        // position per group, quant codes 8 bytes per position per group,
        // exact rows n f32 each.
        let bytes = block.n_groups() * block.word_len() * BOUNDS_STRIDE * 4
            + quant_groups * n * BLOCK_LANES
            + refined * n * 4;
        stats.series_lbd_checked.fetch_add(n_rows - predicate_masked, Ordering::Relaxed);
        stats.series_refined.fetch_add(refined, Ordering::Relaxed);
        stats.block_groups_swept.fetch_add(block.n_groups(), Ordering::Relaxed);
        stats.block_lanes_abandoned.fetch_add(lanes_abandoned, Ordering::Relaxed);
        stats.quant_groups_swept.fetch_add(quant_groups, Ordering::Relaxed);
        stats.quant_lanes_killed.fetch_add(quant_killed, Ordering::Relaxed);
        stats.predicate_lanes_masked.fetch_add(predicate_masked, Ordering::Relaxed);
        stats.refine_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Scans the delta — rows inserted since the last fold — through the
    /// policy: word lower bound first, the exact kernel only for rows it
    /// cannot prune. Lanes claim [`DELTA_CHUNK`] rows at a time off
    /// `next`, so the serial path and every pool lane share one routine;
    /// cancellation is checked per chunk.
    #[allow(clippy::too_many_arguments)]
    fn scan_delta<B: PruneBound>(
        &self,
        next: &AtomicUsize,
        q: &[f32],
        ctx: &QueryContext<'_>,
        pb: &B,
        filter: Option<&RowFilter>,
        stats: &AtomicStats,
        cancel: Option<&CancelToken>,
    ) {
        let rows = self.delta.rows;
        if rows == 0 {
            return;
        }
        let (data, words) = self.delta_slices();
        let (n, l) = (self.series_len, self.word_len);
        let first_row = self.slot_to_row.len();
        let mut checked = 0usize;
        let mut refined = 0usize;
        let mut predicate_masked = 0usize;
        while !fired(cancel) {
            let lo = next.fetch_add(DELTA_CHUNK, Ordering::Relaxed);
            if lo >= rows {
                break;
            }
            for i in lo..(lo + DELTA_CHUNK).min(rows) {
                let row = first_row + i;
                if filter.is_some_and(|f| !f.admits(row)) {
                    predicate_masked += 1;
                    continue;
                }
                checked += 1;
                let lbd = mindist_simd(ctx, &words[i * l..(i + 1) * l], pb.l2_bound());
                if pb.prunes(lbd) {
                    continue;
                }
                refined += 1;
                // Lossless: insert rejects rows past the u32 id space.
                pb.score_and_offer(q, &data[i * n..(i + 1) * n], row as u32);
            }
        }
        stats.series_lbd_checked.fetch_add(checked, Ordering::Relaxed);
        stats.series_refined.fetch_add(refined, Ordering::Relaxed);
        stats.predicate_lanes_masked.fetch_add(predicate_masked, Ordering::Relaxed);
        // Per-row traffic: one symbol word per row plus the exact rows.
        stats.refine_bytes.fetch_add(checked * l + refined * n * 4, Ordering::Relaxed);
    }
}

/// Pushes one surviving leaf into the queues, round-robin on the shared
/// push counter.
#[inline]
fn push_leaf(
    lbd: f32,
    subtree: u32,
    node: u32,
    queues: &[Mutex<LeafQueue>],
    push_counter: &AtomicUsize,
) {
    let slot = push_counter.fetch_add(1, Ordering::Relaxed) % queues.len();
    queues[slot].lock().push(Reverse(QueueEntry { lbd, subtree, node }));
}
