//! N-way index sharding: row-partitioned shards, per-shard pools, and a
//! zero-allocation top-k merge.
//!
//! A [`ShardedIndex`] owns `N` independently built [`Index`]es over
//! consecutive row ranges of one logical dataset. A query fans out to
//! every shard in parallel (each shard runs on its own
//! [`ExecPool`], so one logical index spans cores or — eventually —
//! sockets), and the per-shard top-k lists merge through one reusable
//! [`KnnSet`]: shard-local row ids are rebased to global ids as they are
//! offered, and the set's `(dist_sq, row)` total order makes the merged
//! answer **bit-identical** to an unsharded index over the same rows —
//! z-normalization is per-row, distances are per-row, and ties resolve
//! by global row id on both paths.
//!
//! Sharding is also the designed escape hatch for
//! [`IndexError::TooManyRows`]: each shard owns its own `u32` row-id
//! space, the merge output uses global `u32` ids.

use crate::{CancelToken, ResultSlot};
use sofa_exec::sync::lock;
use sofa_index::{
    validate_batch, ExecPool, Index, IndexError, IndexStats, KnnSet, Neighbor, QueryKind, RowFilter,
};
use sofa_summaries::Summarization;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What a [`ShardedIndex`] does once a shard has panicked and been
/// quarantined.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DegradedMode {
    /// Every subsequent tick panics immediately (the default). Behind a
    /// [`crate::Server`] the panic is contained per tick, so submitters
    /// see [`crate::ServeError::Aborted`] rather than wrong answers;
    /// direct callers of [`ShardedIndex::query_batch`] observe the panic.
    #[default]
    FailFast,
    /// Subsequent ticks skip quarantined shards and answer from the
    /// survivors. Answers are exact *over the surviving rows* but may
    /// miss neighbors owned by the quarantined shards; every such
    /// answer is counted in [`ShardedIndex::degraded_answers`] so the
    /// caller can see it was served degraded.
    ServePartial,
}

/// Reusable merge state: per-shard, per-slot result buffers plus the
/// top-k set. Warm ticks reuse every buffer in here.
struct MergeScratch {
    /// `shard_outs[s][slot]` holds shard `s`'s answer for tick slot
    /// `slot`; grown on demand, never shrunk.
    shard_outs: Vec<Vec<ResultSlot>>,
    set: KnnSet,
}

/// `N` row-partitioned [`Index`] shards serving as one logical index.
///
/// Build each shard over its own row range (in global row order — shard
/// 0 holds rows `[0, n_0)`, shard 1 rows `[n_0, n_0 + n_1)`, …), then
/// assemble with [`ShardedIndex::new`]. The `sofa` facade's
/// `build_*_sharded` builders do the partitioning for you.
pub struct ShardedIndex<S: Summarization> {
    shards: Vec<Index<S>>,
    /// Global row id of each shard's row 0 (cumulative row counts).
    bases: Vec<u32>,
    /// Fan-out pool: one lane per shard drives that shard's own pool.
    fan: Arc<ExecPool>,
    series_len: usize,
    n_series: usize,
    /// Logical queries answered. Each *shard*'s
    /// [`IndexStats::queries_served`] also counts every logical query
    /// (each query visits every shard), so shard counters measure
    /// per-shard work while this field is the one-count-per-query
    /// figure comparable to an unsharded index.
    queries_served: AtomicU64,
    merge: Mutex<MergeScratch>,
    /// Per-shard quarantine flags: set when a shard panics inside a
    /// tick (or via [`ShardedIndex::mark_degraded`]), never cleared.
    degraded: Vec<AtomicBool>,
    degraded_mode: DegradedMode,
    /// Answers served while at least one shard was quarantined
    /// ([`DegradedMode::ServePartial`] only).
    degraded_answers: AtomicU64,
}

impl<S: Summarization> ShardedIndex<S> {
    /// Assembles shards (ordered by global row range) into one logical
    /// index, with a fresh one-lane-per-shard fan-out pool.
    ///
    /// # Errors
    /// [`IndexError::BadDataset`] if `shards` is empty or the series
    /// lengths disagree; [`IndexError::TooManyRows`] if the combined
    /// row count exceeds the `u32` id space.
    pub fn new(shards: Vec<Index<S>>) -> Result<Self, IndexError> {
        let fan = ExecPool::shared(shards.len());
        Self::with_pool(shards, fan)
    }

    /// [`ShardedIndex::new`] with a caller-supplied fan-out pool (for
    /// sharing one pool across several sharded indexes).
    ///
    /// # Errors
    /// As [`ShardedIndex::new`].
    pub fn with_pool(shards: Vec<Index<S>>, fan: Arc<ExecPool>) -> Result<Self, IndexError> {
        if shards.is_empty() {
            return Err(IndexError::BadDataset("a sharded index needs at least one shard".into()));
        }
        let series_len = shards[0].series_len();
        if shards.iter().any(|s| s.series_len() != series_len) {
            return Err(IndexError::BadDataset(format!(
                "shard series lengths disagree: {:?}",
                shards.iter().map(Index::series_len).collect::<Vec<_>>()
            )));
        }
        let n_series: usize = shards.iter().map(Index::n_series).sum();
        if u32::try_from(n_series).is_err() {
            return Err(IndexError::TooManyRows { rows: n_series });
        }
        let mut bases = Vec::with_capacity(shards.len());
        let mut base = 0u32;
        for shard in &shards {
            bases.push(base);
            base += shard.n_series() as u32;
        }
        let merge = MergeScratch {
            shard_outs: (0..shards.len()).map(|_| Vec::new()).collect(),
            set: KnnSet::new(1),
        };
        let degraded = (0..bases.len()).map(|_| AtomicBool::new(false)).collect();
        Ok(ShardedIndex {
            shards,
            bases,
            fan,
            series_len,
            n_series,
            queries_served: AtomicU64::new(0),
            merge: Mutex::new(merge),
            degraded,
            degraded_mode: DegradedMode::default(),
            degraded_answers: AtomicU64::new(0),
        })
    }

    /// Sets what happens after a shard is quarantined (default
    /// [`DegradedMode::FailFast`]).
    #[must_use]
    pub fn with_degraded_mode(mut self, mode: DegradedMode) -> Self {
        self.degraded_mode = mode;
        self
    }

    /// The configured degraded-shard behavior.
    #[must_use]
    pub fn degraded_mode(&self) -> DegradedMode {
        self.degraded_mode
    }

    /// Quarantines shard `s` by hand — the operational escape hatch for
    /// tests and for sidelining a shard known to be bad.
    ///
    /// # Panics
    /// If `s` is not a valid shard number.
    pub fn mark_degraded(&self, s: usize) {
        self.degraded[s].store(true, Ordering::Release);
    }

    /// Is shard `s` quarantined?
    ///
    /// # Panics
    /// If `s` is not a valid shard number.
    #[must_use]
    pub fn is_degraded(&self, s: usize) -> bool {
        self.degraded[s].load(Ordering::Acquire)
    }

    /// Quarantined shard numbers, ascending.
    #[must_use]
    pub fn degraded_shards(&self) -> Vec<usize> {
        (0..self.degraded.len()).filter(|&s| self.is_degraded(s)).collect()
    }

    /// Answers served while at least one shard was quarantined — 0
    /// unless [`DegradedMode::ServePartial`] is active and a shard has
    /// failed.
    #[must_use]
    pub fn degraded_answers(&self) -> u64 {
        self.degraded_answers.load(Ordering::Relaxed)
    }

    /// Length of every indexed series.
    #[must_use]
    pub fn series_len(&self) -> usize {
        self.series_len
    }

    /// Total number of indexed series across all shards.
    #[must_use]
    pub fn n_series(&self) -> usize {
        self.n_series
    }

    /// Number of shards.
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in global row order.
    #[must_use]
    pub fn shards(&self) -> &[Index<S>] {
        &self.shards
    }

    /// Logical queries answered by this sharded index — one count per
    /// query, the figure comparable to an unsharded
    /// [`IndexStats::queries_served`]. (Each shard's own counter also
    /// advances once per logical query, measuring per-shard work.)
    #[must_use]
    pub fn queries_served(&self) -> u64 {
        self.queries_served.load(Ordering::Relaxed)
    }

    /// Per-shard index statistics, in shard order.
    #[must_use]
    pub fn shard_stats(&self) -> Vec<IndexStats> {
        self.shards.iter().map(Index::stats).collect()
    }

    /// Exact 1-NN across all shards.
    ///
    /// # Errors
    /// As [`ShardedIndex::query_batch`].
    pub fn nn(&self, query: &[f32]) -> Result<Neighbor, IndexError> {
        Ok(self.knn(query, 1)?[0])
    }

    /// Exact k-NN across all shards, best first — bit-identical to an
    /// unsharded index over the same rows. Returns
    /// `min(k, n_series)` neighbors with global row ids.
    ///
    /// # Errors
    /// As [`ShardedIndex::query_batch`].
    pub fn knn(&self, query: &[f32], k: usize) -> Result<Vec<Neighbor>, IndexError> {
        let mut out = Vec::new();
        self.knn_into(query, k, &mut out)?;
        Ok(out)
    }

    /// [`ShardedIndex::knn`] into a caller-owned buffer (cleared first).
    ///
    /// # Errors
    /// As [`ShardedIndex::query_batch`].
    pub fn knn_into(
        &self,
        query: &[f32],
        k: usize,
        out: &mut Vec<Neighbor>,
    ) -> Result<(), IndexError> {
        let slot = [ResultSlot::new(std::mem::take(out))];
        self.query_batch(query, &[QueryKind::Knn { k }], &slot, &[])?;
        let [slot] = slot;
        *out = slot.into_inner();
        Ok(())
    }

    /// Answers a single query of any [`QueryKind`] across all shards —
    /// the generic form of [`ShardedIndex::knn`]. Results use the
    /// funnel encoding of [`QueryKind`] (an `Ip` answer carries scores
    /// `2n - q·x` in `dist_sq`, ascending score = best first; convert
    /// with [`sofa_summaries::ip_from_score`]). A `KnnFiltered` kind
    /// takes a filter over *global* row ids; each shard sees its
    /// rebased slice.
    ///
    /// # Errors
    /// As [`ShardedIndex::query_batch`].
    pub fn query(&self, query: &[f32], kind: QueryKind) -> Result<Vec<Neighbor>, IndexError> {
        let slot = [ResultSlot::new(Vec::new())];
        self.query_batch(query, std::slice::from_ref(&kind), &slot, &[])?;
        let [slot] = slot;
        Ok(slot.into_inner())
    }

    /// Answers one mixed-kind tick of queries (row-major, kind
    /// `kinds[i]` for query `i`) into `outs[i]` (cleared first, best
    /// first, global row ids) — the [`crate::TickExec`] entry point,
    /// shaped for the coalescer. The fan-out pool runs one lane per
    /// shard, each lane driving its shard's batch engine over the whole
    /// tick; per-slot merging is then kind-aware:
    ///
    /// * k-NN, filtered k-NN and inner-product slots merge through the
    ///   reusable [`KnnSet`] with shard rows rebased to global ids (an
    ///   IP score rides in `dist_sq` and merges by the same
    ///   ascending-best order).
    /// * Range slots concatenate every surviving shard's hits, rebase,
    ///   and sort by `(dist_sq, row)` — identical to an unsharded range
    ///   sweep.
    ///
    /// Global [`RowFilter`]s are re-sliced per shard before fan-out, so
    /// each shard validates and applies a filter over exactly its own
    /// rows.
    ///
    /// `cancels` is empty or one token per query; a query whose token
    /// fires is abandoned by every shard and its output slot is left
    /// unwritten (the token is latched fired, so the caller can tell).
    ///
    /// # Errors
    /// As [`sofa_index::validate_batch`] over the *global* row space:
    /// [`IndexError::BadQuery`] on a shape mismatch or an invalid kind,
    /// [`IndexError::NonFinite`] on a NaN or ±Inf query value.
    ///
    /// # Panics
    /// In [`DegradedMode::FailFast`] (the default), panics when a shard
    /// panics during the tick or is already quarantined — behind a
    /// [`crate::Server`] the panic is contained per tick.
    pub fn query_batch(
        &self,
        queries: &[f32],
        kinds: &[QueryKind],
        outs: &[ResultSlot],
        cancels: &[CancelToken],
    ) -> Result<(), IndexError> {
        let n_rows = Some(self.n_series);
        validate_batch(queries, self.series_len, kinds, n_rows, outs.len(), cancels.len())?;
        let m = kinds.len();
        if m == 0 {
            return Ok(());
        }
        let n_shards = self.shards.len();
        let was_degraded = !self.degraded_shards().is_empty();
        if was_degraded && self.degraded_mode == DegradedMode::FailFast {
            panic!("sharded index has quarantined shards {:?} (FailFast)", self.degraded_shards());
        }
        // A global row filter must become shard-local before fan-out:
        // each shard validates filters against its own row count and
        // its funnel tests shard-local row ids.
        let needs_rebase = kinds.iter().any(|k| matches!(k, QueryKind::KnnFiltered { .. }));
        let shard_kinds: Vec<Vec<QueryKind>> = if needs_rebase {
            self.bases
                .iter()
                .zip(&self.shards)
                .map(|(&base, shard)| {
                    kinds
                        .iter()
                        .map(|kind| match kind {
                            QueryKind::KnnFiltered { k, filter } => QueryKind::KnnFiltered {
                                k: *k,
                                filter: Arc::new(RowFilter::from_fn(shard.n_series(), |r| {
                                    filter.admits(base as usize + r)
                                })),
                            },
                            other => other.clone(),
                        })
                        .collect()
                })
                .collect()
        } else {
            Vec::new()
        };
        let mut guard = lock(&self.merge);
        let MergeScratch { shard_outs, set } = &mut *guard;
        for per_shard in shard_outs.iter_mut() {
            while per_shard.len() < m {
                per_shard.push(ResultSlot::new(Vec::new()));
            }
        }
        let shard_outs: &[Vec<ResultSlot>] = shard_outs;
        let shards = &self.shards;
        let degraded = &self.degraded;
        let shard_kinds = &shard_kinds;
        let panicked = AtomicBool::new(false);
        let lanes = self.fan.threads().min(n_shards).max(1);
        self.fan.broadcast_limit(n_shards, |lane| {
            let mut s = lane;
            while s < n_shards {
                // A panicking shard is quarantined here, not propagated:
                // the post-broadcast policy decides what that means.
                let kinds_for_s: &[QueryKind] = if needs_rebase { &shard_kinds[s] } else { kinds };
                if !degraded[s].load(Ordering::Acquire)
                    && catch_unwind(AssertUnwindSafe(|| {
                        shards[s]
                            .query_batch(queries, kinds_for_s, &shard_outs[s][..m], cancels)
                            .expect("tick inputs were validated");
                    }))
                    .is_err()
                {
                    degraded[s].store(true, Ordering::Release);
                    panicked.store(true, Ordering::Relaxed);
                }
                s += lanes;
            }
        });
        if panicked.load(Ordering::Relaxed) && self.degraded_mode == DegradedMode::FailFast {
            drop(guard);
            panic!("shard(s) {:?} panicked during tick (FailFast)", self.degraded_shards());
        }
        let any_degraded = was_degraded || panicked.load(Ordering::Relaxed);
        let mut answered = 0u64;
        for (slot, kind) in kinds.iter().enumerate().take(m) {
            // A fired token means some shard may have abandoned this
            // query — its slots are unwritten or stale. Leave the
            // output untouched; the caller sees the latched token.
            if cancels.get(slot).is_some_and(CancelToken::is_cancelled_now) {
                continue;
            }
            match kind {
                QueryKind::Knn { k } | QueryKind::KnnFiltered { k, .. } | QueryKind::Ip { k } => {
                    set.reset(*k);
                    for (s, &base) in self.bases.iter().enumerate() {
                        if degraded[s].load(Ordering::Acquire) {
                            continue;
                        }
                        for nb in shard_outs[s][slot].lock().iter() {
                            set.offer(Neighbor { row: nb.row + base, dist_sq: nb.dist_sq });
                        }
                    }
                    let mut out = outs[slot].lock();
                    out.clear();
                    set.drain_sorted_into(&mut out);
                }
                QueryKind::Range { .. } => {
                    let mut out = outs[slot].lock();
                    out.clear();
                    for (s, &base) in self.bases.iter().enumerate() {
                        if degraded[s].load(Ordering::Acquire) {
                            continue;
                        }
                        out.extend(
                            shard_outs[s][slot]
                                .lock()
                                .iter()
                                .map(|nb| Neighbor { row: nb.row + base, dist_sq: nb.dist_sq }),
                        );
                    }
                    out.sort_unstable();
                }
            }
            answered += 1;
        }
        self.queries_served.fetch_add(answered, Ordering::Relaxed);
        if any_degraded {
            self.degraded_answers.fetch_add(answered, Ordering::Relaxed);
        }
        Ok(())
    }
}

impl<S: Summarization> std::fmt::Debug for ShardedIndex<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedIndex")
            .field("shards", &self.shards.len())
            .field("n_series", &self.n_series)
            .field("series_len", &self.series_len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofa_index::IndexConfig;
    use sofa_summaries::{ISax, SaxConfig};

    const LEN: usize = 16;

    fn dataset(rows: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let mut out = Vec::with_capacity(rows * LEN);
        for _ in 0..rows * LEN {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            out.push(((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5);
        }
        out
    }

    fn build(data: &[f32], threads: usize) -> Index<ISax> {
        let pool = ExecPool::shared(threads);
        let mut data = data.to_vec();
        sofa_index::znormalize_rows(&mut data, LEN, &pool).expect("finite rows");
        let sax = ISax::new(LEN, &SaxConfig { word_len: 8, alphabet: 16 });
        let cfg = IndexConfig::with_threads(threads).leaf_capacity(16);
        Index::build_with_pool(sax, data, cfg, pool).expect("build shard")
    }

    fn sharded(data: &[f32], n_shards: usize, threads: usize) -> ShardedIndex<ISax> {
        let rows = data.len() / LEN;
        let per = rows.div_ceil(n_shards);
        let shards: Vec<Index<ISax>> = (0..n_shards)
            .map(|s| {
                let lo = (s * per).min(rows) * LEN;
                let hi = ((s + 1) * per).min(rows) * LEN;
                build(&data[lo..hi], threads)
            })
            .collect();
        ShardedIndex::new(shards).expect("assemble shards")
    }

    #[test]
    fn sharded_knn_is_bit_identical_to_unsharded() {
        let data = dataset(300, 7);
        let whole = build(&data, 2);
        for n_shards in [1, 2, 3] {
            let parts = sharded(&data, n_shards, 1);
            assert_eq!(parts.n_series(), 300);
            assert_eq!(parts.n_shards(), n_shards);
            for qi in (0..300).step_by(29) {
                let q = &data[qi * LEN..(qi + 1) * LEN];
                for k in [1, 5] {
                    assert_eq!(
                        parts.knn(q, k).unwrap(),
                        whole.knn(q, k).unwrap(),
                        "query row {qi}, k {k}, {n_shards} shards"
                    );
                }
            }
        }
    }

    #[test]
    fn tick_answers_match_per_query_answers() {
        let data = dataset(200, 11);
        let parts = sharded(&data, 2, 1);
        let queries: Vec<f32> = data[..4 * LEN].to_vec();
        let ks = [1usize, 3, 5, 2];
        let kinds: Vec<QueryKind> = ks.iter().map(|&k| QueryKind::Knn { k }).collect();
        let outs: Vec<ResultSlot> = (0..4).map(|_| ResultSlot::new(Vec::new())).collect();
        parts.query_batch(&queries, &kinds, &outs, &[]).unwrap();
        for (slot, &k) in ks.iter().enumerate() {
            let q = &queries[slot * LEN..(slot + 1) * LEN];
            assert_eq!(*outs[slot].lock(), parts.knn(q, k).unwrap(), "slot {slot}");
        }
    }

    #[test]
    fn one_logical_query_counts_once() {
        let data = dataset(120, 3);
        let parts = sharded(&data, 3, 1);
        let q = &data[..LEN];
        parts.knn(q, 2).unwrap();
        let outs: Vec<ResultSlot> = (0..2).map(|_| ResultSlot::new(Vec::new())).collect();
        let kinds = [QueryKind::Knn { k: 1 }, QueryKind::Knn { k: 1 }];
        parts.query_batch(&data[..2 * LEN], &kinds, &outs, &[]).unwrap();
        // 3 logical queries total; each shard also saw each of them once.
        assert_eq!(parts.queries_served(), 3);
        for stats in parts.shard_stats() {
            assert_eq!(stats.queries_served, 3);
        }
    }

    #[test]
    fn serve_partial_skips_quarantined_shards_and_counts_degraded_answers() {
        let data = dataset(300, 7);
        let parts = sharded(&data, 3, 1).with_degraded_mode(DegradedMode::ServePartial);
        let rows_per_shard = 100usize;
        let q = &data[..LEN]; // row 0 lives in shard 0
        let full = parts.knn(q, 3).unwrap();
        assert_eq!(full[0].row, 0);
        parts.mark_degraded(0);
        assert_eq!(parts.degraded_shards(), vec![0]);
        // Same query, shard 0 quarantined: still answered, exactly over
        // the surviving rows — nothing from shard 0 can appear.
        let partial = parts.knn(q, 3).unwrap();
        assert_eq!(partial.len(), 3);
        for nb in &partial {
            assert!(
                nb.row as usize >= rows_per_shard,
                "row {} belongs to the quarantined shard",
                nb.row
            );
        }
        assert_eq!(parts.degraded_answers(), 1);
        assert_eq!(parts.queries_served(), 2);
    }

    #[test]
    fn fail_fast_mode_panics_once_a_shard_is_quarantined() {
        let data = dataset(100, 9);
        let parts = sharded(&data, 2, 1);
        assert_eq!(parts.degraded_mode(), DegradedMode::FailFast);
        parts.knn(&data[..LEN], 1).unwrap();
        parts.mark_degraded(1);
        let boom =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| parts.knn(&data[..LEN], 1)));
        assert!(boom.is_err(), "FailFast must refuse to serve past a quarantined shard");
    }

    #[test]
    fn assembly_and_tick_validation_errors() {
        assert!(matches!(ShardedIndex::<ISax>::new(Vec::new()), Err(IndexError::BadDataset(_))));
        let data = dataset(100, 5);
        let parts = sharded(&data, 2, 1);
        assert!(matches!(parts.knn(&data[..LEN - 1], 1), Err(IndexError::BadQuery(_))));
        assert!(matches!(parts.knn(&data[..LEN], 0), Err(IndexError::BadQuery(_))));
        let outs: Vec<ResultSlot> = (0..1).map(|_| ResultSlot::new(Vec::new())).collect();
        assert!(matches!(
            parts.query_batch(&data[..2 * LEN], &[QueryKind::Knn { k: 1 }], &outs, &[]),
            Err(IndexError::BadQuery(_))
        ));
    }
}
