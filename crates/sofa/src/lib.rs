//! # SOFA — fast and exact data-series similarity search
//!
//! A from-scratch Rust reproduction of *"Fast and Exact Similarity Search
//! in less than a Blink of an Eye"* (Schäfer, Brand, Leser, Peng,
//! Palpanas — ICDE 2025): the **SOFA** index, which combines the learned
//! **Symbolic Fourier Approximation** (SFA) summarization with a
//! MESSI-style parallel tree index to answer *exact* 1-NN and k-NN queries
//! under z-normalized Euclidean distance.
//!
//! ## Quick start
//!
//! ```
//! use sofa::SofaIndex;
//!
//! // 1000 series of length 128, row-major.
//! let n = 128;
//! let data: Vec<f32> = (0..1000 * n)
//!     .map(|i| ((i / n) as f32 * 0.7 + (i % n) as f32 * 0.21).sin())
//!     .collect();
//!
//! let index = SofaIndex::build(&data, n).expect("build");
//! let query: Vec<f32> = (0..n).map(|t| (t as f32 * 0.21).sin()).collect();
//! let nearest = index.nn(&query).expect("query");
//! println!("row {} at squared distance {}", nearest.row, nearest.dist_sq);
//!
//! // Exact k-NN:
//! let top5 = index.knn(&query, 5).expect("query");
//! assert_eq!(top5.len(), 5);
//!
//! // Batch queries amortize dispatch across the worker pool: one call,
//! // one Vec of per-query answers, every pool lane kept busy.
//! let batch: Vec<f32> = (0..4 * n).map(|i| (i as f32 * 0.13).sin()).collect();
//! let answers = index.knn_batch(&batch, 3).expect("batch");
//! assert_eq!(answers.len(), 4);
//! ```
//!
//! Ingest can be zero-copy — hand the buffer over and no duplicate is
//! ever made (`SofaIndex::build_owned(data, n)`) — and several indexes
//! can share one persistent worker pool:
//!
//! ```
//! use sofa::{ExecPool, SofaIndex};
//!
//! let n = 64;
//! let data: Vec<f32> = (0..500 * n).map(|i| (i as f32 * 0.37).sin()).collect();
//! let pool = ExecPool::shared(2);
//! let a = SofaIndex::builder().pool(pool.clone()).build_sofa_owned(data.clone(), n).unwrap();
//! let b = SofaIndex::builder().pool(pool).build_sofa_owned(data, n).unwrap();
//! assert_eq!(a.n_series(), b.n_series());
//! ```
//!
//! ## What's in the box
//!
//! * [`SofaIndex`] — the paper's contribution: SFA + tree index.
//! * [`MessiIndex`] — the same tree over iSAX: the MESSI baseline.
//! * [`baselines::UcrScan`] / [`baselines::FlatL2`] — the paper's other
//!   competitors (parallel SIMD scan; FAISS-flat-style brute force).
//! * [`data`] — synthetic analogues of the paper's 17-dataset benchmark
//!   and UCR-like ablation families.
//! * Lower layers re-exported under [`summaries`], [`fft`], [`stats`],
//!   [`simd`], [`index`] for direct use.
//!
//! All methods return *exact* answers; the index only prunes candidates
//! whose lower-bound distance already exceeds the best result, per the
//! GEMINI framework.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sofa_baselines as baselines;
pub use sofa_data as data;
pub use sofa_exec as exec;
pub use sofa_fft as fft;
pub use sofa_index as index;
pub use sofa_serve as serve;
pub use sofa_simd as simd;
pub use sofa_stats as stats;
pub use sofa_summaries as summaries;

pub use sofa_exec::{CancelToken, ExecPool};
pub use sofa_index::{
    describe, SectionInfo, SnapshotCapabilities, SnapshotInfo, SNAPSHOT_FORMAT_VERSION,
    SNAPSHOT_MAGIC,
};
pub use sofa_index::{
    IndexConfig, IndexError, IndexStats, IpNeighbor, Neighbor, QueryKind, QueryStats, RowFilter,
};
pub use sofa_serve::{
    AdmissionPolicy, DegradedMode, ServeConfig, ServeError, ServeStats, Server, ShardedIndex,
    TickExec,
};
pub use sofa_summaries::{BinningStrategy, CoefficientSelection};

use sofa_index::Index;
use sofa_summaries::{ISax, SaxConfig, Sfa, SfaConfig};
use std::sync::Arc;

/// Builder for [`SofaIndex`] and [`MessiIndex`] with the paper's defaults.
#[derive(Clone, Debug)]
pub struct Builder {
    word_len: usize,
    alphabet: usize,
    leaf_capacity: usize,
    threads: usize,
    sample_ratio: f64,
    min_sample: usize,
    binning: BinningStrategy,
    selection: CoefficientSelection,
    seed: u64,
    pool: Option<Arc<ExecPool>>,
    collect_levels: usize,
    quant_refine: bool,
}

impl Default for Builder {
    fn default() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Builder {
            word_len: 16,
            alphabet: 256,
            leaf_capacity: 20_000,
            threads,
            sample_ratio: 0.01,
            min_sample: 256,
            binning: BinningStrategy::EquiWidth,
            selection: CoefficientSelection::HighestVariance,
            seed: 0x50FA,
            pool: None,
            collect_levels: IndexConfig::default().collect_levels,
            quant_refine: IndexConfig::default().quant_refine,
        }
    }
}

impl Builder {
    /// Word length `l` (default 16).
    #[must_use]
    pub fn word_len(mut self, l: usize) -> Self {
        self.word_len = l;
        self
    }

    /// Alphabet size (power of two up to 256; default 256).
    #[must_use]
    pub fn alphabet(mut self, alpha: usize) -> Self {
        self.alphabet = alpha;
        self
    }

    /// Leaf capacity (default 20,000). It also sizes the insert delta:
    /// the insert that brings it to this many rows folds it into the
    /// tree.
    #[must_use]
    pub fn leaf_capacity(mut self, cap: usize) -> Self {
        self.leaf_capacity = cap;
        self
    }

    /// Worker threads (default: available parallelism).
    #[must_use]
    pub fn threads(mut self, t: usize) -> Self {
        self.threads = t.max(1);
        self
    }

    /// MCB sampling ratio (default 1%).
    #[must_use]
    pub fn sample_ratio(mut self, r: f64) -> Self {
        self.sample_ratio = r;
        self
    }

    /// Minimum MCB sample size regardless of ratio (default 256). Lower it
    /// to make small-scale sampling-rate sweeps meaningful.
    #[must_use]
    pub fn min_sample(mut self, m: usize) -> Self {
        self.min_sample = m.max(1);
        self
    }

    /// SFA binning strategy (default equi-width).
    #[must_use]
    pub fn binning(mut self, b: BinningStrategy) -> Self {
        self.binning = b;
        self
    }

    /// SFA coefficient selection (default highest variance).
    #[must_use]
    pub fn selection(mut self, s: CoefficientSelection) -> Self {
        self.selection = s;
        self
    }

    /// Sampling seed for deterministic learning.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the index on an existing worker pool instead of creating a
    /// private one, so a server embedding several indexes shares one set
    /// of threads. Overrides [`Builder::threads`] for execution (the
    /// pool's lane count applies).
    #[must_use]
    pub fn pool(mut self, pool: Arc<ExecPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// How many hierarchy levels the collect phase prices through level
    /// blocks before the leaf fringe — the deep-tree coarse prune. `0`
    /// restores the leaf-only collect sweep (useful for A/B benchmarks).
    #[must_use]
    pub fn collect_levels(mut self, levels: usize) -> Self {
        self.collect_levels = levels;
        self
    }

    /// Enables or disables the scalar-quantized refine tier: per-leaf
    /// int8 codes swept between the word lower bound and the exact `f32`
    /// scan (default on). Results are identical either way — the
    /// quantized bound is conservative — so `false` is mainly an A/B
    /// benchmarking knob.
    #[must_use]
    pub fn quant_refine(mut self, enabled: bool) -> Self {
        self.quant_refine = enabled;
        self
    }

    fn index_config(&self) -> IndexConfig {
        // Lane-derived knobs (worker count, refinement-queue count) must
        // follow the *effective* execution width: a shared pool overrides
        // `threads`.
        let lanes = self.pool.as_ref().map_or(self.threads, |p| p.threads());
        IndexConfig::with_threads(lanes)
            .leaf_capacity(self.leaf_capacity)
            .collect_levels(self.collect_levels)
            .quant_refine(self.quant_refine)
    }

    /// The shared pool if one was supplied, else a fresh pool with
    /// [`Builder::threads`] lanes.
    fn make_pool(&self) -> Arc<ExecPool> {
        self.pool.clone().unwrap_or_else(|| ExecPool::shared(self.threads))
    }

    /// Builds a [`SofaIndex`] over row-major `data` of `series_len`,
    /// copying the buffer exactly once. Prefer
    /// [`Builder::build_sofa_owned`] to avoid even that copy.
    ///
    /// # Errors
    /// Returns [`IndexError::BadDataset`] on an empty or ragged buffer,
    /// [`IndexError::NonFinite`] if a value is NaN or ±Inf.
    pub fn build_sofa(&self, data: &[f32], series_len: usize) -> Result<SofaIndex, IndexError> {
        self.build_sofa_owned(data.to_vec(), series_len)
    }

    /// Zero-copy ingest: builds a [`SofaIndex`] that takes ownership of
    /// `data`. The buffer is z-normalized in place, the SFA model learns
    /// from that view, and the same allocation becomes the index's
    /// storage — no duplicate of the dataset is ever held (the borrowing
    /// path used to hold two).
    ///
    /// # Errors
    /// Returns [`IndexError::BadDataset`] on an empty or ragged buffer,
    /// [`IndexError::NonFinite`] if a value is NaN or ±Inf.
    pub fn build_sofa_owned(
        &self,
        mut data: Vec<f32>,
        series_len: usize,
    ) -> Result<SofaIndex, IndexError> {
        if series_len == 0 || data.is_empty() || data.len() % series_len != 0 {
            return Err(IndexError::BadDataset(
                "data must be a non-empty whole number of series".into(),
            ));
        }
        let pool = self.make_pool();
        // SFA learns from the z-normalized view of the data, because the
        // index stores (and measures distances between) z-normalized
        // series. Normalization is idempotent, so normalizing in place
        // here and handing the same buffer to the index builder is safe.
        sofa_index::znormalize_rows(&mut data, series_len, &pool)?;
        let cfg = SfaConfig {
            word_len: self.word_len,
            alphabet: self.alphabet,
            binning: self.binning,
            selection: self.selection,
            sample_ratio: self.sample_ratio,
            min_sample: self.min_sample,
            seed: self.seed,
            ..Default::default()
        };
        let sfa = Sfa::learn(&data, series_len, &cfg);
        let inner = Index::build_with_pool(sfa, data, self.index_config(), pool)?;
        Ok(SofaIndex { inner })
    }

    /// Opens a [`SofaIndex`] snapshot written by
    /// [`SofaIndex::snapshot`], serving straight from the mapped file
    /// (no deserialization of the dataset). Only [`Builder::pool`] and
    /// [`Builder::threads`] apply — every structural parameter comes
    /// from the snapshot itself.
    ///
    /// # Errors
    /// Returns `IndexError::SnapshotIo` / `SnapshotFormat` /
    /// `SnapshotCorrupt` / `SnapshotLayout` when the file is missing,
    /// foreign, damaged, or was written by an incompatible layout.
    pub fn open_sofa<P: AsRef<std::path::Path>>(&self, path: P) -> Result<SofaIndex, IndexError> {
        Ok(SofaIndex { inner: Index::open_with_pool(path, self.make_pool())? })
    }

    /// Opens a [`MessiIndex`] snapshot written by
    /// [`MessiIndex::snapshot`] (see [`Builder::open_sofa`]).
    ///
    /// # Errors
    /// As [`Builder::open_sofa`].
    pub fn open_messi<P: AsRef<std::path::Path>>(&self, path: P) -> Result<MessiIndex, IndexError> {
        Ok(MessiIndex { inner: Index::open_with_pool(path, self.make_pool())? })
    }

    /// Builds a [`MessiIndex`] over row-major `data` of `series_len`,
    /// copying the buffer exactly once. Prefer
    /// [`Builder::build_messi_owned`] to avoid even that copy.
    ///
    /// # Errors
    /// Returns [`IndexError::BadDataset`] on an empty or ragged buffer,
    /// [`IndexError::NonFinite`] if a value is NaN or ±Inf.
    pub fn build_messi(&self, data: &[f32], series_len: usize) -> Result<MessiIndex, IndexError> {
        self.build_messi_owned(data.to_vec(), series_len)
    }

    /// Zero-copy ingest: builds a [`MessiIndex`] that takes ownership of
    /// `data` (z-normalized in place, no duplicate ever held).
    ///
    /// # Errors
    /// Returns [`IndexError::BadDataset`] on an empty or ragged buffer,
    /// [`IndexError::NonFinite`] if a value is NaN or ±Inf.
    pub fn build_messi_owned(
        &self,
        data: Vec<f32>,
        series_len: usize,
    ) -> Result<MessiIndex, IndexError> {
        if series_len == 0 || data.is_empty() || data.len() % series_len != 0 {
            return Err(IndexError::BadDataset(
                "data must be a non-empty whole number of series".into(),
            ));
        }
        let sax =
            ISax::new(series_len, &SaxConfig { word_len: self.word_len, alphabet: self.alphabet });
        let inner = Index::build_with_pool(sax, data, self.index_config(), self.make_pool())?;
        Ok(MessiIndex { inner })
    }

    /// Builds an N-way row-partitioned [`ShardedSofaIndex`]: `data` is
    /// split into `n_shards` contiguous row ranges (clamped to the row
    /// count), each shard learns its own SFA model over its rows and
    /// runs on its own pool, and queries fan out and merge into answers
    /// bit-identical to an unsharded build over the same rows. Without
    /// an explicit [`Builder::pool`], each shard gets
    /// `max(1, threads / n_shards)` lanes so the sharded whole uses the
    /// same thread budget as an unsharded build.
    ///
    /// # Errors
    /// Returns [`IndexError::BadDataset`] on an empty or ragged buffer
    /// or `n_shards == 0`, [`IndexError::NonFinite`] if a value is NaN or
    /// ±Inf.
    pub fn build_sofa_sharded(
        &self,
        data: &[f32],
        series_len: usize,
        n_shards: usize,
    ) -> Result<ShardedSofaIndex, IndexError> {
        let (per_shard, builder) = self.shard_plan(data, series_len, n_shards)?;
        let shards = data
            .chunks(per_shard * series_len)
            .map(|chunk| builder.build_sofa_owned(chunk.to_vec(), series_len).map(|ix| ix.inner))
            .collect::<Result<Vec<_>, _>>()?;
        ShardedIndex::new(shards)
    }

    /// [`Builder::build_sofa_sharded`] for the MESSI (iSAX) tree.
    ///
    /// # Errors
    /// As [`Builder::build_sofa_sharded`].
    pub fn build_messi_sharded(
        &self,
        data: &[f32],
        series_len: usize,
        n_shards: usize,
    ) -> Result<ShardedMessiIndex, IndexError> {
        let (per_shard, builder) = self.shard_plan(data, series_len, n_shards)?;
        let shards = data
            .chunks(per_shard * series_len)
            .map(|chunk| builder.build_messi_owned(chunk.to_vec(), series_len).map(|ix| ix.inner))
            .collect::<Result<Vec<_>, _>>()?;
        ShardedIndex::new(shards)
    }

    /// Validates a sharded build and derives the rows-per-shard split
    /// and the per-shard builder (thread budget divided across shards
    /// unless a shared pool overrides it).
    fn shard_plan(
        &self,
        data: &[f32],
        series_len: usize,
        n_shards: usize,
    ) -> Result<(usize, Builder), IndexError> {
        if series_len == 0 || data.is_empty() || data.len() % series_len != 0 {
            return Err(IndexError::BadDataset(
                "data must be a non-empty whole number of series".into(),
            ));
        }
        if n_shards == 0 {
            return Err(IndexError::BadDataset("n_shards must be at least 1".into()));
        }
        let rows = data.len() / series_len;
        let shards = n_shards.min(rows);
        let mut builder = self.clone();
        if builder.pool.is_none() {
            builder.threads = (self.threads / shards).max(1);
        }
        Ok((rows.div_ceil(shards), builder))
    }
}

macro_rules! forward_index_api {
    ($ty:ident, $summ:ty) => {
        impl $ty {
            /// Answers one query of any [`QueryKind`] into `out` (cleared
            /// first, best first, encoded per [`QueryKind`]) and returns
            /// its work counters — the one single-query entry point the
            /// conveniences below wrap. A filtered kind masks rejected
            /// rows *inside* the pruning funnel; a range answer keeps
            /// ties at the radius. Allocation-free once warm.
            ///
            /// # Errors
            /// [`IndexError::BadQuery`] on a length mismatch or an
            /// invalid kind; [`IndexError::NonFinite`] on a NaN or ±Inf
            /// query value.
            pub fn query_into(
                &self,
                query: &[f32],
                kind: &QueryKind,
                out: &mut Vec<Neighbor>,
            ) -> Result<QueryStats, IndexError> {
                self.inner.query_into(query, kind, out)
            }

            /// Answers a row-major batch, query `i` as `kinds[i]` into
            /// `outs[i]`, spread across the worker pool with optional
            /// per-query cancellation (`cancels` empty or one token per
            /// query; a cancelled slot is left unwritten) — the engine
            /// behind [`serve::Server`]'s coalesced ticks.
            ///
            /// # Errors
            /// As [`Self::query_into`], plus shape mismatches between
            /// `queries`, `kinds`, `outs` and a non-empty `cancels`.
            pub fn query_batch(
                &self,
                queries: &[f32],
                kinds: &[QueryKind],
                outs: &[serve::ResultSlot],
                cancels: &[CancelToken],
            ) -> Result<(), IndexError> {
                self.inner.query_batch(queries, kinds, outs, cancels)
            }

            /// Exact 1-NN under z-normalized Euclidean distance.
            ///
            /// # Errors
            /// As [`Self::query_into`].
            pub fn nn(&self, query: &[f32]) -> Result<Neighbor, IndexError> {
                self.inner.nn(query)
            }

            /// Exact k-NN, best first.
            ///
            /// # Errors
            /// As [`Self::query_into`].
            pub fn knn(&self, query: &[f32], k: usize) -> Result<Vec<Neighbor>, IndexError> {
                self.inner.knn(query, k)
            }

            /// Exact k-NN into a caller-owned buffer (cleared first, best
            /// first): [`Self::query_into`] with [`QueryKind::Knn`].
            ///
            /// # Errors
            /// As [`Self::query_into`].
            pub fn knn_into(
                &self,
                query: &[f32],
                k: usize,
                out: &mut Vec<Neighbor>,
            ) -> Result<(), IndexError> {
                self.inner.knn_into(query, k, out)
            }

            /// Exact k-NN with per-query work counters.
            ///
            /// # Errors
            /// As [`Self::query_into`].
            pub fn knn_with_stats(
                &self,
                query: &[f32],
                k: usize,
            ) -> Result<(Vec<Neighbor>, QueryStats), IndexError> {
                self.inner.knn_with_stats(query, k)
            }

            /// Exact k-NN for a row-major batch of queries, best first
            /// per query: [`Self::query_batch`] with a uniform `k`.
            ///
            /// # Errors
            /// As [`Self::query_batch`].
            pub fn knn_batch(
                &self,
                queries: &[f32],
                k: usize,
            ) -> Result<Vec<Vec<Neighbor>>, IndexError> {
                self.inner.knn_batch(queries, k)
            }

            /// Every row within squared distance `r_sq` of the query,
            /// sorted by `(dist_sq, row)`, ties at the radius included:
            /// [`Self::query_into`] with [`QueryKind::Range`].
            ///
            /// # Errors
            /// As [`Self::query_into`].
            pub fn range(&self, query: &[f32], r_sq: f32) -> Result<Vec<Neighbor>, IndexError> {
                self.inner.range(query, r_sq)
            }

            /// Exact top-k rows by inner product with the z-normalized
            /// query, best (largest dot) first, with exact dot products
            /// (a [`QueryKind::Ip`] answer carries funnel scores instead).
            ///
            /// # Errors
            /// As [`Self::query_into`].
            pub fn knn_ip(&self, query: &[f32], k: usize) -> Result<Vec<IpNeighbor>, IndexError> {
                self.inner.knn_ip(query, k)
            }

            /// Fast approximate 1-NN (tree descent only; not exact).
            ///
            /// # Errors
            /// As [`Self::query_into`].
            pub fn approximate_nn(&self, query: &[f32]) -> Result<Neighbor, IndexError> {
                self.inner.approximate_nn(query)
            }

            /// Inserts one series online, returning its row id. The row
            /// joins the append-only delta that every query scans beside
            /// the tree; the insert that fills the delta (leaf capacity
            /// rows) folds it into a regrown, packed tree.
            ///
            /// # Errors
            /// Returns [`IndexError::BadQuery`] on a length mismatch or
            /// [`IndexError::NonFinite`] on a NaN or ±Inf value.
            pub fn insert(&mut self, series: &[f32]) -> Result<u32, IndexError> {
                self.inner.insert(series)
            }

            /// Inserts a row-major buffer of series, returning the first
            /// new row id.
            ///
            /// # Errors
            /// Returns [`IndexError::BadDataset`] on an empty/ragged buffer
            /// or [`IndexError::NonFinite`] on a NaN or ±Inf value.
            pub fn insert_all(&mut self, buffer: &[f32]) -> Result<u32, IndexError> {
                self.inner.insert_all(buffer)
            }

            /// Folds the insert delta into the tree now (a no-op when it
            /// is empty). Queries are exact either way; folding only moves
            /// the delta's rows behind the tree's pruning.
            pub fn repack_leaves(&mut self) {
                self.inner.repack_leaves();
            }

            /// Structural statistics (Figure 8).
            #[must_use]
            pub fn stats(&self) -> IndexStats {
                self.inner.stats()
            }

            /// Number of indexed series.
            #[must_use]
            pub fn n_series(&self) -> usize {
                self.inner.n_series()
            }

            /// Indexed series length.
            #[must_use]
            pub fn series_len(&self) -> usize {
                self.inner.series_len()
            }

            /// Build-phase timing breakdown `(transform_secs, tree_secs)`.
            #[must_use]
            pub fn build_breakdown(&self) -> (f64, f64) {
                self.inner.build_breakdown()
            }

            /// Enables or disables the quantized refine tier at query
            /// time, without a rebuild (see
            /// [`Builder::quant_refine`] for the build-time switch that
            /// controls whether codes exist at all). Results are exact
            /// either way.
            pub fn set_quant_refine(&self, on: bool) {
                self.inner.set_quant_refine(on);
            }

            /// Whether queries currently consult the quantized refine
            /// tier.
            #[must_use]
            pub fn quant_refine_enabled(&self) -> bool {
                self.inner.quant_refine_enabled()
            }

            /// The persistent worker pool executing this index's
            /// parallel phases; clone it into other builders to share
            /// one set of threads.
            #[must_use]
            pub fn pool(&self) -> &std::sync::Arc<ExecPool> {
                self.inner.pool()
            }

            /// Writes an atomic, checksummed snapshot of the index to
            /// `path` (tmp file, fsync, rename — a crash mid-write
            /// never damages an existing snapshot) and returns the file
            /// size in bytes. Reopen it with `open` and serve straight
            /// from the mapped file.
            ///
            /// # Errors
            /// Returns [`IndexError::SnapshotIo`] when the filesystem
            /// rejects any step.
            pub fn snapshot<P: AsRef<std::path::Path>>(&self, path: P) -> Result<u64, IndexError> {
                self.inner.snapshot(path)
            }

            /// Whether this index serves the dataset from a mapped
            /// snapshot file (true after `open`, inserts included) rather
            /// than from owned heap memory (true after `build`, or after
            /// the first delta fold promotes the storage).
            #[must_use]
            pub fn is_mapped(&self) -> bool {
                self.inner.is_mapped()
            }

            /// Access to the generic index for advanced use.
            #[must_use]
            pub fn raw(&self) -> &Index<$summ> {
                &self.inner
            }
        }

        /// Lets a [`serve::Server`] coalesce concurrent single-query
        /// callers into batch ticks over this index (wrap it in an
        /// `Arc` to share it between the server and direct callers).
        impl TickExec for $ty {
            fn series_len(&self) -> usize {
                self.inner.series_len()
            }

            fn n_rows(&self) -> Option<usize> {
                TickExec::n_rows(&self.inner)
            }

            fn run_tick(
                &self,
                queries: &[f32],
                kinds: &[QueryKind],
                outs: &[serve::ResultSlot],
                cancels: &[serve::CancelToken],
            ) {
                TickExec::run_tick(&self.inner, queries, kinds, outs, cancels);
            }

            fn degraded_answers(&self) -> u64 {
                TickExec::degraded_answers(&self.inner)
            }
        }
    };
}

/// An N-way sharded SOFA index (see [`Builder::build_sofa_sharded`]).
pub type ShardedSofaIndex = ShardedIndex<Sfa>;

/// An N-way sharded MESSI index (see [`Builder::build_messi_sharded`]).
pub type ShardedMessiIndex = ShardedIndex<ISax>;

/// The SOFA index: SFA summarization + MESSI-style tree (the paper's
/// contribution). Build with [`SofaIndex::build`] or [`SofaIndex::builder`].
pub struct SofaIndex {
    inner: Index<Sfa>,
}

impl SofaIndex {
    /// Builds with the paper's default parameters.
    ///
    /// # Errors
    /// Returns [`IndexError::BadDataset`] on an empty or ragged buffer,
    /// [`IndexError::NonFinite`] if a value is NaN or ±Inf.
    pub fn build(data: &[f32], series_len: usize) -> Result<Self, IndexError> {
        Builder::default().build_sofa(data, series_len)
    }

    /// Zero-copy build with the paper's default parameters: takes
    /// ownership of `data`, normalizes it in place, and never duplicates
    /// the dataset.
    ///
    /// # Errors
    /// Returns [`IndexError::BadDataset`] on an empty or ragged buffer,
    /// [`IndexError::NonFinite`] if a value is NaN or ±Inf.
    pub fn build_owned(data: Vec<f32>, series_len: usize) -> Result<Self, IndexError> {
        Builder::default().build_sofa_owned(data, series_len)
    }

    /// Opens a snapshot written by [`SofaIndex::snapshot`] with default
    /// execution settings, mapping the file and serving without
    /// deserializing the dataset. Use [`Builder::open_sofa`] to control
    /// the thread count or share a pool.
    ///
    /// # Errors
    /// As [`Builder::open_sofa`].
    pub fn open<P: AsRef<std::path::Path>>(path: P) -> Result<Self, IndexError> {
        Builder::default().open_sofa(path)
    }

    /// A configuration builder.
    #[must_use]
    pub fn builder() -> Builder {
        Builder::default()
    }

    /// Mean selected DFT coefficient index (Figure 13 diagnostics).
    #[must_use]
    pub fn mean_selected_coefficient(&self) -> f64 {
        self.inner.summarization().mean_selected_coefficient()
    }

    /// The learned SFA model.
    #[must_use]
    pub fn sfa(&self) -> &Sfa {
        self.inner.summarization()
    }
}

/// The MESSI baseline: iSAX summarization + the same tree.
pub struct MessiIndex {
    inner: Index<ISax>,
}

impl MessiIndex {
    /// Builds with the paper's default parameters.
    ///
    /// # Errors
    /// Returns [`IndexError::BadDataset`] on an empty or ragged buffer,
    /// [`IndexError::NonFinite`] if a value is NaN or ±Inf.
    pub fn build(data: &[f32], series_len: usize) -> Result<Self, IndexError> {
        Builder::default().build_messi(data, series_len)
    }

    /// Zero-copy build with the paper's default parameters: takes
    /// ownership of `data` and never duplicates the dataset.
    ///
    /// # Errors
    /// Returns [`IndexError::BadDataset`] on an empty or ragged buffer,
    /// [`IndexError::NonFinite`] if a value is NaN or ±Inf.
    pub fn build_owned(data: Vec<f32>, series_len: usize) -> Result<Self, IndexError> {
        Builder::default().build_messi_owned(data, series_len)
    }

    /// Opens a snapshot written by [`MessiIndex::snapshot`] with
    /// default execution settings (see [`SofaIndex::open`]).
    ///
    /// # Errors
    /// As [`Builder::open_messi`].
    pub fn open<P: AsRef<std::path::Path>>(path: P) -> Result<Self, IndexError> {
        Builder::default().open_messi(path)
    }

    /// A configuration builder.
    #[must_use]
    pub fn builder() -> Builder {
        Builder::default()
    }

    /// The iSAX model.
    #[must_use]
    pub fn isax(&self) -> &ISax {
        self.inner.summarization()
    }
}

forward_index_api!(SofaIndex, Sfa);
forward_index_api!(MessiIndex, ISax);

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(count: usize, n: usize, seed: usize) -> Vec<f32> {
        let mut data = Vec::with_capacity(count * n);
        for r in 0..count {
            for t in 0..n {
                let x = t as f32;
                let r = (r + seed) as f32;
                data.push((x * 0.19 + r).sin() + 0.5 * (x * 1.2 - r * 0.4).cos());
            }
        }
        data
    }

    #[test]
    fn sofa_and_messi_agree() {
        let n = 64;
        let data = dataset(500, n, 0);
        let sofa = SofaIndex::builder()
            .leaf_capacity(50)
            .threads(2)
            .sample_ratio(0.5)
            .build_sofa(&data, n)
            .unwrap();
        let messi =
            MessiIndex::builder().leaf_capacity(50).threads(2).build_messi(&data, n).unwrap();
        let queries = dataset(5, n, 700);
        for q in queries.chunks(n) {
            let a = sofa.nn(q).unwrap();
            let b = messi.nn(q).unwrap();
            assert!((a.dist_sq - b.dist_sq).abs() < 1e-3 * a.dist_sq.max(1.0));
        }
    }

    #[test]
    fn builders_reject_non_finite_rows_and_zero_constant_ones() {
        let n = 64;
        let b = SofaIndex::builder().leaf_capacity(50).threads(2).sample_ratio(0.5);
        for bad in [f32::NAN, f32::INFINITY] {
            let mut data = dataset(300, n, 0);
            data[123 * n + 9] = bad;
            assert_eq!(b.build_sofa(&data, n).err(), Some(IndexError::NonFinite));
            assert_eq!(b.build_sofa_owned(data.clone(), n).err(), Some(IndexError::NonFinite));
            assert_eq!(b.build_messi(&data, n).err(), Some(IndexError::NonFinite));
            assert_eq!(b.build_messi_owned(data, n).err(), Some(IndexError::NonFinite));
        }
        let mut data = dataset(300, n, 0);
        data[17 * n..18 * n].fill(-2.25);
        let sofa = b.build_sofa(&data, n).expect("a constant row builds");
        let messi = b.build_messi(&data, n).expect("a constant row builds");
        assert!(sofa.inner.series(17).iter().all(|&x| x == 0.0));
        assert!(messi.inner.series(17).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn builder_parameters_apply() {
        let n = 64;
        let data = dataset(300, n, 0);
        let sofa = SofaIndex::builder()
            .word_len(8)
            .alphabet(64)
            .leaf_capacity(25)
            .threads(1)
            .build_sofa(&data, n)
            .unwrap();
        assert_eq!(sofa.sfa().model().word_len(), 8);
        assert_eq!(sofa.sfa().model().alphabet, 64);
        assert!(sofa.stats().max_leaf_size <= 25 || sofa.stats().leaves == 1);
    }

    #[test]
    fn build_rejects_bad_input() {
        assert!(SofaIndex::build(&[], 64).is_err());
        assert!(SofaIndex::build(&vec![0.0; 65], 64).is_err());
        assert!(MessiIndex::build(&vec![0.0; 65], 64).is_err());
        assert!(SofaIndex::build_owned(vec![0.0; 65], 64).is_err());
        assert!(MessiIndex::build_owned(Vec::new(), 64).is_err());
    }

    #[test]
    fn owned_build_matches_borrowing_build() {
        let n = 64;
        let data = dataset(400, n, 2);
        let borrow = SofaIndex::builder()
            .threads(2)
            .leaf_capacity(40)
            .sample_ratio(0.5)
            .build_sofa(&data, n)
            .unwrap();
        let owned = SofaIndex::builder()
            .threads(2)
            .leaf_capacity(40)
            .sample_ratio(0.5)
            .build_sofa_owned(data.clone(), n)
            .unwrap();
        assert_eq!(borrow.n_series(), owned.n_series());
        let queries = dataset(4, n, 808);
        for q in queries.chunks(n) {
            let a = borrow.nn(q).unwrap();
            let b = owned.nn(q).unwrap();
            assert_eq!(a.row, b.row);
            assert_eq!(a.dist_sq, b.dist_sq);
        }
    }

    #[test]
    fn shared_pool_across_sofa_and_messi() {
        let n = 64;
        let data = dataset(300, n, 1);
        let pool = ExecPool::shared(2);
        let sofa = SofaIndex::builder()
            .pool(Arc::clone(&pool))
            .leaf_capacity(30)
            .sample_ratio(0.5)
            .build_sofa(&data, n)
            .unwrap();
        let messi = MessiIndex::builder()
            .pool(Arc::clone(&pool))
            .leaf_capacity(30)
            .build_messi(&data, n)
            .unwrap();
        assert!(Arc::ptr_eq(sofa.pool(), &pool));
        assert!(Arc::ptr_eq(messi.pool(), &pool));
        let q = dataset(1, n, 77);
        let a = sofa.nn(&q).unwrap();
        let b = messi.nn(&q).unwrap();
        assert!((a.dist_sq - b.dist_sq).abs() < 1e-3 * a.dist_sq.max(1.0));
    }

    #[test]
    fn facade_knn_batch_matches_knn() {
        let n = 64;
        let data = dataset(350, n, 4);
        let sofa = SofaIndex::builder().threads(2).leaf_capacity(40).build_sofa(&data, n).unwrap();
        let queries = dataset(6, n, 1234);
        let batch = sofa.knn_batch(&queries, 4).unwrap();
        assert_eq!(batch.len(), 6);
        for (qi, q) in queries.chunks(n).enumerate() {
            assert_eq!(batch[qi], sofa.knn(q, 4).unwrap(), "query {qi}");
        }
    }

    #[test]
    fn facade_surface() {
        let n = 64;
        let data = dataset(200, n, 3);
        let sofa = SofaIndex::builder().threads(2).leaf_capacity(30).build_sofa(&data, n).unwrap();
        assert_eq!(sofa.n_series(), 200);
        assert_eq!(sofa.series_len(), n);
        assert!(sofa.mean_selected_coefficient() >= 0.0);
        let (t, b) = sofa.build_breakdown();
        assert!(t >= 0.0 && b >= 0.0);
        let q = dataset(1, n, 50);
        let (nn, stats) = sofa.knn_with_stats(&q, 3).unwrap();
        assert_eq!(nn.len(), 3);
        assert!(stats.series_lbd_checked <= 200);
    }
}
