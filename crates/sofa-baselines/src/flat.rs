//! FAISS `IndexFlatL2` analogue: blocked exact brute force with
//! tile-parallel batch queries.
//!
//! FAISS's flat index evaluates `|x - y|^2 = |x|^2 - 2 x.y + |y|^2` with
//! BLAS GEMM over (query block × data block) tiles; data norms are
//! precomputed. We reproduce that compute shape in pure Rust: the
//! runtime-dispatched [`sofa_simd::dot`] kernel (AVX2+FMA where the CPU
//! supports it, portable 8-lane blocks elsewhere), precomputed norms, and a
//! [`FlatL2::knn_batch`] that walks the (query block × data block) tile
//! grid in parallel on a persistent [`ExecPool`] — each tile computes a
//! partial top-k for its queries over its rows and merges it into the
//! per-query result set, the GEMM-tile schedule of FAISS's batched
//! search. The paper runs FAISS exactly this way ("we process queries in
//! mini-batches equal to the number of available cores").

use sofa_exec::ExecPool;
use sofa_index::{znormalize_rows, KnnSet, Neighbor};
use sofa_simd::{dot, znormalize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Data rows per block tile; sized so a tile of series plus the query
/// block stays L2-resident for the paper's series lengths (96–256 floats).
const BLOCK_ROWS: usize = 256;

/// Queries per block tile: small enough that a query block and a data
/// block fit in cache together, large enough to amortize a tile's
/// scheduling to nothing.
const BLOCK_QUERIES: usize = 16;

/// An exact flat L2 index.
pub struct FlatL2 {
    data: Vec<f32>,
    /// Precomputed `|y|^2` per row (all ~= series_len after z-norm, but we
    /// keep the general form like FAISS does).
    norms: Vec<f32>,
    series_len: usize,
    pool: Arc<ExecPool>,
}

impl FlatL2 {
    /// Copies and z-normalizes `raw_data`, creating a private pool with
    /// `threads` lanes. Prefer [`FlatL2::new_owned`] to avoid the copy,
    /// or [`FlatL2::with_pool`] to share threads with other indexes.
    ///
    /// # Panics
    /// Panics if the buffer is empty, not a whole number of series, or
    /// holds a NaN or ±Inf value.
    #[must_use]
    pub fn new(raw_data: &[f32], series_len: usize, threads: usize) -> Self {
        Self::new_owned(raw_data.to_vec(), series_len, threads)
    }

    /// Zero-copy ingest: takes ownership of `data` and z-normalizes it in
    /// place.
    ///
    /// # Panics
    /// Panics if the buffer is empty, not a whole number of series, or
    /// holds a NaN or ±Inf value.
    #[must_use]
    pub fn new_owned(data: Vec<f32>, series_len: usize, threads: usize) -> Self {
        Self::with_pool(data, series_len, ExecPool::shared(threads))
    }

    /// Zero-copy ingest on a caller-supplied worker pool.
    ///
    /// # Panics
    /// Panics if the buffer is empty, not a whole number of series, or
    /// holds a NaN or ±Inf value.
    #[must_use]
    pub fn with_pool(mut data: Vec<f32>, series_len: usize, pool: Arc<ExecPool>) -> Self {
        assert!(series_len > 0, "series length must be positive");
        assert!(!data.is_empty(), "dataset must be non-empty");
        assert_eq!(data.len() % series_len, 0, "buffer must hold whole series");
        znormalize_rows(&mut data, series_len, &pool)
            .expect("dataset must hold only finite values");
        let norms = data.chunks(series_len).map(|row| dot(row, row)).collect();
        FlatL2 { data, norms, series_len, pool }
    }

    /// Number of series.
    #[must_use]
    pub fn n_series(&self) -> usize {
        self.data.len() / self.series_len
    }

    /// The worker pool answering this index's batch queries.
    #[must_use]
    pub fn pool(&self) -> &Arc<ExecPool> {
        &self.pool
    }

    /// Exact k-NN for a batch of queries (row-major), best first per
    /// query. The (query block × data block) tile grid is executed in
    /// parallel on the pool; every tile folds its rows into a partial
    /// top-k for each of its queries, pre-filtered by the query's current
    /// k-th-best bound, then merges the survivors into the shared
    /// per-query result set.
    ///
    /// # Panics
    /// Panics if the query buffer is not whole series or `k == 0`.
    #[must_use]
    pub fn knn_batch(&self, queries: &[f32], k: usize) -> Vec<Vec<Neighbor>> {
        assert!(k >= 1, "k must be at least 1");
        assert_eq!(queries.len() % self.series_len, 0, "queries must be whole series");
        let n = self.series_len;
        let n_queries = queries.len() / n;
        if n_queries == 0 {
            return Vec::new();
        }

        // Z-normalize the whole batch once, up front, row by row as
        // `knn_one` does.
        let mut qz = queries.to_vec();
        qz.chunks_mut(n).for_each(znormalize);
        let qnorms: Vec<f32> = qz.chunks(n).map(|q| dot(q, q)).collect();

        let n_rows = self.n_series();
        let sets: Vec<KnnSet> = (0..n_queries).map(|_| KnnSet::new(k)).collect();
        let data_blocks = n_rows.div_ceil(BLOCK_ROWS);
        let query_blocks = n_queries.div_ceil(BLOCK_QUERIES);
        let tiles = data_blocks * query_blocks;
        let next_tile = AtomicUsize::new(0);
        self.pool.broadcast(|_| {
            // Partial results for one (query, data block) pair, reused
            // across tiles to keep allocation out of the loop.
            let mut partial: Vec<Neighbor> = Vec::with_capacity(BLOCK_ROWS);
            loop {
                let t = next_tile.fetch_add(1, Ordering::Relaxed);
                if t >= tiles {
                    break;
                }
                // Data-major order: consecutive tiles reuse the hot data
                // block across the query block sweep.
                let db = t / query_blocks;
                let qb = t % query_blocks;
                let rows = db * BLOCK_ROWS..((db + 1) * BLOCK_ROWS).min(n_rows);
                let qs = qb * BLOCK_QUERIES..((qb + 1) * BLOCK_QUERIES).min(n_queries);
                for qi in qs {
                    let q = &qz[qi * n..(qi + 1) * n];
                    let set = &sets[qi];
                    // Partial top-k for this tile: keep rows that can
                    // still enter the query's result set (ties with the
                    // current k-th best included — the merge resolves
                    // them deterministically by row)...
                    let bound = set.bound();
                    partial.clear();
                    for row in rows.clone() {
                        let series = &self.data[row * n..(row + 1) * n];
                        let d = (qnorms[qi] + self.norms[row] - 2.0 * dot(q, series)).max(0.0);
                        if d <= bound {
                            partial.push(Neighbor { row: row as u32, dist_sq: d });
                        }
                    }
                    // ...and merge them best-first, so the shared bound
                    // tightens as early as possible.
                    partial.sort_unstable();
                    for &nb in &*partial {
                        if !set.offer(nb) {
                            break; // sorted: the rest cannot enter either
                        }
                    }
                }
            }
        });
        sets.into_iter().map(KnnSet::into_sorted).collect()
    }

    /// Exact k-NN for one query (serial; batches should prefer
    /// [`FlatL2::knn_batch`]).
    ///
    /// # Panics
    /// Panics on query length mismatch or `k == 0`.
    #[must_use]
    pub fn knn_one(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.series_len, "query length mismatch");
        assert!(k >= 1, "k must be at least 1");
        let n = self.series_len;
        let mut q = query.to_vec();
        znormalize(&mut q);
        let q_norm = dot(&q, &q);
        let best = KnnSet::new(k);
        // Blocked evaluation: one tile of rows at a time, norms + dot
        // products (the GEMM-with-precomputed-norms shape of FAISS).
        let mut base_row = 0usize;
        for tile in self.data.chunks(BLOCK_ROWS * n) {
            for (i, row) in tile.chunks(n).enumerate() {
                let d = q_norm + self.norms[base_row + i] - 2.0 * dot(&q, row);
                // Clamp tiny negative values from cancellation.
                let d = d.max(0.0);
                best.offer(Neighbor { row: (base_row + i) as u32, dist_sq: d });
            }
            base_row += BLOCK_ROWS;
        }
        best.into_sorted()
    }

    /// Exact 1-NN convenience wrapper.
    ///
    /// # Panics
    /// Panics on query length mismatch.
    #[must_use]
    pub fn nn(&self, query: &[f32]) -> Neighbor {
        self.knn_one(query, 1)[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(count: usize, n: usize, seed: usize) -> Vec<f32> {
        let mut data = Vec::with_capacity(count * n);
        for r in 0..count {
            for t in 0..n {
                let x = t as f32;
                let r = (r + seed) as f32;
                data.push((x * 0.31 + r).sin() + 0.6 * (x * 0.05 * (1.0 + r % 7.0)).cos());
            }
        }
        data
    }

    fn brute(data: &[f32], n: usize, q: &[f32], k: usize) -> Vec<Neighbor> {
        let mut qz = q.to_vec();
        znormalize(&mut qz);
        let mut all: Vec<Neighbor> = data
            .chunks(n)
            .enumerate()
            .map(|(row, s)| {
                let mut sz = s.to_vec();
                znormalize(&mut sz);
                Neighbor { row: row as u32, dist_sq: sofa_simd::euclidean_sq(&qz, &sz) }
            })
            .collect();
        all.sort_by(|a, b| a.dist_sq.total_cmp(&b.dist_sq).then(a.row.cmp(&b.row)));
        all.truncate(k);
        all
    }

    #[test]
    fn norm_trick_matches_direct_distance() {
        let n = 100;
        let data = dataset(700, n, 0); // > BLOCK_ROWS to cross tiles
        let flat = FlatL2::new(&data, n, 2);
        let queries = dataset(4, n, 500);
        for q in queries.chunks(n) {
            let got = flat.knn_one(q, 5);
            let want = brute(&data, n, q, 5);
            for (g, w) in got.iter().zip(want.iter()) {
                assert!(
                    (g.dist_sq - w.dist_sq).abs() < 2e-3 * w.dist_sq.max(1.0),
                    "{g:?} vs {w:?}"
                );
            }
        }
    }

    #[test]
    fn batch_matches_single() {
        let n = 96;
        let data = dataset(300, n, 1);
        let flat = FlatL2::new(&data, n, 3);
        let queries = dataset(7, n, 900);
        let batch = flat.knn_batch(&queries, 3);
        assert_eq!(batch.len(), 7);
        for (qi, q) in queries.chunks(n).enumerate() {
            let single = flat.knn_one(q, 3);
            assert_eq!(batch[qi].len(), single.len());
            for (a, b) in batch[qi].iter().zip(single.iter()) {
                assert_eq!(a.row, b.row);
            }
        }
    }

    #[test]
    fn tiled_batch_identical_to_serial_across_tile_boundaries() {
        // Batch and data both larger than one tile (BLOCK_QUERIES = 16,
        // BLOCK_ROWS = 256), so the tile grid is genuinely 2-D; every
        // query's result must be identical to the serial path's.
        let n = 64;
        let data = dataset(900, n, 2);
        for threads in [1usize, 2, 4] {
            let flat = FlatL2::new(&data, n, threads);
            let queries = dataset(40, n, 5000);
            for k in [1usize, 7] {
                let batch = flat.knn_batch(&queries, k);
                assert_eq!(batch.len(), 40);
                for (qi, q) in queries.chunks(n).enumerate() {
                    let single = flat.knn_one(q, k);
                    assert_eq!(
                        batch[qi], single,
                        "query {qi} k={k} threads={threads} diverged from serial"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_is_deterministic_under_exact_ties() {
        // Duplicate series produce exactly tied distances; batch must
        // agree with the serial path on which rows survive (the k-best
        // set is the k smallest (dist, row) pairs, so lowest rows win no
        // matter which tile commits first).
        let n = 64;
        let mut data = dataset(300, n, 5);
        let dup = data[7 * n..8 * n].to_vec();
        for r in [40usize, 111, 222] {
            data[r * n..(r + 1) * n].copy_from_slice(&dup);
        }
        let flat = FlatL2::new(&data, n, 3);
        let mut queries = dup.clone();
        queries.extend_from_slice(&dataset(8, n, 900));
        for k in [2usize, 4] {
            let batch = flat.knn_batch(&queries, k);
            for (qi, q) in queries.chunks(n).enumerate() {
                assert_eq!(batch[qi], flat.knn_one(q, k), "query {qi} k={k}");
            }
        }
    }

    #[test]
    fn batch_and_single_answer_a_non_finite_query_alike() {
        // The baselines do not validate queries: a NaN or ±Inf query row
        // is normalized like any other, on both paths.
        let n = 64;
        let data = dataset(300, n, 4);
        let flat = FlatL2::new(&data, n, 2);
        let mut queries = dataset(3, n, 700);
        queries[3] = f32::NAN;
        queries[n + 5] = f32::INFINITY;
        let batch = flat.knn_batch(&queries, 3);
        for (qi, q) in queries.chunks(n).enumerate() {
            assert_eq!(batch[qi], flat.knn_one(q, 3), "query {qi}");
        }
    }

    #[test]
    fn owned_and_pooled_constructors_agree() {
        let n = 64;
        let data = dataset(120, n, 3);
        let a = FlatL2::new(&data, n, 2);
        let b = FlatL2::new_owned(data.clone(), n, 2);
        let pool = ExecPool::shared(2);
        let c = FlatL2::with_pool(data.clone(), n, Arc::clone(&pool));
        assert!(Arc::ptr_eq(c.pool(), &pool));
        let q = dataset(1, n, 77);
        for flat in [&a, &b, &c] {
            assert_eq!(flat.nn(&q).row, a.nn(&q).row);
        }
    }

    #[test]
    fn finds_itself() {
        let n = 64;
        let data = dataset(100, n, 0);
        let flat = FlatL2::new(&data, n, 1);
        let nn = flat.nn(&data[42 * n..43 * n]);
        assert_eq!(nn.row, 42);
        assert!(nn.dist_sq < 1e-3, "{}", nn.dist_sq);
    }

    #[test]
    fn distances_non_negative() {
        let n = 64;
        let data = dataset(50, n, 4);
        let flat = FlatL2::new(&data, n, 1);
        for q in data.chunks(n).take(10) {
            for nb in flat.knn_one(q, 50) {
                assert!(nb.dist_sq >= 0.0);
            }
        }
    }

    #[test]
    fn empty_batch_ok() {
        let data = dataset(10, 32, 0);
        let flat = FlatL2::new(&data, 32, 2);
        assert!(flat.knn_batch(&[], 1).is_empty());
    }
}
