//! UCR Suite-P: parallel partitioned scan with SIMD early abandoning.
//!
//! The paper's description (§V "Competitors"): "each thread is allocated a
//! segment of the in-memory DS array, allowing all threads to concurrently
//! and independently process their assigned segments. The real distance
//! calculations are performed using SIMD, and synchronization occurs only
//! at the end to compile the final result." That is precisely this module:
//! per-lane [`sofa_index::KnnSet`]s merged after the scan, with each lane
//! early-abandoning against its own running bound. The lanes are the
//! persistent workers of an [`ExecPool`], not per-call threads, and the
//! inner loop is the runtime-dispatched
//! [`sofa_simd::euclidean_sq_early_abandon`] kernel (AVX2 where
//! available), so baseline comparisons measure the same metal as the
//! index.

use sofa_exec::ExecPool;
use sofa_index::{znormalize_rows, KnnSet, Neighbor};
use sofa_simd::{euclidean_sq_early_abandon, znormalize};
use std::sync::Arc;

/// A parallel scan "index" (no structure, just the normalized data).
pub struct UcrScan {
    data: Vec<f32>,
    series_len: usize,
    pool: Arc<ExecPool>,
}

impl UcrScan {
    /// Copies and z-normalizes `raw_data` (row-major series of length
    /// `series_len`), creating a private pool with `threads` lanes.
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
        UcrScan { data, series_len, pool }
    }

    /// Number of series.
    #[must_use]
    pub fn n_series(&self) -> usize {
        self.data.len() / self.series_len
    }

    /// The worker pool answering this scan's queries.
    #[must_use]
    pub fn pool(&self) -> &Arc<ExecPool> {
        &self.pool
    }

    /// Exact 1-NN.
    ///
    /// # Panics
    /// Panics on query length mismatch.
    #[must_use]
    pub fn nn(&self, query: &[f32]) -> Neighbor {
        self.knn(query, 1)[0]
    }

    /// Exact k-NN, best first (`min(k, n_series)` results).
    ///
    /// # Panics
    /// Panics on query length mismatch or `k == 0`.
    #[must_use]
    pub fn knn(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.series_len, "query length mismatch");
        assert!(k >= 1, "k must be at least 1");
        let mut q = query.to_vec();
        znormalize(&mut q);

        let n = self.series_len;
        let n_series = self.n_series();
        let rows_per_chunk = n_series.div_ceil(self.pool.threads());
        let merged = KnnSet::new(k);
        self.pool.broadcast(|lane| {
            // Lane-local best set over this lane's segment; merge at the
            // end (the paper's synchronization model).
            let base = lane * rows_per_chunk;
            if base >= n_series {
                return;
            }
            let end = (base + rows_per_chunk).min(n_series);
            let local = KnnSet::new(k);
            for (i, series) in self.data[base * n..end * n].chunks(n).enumerate() {
                let bound = local.bound();
                let d = euclidean_sq_early_abandon(&q, series, bound);
                if d < bound {
                    local.offer(Neighbor { row: (base + i) as u32, dist_sq: d });
                }
            }
            for nb in local.into_sorted() {
                if !merged.offer(nb) {
                    break; // sorted ascending: the rest cannot enter
                }
            }
        });
        merged.into_sorted()
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
                data.push((x * 0.23 + r).sin() + 0.4 * (x * 1.7 - r * 0.5).cos());
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
    fn matches_brute_force() {
        let n = 64;
        let data = dataset(300, n, 0);
        let scan = UcrScan::new(&data, n, 3);
        let queries = dataset(5, n, 888);
        for q in queries.chunks(n) {
            for k in [1usize, 5] {
                let got = scan.knn(q, k);
                let want = brute(&data, n, q, k);
                for (g, w) in got.iter().zip(want.iter()) {
                    assert!((g.dist_sq - w.dist_sq).abs() < 1e-3 * w.dist_sq.max(1.0));
                }
            }
        }
    }

    #[test]
    fn consistent_across_thread_counts() {
        let n = 96;
        let data = dataset(200, n, 3);
        let q = dataset(1, n, 555);
        let d1 = UcrScan::new(&data, n, 1).nn(&q).dist_sq;
        let d4 = UcrScan::new(&data, n, 4).nn(&q).dist_sq;
        assert!((d1 - d4).abs() < 1e-5);
    }

    #[test]
    fn repeated_queries_reuse_the_pool() {
        // Many queries on one scan instance: the persistent pool must
        // stay healthy across calls and keep returning exact results.
        let n = 64;
        let data = dataset(250, n, 6);
        let scan = UcrScan::new(&data, n, 2);
        let queries = dataset(10, n, 4242);
        for q in queries.chunks(n) {
            let got = scan.knn(q, 3);
            let want = brute(&data, n, q, 3);
            for (g, w) in got.iter().zip(want.iter()) {
                assert_eq!(g.row, w.row);
            }
        }
    }

    #[test]
    fn shared_pool_constructor() {
        let n = 64;
        let data = dataset(100, n, 2);
        let pool = ExecPool::shared(2);
        let scan = UcrScan::with_pool(data.clone(), n, Arc::clone(&pool));
        assert!(Arc::ptr_eq(scan.pool(), &pool));
        let q = dataset(1, n, 31);
        assert_eq!(scan.nn(&q).row, brute(&data, n, &q, 1)[0].row);
    }

    #[test]
    fn finds_itself() {
        let n = 64;
        let data = dataset(100, n, 0);
        let scan = UcrScan::new(&data, n, 2);
        let nn = scan.nn(&data[5 * n..6 * n]);
        assert_eq!(nn.row, 5);
        assert!(nn.dist_sq < 1e-4);
    }

    #[test]
    fn knn_sorted_unique() {
        let n = 64;
        let data = dataset(150, n, 9);
        let scan = UcrScan::new(&data, n, 2);
        let q = dataset(1, n, 321);
        let got = scan.knn(&q, 10);
        assert_eq!(got.len(), 10);
        for w in got.windows(2) {
            assert!(w[0].dist_sq <= w[1].dist_sq);
            assert_ne!(w[0].row, w[1].row);
        }
    }

    #[test]
    #[should_panic(expected = "query length mismatch")]
    fn rejects_bad_query() {
        let data = dataset(10, 32, 0);
        let scan = UcrScan::new(&data, 32, 1);
        let _ = scan.nn(&[0.0; 31]);
    }
}
