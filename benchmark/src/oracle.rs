//! Brute-force exactness oracle.
//!
//! The oracle holds the rows as the index stores them — built rows are
//! z-normalized twice (the facade normalizes before learning the model,
//! the build normalizes again), inserted rows once — and scores them with
//! the same dispatched kernels, so every answer is compared in bits, not
//! within a tolerance. Ties order by `(distance, row)`, as in the index.

use sofa::simd::{euclidean_sq_early_abandon, znormalize};
use sofa::Neighbor;

/// The `k` smallest neighbors seen so far, kept sorted.
#[derive(Clone)]
pub struct TopK {
    k: usize,
    items: Vec<Neighbor>,
}

impl TopK {
    pub fn new(k: usize) -> Self {
        TopK { k, items: Vec::with_capacity(k + 1) }
    }

    pub fn offer(&mut self, nb: Neighbor) {
        if self.items.len() == self.k && nb >= self.items[self.k - 1] {
            return;
        }
        let at = self.items.partition_point(|x| *x < nb);
        self.items.insert(at, nb);
        self.items.truncate(self.k);
    }

    pub fn items(&self) -> &[Neighbor] {
        &self.items
    }
}

pub struct Oracle {
    rows: Vec<f32>,
    n: usize,
}

/// The query as the index normalizes it.
pub fn normalized(query: &[f32]) -> Vec<f32> {
    let mut q = query.to_vec();
    znormalize(&mut q);
    q
}

impl Oracle {
    /// Rows of a bulk build.
    pub fn from_built(data: &[f32], n: usize) -> Self {
        let mut rows = data.to_vec();
        for row in rows.chunks_mut(n) {
            znormalize(row);
            znormalize(row);
        }
        Oracle { rows, n }
    }

    /// Appends a row inserted online.
    pub fn push_inserted(&mut self, series: &[f32]) {
        let start = self.rows.len();
        self.rows.extend_from_slice(series);
        znormalize(&mut self.rows[start..]);
    }

    /// Every row, row-major.
    pub fn rows(&self) -> &[f32] {
        &self.rows
    }

    pub fn into_rows(self) -> Vec<f32> {
        self.rows
    }

    fn count(&self) -> usize {
        self.rows.len() / self.n
    }

    fn row(&self, r: usize) -> &[f32] {
        &self.rows[r * self.n..(r + 1) * self.n]
    }

    fn dist(&self, q: &[f32], r: usize) -> f32 {
        euclidean_sq_early_abandon(q, self.row(r), f32::INFINITY)
    }

    /// Exact k-NN of each query over rows `from..count()`, merged into
    /// `tops` (one per query). Queries are pre-normalized. The scan runs in
    /// row blocks that stay in cache while every query passes over them,
    /// split across `threads` by query.
    pub fn knn_into(&self, queries: &[Vec<f32>], from: usize, tops: &mut [TopK], threads: usize) {
        let per = queries.len().div_ceil(threads.max(1)).max(1);
        std::thread::scope(|s| {
            for (qs, ts) in queries.chunks(per).zip(tops.chunks_mut(per)) {
                s.spawn(move || {
                    const BLOCK: usize = 512;
                    let mut r0 = from;
                    while r0 < self.count() {
                        let r1 = (r0 + BLOCK).min(self.count());
                        for (q, top) in qs.iter().zip(ts.iter_mut()) {
                            for r in r0..r1 {
                                top.offer(Neighbor { row: r as u32, dist_sq: self.dist(q, r) });
                            }
                        }
                        r0 = r1;
                    }
                });
            }
        });
    }
}

/// Bit-identical answers: same rows, same scores, same order.
pub fn bits_eq(a: &[Neighbor], b: &[Neighbor]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.row == y.row && x.dist_sq.to_bits() == y.dist_sq.to_bits())
}
