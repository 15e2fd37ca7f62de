//! Online inserts: an append-only delta folded into the tree in bulk.
//!
//! The paper's SOFA/MESSI tree is bulk-built (§IV-G), and FAISS keeps its
//! indexes add-only; this module keeps the built tree immutable the same
//! way. [`Index::insert`] z-normalizes the series, computes its word with
//! the index's learned model, and appends both to the **delta**: the
//! rows beside the tree, append-only, with room for a whole fill
//! reserved at once. An insert never splits a leaf and never writes a
//! memory-mapped arena. While the arenas are owned, the delta rows sit at
//! their tail (beyond every row the tree indexes); while they are still
//! mapped from a snapshot, the rows collect in a side buffer.
//!
//! Every query answers tree ∪ delta: the tree funnel runs unchanged, then
//! the delta rows are scanned through the same pruning bound — word lower
//! bound first, then the exact kernel (see [`crate::query`]).
//!
//! When the delta reaches `leaf_capacity` rows, the insert that fills it
//! **folds** it into the tree: the rows join the tree's storage (mapped
//! arenas are promoted to owned copies that end with the side buffer's
//! rows), the forest is regrown from the stored words (no re-transform;
//! the quantizer is kept), and every leaf is packed again. The unpruned
//! delta scan is thus bounded by one full leaf, with no extra knob.
//!
//! Row ids are stable: delta row `i` has id `tree rows + i` and storage
//! slot `tree rows + i` once folded, so every id `insert` returned keeps
//! naming the same series. An SFA model learned at build time is *not*
//! re-learned — the paper's batch protocol; drifting data would call for
//! a rebuild.

use crate::arena::Arena;
use crate::node::root_key;
use crate::{Index, IndexError};
use sofa_summaries::Summarization;

/// Rows inserted since the last fold, in insertion order (see the module
/// docs for where their values and words live).
#[derive(Debug, Default)]
pub(crate) struct Delta {
    /// Side buffer of z-normalized values (`rows * series_len`), used
    /// only while the arenas are mapped; empty otherwise.
    pub data: Vec<f32>,
    /// Side buffer of words (`rows * word_len`), same rule.
    pub words: Vec<u8>,
    /// Rows currently held.
    pub rows: usize,
    /// Folds performed over the index's lifetime.
    pub folds: u64,
}

impl<S: Summarization> Index<S> {
    /// Inserts one series, returning its row id.
    ///
    /// The series joins the delta (see the module docs) and is visible to
    /// every query started after this call returns. The insert that
    /// brings the delta to `leaf_capacity` rows also folds it into the
    /// tree.
    ///
    /// # Errors
    /// Returns [`IndexError::BadQuery`] if the series length mismatches,
    /// [`IndexError::NonFinite`] if it holds a NaN or ±Inf value, or
    /// [`IndexError::TooManyRows`] past the `u32` row-id space. A
    /// rejected series leaves the index unchanged.
    pub fn insert(&mut self, series: &[f32]) -> Result<u32, IndexError> {
        if series.len() != self.series_len {
            return Err(IndexError::BadQuery(format!(
                "series length {} != index series length {}",
                series.len(),
                self.series_len
            )));
        }
        if series.iter().any(|x| !x.is_finite()) {
            return Err(IndexError::NonFinite);
        }
        let row = self.n_series();
        // Row ids are `u32`; one more row would silently truncate every
        // cast downstream.
        let id = u32::try_from(row).map_err(|_| IndexError::TooManyRows { rows: row + 1 })?;
        let (n, l) = (self.series_len, self.word_len);
        let cap = self.config.leaf_capacity;
        let room = cap - self.delta.rows;
        let (data, words) = match (&mut self.data, &mut self.words) {
            (Arena::Owned(data), Arena::Owned(words)) => (data, words),
            _ => (&mut self.delta.data, &mut self.delta.words),
        };
        // One reservation per fill, for every row the delta can still
        // take before it folds. (An unsatisfiable reservation just leaves
        // the buffers growing on demand.)
        if data.capacity() - data.len() < n {
            let _ = data.try_reserve_exact(room.saturating_mul(n));
        }
        if words.capacity() - words.len() < l {
            let _ = words.try_reserve_exact(room.saturating_mul(l));
        }
        let start = data.len();
        data.extend_from_slice(series);
        sofa_simd::znormalize(&mut data[start..]);
        let word_start = words.len();
        words.resize(word_start + l, 0);
        self.summarization.transformer().word_into(&data[start..], &mut words[word_start..]);
        self.delta.rows += 1;
        if self.delta.rows >= cap {
            self.fold();
        }
        Ok(id)
    }

    /// The delta's z-normalized values and words, row-major in row-id
    /// order — the arena tail, or the side buffer while the arenas are
    /// mapped.
    pub(crate) fn delta_slices(&self) -> (&[f32], &[u8]) {
        if self.is_mapped() {
            (&self.delta.data, &self.delta.words)
        } else {
            let tree_rows = self.slot_to_row.len();
            (&self.data[tree_rows * self.series_len..], &self.words[tree_rows * self.word_len..])
        }
    }

    /// Inserts every series in a row-major buffer, returning the first new
    /// row id.
    ///
    /// # Errors
    /// Returns [`IndexError::BadDataset`] if the buffer is not a whole
    /// number of series, [`IndexError::NonFinite`] if any value is NaN or
    /// ±Inf (checked before any row is inserted), or
    /// [`IndexError::TooManyRows`] past the `u32` row-id space.
    pub fn insert_all(&mut self, buffer: &[f32]) -> Result<u32, IndexError> {
        if buffer.is_empty() || buffer.len() % self.series_len != 0 {
            return Err(IndexError::BadDataset(
                "buffer must be a non-empty whole number of series".into(),
            ));
        }
        if buffer.iter().any(|x| !x.is_finite()) {
            return Err(IndexError::NonFinite);
        }
        let first = u32::try_from(self.n_series())
            .map_err(|_| IndexError::TooManyRows { rows: self.n_series() + 1 })?;
        for series in buffer.chunks(self.series_len) {
            self.insert(series)?;
        }
        Ok(first)
    }

    /// Folds the delta into the tree now (a no-op when it is empty), so
    /// every row is served by the packed tree again. (The name predates
    /// the delta; it is kept so existing callers compile.)
    pub fn repack_leaves(&mut self) {
        if self.delta.rows > 0 {
            self.fold();
        }
    }

    /// Folds the delta into the tree: promotes mapped arenas (taking the
    /// side buffer's rows along), hands the tail rows to the tree,
    /// regrows the forest from the stored words and packs every leaf.
    /// Also run once by `open` on format-1 snapshots whose leaf layout
    /// in-place inserts had left stale.
    pub(crate) fn fold(&mut self) {
        let delta = std::mem::take(&mut self.delta);
        self.delta.folds = delta.folds + 1;
        self.data.promote(delta.data);
        self.words.promote(delta.words);
        // Delta rows sit at the arena tail in id order, so their slots
        // start out equal to their ids; the pack then permutes them.
        let first = self.slot_to_row.len();
        // Lossless: insert rejects ids past u32::MAX.
        let ids = (first..first + delta.rows).map(|row| row as u32);
        self.row_to_slot.extend(ids.clone());
        self.slot_to_row.extend(ids);
        let symbol_bits = self.summarization.symbol_bits();
        let keys: Vec<u64> =
            self.words.chunks_exact(self.word_len).map(|w| root_key(w, symbol_bits)).collect();
        self.grow_forest(&keys);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::symbol_prefix;
    use crate::IndexConfig;
    use sofa_summaries::{ISax, SaxConfig};

    fn dataset(count: usize, n: usize, seed: usize) -> Vec<f32> {
        let mut data = Vec::with_capacity(count * n);
        for r in 0..count {
            for t in 0..n {
                let x = t as f32;
                let r = (r + seed) as f32;
                data.push((x * 0.21 + r).sin() + 0.6 * (x * (0.3 + (r % 13.0) * 0.07)).cos());
            }
        }
        data
    }

    fn empty_then_insert(data: &[f32], n: usize, leaf: usize) -> Index<ISax> {
        // Bootstrap with the first series, then insert the rest online.
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let mut idx =
            Index::build(sax, &data[..n], IndexConfig::with_threads(1).leaf_capacity(leaf))
                .expect("build");
        idx.insert_all(&data[n..]).expect("insert");
        idx
    }

    #[test]
    fn inserted_index_matches_bulk_built_queries() {
        let n = 64;
        let data = dataset(500, n, 0);
        let incremental = empty_then_insert(&data, n, 30);
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let bulk = Index::build(sax, &data, IndexConfig::with_threads(1).leaf_capacity(30))
            .expect("build");
        let queries = dataset(6, n, 900);
        for q in queries.chunks(n) {
            let a = incremental.nn(q).expect("query");
            let b = bulk.nn(q).expect("query");
            assert!(
                (a.dist_sq - b.dist_sq).abs() < 1e-4 * a.dist_sq.max(1.0),
                "incremental {a:?} vs bulk {b:?}"
            );
        }
    }

    #[test]
    fn inserts_split_leaves() {
        let n = 64;
        let data = dataset(400, n, 3);
        let idx = empty_then_insert(&data, n, 10);
        let stats = idx.stats();
        assert!(stats.leaves > 1, "splitting must have happened: {stats:?}");
        assert_eq!(stats.n_series, 400);
    }

    #[test]
    fn every_inserted_row_respects_its_leaf_label() {
        let n = 64;
        let data = dataset(300, n, 7);
        let idx = empty_then_insert(&data, n, 20);
        for st in idx.subtrees() {
            for leaf in st.leaves() {
                for &r in leaf.rows() {
                    let w = idx.word(r as usize);
                    for (j, (&prefix, &b)) in leaf.prefixes.iter().zip(leaf.bits.iter()).enumerate()
                    {
                        if b == 0 {
                            continue;
                        }
                        assert_eq!(
                            symbol_prefix(w[j], b, 8),
                            prefix,
                            "row {r} violates label at {j}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn inserted_series_are_findable() {
        let n = 64;
        let base = dataset(100, n, 0);
        let extra = dataset(50, n, 5000);
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let mut idx = Index::build(sax, &base, IndexConfig::with_threads(1).leaf_capacity(16))
            .expect("build");
        let first = idx.insert_all(&extra).expect("insert");
        assert_eq!(first, 100);
        // Each inserted series must find itself as its own 1-NN.
        for (i, s) in extra.chunks(n).enumerate() {
            let nn = idx.nn(s).expect("query");
            assert!(nn.dist_sq < 1e-4, "inserted series {i} not found: {nn:?}");
        }
    }

    #[test]
    fn delta_folds_exactly_when_it_reaches_leaf_capacity() {
        let n = 64;
        let data = dataset(600, n, 11);
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let mut idx =
            Index::build(sax, &data[..300 * n], IndexConfig::with_threads(1).leaf_capacity(10))
                .expect("build");
        let leaves = idx.stats().leaves;
        // Nine inserts stay in the delta: the tree is untouched.
        for (i, row) in data[300 * n..309 * n].chunks(n).enumerate() {
            assert_eq!(idx.insert(row).expect("insert"), 300 + i as u32);
        }
        let s = idx.stats();
        assert_eq!((s.delta_rows, s.folds, s.n_series, s.leaves), (9, 0, 309, leaves));
        assert_eq!(idx.series(305), &idx.delta_slices().0[5 * n..6 * n]);
        // The tenth fills it and folds: every row in the packed tree.
        idx.insert(&data[309 * n..310 * n]).expect("insert");
        let s = idx.stats();
        assert_eq!((s.delta_rows, s.folds, s.n_series), (0, 1, 310));
        assert_eq!(s.packed_leaves, s.leaves);
        assert_eq!(s.fallback_leaf_pct, 0.0);
        // A built index keeps its delta at the arena tail: no side buffer.
        assert_eq!((idx.delta.data.capacity(), idx.delta.words.capacity()), (0, 0));
        assert_eq!(idx.delta_slices().0.len(), 0);
        // Row ids survive the fold: each row still holds its series.
        for r in [0usize, 150, 299, 300, 305, 309] {
            let mut z = data[r * n..(r + 1) * n].to_vec();
            sofa_simd::znormalize(&mut z);
            assert_eq!(idx.series(r), z.as_slice(), "row {r}");
        }
        // A burst folds each time the delta fills.
        idx.insert_all(&data[310 * n..]).expect("insert");
        let s = idx.stats();
        assert_eq!((s.delta_rows, s.folds, s.n_series), (0, 30, 600));
    }

    #[test]
    fn insert_splits_keep_level_lanes_consistent() {
        // Concentrated square-wave data: every row shares one root key, so
        // the single subtree grows deep enough to record level blocks.
        let n = 64;
        let square = |r: usize, t: usize| {
            let base = if (t / 8) % 2 == 0 { 1.0f32 } else { -1.0 };
            base * (1.0 + 0.6 * ((t as f32 * 0.1 + r as f32 * 0.7).sin()))
        };
        let mut data = Vec::with_capacity(900 * n);
        for r in 0..900 {
            for t in 0..n {
                data.push(square(r, t));
            }
        }
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let mut idx =
            Index::build(sax, &data, IndexConfig::with_threads(1).leaf_capacity(8)).expect("build");
        assert!(
            !idx.subtrees()[0].collect.as_ref().expect("collect block").levels.is_empty(),
            "deep build must record levels"
        );

        // Insert enough rows to force splits across the tree: 50 folds,
        // with 0 rows left in the delta.
        let mut extra = Vec::with_capacity(400 * n);
        for r in 900..1300 {
            for t in 0..n {
                extra.push(square(r, t));
            }
        }
        idx.insert_all(&extra).expect("insert");
        assert_eq!((idx.stats().folds, idx.stats().delta_rows), (50, 0));

        let cb = idx.subtrees()[0].collect.as_ref().expect("collect block");
        // After the burst every level lane stays consistent with its
        // level block and fringe, and every fringe lane is a leaf.
        for (li, lanes) in cb.levels.iter().enumerate() {
            assert_eq!(lanes.node_ids.len(), lanes.leaf_spans.len());
            assert_eq!(lanes.node_ids.len(), cb.level_blocks.level(li).n());
            for (lane, &(lo, hi)) in lanes.node_ids.iter().zip(&lanes.leaf_spans) {
                assert!(lo < hi, "empty span");
                assert!((hi as usize) <= cb.node_ids.len());
                assert!(!idx.subtrees()[0].nodes[*lane as usize].is_leaf());
            }
        }
        assert!(cb.node_ids.iter().all(|&id| idx.subtrees()[0].nodes[id as usize].is_leaf()));

        // Exactness is untouched: every inserted row finds itself, and
        // results match a bulk-built index over the same rows.
        let mut all = data.clone();
        all.extend_from_slice(&extra);
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let bulk =
            Index::build(sax, &all, IndexConfig::with_threads(1).leaf_capacity(8)).expect("build");
        for r in (0..1300).step_by(97) {
            let q = &all[r * n..(r + 1) * n];
            let (a, stats) = idx.knn_with_stats(q, 3).expect("query");
            let b = bulk.knn(q, 3).expect("query");
            for (x, y) in a.iter().zip(&b) {
                assert!(
                    (x.dist_sq - y.dist_sq).abs() < 1e-4 * x.dist_sq.max(1.0),
                    "folded {x:?} vs bulk {y:?}"
                );
            }
            assert!(stats.leaves_collected > 0 || stats.nodes_pruned > 0, "{stats:?}");
        }
    }

    #[test]
    fn insert_rejects_wrong_length() {
        let n = 32;
        let data = dataset(10, n, 0);
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let mut idx = Index::build(sax, &data, IndexConfig::default()).expect("build");
        assert!(idx.insert(&[0.0; 31]).is_err());
        assert!(idx.insert_all(&[0.0; 33]).is_err());
    }

    #[test]
    fn insert_creates_new_subtrees_when_needed() {
        let n = 64;
        // Bootstrap with a smooth series, then insert a very different one
        // whose root key should differ.
        let smooth: Vec<f32> = (0..n).map(|t| (t as f32 * 0.1).sin()).collect();
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let mut idx = Index::build(sax, &smooth, IndexConfig::with_threads(1).leaf_capacity(4))
            .expect("build");
        let before = idx.subtrees().len();
        let spiky: Vec<f32> =
            (0..n).map(|t| if t % 2 == 0 { 1.0 } else { -1.0 } * (t as f32 * 0.9).cos()).collect();
        idx.insert(&spiky).expect("insert");
        assert!(idx.subtrees().len() >= before);
        let nn = idx.nn(&spiky).expect("query");
        assert!(nn.dist_sq < 1e-4);
        // Fill the delta: the fold files the spiky row under its own key.
        for _ in 0..3 {
            idx.insert(&smooth).expect("insert");
        }
        assert_eq!(idx.stats().folds, 1);
        assert!(idx.subtrees().len() > before, "the fold must add the new root key");
        assert!(idx.nn(&spiky).expect("query").dist_sq < 1e-4);
    }
}
