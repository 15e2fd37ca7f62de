//! Parallel index construction (paper §IV-G, Figure 5, stage 1).
//!
//! MESSI's build pipeline: raw series are z-normalized and summarized in
//! parallel chunks (each worker owns a disjoint slice of the summary
//! buffer, so no synchronization is needed), rows are grouped by their
//! root key, and the resulting root-child groups are built into subtrees
//! in parallel — each subtree is independent, so workers claim groups off
//! an atomic counter and never contend. We materialize each subtree with
//! a recursive bulk build, which produces exactly the tree that repeated
//! leaf-splitting (iSAX 2.0's balanced splits) would: a leaf over capacity
//! splits on the position whose next bit partitions its rows most evenly.
//!
//! All parallelism executes on a persistent [`ExecPool`] — one created
//! for the index (sized by `IndexConfig::num_threads`) or shared across
//! indexes via [`Index::build_with_pool`]. The insert delta's fold
//! regrows the forest through the same code ([`Index::grow_forest`]),
//! from the stored words. Ingest is zero-copy:
//! [`Index::build_owned`] takes ownership of the buffer and normalizes it
//! in place, so even the borrowing [`Index::build`] performs exactly one
//! copy of the dataset.

use crate::config::IndexConfig;
use crate::node::{root_key, Node, NodeKind, Subtree};
use crate::{Index, IndexError};
use sofa_exec::ExecPool;
use sofa_simd::znormalize;
use sofa_summaries::Summarization;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

impl<S: Summarization> Index<S> {
    /// Builds an index over `raw_data` (row-major series of the
    /// summarization's length). The data is copied once and z-normalized;
    /// the original buffer is untouched. Prefer [`Index::build_owned`]
    /// when the buffer can be handed over — it avoids even that copy.
    ///
    /// # Errors
    /// Returns [`IndexError::BadDataset`] for an empty buffer or one that
    /// is not a whole number of series, and [`IndexError::NonFinite`] if
    /// a value is NaN or ±Inf. (A finite constant row is accepted: it
    /// normalizes to all zeros.)
    pub fn build(
        summarization: S,
        raw_data: &[f32],
        config: IndexConfig,
    ) -> Result<Self, IndexError> {
        Self::build_owned(summarization, raw_data.to_vec(), config)
    }

    /// Zero-copy ingest: builds an index that takes ownership of `data`
    /// and z-normalizes it in place — no duplicate of the dataset is ever
    /// held, halving peak build memory versus copy-based ingest.
    ///
    /// # Errors
    /// Returns [`IndexError::BadDataset`] for an empty buffer or one that
    /// is not a whole number of series, and [`IndexError::NonFinite`] if
    /// a value is NaN or ±Inf. (A finite constant row is accepted: it
    /// normalizes to all zeros.)
    pub fn build_owned(
        summarization: S,
        data: Vec<f32>,
        config: IndexConfig,
    ) -> Result<Self, IndexError> {
        let pool = ExecPool::shared(config.num_threads.max(1));
        Self::build_with_pool(summarization, data, config, pool)
    }

    /// [`Index::build_owned`] on a caller-supplied worker pool, so a
    /// server embedding several indexes can run them all on one set of
    /// threads. The pool's lane count decides the build parallelism
    /// (`config.num_threads` only sizes pools the index creates itself).
    ///
    /// # Errors
    /// Returns [`IndexError::BadDataset`] for an empty buffer or one that
    /// is not a whole number of series, and [`IndexError::NonFinite`] if
    /// a value is NaN or ±Inf. (A finite constant row is accepted: it
    /// normalizes to all zeros.)
    pub fn build_with_pool(
        summarization: S,
        mut data: Vec<f32>,
        config: IndexConfig,
        pool: Arc<ExecPool>,
    ) -> Result<Self, IndexError> {
        let n = summarization.series_len();
        if n == 0 || data.is_empty() {
            return Err(IndexError::BadDataset("empty dataset".into()));
        }
        if data.len() % n != 0 {
            return Err(IndexError::BadDataset(format!(
                "buffer of {} floats is not a multiple of series length {n}",
                data.len()
            )));
        }
        let n_series = data.len() / n;
        if n_series > u32::MAX as usize {
            // Row ids, storage slots and leaf row lists are all `u32`;
            // past that the silent casts below would truncate.
            return Err(IndexError::TooManyRows { rows: n_series });
        }
        let l = summarization.word_len();
        let symbol_bits = summarization.symbol_bits();
        if l > 64 {
            return Err(IndexError::BadDataset("word length > 64 unsupported".into()));
        }

        // --- Phase 1: normalize + summarize (parallel, Figure 7 "Transformation").
        // Each raw row is checked for NaN/±Inf first: normalization
        // would otherwise turn it into a "constant" row of zeros.
        let t0 = Instant::now();
        let mut words = vec![0u8; n_series * l];
        let mut keys = vec![0u64; n_series];
        let lanes = pool.threads();
        let rows_per_chunk = n_series.div_ceil(lanes);
        let non_finite = AtomicBool::new(false);
        pool.run(|scope| {
            let (summarization, non_finite) = (&summarization, &non_finite);
            for ((data_chunk, words_chunk), keys_chunk) in data
                .chunks_mut(rows_per_chunk * n)
                .zip(words.chunks_mut(rows_per_chunk * l))
                .zip(keys.chunks_mut(rows_per_chunk))
            {
                scope.spawn(move || {
                    let mut transformer = summarization.transformer();
                    for ((series, word), key) in data_chunk
                        .chunks_mut(n)
                        .zip(words_chunk.chunks_mut(l))
                        .zip(keys_chunk.iter_mut())
                    {
                        if !series.iter().all(|x| x.is_finite()) {
                            non_finite.store(true, Ordering::Relaxed);
                            return;
                        }
                        znormalize(series);
                        transformer.word_into(series, word);
                        *key = root_key(word, symbol_bits);
                    }
                });
            }
        });
        if non_finite.into_inner() {
            return Err(IndexError::NonFinite);
        }
        let transform_secs = t0.elapsed().as_secs_f64();

        // --- Phases 2-4: the forest, grown on an index whose storage
        // starts in row order (identity slot maps).
        let t1 = Instant::now();
        let query_env = sofa_summaries::QueryEnv::new(&summarization);
        let quant_enabled = std::sync::atomic::AtomicBool::new(config.quant_refine);
        let mut index = Index {
            summarization,
            config,
            pool,
            data: data.into(),
            words: words.into(),
            row_to_slot: (0..n_series as u32).collect(),
            slot_to_row: (0..n_series as u32).collect(),
            subtrees: Vec::new(),
            series_len: n,
            word_len: l,
            build_breakdown: (0.0, 0.0),
            counters: crate::stats::KernelCounters::default(),
            query_env,
            quant_grid: None,
            quant_enabled,
            scratches: parking_lot::Mutex::new(Vec::with_capacity(lanes + 2)),
            delta: crate::insert::Delta::default(),
        };
        index.grow_forest(&keys);
        let tree_secs = t1.elapsed().as_secs_f64();
        index.build_breakdown = (transform_secs, tree_secs);
        Ok(index)
    }

    /// Grows the subtree forest over every row in storage — the one
    /// tree construction shared by the bulk build and the delta fold.
    /// `keys[slot]` is the root key of the word at storage `slot`.
    ///
    /// Rows are grouped by root key, the groups are built into subtrees
    /// on the pool (each subtree is independent, so lanes claim groups
    /// off an atomic counter and never contend), and the leaves are then
    /// packed ([`Index::pack_leaves`]). Any previous forest is dropped
    /// first, so a fold never holds two forests.
    pub(crate) fn grow_forest(&mut self, keys: &[u64]) {
        self.subtrees = Vec::new();
        let l = self.word_len;
        let symbol_bits = self.summarization.symbol_bits();
        let leaf_capacity = self.config.leaf_capacity;
        // Groups list their slots in ascending row order, and the splits
        // keep that order, so every leaf holds its rows ascending: exact
        // duplicates (which share a leaf) refine lowest row id first and
        // tie-break like a brute-force scan, fold after fold.
        let mut groups: HashMap<u64, Vec<u32>> = HashMap::new();
        for &slot in &self.row_to_slot {
            groups.entry(keys[slot as usize]).or_default().push(slot);
        }
        let groups: Vec<(u64, Vec<u32>)> = groups.into_iter().collect();
        let next_group = AtomicUsize::new(0);
        let done = parking_lot::Mutex::new(Vec::with_capacity(groups.len()));
        let (words, slot_to_row) = (&self.words[..], &self.slot_to_row);
        self.pool.broadcast(|_| loop {
            let g = next_group.fetch_add(1, Ordering::Relaxed);
            if g >= groups.len() {
                break;
            }
            let (key, slots) = &groups[g];
            let mut subtree =
                build_subtree(*key, slots.clone(), words, l, symbol_bits, leaf_capacity);
            // Leaves were built over storage slots; they hold row ids.
            for node in &mut subtree.nodes {
                if let NodeKind::Leaf { rows, .. } = &mut node.kind {
                    for r in rows.iter_mut() {
                        *r = slot_to_row[*r as usize];
                    }
                }
            }
            done.lock().push(subtree);
        });
        let mut subtrees = done.into_inner();
        subtrees.sort_by_key(|s| s.key);
        self.subtrees = subtrees;
        self.pack_leaves();
    }

    /// Packs every leaf: permutes the series and word arenas so every
    /// leaf's candidates occupy one contiguous run of storage slots (in
    /// leaf order), builds each leaf's structure-of-arrays
    /// [`sofa_summaries::WordBlock`] for the batched lower-bound sweep
    /// (plus its quantized codes when the tier is on), and builds each
    /// subtree's [`crate::CollectBlock`] so the collect phase prices
    /// leaves 8-wide. The permutation is applied in place
    /// (cycle-walking with one temporary row), so no second copy of the
    /// dataset is ever held.
    fn pack_leaves(&mut self) {
        let n = self.series_len;
        let l = self.word_len;
        // Slot assignment: leaves in (subtree, arena) order, rows in leaf
        // order. `bases[s]` is the first slot of subtree `s`.
        let mut order: Vec<u32> = Vec::with_capacity(self.slot_to_row.len());
        let mut bases: Vec<usize> = Vec::with_capacity(self.subtrees.len());
        for st in &self.subtrees {
            bases.push(order.len());
            for node in &st.nodes {
                if let NodeKind::Leaf { rows, .. } = &node.kind {
                    order.extend_from_slice(rows);
                }
            }
        }
        debug_assert_eq!(order.len(), self.slot_to_row.len());
        for (slot, &row) in order.iter().enumerate() {
            // Lossless: slots are bounded by the row count.
            self.row_to_slot[row as usize] = slot as u32;
        }
        // Content currently at storage slot `s` moves to `dest[s]`.
        let dest: Vec<u32> =
            self.slot_to_row.iter().map(|&row| self.row_to_slot[row as usize]).collect();
        permute_rows(self.data.make_mut(), self.words.make_mut(), n, l, &dest);
        self.slot_to_row = order;

        let quant_on = self.config.quant_refine && n <= crate::node::QUANT_REFINE_MAX_LEN && n > 0;
        if quant_on && self.quant_grid.is_none() {
            // Train the index-wide quantizer once, on a strided row sample
            // read in place (value ranges converge long before the full
            // arena is seen; rows outside the sampled ranges clamp and
            // stay sound). The grid then serves every leaf encode and
            // every query, and every later fold keeps it.
            const GRID_SAMPLE_MAX_ROWS: usize = 1 << 16;
            let stride = (self.data.len() / n).div_ceil(GRID_SAMPLE_MAX_ROWS).max(1);
            self.quant_grid =
                sofa_summaries::QuantGrid::train_rows(self.data.chunks_exact(n).step_by(stride), n);
        }
        // Word blocks and collect blocks, built on the calling thread.
        // Every fold frees and rebuilds these blocks, and the allocator
        // hands each thread its own arena: blocks allocated on several
        // pool lanes strand the freed blocks of one fold in arenas the
        // next fold does not draw from, which varied peak memory by tens
        // of megabytes from run to run.
        let summarization: &dyn Summarization = &self.summarization;
        let collect_levels = self.config.collect_levels;
        for (st, &base) in self.subtrees.iter_mut().zip(&bases) {
            let mut next = base;
            for node in st.nodes.iter_mut() {
                if let NodeKind::Leaf { rows, pack } = &mut node.kind {
                    let start = next;
                    next += rows.len();
                    let block = sofa_summaries::WordBlock::build(
                        summarization,
                        &self.words[start * l..next * l],
                    );
                    // Lossless: start < n_series <= u32::MAX.
                    *pack = Some(crate::node::LeafPack { start: start as u32, block, quant: None });
                }
            }
            // Wide flat forests (thousands of single-leaf subtrees) never
            // read a collect block — the query path prices those roots with
            // the RootLbd XOR gate alone — so building one would only cost
            // memory and scan locality.
            st.collect = (st.nodes.len() > 1)
                .then(|| crate::node::CollectBlock::build(summarization, st, collect_levels));
        }
        // Deferred quant pass: a leaf's codes are ~4x its word block, so
        // allocating them above would interleave the word-sweep stream
        // (every query walks consecutive leaves' word blocks) with cold
        // code pages.
        let Some(grid) = self.quant_grid.as_ref().filter(|_| quant_on) else { return };
        // The code buffers are allocated here, on the calling thread (see
        // above); the lanes only fill them, claiming leaves in order.
        let mut jobs: Vec<EncodeJob> = self
            .subtrees
            .iter()
            .flat_map(|st| st.leaves())
            .filter_map(|leaf| leaf.pack())
            .map(|pack| {
                let rows = pack.block.n();
                let (n_codes, n_errs) = sofa_summaries::QuantBlock::buffer_lens(rows, n);
                EncodeJob {
                    start: pack.start as usize,
                    rows,
                    codes: vec![0; n_codes],
                    errs: vec![0.0; n_errs],
                    block: None,
                }
            })
            .collect();
        let queue = parking_lot::Mutex::new(jobs.iter_mut());
        let data = &self.data[..];
        self.pool.broadcast(|_| loop {
            let Some(job) = queue.lock().next() else { break };
            job.block = sofa_summaries::QuantBlock::encode_into(
                grid,
                &data[job.start * n..(job.start + job.rows) * n],
                n,
                std::mem::take(&mut job.codes),
                std::mem::take(&mut job.errs),
            );
        });
        let packs =
            self.subtrees.iter_mut().flat_map(|st| st.nodes.iter_mut()).filter_map(|node| {
                match &mut node.kind {
                    NodeKind::Leaf { pack: Some(pack), .. } => Some(pack),
                    _ => None,
                }
            });
        for (pack, job) in packs.zip(jobs) {
            pack.quant = job.block;
        }
    }

    /// The subtree forest (read-only).
    #[must_use]
    pub fn subtrees(&self) -> &[Subtree] {
        &self.subtrees
    }
}

/// One leaf's quant encode in [`Index::pack_leaves`]: the leaf's storage
/// rows, the buffers allocated for it on the calling thread, and the
/// block a pool lane encodes into them.
struct EncodeJob {
    start: usize,
    rows: usize,
    codes: Vec<u8>,
    errs: Vec<f64>,
    block: Option<sofa_summaries::QuantBlock>,
}

/// How many steps ahead of the cycle walk [`permute_rows`] prefetches.
const PERMUTE_PREFETCH_STEPS: usize = 4;

/// Applies the slot permutation `dest` (content at slot `old` moves to
/// slot `dest[old]`) to both arenas in place, walking permutation cycles
/// with one temporary row each — peak extra memory is one series plus one
/// word, never a second dataset copy.
///
/// The walk jumps between random rows, which the hardware prefetcher
/// cannot follow; since the cycle is known in advance, the rows
/// [`PERMUTE_PREFETCH_STEPS`] steps ahead are prefetched explicitly.
fn permute_rows(data: &mut [f32], words: &mut [u8], n: usize, l: usize, dest: &[u32]) {
    let count = dest.len();
    debug_assert_eq!(data.len(), count * n);
    debug_assert_eq!(words.len(), count * l);
    let mut visited = vec![false; count];
    let mut tmp_series = vec![0f32; n];
    let mut tmp_word = vec![0u8; l];
    for start in 0..count {
        if visited[start] {
            continue;
        }
        visited[start] = true;
        let mut slot = dest[start] as usize;
        if slot == start {
            continue;
        }
        // Lift the cycle's first row, then bubble it around: each step
        // deposits the in-hand row at its destination and picks up the
        // displaced one.
        tmp_series.copy_from_slice(&data[start * n..(start + 1) * n]);
        tmp_word.copy_from_slice(&words[start * l..(start + 1) * l]);
        let mut ahead = slot;
        for _ in 0..PERMUTE_PREFETCH_STEPS {
            sofa_simd::prefetch(&data[ahead * n..(ahead + 1) * n]);
            sofa_simd::prefetch(&words[ahead * l..(ahead + 1) * l]);
            ahead = dest[ahead] as usize;
        }
        while slot != start {
            // Past the cycle's end this wraps to rows already placed: a
            // wasted hint, never a wrong one.
            sofa_simd::prefetch(&data[ahead * n..(ahead + 1) * n]);
            sofa_simd::prefetch(&words[ahead * l..(ahead + 1) * l]);
            ahead = dest[ahead] as usize;
            visited[slot] = true;
            for (held, stored) in tmp_series.iter_mut().zip(data[slot * n..].iter_mut()) {
                std::mem::swap(held, stored);
            }
            for (held, stored) in tmp_word.iter_mut().zip(words[slot * l..].iter_mut()) {
                std::mem::swap(held, stored);
            }
            slot = dest[slot] as usize;
        }
        data[start * n..(start + 1) * n].copy_from_slice(&tmp_series);
        words[start * l..(start + 1) * l].copy_from_slice(&tmp_word);
    }
}

/// Builds one subtree over `rows` (indexes into `words`), whose words all
/// share root key `key`.
fn build_subtree(
    key: u64,
    rows: Vec<u32>,
    words: &[u8],
    l: usize,
    symbol_bits: u8,
    leaf_capacity: usize,
) -> Subtree {
    // Root-child label: one bit per position, taken from the key.
    let prefixes: Vec<u8> = (0..l).map(|j| ((key >> j) & 1) as u8).collect();
    let bits = vec![1u8; l];
    let mut nodes = Vec::new();
    build_node(rows, prefixes, bits, &mut nodes, words, l, symbol_bits, leaf_capacity);
    // The collect block is attached by `pack_leaves`, which runs right
    // after the subtrees are assembled.
    Subtree { key, nodes, collect: None }
}

/// Recursively materializes the node for `rows`, returning its arena id.
#[allow(clippy::too_many_arguments)]
fn build_node(
    rows: Vec<u32>,
    prefixes: Vec<u8>,
    bits: Vec<u8>,
    arena: &mut Vec<Node>,
    words: &[u8],
    l: usize,
    symbol_bits: u8,
    leaf_capacity: usize,
) -> u32 {
    let id = u32::try_from(arena.len()).expect("node-id space (u32) exhausted");
    if rows.len() <= leaf_capacity {
        arena.push(Node { prefixes, bits, kind: NodeKind::Leaf { rows, pack: None } });
        return id;
    }
    // Balanced split (iSAX 2.0): among positions with spare cardinality,
    // pick the one whose next bit divides the rows most evenly. Positions
    // where every row agrees on the next bit cannot separate anything.
    let mut best: Option<(usize, usize)> = None; // (imbalance, position)
    for j in 0..l {
        if bits[j] >= symbol_bits {
            continue;
        }
        let shift = symbol_bits - bits[j] - 1;
        let ones = rows.iter().filter(|&&r| (words[r as usize * l + j] >> shift) & 1 == 1).count();
        let zeros = rows.len() - ones;
        if ones == 0 || zeros == 0 {
            continue;
        }
        let imbalance = ones.abs_diff(zeros);
        let better = match best {
            None => true,
            Some((bi, bj)) => imbalance < bi || (imbalance == bi && bits[j] < bits[bj]),
        };
        if better {
            best = Some((imbalance, j));
        }
    }
    let Some((_, split_pos)) = best else {
        // No position separates the rows (identical words up to full
        // cardinality): keep an over-full leaf, as iSAX-family indices do.
        arena.push(Node { prefixes, bits, kind: NodeKind::Leaf { rows, pack: None } });
        return id;
    };

    let shift = symbol_bits - bits[split_pos] - 1;
    let (zeros, ones): (Vec<u32>, Vec<u32>) =
        rows.iter().partition(|&&r| (words[r as usize * l + split_pos] >> shift) & 1 == 0);

    // Reserve the inner node's slot before recursing so children ids are
    // stable.
    arena.push(Node {
        prefixes: prefixes.clone(),
        bits: bits.clone(),
        kind: NodeKind::Inner { left: 0, right: 0, split_pos: split_pos as u16 },
    });

    let child_label = |bit: u8| {
        let mut p = prefixes.clone();
        let mut b = bits.clone();
        p[split_pos] = (p[split_pos] << 1) | bit;
        b[split_pos] += 1;
        (p, b)
    };
    let (lp, lb) = child_label(0);
    let left = build_node(zeros, lp, lb, arena, words, l, symbol_bits, leaf_capacity);
    let (rp, rb) = child_label(1);
    let right = build_node(ones, rp, rb, arena, words, l, symbol_bits, leaf_capacity);
    match &mut arena[id as usize].kind {
        NodeKind::Inner { left: lslot, right: rslot, .. } => {
            *lslot = left;
            *rslot = right;
        }
        NodeKind::Leaf { .. } => unreachable!("slot was reserved as inner"),
    }
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofa_summaries::{ISax, SaxConfig};

    fn dataset(count: usize, n: usize) -> Vec<f32> {
        let mut data = Vec::with_capacity(count * n);
        for r in 0..count {
            for t in 0..n {
                let x = t as f32;
                data.push(
                    (x * 0.2 + r as f32).sin() + 0.5 * (x * (0.5 + (r % 7) as f32 * 0.2)).cos(),
                );
            }
        }
        data
    }

    fn sax_index(count: usize, n: usize, leaf: usize, threads: usize) -> Index<ISax> {
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        Index::build(
            sax,
            &dataset(count, n),
            IndexConfig::with_threads(threads).leaf_capacity(leaf),
        )
        .expect("build")
    }

    #[test]
    fn every_row_lands_in_exactly_one_leaf() {
        let idx = sax_index(500, 64, 32, 2);
        let mut seen = vec![false; 500];
        for st in idx.subtrees() {
            for leaf in st.leaves() {
                for &r in leaf.rows() {
                    assert!(!seen[r as usize], "row {r} appears twice");
                    seen[r as usize] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "some rows missing from the tree");
    }

    #[test]
    fn leaves_respect_capacity_or_are_unsplittable() {
        let idx = sax_index(1000, 64, 50, 2);
        for st in idx.subtrees() {
            for leaf in st.leaves() {
                if leaf.rows().len() > 50 {
                    // Over-full leaves are only allowed when no position
                    // can separate the rows.
                    let rows = leaf.rows();
                    let l = 8;
                    #[allow(clippy::needless_range_loop)]
                    for j in 0..l {
                        if leaf.bits[j] >= 8 {
                            continue;
                        }
                        let shift = 8 - leaf.bits[j] - 1;
                        let ones = rows
                            .iter()
                            .filter(|&&r| (idx.word(r as usize)[j] >> shift) & 1 == 1)
                            .count();
                        assert!(
                            ones == 0 || ones == rows.len(),
                            "splittable over-full leaf (pos {j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn node_labels_cover_their_rows() {
        // Every row's word must match its leaf's prefix at every position.
        let idx = sax_index(600, 64, 40, 3);
        for st in idx.subtrees() {
            for leaf in st.leaves() {
                for &r in leaf.rows() {
                    let w = idx.word(r as usize);
                    #[allow(clippy::needless_range_loop)]
                    for j in 0..8 {
                        let b = leaf.bits[j];
                        if b == 0 {
                            continue;
                        }
                        assert_eq!(
                            crate::node::symbol_prefix(w[j], b, 8),
                            leaf.prefixes[j],
                            "row {r} violates leaf label at position {j}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn build_deterministic_across_thread_counts() {
        // The tree structure may vary with threads in MESSI, but our
        // bulk build is deterministic: same groups, same splits.
        let a = sax_index(400, 64, 30, 1);
        let b = sax_index(400, 64, 30, 4);
        assert_eq!(a.subtrees().len(), b.subtrees().len());
        for (x, y) in a.subtrees().iter().zip(b.subtrees().iter()) {
            assert_eq!(x.key, y.key);
            assert_eq!(x.n_rows(), y.n_rows());
        }
    }

    #[test]
    fn words_are_stored_per_row() {
        let idx = sax_index(50, 64, 10, 2);
        assert_eq!(idx.word(0).len(), 8);
        assert_eq!(idx.n_series(), 50);
        // Words must correspond to the (z-normalized) stored series.
        let mut tr = idx.summarization().transformer();
        for r in 0..50 {
            let expect = tr.word(idx.series(r), 8);
            assert_eq!(idx.word(r), &expect[..], "row {r}");
        }
    }

    #[test]
    fn too_many_rows_error_is_typed_and_displayed() {
        let e = IndexError::TooManyRows { rows: 5_000_000_000 };
        assert_eq!(e.clone(), IndexError::TooManyRows { rows: 5_000_000_000 });
        assert!(e.to_string().contains("u32 row-id space"), "{e}");
    }

    #[test]
    fn rejects_bad_input() {
        let sax = ISax::new(64, &SaxConfig { word_len: 8, alphabet: 256 });
        assert!(matches!(
            Index::build(sax, &[], IndexConfig::default()),
            Err(IndexError::BadDataset(_))
        ));
        let sax = ISax::new(64, &SaxConfig { word_len: 8, alphabet: 256 });
        assert!(matches!(
            Index::build(sax, &vec![0.0; 65], IndexConfig::default()),
            Err(IndexError::BadDataset(_))
        ));
    }

    #[test]
    fn build_owned_matches_borrowing_build() {
        let n = 64;
        let data = dataset(300, n);
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let a = Index::build(sax, &data, IndexConfig::with_threads(2).leaf_capacity(30))
            .expect("build");
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let b = Index::build_owned(sax, data, IndexConfig::with_threads(2).leaf_capacity(30))
            .expect("build_owned");
        assert_eq!(a.n_series(), b.n_series());
        assert_eq!(a.subtrees().len(), b.subtrees().len());
        for r in 0..a.n_series() {
            assert_eq!(a.word(r), b.word(r), "row {r}");
            assert_eq!(a.series(r), b.series(r), "row {r}");
        }
    }

    #[test]
    fn build_with_shared_pool_reuses_it() {
        let n = 64;
        let pool = sofa_exec::ExecPool::shared(2);
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let idx = Index::build_with_pool(
            sax,
            dataset(200, n),
            IndexConfig::with_threads(2).leaf_capacity(25),
            Arc::clone(&pool),
        )
        .expect("build");
        assert!(Arc::ptr_eq(idx.pool(), &pool));
        assert_eq!(idx.pool().threads(), 2);
    }

    #[test]
    fn build_breakdown_reports_phases() {
        let idx = sax_index(200, 64, 20, 2);
        let (transform, tree) = idx.build_breakdown();
        assert!(transform >= 0.0 && tree >= 0.0);
    }

    /// Structural invariant of the packed layout: every packed leaf's
    /// contiguous slot run holds exactly its rows, in order.
    fn assert_layout_consistent(idx: &Index<ISax>) {
        for st in idx.subtrees() {
            for leaf in st.leaves() {
                let pack = leaf.pack().expect("leaf must be packed");
                assert_eq!(pack.block.n(), leaf.rows().len());
                for (i, &row) in leaf.rows().iter().enumerate() {
                    let slot = pack.start as usize + i;
                    assert_eq!(idx.slot_to_row[slot], row, "slot {slot} holds the wrong row");
                    assert_eq!(idx.row_to_slot[row as usize] as usize, slot);
                }
            }
        }
    }

    #[test]
    fn fold_restores_packing_and_exactness() {
        let n = 64;
        let data = dataset(700, n);
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let mut idx =
            Index::build(sax, &data[..400 * n], IndexConfig::with_threads(2).leaf_capacity(12))
                .expect("build");
        let grid = idx.quant_grid.clone().expect("quant grid");
        // 300 inserts into a 12-row delta: 25 folds, nothing left over.
        idx.insert_all(&data[400 * n..]).expect("insert");
        let s = idx.stats();
        assert_eq!((s.folds, s.delta_rows, s.n_series), (25, 0, 700));
        assert_eq!(s.packed_leaves, s.leaves, "a fold must pack every leaf");
        assert_layout_consistent(&idx);
        // The fold re-uses the build's quantizer instead of retraining.
        let kept = idx.quant_grid.as_ref().expect("quant grid");
        assert_eq!((kept.scale(), kept.mins()), (grid.scale(), grid.mins()));

        // Answers agree with a bulk-built index over the same data.
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let bulk = Index::build(sax, &data, IndexConfig::with_threads(2).leaf_capacity(12))
            .expect("build");
        for q in dataset(8, n).chunks(n) {
            let a = idx.knn(q, 5).expect("query");
            let b = bulk.knn(q, 5).expect("query");
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.row, y.row);
            }
        }
    }

    /// The packed layout a fold leaves behind: slot map, leaf starts and
    /// each leaf's quant codes and error bits.
    #[allow(clippy::type_complexity)]
    fn packed_layout(idx: &Index<ISax>) -> (Vec<u32>, Vec<u32>, Vec<(Vec<u8>, Vec<u64>)>) {
        let packs: Vec<&crate::node::LeafPack> =
            idx.subtrees().iter().flat_map(|st| st.leaves()).filter_map(|l| l.pack()).collect();
        let quant = packs
            .iter()
            .map(|p| {
                let qb = p.quant.as_ref().expect("quant tier on");
                (qb.codes().to_vec(), qb.errs().iter().map(|e| e.to_bits()).collect())
            })
            .collect();
        (idx.slot_to_row.clone(), packs.iter().map(|p| p.start).collect(), quant)
    }

    #[test]
    fn fold_is_identical_on_every_pool_width() {
        let n = 64;
        let data = dataset(900, n);
        let layouts: Vec<_> = [1, 2, 3]
            .into_iter()
            .map(|lanes| {
                let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
                let cfg = IndexConfig::with_threads(lanes).leaf_capacity(40);
                let pool = sofa_exec::ExecPool::shared(lanes);
                let mut idx = Index::build_with_pool(sax, data[..500 * n].to_vec(), cfg, pool)
                    .expect("build");
                idx.insert_all(&data[500 * n..]).expect("insert");
                assert_eq!(idx.stats().folds, 10);
                let grid = idx.quant_grid.clone().expect("quant grid");
                // Every leaf's block equals a serial encode of its rows on
                // this thread, and its codes equal the scalar kernel's.
                for st in idx.subtrees() {
                    for leaf in st.leaves() {
                        let pack = leaf.pack().expect("packed");
                        let qb = pack.quant.as_ref().expect("quant tier on");
                        let start = pack.start as usize;
                        let rows = &idx.data[start * n..(start + leaf.rows().len()) * n];
                        let serial = sofa_summaries::QuantBlock::build(&grid, rows, n).unwrap();
                        assert_eq!(qb.codes(), serial.codes());
                        let bits = |e: &[f64]| e.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(qb.errs()), bits(serial.errs()));
                        let mut codes = vec![0u8; qb.codes().len()];
                        let mut sums = vec![0f64; qb.errs().len()];
                        sofa_simd::quant_encode_scalar(
                            rows,
                            grid.mins(),
                            grid.scale(),
                            &mut codes,
                            &mut sums,
                        );
                        assert_eq!(qb.codes(), &codes[..]);
                    }
                }
                packed_layout(&idx)
            })
            .collect();
        assert!(layouts[0] == layouts[1], "2-lane fold diverged from 1-lane");
        assert!(layouts[0] == layouts[2], "3-lane fold diverged from 1-lane");
    }

    #[test]
    fn non_finite_rows_are_rejected_and_constant_rows_zeroed() {
        let n = 64;
        let sax = || ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let cfg = || IndexConfig::with_threads(2).leaf_capacity(20);
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut data = dataset(100, n);
            data[77 * n + 5] = bad;
            assert_eq!(Index::build(sax(), &data, cfg()).err(), Some(IndexError::NonFinite));
            assert_eq!(
                Index::build_owned(sax(), data.clone(), cfg()).err(),
                Some(IndexError::NonFinite)
            );
            let pool = sofa_exec::ExecPool::shared(2);
            assert_eq!(
                Index::build_with_pool(sax(), data, cfg(), pool).err(),
                Some(IndexError::NonFinite)
            );
        }
        let mut data = dataset(100, n);
        data[40 * n..41 * n].fill(3.5);
        let idx = Index::build(sax(), &data, cfg()).expect("a constant row builds");
        assert!(idx.series(40).iter().all(|&x| x == 0.0), "a constant row normalizes to zeros");
    }

    #[test]
    fn repack_is_a_noop_on_an_empty_delta() {
        let n = 64;
        let idx0 = sax_index(500, n, 20, 2);
        let starts: Vec<u32> = idx0
            .subtrees()
            .iter()
            .flat_map(|st| st.leaves().map(|l| l.pack().unwrap().start))
            .collect();
        let mut idx = idx0;
        idx.repack_leaves();
        let after: Vec<u32> = idx
            .subtrees()
            .iter()
            .flat_map(|st| st.leaves().map(|l| l.pack().unwrap().start))
            .collect();
        assert_eq!(starts, after, "an empty delta must leave the tree untouched");
        assert_eq!(idx.stats().folds, 0);
        assert_layout_consistent(&idx);
    }

    #[test]
    fn deep_tree_builds_collect_levels() {
        // Hand every row the same root key region by using one shared
        // prototype shape: a concentrated tree deep enough for levels.
        let n = 64;
        let mut data = Vec::with_capacity(1200 * n);
        for r in 0..1200 {
            for t in 0..n {
                // One square-wave base shape (segment signs, hence root
                // keys, stay fixed) with per-row amplitude modulation
                // spanning several quantile boundaries: every row lands
                // in one root subtree, which then splits deep.
                let base = if (t / 8) % 2 == 0 { 1.0f32 } else { -1.0 };
                let x = t as f32;
                data.push(base * (1.0 + 0.6 * ((x * 0.1 + r as f32 * 0.7).sin())));
            }
        }
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let idx =
            Index::build(sax, &data, IndexConfig::with_threads(1).leaf_capacity(8)).expect("build");
        let deep = idx
            .subtrees()
            .iter()
            .filter_map(|st| st.collect.as_ref())
            .find(|cb| !cb.levels.is_empty())
            .expect("a concentrated tree must build level blocks");
        // Spans partition sanity: each level's spans are disjoint,
        // ordered, and within the fringe.
        for lanes in &deep.levels {
            let mut prev_end = 0u32;
            for &(lo, hi) in &lanes.leaf_spans {
                assert!(lo < hi, "empty span");
                assert!(lo >= prev_end, "overlapping spans");
                assert!(hi as usize <= deep.node_ids.len());
                prev_end = hi;
            }
        }
        // The hierarchy engages at query time.
        let (_, stats) = idx.knn_with_stats(&data[..n], 3).expect("query");
        assert!(stats.collect_level_groups_swept > 0, "level sweep never ran: {stats:?}");
    }

    #[test]
    fn subtrees_sorted_by_key() {
        let idx = sax_index(800, 64, 25, 2);
        let keys: Vec<u64> = idx.subtrees().iter().map(|s| s.key).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }
}
