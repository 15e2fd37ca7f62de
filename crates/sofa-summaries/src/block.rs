//! Structure-of-arrays word storage for the batched lower-bound sweep.
//!
//! The tree index's leaf refinement historically called the per-word
//! mindist kernel once per candidate: a function call, a breakpoint-table
//! gather per position, and an 8-position vector loop per word. A leaf of
//! hundreds of candidates pays that dispatch and gather cost hundreds of
//! times per query.
//!
//! [`WordBlock`] transposes the problem (the FAISS contiguous-per-list
//! idea applied to symbolic summaries): at build time each candidate
//! symbol is resolved to its quantization interval `[lo, hi]` — a
//! query-independent constant — and the intervals are stored
//! **position-major in groups of 8 candidates**, padded by duplicating the
//! last candidate. At query time [`mindist_block`] lower-bounds a whole
//! group per call through the runtime-dispatched
//! [`sofa_simd::block_lower_bound`] kernel: per position, one splat of the
//! query value and weight against two contiguous 8-lane loads — no
//! gathers, no per-candidate calls, and whole-group early abandoning
//! against the best-so-far distance.
//!
//! The memory trade is explicit: 8 bytes per (position, candidate) versus
//! 1 byte for the raw symbol. For the paper's configurations (word length
//! 16, series length ≥ 64 → ≥ 256 bytes of raw data per series) the
//! blocks add at most ~50% on top of the series data in exchange for
//! removing the dominant per-candidate costs from the hottest query loop.

use crate::lbd::{prefix_interval, symbols_interval, QueryContext};
use crate::traits::Summarization;
use sofa_simd::{block_lower_bound, BLOCK_LANES, BOUNDS_STRIDE};

/// Per-leaf SoA storage of candidate quantization intervals, laid out for
/// [`sofa_simd::block_lower_bound`].
///
/// Layout: group-major. Group `g` covers candidates `g*8 .. g*8+8` (the
/// last group padded by repeating the final candidate) and occupies
/// `word_len * 16` consecutive floats: for each position `j`, 8 interval
/// lower bounds followed by 8 upper bounds (lane = candidate).
#[derive(Clone, Debug, PartialEq)]
pub struct WordBlock {
    /// Real (un-padded) candidate count.
    n: usize,
    /// Word length of the summarization the block was built from.
    word_len: usize,
    /// `n_groups * word_len * BOUNDS_STRIDE` floats (see struct docs).
    bounds: Vec<f32>,
}

impl WordBlock {
    /// Builds a block from row-major `words` (`n * word_len` symbols),
    /// resolving every symbol to its interval in `summarization`'s
    /// breakpoint tables.
    ///
    /// # Panics
    /// Panics if `words` is not a whole number of words.
    #[must_use]
    pub fn build(summarization: &dyn Summarization, words: &[u8]) -> Self {
        let l = summarization.word_len();
        assert!(l > 0, "word length must be positive");
        assert_eq!(words.len() % l, 0, "words buffer must hold whole words");
        let n = words.len() / l;
        let alphabet = summarization.alphabet();
        // One vtable call per position, hoisted out of the group loop.
        let tables: Vec<&[f32]> = (0..l).map(|j| summarization.breakpoints(j)).collect();
        let bounds = build_bounds(n, l, |cand, j| {
            let s = words[cand * l + j] as usize;
            symbols_interval(tables[j], alphabet, s, s)
        });
        WordBlock { n, word_len: l, bounds }
    }

    /// Real candidate count.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of 8-candidate groups.
    #[must_use]
    pub fn n_groups(&self) -> usize {
        self.n.div_ceil(BLOCK_LANES)
    }

    /// Real (un-padded) candidates in `group`.
    #[must_use]
    pub fn lanes_in(&self, group: usize) -> usize {
        (self.n - group * BLOCK_LANES).min(BLOCK_LANES)
    }

    /// Word length the block was built for.
    #[must_use]
    pub fn word_len(&self) -> usize {
        self.word_len
    }

    /// Heap bytes held by the block (for stats/reports).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.bounds.len() * std::mem::size_of::<f32>()
    }

    /// The full resolved-interval buffer, group-major (see struct docs) —
    /// the block's flat serialization form.
    #[must_use]
    pub fn bounds(&self) -> &[f32] {
        &self.bounds
    }

    /// Rebuilds a block from its flat parts (the inverse of
    /// [`WordBlock::bounds`] + [`WordBlock::n`]), validating the layout
    /// invariant so a corrupted length cannot produce out-of-bounds group
    /// slices later.
    ///
    /// # Errors
    /// A human-readable description when `bounds` does not hold exactly
    /// `ceil(n / 8) * word_len * 16` floats or `word_len` is zero.
    pub fn from_raw_parts(n: usize, word_len: usize, bounds: Vec<f32>) -> Result<Self, String> {
        check_bounds_shape(n, word_len, bounds.len())?;
        Ok(WordBlock { n, word_len, bounds })
    }

    /// The bounds slice of `group` (layout: see struct docs).
    #[inline]
    #[must_use]
    fn group_bounds(&self, group: usize) -> &[f32] {
        let stride = self.word_len * BOUNDS_STRIDE;
        &self.bounds[group * stride..(group + 1) * stride]
    }
}

/// Validates the shared bounds-layout invariant of
/// [`WordBlock::from_raw_parts`] / [`NodeBlock::from_raw_parts`].
fn check_bounds_shape(n: usize, word_len: usize, bounds_len: usize) -> Result<(), String> {
    if word_len == 0 {
        return Err("word length must be positive".to_string());
    }
    let expect = n
        .div_ceil(BLOCK_LANES)
        .checked_mul(word_len)
        .and_then(|v| v.checked_mul(BOUNDS_STRIDE))
        .ok_or_else(|| "bounds shape overflows".to_string())?;
    if bounds_len != expect {
        return Err(format!(
            "bounds length {bounds_len} does not match {n} lanes x word_len {word_len} \
             (expected {expect})"
        ));
    }
    Ok(())
}

/// Squared lower bounds between `ctx`'s query and the 8 candidates of
/// `block` group `group`, in one dispatched kernel call.
///
/// Writes one squared lower bound per lane into `out` (pad lanes mirror
/// the last real candidate) and returns `true` when every lane's running
/// sum exceeded `bsf_sq` — the whole group is pruned and `out` holds
/// partial sums, all `> bsf_sq`. Lanes whose value in `out` is `>=` the
/// caller's bound are pruned individually.
///
/// Equivalent to [`crate::mindist_scalar`] per candidate (up to summation
/// order), but with the interval gathers hoisted to build time.
///
/// # Panics
/// Panics if `ctx`'s word length differs from the block's or `group` is
/// out of range.
#[inline]
#[must_use]
pub fn mindist_block(
    ctx: &QueryContext<'_>,
    block: &WordBlock,
    group: usize,
    bsf_sq: f32,
    out: &mut [f32; BLOCK_LANES],
) -> bool {
    assert_eq!(ctx.word_len(), block.word_len(), "query context and block disagree on word length");
    block_lower_bound(ctx.values(), ctx.weights(), block.group_bounds(group), bsf_sq, out)
}

/// [`mindist_block`] with a per-lane predicate bitmap — the filtered-query
/// sweep. Bit `i` of `live` set means lane `i` participates; dead lanes
/// (rows the caller's predicate rejected, or pad lanes) report `+inf` and
/// cost nothing, letting a group whose surviving lanes are all pruned
/// abandon earlier. Live lanes are bit-for-bit identical to the unmasked
/// sweep across all kernel tiers (see
/// [`sofa_simd::block_lower_bound_masked`]).
///
/// # Panics
/// Panics if `ctx`'s word length differs from the block's or `group` is
/// out of range.
#[inline]
#[must_use]
pub fn mindist_block_masked(
    ctx: &QueryContext<'_>,
    block: &WordBlock,
    group: usize,
    bsf_sq: f32,
    live: u8,
    out: &mut [f32; BLOCK_LANES],
) -> bool {
    assert_eq!(ctx.word_len(), block.word_len(), "query context and block disagree on word length");
    sofa_simd::block_lower_bound_masked(
        ctx.values(),
        ctx.weights(),
        block.group_bounds(group),
        bsf_sq,
        live,
        out,
    )
}

/// Per-subtree SoA storage of *node* quantization intervals — the
/// [`WordBlock`] treatment applied to the tree's collect phase.
///
/// A tree node carries a variable-cardinality summary: per position a
/// bit-prefix of `bits[j]` bits, denoting the union of all
/// full-cardinality symbols sharing that prefix. Its interval at position
/// `j` is therefore `[bp[lo_sym - 1], bp[hi_sym]]` for
/// `lo_sym = prefix << (symbol_bits - bits)` and
/// `hi_sym = ((prefix + 1) << (symbol_bits - bits)) - 1` — a
/// query-independent constant, exactly like a leaf candidate's symbol
/// interval. A `NodeBlock` resolves those intervals at build/split time
/// and stores them position-major in padded groups of 8 nodes, so the
/// collect phase prices 8 sibling nodes per
/// [`sofa_simd::block_lower_bound`] call (with whole-group early
/// abandoning against the best-so-far) instead of one scalar
/// [`crate::mindist_node`] loop per node.
///
/// A zero-bit position (interval = the whole real line) stores
/// `(-inf, +inf)`, whose distance is exactly `0.0` — the same contribution
/// [`crate::mindist_node`]'s `continue` skips — so
/// [`mindist_node_block`] is bit-for-bit equal to the scalar per-node
/// evaluation (the property tests assert it across all kernel tiers).
#[derive(Clone, Debug, PartialEq)]
pub struct NodeBlock {
    /// Real (un-padded) node count.
    n: usize,
    /// Word length of the summarization the block was built from.
    word_len: usize,
    /// `n_groups * word_len * BOUNDS_STRIDE` floats (same layout as
    /// [`WordBlock`]).
    bounds: Vec<f32>,
}

impl NodeBlock {
    /// Builds a block over `nodes`, each a `(prefixes, bits)` pair of
    /// `word_len` entries, resolving every prefix to its interval in
    /// `summarization`'s breakpoint tables.
    ///
    /// # Panics
    /// Panics if any node's `prefixes`/`bits` length differs from the
    /// model's word length.
    #[must_use]
    pub fn build(summarization: &dyn Summarization, nodes: &[(&[u8], &[u8])]) -> Self {
        let l = summarization.word_len();
        assert!(l > 0, "word length must be positive");
        let n = nodes.len();
        let alphabet = summarization.alphabet();
        let symbol_bits = summarization.symbol_bits();
        // One vtable call per position, hoisted out of the group loop.
        let tables: Vec<&[f32]> = (0..l).map(|j| summarization.breakpoints(j)).collect();
        for (prefixes, bits) in nodes {
            assert_eq!(prefixes.len(), l, "node prefixes must span the word");
            assert_eq!(bits.len(), l, "node bits must span the word");
        }
        let bounds = build_bounds(n, l, |cand, j| {
            let (prefixes, bits) = nodes[cand];
            prefix_interval(prefixes[j], bits[j], symbol_bits, alphabet, tables[j])
        });
        NodeBlock { n, word_len: l, bounds }
    }

    /// Real node count.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of 8-node groups.
    #[must_use]
    pub fn n_groups(&self) -> usize {
        self.n.div_ceil(BLOCK_LANES)
    }

    /// Real (un-padded) nodes in `group`.
    #[must_use]
    pub fn lanes_in(&self, group: usize) -> usize {
        (self.n - group * BLOCK_LANES).min(BLOCK_LANES)
    }

    /// Word length the block was built for.
    #[must_use]
    pub fn word_len(&self) -> usize {
        self.word_len
    }

    /// Heap bytes held by the block (for stats/reports).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.bounds.len() * std::mem::size_of::<f32>()
    }

    /// The full resolved-interval buffer, group-major — the block's flat
    /// serialization form (see [`WordBlock::bounds`]).
    #[must_use]
    pub fn bounds(&self) -> &[f32] {
        &self.bounds
    }

    /// Rebuilds a block from its flat parts, validating the layout
    /// invariant (see [`WordBlock::from_raw_parts`]).
    ///
    /// # Errors
    /// A human-readable description when the shape is inconsistent.
    pub fn from_raw_parts(n: usize, word_len: usize, bounds: Vec<f32>) -> Result<Self, String> {
        check_bounds_shape(n, word_len, bounds.len())?;
        Ok(NodeBlock { n, word_len, bounds })
    }

    /// Appends one node's resolved intervals as a new lane, preserving the
    /// padding invariant (pad lanes mirror the last real lane) — the same
    /// block a batch build over the extended node list produces.
    ///
    /// When the last group is full a fresh group is appended (all 8 lanes
    /// the new node); otherwise the first pad lane is overwritten and the
    /// remaining pads re-mirrored.
    ///
    /// # Panics
    /// Panics if `prefixes`/`bits` length differs from the block's word
    /// length.
    pub fn push_lane(&mut self, summarization: &dyn Summarization, prefixes: &[u8], bits: &[u8]) {
        let l = self.word_len;
        assert_eq!(prefixes.len(), l, "node prefixes must span the word");
        assert_eq!(bits.len(), l, "node bits must span the word");
        let alphabet = summarization.alphabet();
        let symbol_bits = summarization.symbol_bits();
        let lane = self.n % BLOCK_LANES;
        if lane == 0 {
            for j in 0..l {
                let (lo, hi) = prefix_interval(
                    prefixes[j],
                    bits[j],
                    symbol_bits,
                    alphabet,
                    summarization.breakpoints(j),
                );
                self.bounds.extend(std::iter::repeat(lo).take(BLOCK_LANES));
                self.bounds.extend(std::iter::repeat(hi).take(BLOCK_LANES));
            }
        } else {
            let base = (self.n / BLOCK_LANES) * l * BOUNDS_STRIDE;
            for j in 0..l {
                let (lo, hi) = prefix_interval(
                    prefixes[j],
                    bits[j],
                    symbol_bits,
                    alphabet,
                    summarization.breakpoints(j),
                );
                for k in lane..BLOCK_LANES {
                    self.bounds[base + j * BOUNDS_STRIDE + k] = lo;
                    self.bounds[base + j * BOUNDS_STRIDE + BLOCK_LANES + k] = hi;
                }
            }
        }
        self.n += 1;
    }

    /// The bounds slice of `group`.
    #[inline]
    #[must_use]
    fn group_bounds(&self, group: usize) -> &[f32] {
        let stride = self.word_len * BOUNDS_STRIDE;
        &self.bounds[group * stride..(group + 1) * stride]
    }
}

/// The one implementation of the kernel's bounds layout, shared by
/// [`WordBlock`] and [`NodeBlock`] so the group/padding rules cannot
/// diverge: `resolve(candidate, position)` returns the `(lo, hi)`
/// interval, evaluated exactly once per (lane, position); the last real
/// candidate is repeated into the pad lanes (so group-level abandon
/// decisions are unchanged and no sentinel arithmetic is needed), and
/// each position is written as 8 lows followed by 8 highs.
fn build_bounds(n: usize, l: usize, resolve: impl Fn(usize, usize) -> (f32, f32)) -> Vec<f32> {
    let groups = n.div_ceil(BLOCK_LANES);
    let mut bounds = Vec::with_capacity(groups * l * BOUNDS_STRIDE);
    let mut lows = [0.0f32; BLOCK_LANES];
    let mut highs = [0.0f32; BLOCK_LANES];
    for g in 0..groups {
        for j in 0..l {
            for lane in 0..BLOCK_LANES {
                let cand = (g * BLOCK_LANES + lane).min(n - 1);
                (lows[lane], highs[lane]) = resolve(cand, j);
            }
            bounds.extend_from_slice(&lows);
            bounds.extend_from_slice(&highs);
        }
    }
    bounds
}

/// Position-major SoA interval blocks over the top levels of a subtree —
/// the [`NodeBlock`] treatment generalized from one flat lane set to a
/// *hierarchy*.
///
/// Level `d` holds one [`NodeBlock`] over the subtree's internal nodes at
/// depth `d + 1` (the root itself is priced by the caller's root gate).
/// The index's collect phase sweeps the levels top-down through the same
/// dispatched [`sofa_simd::block_lower_bound`] tiers: a level lane whose
/// bound meets the best-so-far retires its *entire descendant leaf range*
/// before the leaf fringe is ever priced — the coarse-subtree pruning that
/// a leaf-only block sweep gives up on deep trees. Which lane covers
/// which leaves is the caller's bookkeeping (the index stores per-lane
/// leaf spans next to its node ids); this type owns only the interval
/// data, so the bit-for-bit guarantee of [`mindist_node_block`] carries
/// over level by level.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct LevelBlocks {
    /// One node block per hierarchy level, top-down.
    levels: Vec<NodeBlock>,
}

impl LevelBlocks {
    /// Builds one [`NodeBlock`] per level over `levels`, each a top-down
    /// list of the `(prefixes, bits)` labels at that depth.
    ///
    /// # Panics
    /// Panics if any node's `prefixes`/`bits` length differs from the
    /// model's word length.
    #[must_use]
    pub fn build(summarization: &dyn Summarization, levels: &[Vec<(&[u8], &[u8])>]) -> Self {
        LevelBlocks {
            levels: levels.iter().map(|nodes| NodeBlock::build(summarization, nodes)).collect(),
        }
    }

    /// An empty hierarchy (no level sweep — the leaf-only fallback).
    #[must_use]
    pub fn empty() -> Self {
        LevelBlocks::default()
    }

    /// Number of levels.
    #[must_use]
    pub fn n_levels(&self) -> usize {
        self.levels.len()
    }

    /// `true` when no level was built.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// The node block of one level (0 = the level just below the root).
    ///
    /// # Panics
    /// Panics if `level` is out of range.
    #[must_use]
    pub fn level(&self, level: usize) -> &NodeBlock {
        &self.levels[level]
    }

    /// All level blocks, top-down — the flat serialization form.
    #[must_use]
    pub fn levels(&self) -> &[NodeBlock] {
        &self.levels
    }

    /// Rebuilds a hierarchy from already-validated per-level blocks (each
    /// constructed through [`NodeBlock::from_raw_parts`], which enforces
    /// the layout invariant).
    #[must_use]
    pub fn from_levels(levels: Vec<NodeBlock>) -> Self {
        LevelBlocks { levels }
    }

    /// Heap bytes held across all levels (for stats/reports).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.levels.iter().map(NodeBlock::heap_bytes).sum()
    }
}

/// Squared lower bounds between `ctx`'s query and the 8 nodes of group
/// `group` at `level` of `blocks` — [`mindist_node_block`] applied to one
/// level of a hierarchy; identical kernel, identical bit-for-bit
/// guarantee versus the scalar [`crate::mindist_node`].
///
/// # Panics
/// Panics if `level`/`group` are out of range or the context's word
/// length differs from the block's.
#[inline]
#[must_use]
pub fn mindist_level_block(
    ctx: &QueryContext<'_>,
    blocks: &LevelBlocks,
    level: usize,
    group: usize,
    bsf_sq: f32,
    out: &mut [f32; BLOCK_LANES],
) -> bool {
    mindist_node_block(ctx, blocks.level(level), group, bsf_sq, out)
}

/// Squared lower bounds between `ctx`'s query and the 8 nodes of `block`
/// group `group`, in one dispatched kernel call — the batched form of
/// [`crate::mindist_node`].
///
/// Writes one squared lower bound per lane into `out` (pad lanes mirror
/// the last real node) and returns `true` when every lane's running sum
/// exceeded `bsf_sq` (the whole group of nodes is pruned; `out` then holds
/// partial sums, all `> bsf_sq`). Surviving lanes hold full sums that are
/// bit-for-bit equal to the scalar [`crate::mindist_node`] evaluation.
///
/// # Panics
/// Panics if `ctx`'s word length differs from the block's or `group` is
/// out of range.
#[inline]
#[must_use]
pub fn mindist_node_block(
    ctx: &QueryContext<'_>,
    block: &NodeBlock,
    group: usize,
    bsf_sq: f32,
    out: &mut [f32; BLOCK_LANES],
) -> bool {
    assert_eq!(ctx.word_len(), block.word_len(), "query context and block disagree on word length");
    block_lower_bound(ctx.values(), ctx.weights(), block.group_bounds(group), bsf_sq, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lbd::mindist_scalar;
    use crate::sax::{ISax, SaxConfig};
    use crate::sfa::{Sfa, SfaConfig};

    fn dataset(count: usize, n: usize) -> Vec<f32> {
        let mut data = Vec::with_capacity(count * n);
        for r in 0..count {
            for t in 0..n {
                let x = t as f32;
                data.push(
                    (x * 0.21 + r as f32).sin()
                        + 0.6 * (x * 0.83 + (r * 7) as f32).cos()
                        + 0.3 * (x * (1.0 + (r % 11) as f32 * 0.13)).sin(),
                );
            }
        }
        for row in data.chunks_mut(n) {
            sofa_simd::znormalize(row);
        }
        data
    }

    fn words_of(summ: &dyn Summarization, data: &[f32], n: usize) -> Vec<u8> {
        let l = summ.word_len();
        let mut t = summ.transformer();
        let mut words = vec![0u8; (data.len() / n) * l];
        for (series, word) in data.chunks(n).zip(words.chunks_mut(l)) {
            t.word_into(series, word);
        }
        words
    }

    #[test]
    fn block_matches_per_word_mindist() {
        let n = 64;
        let data = dataset(67, n); // ragged: last group has 3 real lanes
        let sfa =
            Sfa::learn(&data, n, &SfaConfig { word_len: 16, alphabet: 64, ..Default::default() });
        let words = words_of(&sfa, &data, n);
        let block = WordBlock::build(&sfa, &words);
        assert_eq!(block.n(), 67);
        assert_eq!(block.n_groups(), 9);
        assert_eq!(block.lanes_in(8), 3);
        let q = &data[5 * n..6 * n];
        let ctx = QueryContext::new(&sfa, q);
        let mut out = [0.0f32; BLOCK_LANES];
        for g in 0..block.n_groups() {
            let abandoned = mindist_block(&ctx, &block, g, f32::INFINITY, &mut out);
            assert!(!abandoned);
            for (lane, &lb) in out.iter().enumerate().take(block.lanes_in(g)) {
                let cand = g * BLOCK_LANES + lane;
                let per_word = mindist_scalar(&ctx, &words[cand * 16..(cand + 1) * 16]);
                assert!(
                    (lb - per_word).abs() <= 1e-4 * per_word.max(1.0),
                    "cand {cand}: block={lb} per-word={per_word}"
                );
            }
        }
    }

    #[test]
    fn pad_lanes_mirror_last_candidate() {
        let n = 64;
        let data = dataset(3, n);
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let words = words_of(&sax, &data, n);
        let block = WordBlock::build(&sax, &words);
        assert_eq!(block.n_groups(), 1);
        assert_eq!(block.lanes_in(0), 3);
        let ctx = QueryContext::new(&sax, &data[..n]);
        let mut out = [0.0f32; BLOCK_LANES];
        let _ = mindist_block(&ctx, &block, 0, f32::INFINITY, &mut out);
        for pad in 3..BLOCK_LANES {
            assert_eq!(out[pad].to_bits(), out[2].to_bits(), "pad lane {pad}");
        }
    }

    #[test]
    fn whole_group_abandons_against_tiny_bsf() {
        let n = 64;
        let data = dataset(40, n);
        let sfa =
            Sfa::learn(&data, n, &SfaConfig { word_len: 16, alphabet: 256, ..Default::default() });
        let words = words_of(&sfa, &data, n);
        let block = WordBlock::build(&sfa, &words);
        // Query from a different part of the family: every candidate of
        // some group should have a strictly positive lower bound.
        let mut probe = dataset(41, n)[40 * n..].to_vec();
        sofa_simd::znormalize(&mut probe);
        let ctx = QueryContext::new(&sfa, &probe);
        let mut out = [0.0f32; BLOCK_LANES];
        let mut saw_abandon = false;
        for g in 0..block.n_groups() {
            let all_positive = {
                let _ = mindist_block(&ctx, &block, g, f32::INFINITY, &mut out);
                (0..block.lanes_in(g)).all(|i| out[i] > 0.0)
            };
            if all_positive {
                let abandoned = mindist_block(&ctx, &block, g, 0.0, &mut out);
                assert!(abandoned, "group {g} must abandon with bsf=0");
                saw_abandon = true;
            }
        }
        assert!(saw_abandon, "workload produced no group with all-positive bounds");
    }

    #[test]
    fn block_equals_scalar_reference_bitwise() {
        // The dispatched kernel must agree with the scalar block tier
        // bit-for-bit on real summarization data.
        let n = 96;
        let data = dataset(24, n);
        let sfa =
            Sfa::learn(&data, n, &SfaConfig { word_len: 12, alphabet: 32, ..Default::default() });
        let words = words_of(&sfa, &data, n);
        let block = WordBlock::build(&sfa, &words);
        let ctx = QueryContext::new(&sfa, &data[7 * n..8 * n]);
        for g in 0..block.n_groups() {
            for bsf in [f32::INFINITY, 1.0] {
                let mut dispatched = [0.0f32; BLOCK_LANES];
                let mut scalar = [0.0f32; BLOCK_LANES];
                let a1 = mindist_block(&ctx, &block, g, bsf, &mut dispatched);
                let a2 = sofa_simd::block_lower_bound_scalar(
                    ctx.values(),
                    ctx.weights(),
                    block.group_bounds(g),
                    bsf,
                    &mut scalar,
                );
                assert_eq!(a1, a2, "group {g} abandon decision");
                for i in 0..BLOCK_LANES {
                    assert_eq!(dispatched[i].to_bits(), scalar[i].to_bits(), "group {g} lane {i}");
                }
            }
        }
    }

    #[test]
    fn masked_block_matches_unmasked_on_live_lanes() {
        let n = 64;
        let data = dataset(30, n);
        let sfa =
            Sfa::learn(&data, n, &SfaConfig { word_len: 16, alphabet: 64, ..Default::default() });
        let words = words_of(&sfa, &data, n);
        let block = WordBlock::build(&sfa, &words);
        let ctx = QueryContext::new(&sfa, &data[3 * n..4 * n]);
        let mut full = [0.0f32; BLOCK_LANES];
        let mut masked = [0.0f32; BLOCK_LANES];
        for g in 0..block.n_groups() {
            let a_full = mindist_block(&ctx, &block, g, f32::INFINITY, &mut full);
            // Full mask is the unmasked sweep, bit for bit.
            let a_masked = mindist_block_masked(&ctx, &block, g, f32::INFINITY, 0xFF, &mut masked);
            assert_eq!(a_full, a_masked);
            for i in 0..BLOCK_LANES {
                assert_eq!(full[i].to_bits(), masked[i].to_bits(), "group {g} lane {i}");
            }
            // A partial mask keeps live lanes bitwise identical and pins
            // dead lanes to +inf.
            let live = 0b0110_1001u8;
            let _ = mindist_block_masked(&ctx, &block, g, f32::INFINITY, live, &mut masked);
            for i in 0..BLOCK_LANES {
                if live & (1 << i) != 0 {
                    assert_eq!(full[i].to_bits(), masked[i].to_bits(), "group {g} lane {i}");
                } else {
                    assert_eq!(masked[i], f32::INFINITY, "group {g} dead lane {i}");
                }
            }
        }
    }

    #[test]
    fn push_lane_matches_batch_build() {
        // Pushing lanes one at a time must reproduce the batch-built block
        // bit-for-bit, across both the overwrite-pad and new-group paths.
        let n = 64;
        let data = dataset(19, n);
        let sfa =
            Sfa::learn(&data, n, &SfaConfig { word_len: 16, alphabet: 64, ..Default::default() });
        let words = words_of(&sfa, &data, n);
        let nodes = nodes_from_words(&words, 16, sfa.symbol_bits());
        let refs: Vec<(&[u8], &[u8])> =
            nodes.iter().map(|(p, b)| (p.as_slice(), b.as_slice())).collect();
        for split in [1usize, 7, 8, 9, 16] {
            let mut grown = NodeBlock::build(&sfa, &refs[..split]);
            for (p, b) in &refs[split..] {
                grown.push_lane(&sfa, p, b);
            }
            let batch = NodeBlock::build(&sfa, &refs);
            assert_eq!(grown.n(), batch.n(), "split={split}");
            assert_eq!(grown.bounds.len(), batch.bounds.len(), "split={split}");
            for (i, (a, b)) in grown.bounds.iter().zip(batch.bounds.iter()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "split={split} float {i}");
            }
        }
    }

    /// Derives per-node `(prefixes, bits)` pairs from full-cardinality
    /// words: node `i` keeps `(i % (symbol_bits + 1))` bits per position.
    fn nodes_from_words(words: &[u8], l: usize, symbol_bits: u8) -> Vec<(Vec<u8>, Vec<u8>)> {
        words
            .chunks(l)
            .enumerate()
            .map(|(i, w)| {
                let b = (i as u8) % (symbol_bits + 1);
                let prefixes: Vec<u8> =
                    w.iter().map(|&s| if b == 0 { 0 } else { s >> (symbol_bits - b) }).collect();
                (prefixes, vec![b; l])
            })
            .collect()
    }

    #[test]
    fn node_block_matches_scalar_mindist_node_bitwise() {
        let n = 64;
        let data = dataset(21, n); // ragged: last group has 5 real lanes
        let sfa =
            Sfa::learn(&data, n, &SfaConfig { word_len: 16, alphabet: 64, ..Default::default() });
        let words = words_of(&sfa, &data, n);
        let nodes = nodes_from_words(&words, 16, sfa.symbol_bits());
        let refs: Vec<(&[u8], &[u8])> =
            nodes.iter().map(|(p, b)| (p.as_slice(), b.as_slice())).collect();
        let block = NodeBlock::build(&sfa, &refs);
        assert_eq!(block.n(), 21);
        assert_eq!(block.n_groups(), 3);
        assert_eq!(block.lanes_in(2), 5);
        let ctx = QueryContext::new(&sfa, &data[3 * n..4 * n]);
        let mut out = [0.0f32; BLOCK_LANES];
        for g in 0..block.n_groups() {
            let abandoned = mindist_node_block(&ctx, &block, g, f32::INFINITY, &mut out);
            assert!(!abandoned);
            for (lane, &lb) in out.iter().enumerate().take(block.lanes_in(g)) {
                let (p, b) = &nodes[g * BLOCK_LANES + lane];
                let scalar = crate::lbd::mindist_node(&ctx, p, b);
                assert_eq!(lb.to_bits(), scalar.to_bits(), "group {g} lane {lane}");
            }
        }
    }

    #[test]
    fn node_block_group_abandons_against_tiny_bsf() {
        let n = 64;
        let data = dataset(24, n);
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let words = words_of(&sax, &data, n);
        // Full-cardinality nodes (bits = symbol_bits): intervals are the
        // symbols' own bins, so a far-away query gets positive bounds.
        let nodes: Vec<(Vec<u8>, Vec<u8>)> =
            words.chunks(8).map(|w| (w.to_vec(), vec![8u8; 8])).collect();
        let refs: Vec<(&[u8], &[u8])> =
            nodes.iter().map(|(p, b)| (p.as_slice(), b.as_slice())).collect();
        let block = NodeBlock::build(&sax, &refs);
        let mut probe = dataset(30, n)[29 * n..].to_vec();
        sofa_simd::znormalize(&mut probe);
        let ctx = QueryContext::new(&sax, &probe);
        let mut out = [0.0f32; BLOCK_LANES];
        let mut saw_abandon = false;
        for g in 0..block.n_groups() {
            let _ = mindist_node_block(&ctx, &block, g, f32::INFINITY, &mut out);
            if (0..block.lanes_in(g)).all(|i| out[i] > 0.0) {
                assert!(mindist_node_block(&ctx, &block, g, 0.0, &mut out), "group {g}");
                saw_abandon = true;
            }
        }
        assert!(saw_abandon, "workload produced no group with all-positive bounds");
    }

    #[test]
    fn node_block_zero_bit_positions_contribute_nothing() {
        let n = 64;
        let data = dataset(9, n);
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        // All-zero-bit nodes: every interval is the whole real line, so
        // every lane's bound is exactly zero.
        let nodes: Vec<(Vec<u8>, Vec<u8>)> = (0..9).map(|_| (vec![0u8; 8], vec![0u8; 8])).collect();
        let refs: Vec<(&[u8], &[u8])> =
            nodes.iter().map(|(p, b)| (p.as_slice(), b.as_slice())).collect();
        let block = NodeBlock::build(&sax, &refs);
        let ctx = QueryContext::new(&sax, &data[..n]);
        let mut out = [f32::NAN; BLOCK_LANES];
        let abandoned = mindist_node_block(&ctx, &block, 0, f32::INFINITY, &mut out);
        assert!(!abandoned);
        assert_eq!(out, [0.0; BLOCK_LANES]);
    }

    #[test]
    fn level_blocks_match_scalar_mindist_node_per_level() {
        let n = 64;
        let data = dataset(30, n);
        let sfa =
            Sfa::learn(&data, n, &SfaConfig { word_len: 16, alphabet: 64, ..Default::default() });
        let words = words_of(&sfa, &data, n);
        let symbol_bits = sfa.symbol_bits();
        // Three "levels" of increasing cardinality, ragged lane counts.
        let levels_owned: Vec<Vec<(Vec<u8>, Vec<u8>)>> = [(2usize, 1u8), (7, 2), (11, 3)]
            .iter()
            .map(|&(count, b)| {
                words
                    .chunks(16)
                    .take(count)
                    .map(|w| {
                        let prefixes: Vec<u8> = w.iter().map(|&s| s >> (symbol_bits - b)).collect();
                        (prefixes, vec![b; 16])
                    })
                    .collect()
            })
            .collect();
        let level_refs: Vec<Vec<(&[u8], &[u8])>> = levels_owned
            .iter()
            .map(|lvl| lvl.iter().map(|(p, b)| (p.as_slice(), b.as_slice())).collect())
            .collect();
        let blocks = LevelBlocks::build(&sfa, &level_refs);
        assert_eq!(blocks.n_levels(), 3);
        assert!(!blocks.is_empty());
        assert!(blocks.heap_bytes() > 0);
        let ctx = QueryContext::new(&sfa, &data[9 * n..10 * n]);
        let mut out = [0.0f32; BLOCK_LANES];
        for (lvl, nodes) in levels_owned.iter().enumerate() {
            let block = blocks.level(lvl);
            assert_eq!(block.n(), nodes.len());
            for g in 0..block.n_groups() {
                let abandoned = mindist_level_block(&ctx, &blocks, lvl, g, f32::INFINITY, &mut out);
                assert!(!abandoned);
                for (lane, &lb) in out.iter().enumerate().take(block.lanes_in(g)) {
                    let (p, b) = &nodes[g * BLOCK_LANES + lane];
                    let scalar = crate::lbd::mindist_node(&ctx, p, b);
                    assert_eq!(lb.to_bits(), scalar.to_bits(), "level {lvl} group {g} lane {lane}");
                }
            }
        }
    }

    #[test]
    fn empty_level_blocks() {
        let blocks = LevelBlocks::empty();
        assert!(blocks.is_empty());
        assert_eq!(blocks.n_levels(), 0);
        assert_eq!(blocks.heap_bytes(), 0);
        assert_eq!(blocks, LevelBlocks::default());
    }

    #[test]
    fn empty_node_list_builds_empty_block() {
        let n = 64;
        let data = dataset(5, n);
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let block = NodeBlock::build(&sax, &[]);
        assert_eq!(block.n(), 0);
        assert_eq!(block.n_groups(), 0);
        assert_eq!(block.heap_bytes(), 0);
        let _ = data;
    }

    #[test]
    fn raw_parts_roundtrip_is_bit_identical() {
        let n = 64;
        let data = dataset(21, n);
        let sfa =
            Sfa::learn(&data, n, &SfaConfig { word_len: 16, alphabet: 64, ..Default::default() });
        let words = words_of(&sfa, &data, n);
        let block = WordBlock::build(&sfa, &words);
        let rebuilt =
            WordBlock::from_raw_parts(block.n(), block.word_len(), block.bounds().to_vec())
                .expect("valid shape");
        assert_eq!(block, rebuilt);
        // Shape violations are rejected, not absorbed.
        assert!(WordBlock::from_raw_parts(21, 16, vec![0.0; 7]).is_err());
        assert!(WordBlock::from_raw_parts(21, 0, vec![]).is_err());
        assert!(NodeBlock::from_raw_parts(3, 4, vec![0.0; 63]).is_err());
        let nb = NodeBlock::from_raw_parts(3, 4, vec![0.0; 64]).expect("1 group x 4 x 16");
        assert_eq!(nb.n(), 3);
        let lb = LevelBlocks::from_levels(vec![nb.clone()]);
        assert_eq!(lb.n_levels(), 1);
        assert_eq!(lb.levels()[0], nb);
    }

    #[test]
    fn empty_words_build_empty_block() {
        let n = 64;
        let data = dataset(10, n);
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let block = WordBlock::build(&sax, &[]);
        assert_eq!(block.n(), 0);
        assert_eq!(block.n_groups(), 0);
        assert_eq!(block.heap_bytes(), 0);
        let _ = data;
    }
}
