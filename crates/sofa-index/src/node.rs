//! Tree nodes and subtrees.
//!
//! The index is a forest: each [`Subtree`] hangs off an implicit root and
//! is identified by its **root key** — the first bit of every word
//! position (paper §IV-B: the root has up to `2^w` children). Inside a
//! subtree, every node carries a variable-cardinality summary: per word
//! position, a bit-prefix (`prefixes[j]`, using the `bits[j]` most
//! significant bits of the symbol). An inner node's two children extend
//! one position by one bit (set to 0 and 1 — the iSAX split), chosen to
//! balance the series between them (as in iSAX 2.0 / MESSI).
//!
//! Built trees are immutable. Online inserts go to the index's delta and
//! reach the tree only through a fold, which regrows the whole forest
//! from the stored words and packs every leaf again — so no node ever
//! changes kind, and every collect lane points at a packed leaf.

use sofa_summaries::{LevelBlocks, NodeBlock, QuantBlock, Summarization, WordBlock};

/// Node id within one subtree's arena.
pub type NodeId = u32;

/// Query-acceleration storage of a packed leaf: after the build's packing
/// phase, the leaf's series occupy a contiguous run of *storage slots*
/// (`start .. start + rows.len()`) in the index's data/words arenas, in
/// `rows` order, and `block` holds the leaf's words as a
/// structure-of-arrays [`WordBlock`] for the batched lower-bound sweep.
#[derive(Clone, Debug)]
pub struct LeafPack {
    /// First storage slot of the leaf's contiguous series/words run.
    pub start: u32,
    /// SoA lower-bound block over the leaf's words (8 candidates/group).
    pub block: WordBlock,
    /// Scalar-quantized codes + per-row error bounds over the same rows,
    /// encoded under the index-wide grid — the compressed middle refine
    /// tier. `None` when the tier is disabled
    /// ([`crate::IndexConfig::quant_refine`]) or no grid could be trained
    /// (degenerate constant/non-finite data); refinement then goes
    /// straight from the word bound to the exact scan.
    pub quant: Option<QuantBlock>,
}

/// Longest series length the quantized refine tier covers. The refine
/// phase quantizes the query into a fixed stack buffer of this size (it
/// must stay allocation-free), so repacking skips the tier for longer
/// series — they simply keep the two-stage word → `f32` path.
pub(crate) const QUANT_REFINE_MAX_LEN: usize = 2048;

/// The payload of a node.
#[derive(Clone, Debug)]
pub enum NodeKind {
    /// Leaf: row ids of the series stored here.
    Leaf {
        /// Original row ids of the series stored here (results are
        /// reported in these ids; storage may be permuted — see
        /// [`LeafPack`]).
        rows: Vec<u32>,
        /// Contiguous-storage acceleration state; `None` only between a
        /// build or fold growing the forest and packing its leaves.
        pack: Option<LeafPack>,
    },
    /// Inner node: refined on `split_pos` by one bit.
    Inner {
        /// Child whose new bit is 0.
        left: NodeId,
        /// Child whose new bit is 1.
        right: NodeId,
        /// The word position whose cardinality the split increased.
        split_pos: u16,
    },
}

/// One tree node: variable-cardinality summary plus payload.
#[derive(Clone, Debug)]
pub struct Node {
    /// Per-position symbol bit-prefixes (most-significant bits).
    pub prefixes: Vec<u8>,
    /// Per-position number of bits in use (0..=symbol_bits).
    pub bits: Vec<u8>,
    /// Leaf or inner payload.
    pub kind: NodeKind,
}

impl Node {
    /// `true` when this node is a leaf.
    #[must_use]
    pub fn is_leaf(&self) -> bool {
        matches!(self.kind, NodeKind::Leaf { .. })
    }

    /// Rows stored here (empty for inner nodes).
    #[must_use]
    pub fn rows(&self) -> &[u32] {
        match &self.kind {
            NodeKind::Leaf { rows, .. } => rows,
            NodeKind::Inner { .. } => &[],
        }
    }

    /// The leaf's packed-storage state (`None` for inner nodes).
    #[must_use]
    pub fn pack(&self) -> Option<&LeafPack> {
        match &self.kind {
            NodeKind::Leaf { pack, .. } => pack.as_ref(),
            NodeKind::Inner { .. } => None,
        }
    }
}

/// Lane metadata of one hierarchy level in a [`CollectBlock`]: the arena
/// node ids of the level's internal nodes (left-to-right) and, per lane,
/// the half-open span `[leaf_lo, leaf_hi)` of *leaf-fringe lane indices*
/// its subtree covers. Pruning a level lane retires that whole span — the
/// coarse prune a leaf-only sweep cannot express.
#[derive(Clone, Debug, Default)]
pub struct LevelLanes {
    /// Arena node id per lane (always `Inner` nodes at build time).
    pub node_ids: Vec<u32>,
    /// Per-lane descendant leaf range in fringe-lane index space.
    pub leaf_spans: Vec<(u32, u32)>,
}

/// Hierarchy levels below which a [`CollectBlock`] stops recording
/// internal nodes; deeper subtrees fall through to the leaf fringe. See
/// [`crate::IndexConfig::collect_levels`].
pub const DEFAULT_COLLECT_LEVELS: usize = 6;

/// A level sweep only pays off once the leaf fringe spans several kernel
/// groups; below this many leaves the block is built fringe-only. The
/// value is the smallest fringe whose cost budget (a quarter of its
/// kernel groups, see [`CollectBlock::build`]) admits at least one level
/// group — matching the gate to the budget, so the DFS never records
/// level lanes the truncation is guaranteed to discard.
const MIN_LEAVES_FOR_LEVELS: usize = 3 * sofa_simd::BLOCK_LANES + 1;

/// Collect-phase acceleration state of one subtree: the subtree's leaves'
/// prefix quantization intervals as a structure-of-arrays
/// [`NodeBlock`] (padded groups of 8), lane-parallel with `node_ids`,
/// plus — for subtrees deep enough to profit — [`LevelBlocks`] over the
/// top levels of internal nodes so whole descendant leaf ranges retire on
/// one pruned ancestor lane.
///
/// The leaf fringe is stored in **DFS (pre-order) order**, not arena
/// order: that makes every internal node's descendant leaves a contiguous
/// range of fringe lanes, which is what lets a level lane carry a
/// `(leaf_lo, leaf_hi)` span (see [`LevelLanes`]).
///
/// The collect phase sweeps the levels top-down and then the surviving
/// fringe, 8 lanes per dispatched kernel call, instead of walking the
/// arena with a scalar `mindist_node` per node. Blocks are built when
/// the leaves are packed and never patched: the tree they describe is
/// immutable until the next fold rebuilds both.
#[derive(Clone, Debug)]
pub struct CollectBlock {
    /// Arena node id per fringe lane, DFS order (always leaves).
    pub node_ids: Vec<u32>,
    /// SoA interval bounds of the fringe lanes' `prefixes`/`bits`.
    pub block: NodeBlock,
    /// Lane metadata per hierarchy level (depth 1 first; the subtree root
    /// is priced by the caller's `RootLbd` gate). Empty for shallow
    /// subtrees or `collect_levels == 0`.
    pub levels: Vec<LevelLanes>,
    /// SoA interval bounds per level, parallel with `levels`.
    pub level_blocks: LevelBlocks,
}

/// DFS traversal event (explicit stack; `Close` patches a level lane's
/// span end once its subtree has fully emitted).
enum Visit {
    Node(NodeId, usize),
    Close { level: usize, lane: usize },
}

impl CollectBlock {
    /// Builds the block over every leaf of `subtree` in DFS order, and —
    /// when the fringe is wide enough — [`LevelBlocks`] over the internal
    /// nodes of the top `max_levels` levels.
    ///
    /// Levels are only recorded within a **cost budget**: the kernel
    /// groups needed to sweep every kept level must total at most a
    /// quarter of the leaf fringe's groups. That bounds the worst case —
    /// a query the hierarchy cannot prune for pays at most ~25% extra
    /// collect work — while a single mid-level prune on a deep tree still
    /// retires hundreds of fringe groups for a handful of level calls.
    #[must_use]
    pub fn build(summarization: &dyn Summarization, subtree: &Subtree, max_levels: usize) -> Self {
        let n_leaves = subtree.nodes.iter().filter(|n| n.is_leaf()).count();
        let record_levels = max_levels > 0 && n_leaves >= MIN_LEAVES_FOR_LEVELS;
        let mut node_ids = Vec::with_capacity(n_leaves);
        let mut labels: Vec<(&[u8], &[u8])> = Vec::with_capacity(n_leaves);
        let mut levels: Vec<LevelLanes> = Vec::new();
        let mut level_labels: Vec<Vec<(&[u8], &[u8])>> = Vec::new();
        let mut stack = vec![Visit::Node(0, 0)];
        while let Some(visit) = stack.pop() {
            match visit {
                Visit::Node(id, depth) => {
                    let node = &subtree.nodes[id as usize];
                    match &node.kind {
                        NodeKind::Leaf { .. } => {
                            node_ids.push(id);
                            labels.push((&node.prefixes, &node.bits));
                        }
                        NodeKind::Inner { left, right, .. } => {
                            if record_levels && (1..=max_levels).contains(&depth) {
                                let li = depth - 1;
                                if levels.len() <= li {
                                    levels.push(LevelLanes::default());
                                    level_labels.push(Vec::new());
                                }
                                levels[li].node_ids.push(id);
                                // Span start = next fringe lane; the end is
                                // patched by the matching `Close`.
                                levels[li].leaf_spans.push((node_ids.len() as u32, 0));
                                level_labels[li].push((&node.prefixes, &node.bits));
                                stack.push(Visit::Close {
                                    level: li,
                                    lane: levels[li].leaf_spans.len() - 1,
                                });
                            }
                            // Pre-order: left subtree fully, then right.
                            stack.push(Visit::Node(*right, depth + 1));
                            stack.push(Visit::Node(*left, depth + 1));
                        }
                    }
                }
                Visit::Close { level, lane } => {
                    levels[level].leaf_spans[lane].1 = node_ids.len() as u32;
                }
            }
        }
        // Enforce the cost budget (see the doc comment): keep the level
        // prefix whose cumulative group count fits a quarter of the
        // fringe's groups; everything below the first offender is dropped
        // with it.
        let budget = n_leaves.div_ceil(sofa_simd::BLOCK_LANES) / 4;
        let mut spent = 0usize;
        let cut = levels
            .iter()
            .position(|l| {
                spent += l.node_ids.len().div_ceil(sofa_simd::BLOCK_LANES);
                spent > budget
            })
            .unwrap_or(levels.len());
        levels.truncate(cut);
        level_labels.truncate(cut);
        CollectBlock {
            node_ids,
            block: NodeBlock::build(summarization, &labels),
            level_blocks: LevelBlocks::build(summarization, &level_labels),
            levels,
        }
    }
}

/// A subtree: its root key and an arena of nodes (`nodes[root]` is the
/// subtree root). Subtrees are independent — MESSI exploits exactly this
/// for lock-free parallel construction and traversal.
#[derive(Clone, Debug)]
pub struct Subtree {
    /// Root key: bit `j` is the most significant bit of word position `j`.
    pub key: u64,
    /// Node arena; index 0 is the root.
    pub nodes: Vec<Node>,
    /// Batched collect-phase pruning state. `None` for single-node
    /// subtrees, which the query path prices by their root key alone.
    pub collect: Option<CollectBlock>,
}

impl Subtree {
    /// The root node.
    #[must_use]
    pub fn root(&self) -> &Node {
        &self.nodes[0]
    }

    /// Iterates over all leaves.
    pub fn leaves(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter(|n| n.is_leaf())
    }

    /// Number of series stored in this subtree.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.leaves().map(|l| l.rows().len()).sum()
    }

    /// Depth of each leaf (root = depth 0), used by the Figure 8 stats.
    #[must_use]
    pub fn leaf_depths(&self) -> Vec<usize> {
        let mut depths = Vec::new();
        // Iterative DFS with explicit depth tracking.
        let mut stack: Vec<(NodeId, usize)> = vec![(0, 0)];
        while let Some((id, d)) = stack.pop() {
            match &self.nodes[id as usize].kind {
                NodeKind::Leaf { .. } => depths.push(d),
                NodeKind::Inner { left, right, .. } => {
                    stack.push((*left, d + 1));
                    stack.push((*right, d + 1));
                }
            }
        }
        depths
    }
}

/// Computes the root key of a word: bit `j` = most significant bit of
/// symbol `j`.
///
/// # Panics
/// Panics if the word is longer than 64 positions (`u64` key space).
#[inline]
#[must_use]
pub fn root_key(word: &[u8], symbol_bits: u8) -> u64 {
    assert!(word.len() <= 64, "word length > 64 unsupported");
    debug_assert!(symbol_bits >= 1);
    let mut key = 0u64;
    for (j, &s) in word.iter().enumerate() {
        let top_bit = u64::from(s >> (symbol_bits - 1)) & 1;
        key |= top_bit << j;
    }
    key
}

/// Extracts the `bits` most significant bits of `symbol`.
#[inline]
#[must_use]
pub fn symbol_prefix(symbol: u8, bits: u8, symbol_bits: u8) -> u8 {
    if bits == 0 {
        0
    } else {
        symbol >> (symbol_bits - bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_key_uses_top_bits() {
        // symbols with 8 bits: top bit set iff >= 128.
        let word = [0u8, 255, 127, 128];
        let key = root_key(&word, 8);
        assert_eq!(key, 0b1010);
    }

    #[test]
    fn root_key_small_alphabet() {
        // 2-bit symbols: top bit set iff >= 2.
        let word = [0u8, 1, 2, 3];
        assert_eq!(root_key(&word, 2), 0b1100);
    }

    #[test]
    fn symbol_prefix_extraction() {
        assert_eq!(symbol_prefix(0b1011_0000, 0, 8), 0);
        assert_eq!(symbol_prefix(0b1011_0000, 1, 8), 0b1);
        assert_eq!(symbol_prefix(0b1011_0000, 4, 8), 0b1011);
        assert_eq!(symbol_prefix(0b1011_0000, 8, 8), 0b1011_0000);
    }

    #[test]
    fn collect_block_levels_carry_dfs_leaf_spans() {
        use sofa_summaries::{ISax, SaxConfig};
        // Right-spine chain: root -> (leaf, inner -> (leaf, inner -> ...)),
        // 129 leaves so the fringe clears the level cost budget.
        let l = 2usize;
        let spine = 128u32;
        let leaf = |rows: Vec<u32>| Node {
            prefixes: vec![0; l],
            bits: vec![1; l],
            kind: NodeKind::Leaf { rows, pack: None },
        };
        let mut nodes = Vec::new();
        // Arena: spine inners first (ids 0..128), then leaves — deliberately
        // NOT DFS order, to prove the block reorders.
        for depth in 0..spine {
            nodes.push(Node {
                prefixes: vec![0; l],
                bits: vec![1; l],
                kind: NodeKind::Inner {
                    left: spine + depth, // leaf at this depth
                    right: if depth == spine - 1 { 2 * spine } else { depth + 1 },
                    split_pos: 0,
                },
            });
        }
        for r in 0..=spine {
            nodes.push(leaf(vec![r]));
        }
        let subtree = Subtree { key: 0, nodes, collect: None };
        let sax = ISax::new(64, &SaxConfig { word_len: l, alphabet: 4 });
        let cb = CollectBlock::build(&sax, &subtree, 4);
        // Fringe: leaves in DFS order = arena ids 128, 129, ..., 256.
        assert_eq!(cb.node_ids.len(), 129);
        assert_eq!(cb.node_ids, (spine..=2 * spine).collect::<Vec<u32>>());
        assert_eq!(cb.block.n(), 129);
        // Levels 1..=4: one spine inner each (1 kernel group per level —
        // 4 total, within the 17-group fringe's budget of 4); the depth-d
        // spine covers every leaf after the d leaves emitted above it.
        assert_eq!(cb.levels.len(), 4);
        assert_eq!(cb.level_blocks.n_levels(), 4);
        for (li, lanes) in cb.levels.iter().enumerate() {
            assert_eq!(lanes.node_ids, vec![li as u32 + 1], "level {li}");
            assert_eq!(lanes.leaf_spans, vec![(li as u32 + 1, 129)], "level {li}");
            assert_eq!(cb.level_blocks.level(li).n(), 1);
        }
        // Shallow trees and collect_levels == 0 skip the hierarchy.
        let cb0 = CollectBlock::build(&sax, &subtree, 0);
        assert!(cb0.levels.is_empty());
        assert!(cb0.level_blocks.is_empty());
        assert_eq!(cb0.node_ids, cb.node_ids);
    }

    #[test]
    fn leaf_depths_of_small_tree() {
        // root(inner) -> [leaf, inner -> [leaf, leaf]]
        let leaf = |rows: Vec<u32>| Node {
            prefixes: vec![0; 2],
            bits: vec![1; 2],
            kind: NodeKind::Leaf { rows, pack: None },
        };
        let subtree = Subtree {
            key: 0,
            collect: None,
            nodes: vec![
                Node {
                    prefixes: vec![0; 2],
                    bits: vec![1; 2],
                    kind: NodeKind::Inner { left: 1, right: 2, split_pos: 0 },
                },
                leaf(vec![1, 2]),
                Node {
                    prefixes: vec![0; 2],
                    bits: vec![2; 2],
                    kind: NodeKind::Inner { left: 3, right: 4, split_pos: 1 },
                },
                leaf(vec![3]),
                leaf(vec![4, 5]),
            ],
        };
        let mut d = subtree.leaf_depths();
        d.sort_unstable();
        assert_eq!(d, vec![1, 2, 2]);
        assert_eq!(subtree.n_rows(), 5);
        assert_eq!(subtree.leaves().count(), 3);
    }
}
