//! Index build and query configuration.

/// Configuration for [`crate::Index`] construction and querying.
///
/// Defaults follow the paper's setup (§V "Setup"): leaf capacity 20,000,
/// one priority queue per worker thread. `num_threads` defaults to the
/// machine's available parallelism.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexConfig {
    /// Maximum series per leaf before it splits (`leaf-size`). The paper
    /// sweeps this in Figure 11 and settles on 20,000. It also sizes the
    /// insert delta: the insert that brings the delta to this many rows
    /// folds it into the tree, so queries never scan more than one full
    /// leaf's worth of unindexed rows.
    pub leaf_capacity: usize,
    /// Parallel lanes of the index's persistent worker pool (created at
    /// build time and reused by every build/query/insert call). Ignored
    /// when a shared pool is supplied via `Index::build_with_pool` — the
    /// pool's own lane count applies there.
    pub num_threads: usize,
    /// Number of leaf priority queues used during query refinement;
    /// the paper sets it to the core count.
    pub num_queues: usize,
    /// How many levels of internal nodes below each subtree root the
    /// collect phase prices through hierarchy-aware level blocks before
    /// falling through to the leaf fringe. A pruned level lane retires its
    /// whole descendant leaf range — the decisive saving on deep trees
    /// (concentrated root keys), while shallow subtrees skip the levels
    /// automatically. `0` disables the hierarchy sweep (leaf-only collect
    /// blocks). Default: [`crate::node::DEFAULT_COLLECT_LEVELS`].
    pub collect_levels: usize,
    /// Whether repacking builds the scalar-quantized refine tier: per-leaf
    /// int8 codes swept between the word lower bound and the exact `f32`
    /// scan, cutting refine-phase memory traffic ~4x for lanes the word
    /// bound cannot kill. Exactness is unaffected either way — the
    /// quantized bound is conservative and `f32` remains the final
    /// arbiter. Costs ~1 byte per stored value. Default: `true`.
    pub quant_refine: bool,
}

impl Default for IndexConfig {
    fn default() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        IndexConfig {
            leaf_capacity: 20_000,
            num_threads: threads,
            num_queues: threads,
            collect_levels: crate::node::DEFAULT_COLLECT_LEVELS,
            quant_refine: true,
        }
    }
}

impl IndexConfig {
    /// Config with `threads` workers and matching queue count.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        IndexConfig {
            num_threads: threads.max(1),
            num_queues: threads.max(1),
            ..Default::default()
        }
    }

    /// Sets the leaf capacity, returning the modified config.
    #[must_use]
    pub fn leaf_capacity(mut self, capacity: usize) -> Self {
        self.leaf_capacity = capacity.max(1);
        self
    }

    /// Sets how many hierarchy levels the collect phase sweeps through
    /// level blocks before the leaf fringe (`0` = leaf-only collect, the
    /// pre-hierarchy behavior).
    #[must_use]
    pub fn collect_levels(mut self, levels: usize) -> Self {
        self.collect_levels = levels;
        self
    }

    /// Enables or disables the scalar-quantized refine tier (see the
    /// field docs; default on).
    #[must_use]
    pub fn quant_refine(mut self, enabled: bool) -> Self {
        self.quant_refine = enabled;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = IndexConfig::default();
        assert_eq!(c.leaf_capacity, 20_000);
        assert_eq!(c.num_queues, c.num_threads);
        assert!(c.num_threads >= 1);
        assert_eq!(c.collect_levels, crate::node::DEFAULT_COLLECT_LEVELS);
        assert!(c.quant_refine);
    }

    #[test]
    fn quant_refine_configurable() {
        let c = IndexConfig::default().quant_refine(false);
        assert!(!c.quant_refine);
    }

    #[test]
    fn collect_levels_configurable() {
        let c = IndexConfig::default().collect_levels(0);
        assert_eq!(c.collect_levels, 0);
        let c = IndexConfig::default().collect_levels(9);
        assert_eq!(c.collect_levels, 9);
    }

    #[test]
    fn builder_methods() {
        let c = IndexConfig::with_threads(4).leaf_capacity(100);
        assert_eq!(c.num_threads, 4);
        assert_eq!(c.num_queues, 4);
        assert_eq!(c.leaf_capacity, 100);
    }

    #[test]
    fn zero_threads_clamped() {
        let c = IndexConfig::with_threads(0);
        assert_eq!(c.num_threads, 1);
        let c2 = IndexConfig::default().leaf_capacity(0);
        assert_eq!(c2.leaf_capacity, 1);
    }
}
