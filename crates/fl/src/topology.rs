//! Aggregation topologies: a flat single-server fold versus a k-ary tree
//! of edge aggregators.
//!
//! FLBooster's server-side bottleneck is one aggregator folding every
//! participant ciphertext; real platforms (NVIDIA FLARE's federated
//! XGBoost deployments, hierarchical FedAvg) interpose *edge aggregators*
//! so each node folds only its fan-in, keeping million-party rounds
//! inside per-node memory and NIC budgets at the cost of extra hops.
//!
//! The topology changes *where* partial sums are computed and how many
//! intermediate messages cross the wire — never the result: Paillier
//! aggregation is a product in `Z*_{n²}`, the tree merely reassociates
//! that product, and every fold returns canonical residues, so the root
//! aggregate is bit-identical to the flat fold.

/// How participant vectors reach the aggregation server.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AggregationTopology {
    /// Every party uploads straight to the server: one flat fold.
    #[default]
    Flat,
    /// Parties are grouped under edge aggregators, at most `arity` inputs
    /// per node, recursively until a single root (the server) remains.
    Tree {
        /// Fan-in of every aggregator node; at least 2.
        arity: usize,
    },
}

impl AggregationTopology {
    /// A k-ary edge-aggregator tree. Fan-ins below 2 cannot reduce, so
    /// `arity` is clamped up to 2.
    pub fn tree(arity: usize) -> Self {
        AggregationTopology::Tree {
            arity: arity.max(2),
        }
    }

    /// Leaf-level grouping of `parties` consecutive party indices:
    /// half-open ranges of at most `arity` parties, in upload order.
    /// Flat topologies yield one group spanning every party (none when
    /// `parties == 0`).
    pub fn leaf_groups(&self, parties: usize) -> Vec<std::ops::Range<usize>> {
        if parties == 0 {
            return Vec::new();
        }
        let arity = match *self {
            AggregationTopology::Flat => parties,
            AggregationTopology::Tree { arity } => arity.max(2),
        };
        (0..parties)
            .step_by(arity)
            .map(|start| start..(start + arity).min(parties))
            .collect()
    }

    /// Intermediate uplink messages one `parties`-wide round pushes
    /// through the tree: each non-root aggregator forwards its partial
    /// aggregate one hop up. Leaf uploads and the final server broadcast
    /// are charged separately by the round loop, so a flat topology — and
    /// a tree shallow enough that the server is the only aggregator —
    /// contributes zero extra hops.
    pub fn uplink_messages(&self, parties: usize) -> u64 {
        let arity = match *self {
            AggregationTopology::Flat => return 0,
            AggregationTopology::Tree { arity } => arity.max(2),
        };
        let mut hops = 0u64;
        let mut nodes = parties;
        while nodes > arity {
            nodes = nodes.div_ceil(arity);
            hops += nodes as u64;
        }
        hops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_is_the_default_and_free() {
        assert_eq!(AggregationTopology::default(), AggregationTopology::Flat);
        assert_eq!(AggregationTopology::Flat.uplink_messages(100_000), 0);
        assert_eq!(AggregationTopology::Flat.leaf_groups(5), vec![0..5]);
        assert!(AggregationTopology::Flat.leaf_groups(0).is_empty());
    }

    #[test]
    fn tree_clamps_degenerate_arity() {
        assert_eq!(
            AggregationTopology::tree(0),
            AggregationTopology::Tree { arity: 2 }
        );
        assert_eq!(
            AggregationTopology::tree(1),
            AggregationTopology::Tree { arity: 2 }
        );
        assert_eq!(
            AggregationTopology::tree(16),
            AggregationTopology::Tree { arity: 16 }
        );
    }

    #[test]
    fn leaf_groups_tile_in_order() {
        let t = AggregationTopology::tree(4);
        assert_eq!(t.leaf_groups(10), vec![0..4, 4..8, 8..10]);
        assert_eq!(t.leaf_groups(4), vec![0..4]);
        assert_eq!(t.leaf_groups(1), vec![0..1]);
        assert!(t.leaf_groups(0).is_empty());
    }

    #[test]
    fn uplink_counts_match_hand_derivation() {
        // 10 000 parties under 16-ary edges: 625 leaf aggregators forward
        // up, then 40, then 3; the root folds those 3 — 668 hops total.
        let t = AggregationTopology::tree(16);
        assert_eq!(t.uplink_messages(10_000), 625 + 40 + 3);
        // A round no wider than the fan-in needs no edge layer at all.
        assert_eq!(t.uplink_messages(16), 0);
        assert_eq!(t.uplink_messages(17), 2);
        assert_eq!(AggregationTopology::tree(2).uplink_messages(8), 4 + 2);
    }
}
