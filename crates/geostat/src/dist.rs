//! Tile distributions over the selected nodes.
//!
//! The application redistributes data between phases (the paper's "flexible
//! data distribution"): generation spreads tiles across *all* nodes
//! proportionally to CPU speed, while the factorization places tiles on the
//! `n` selected nodes proportionally to their combined throughput, following
//! the heterogeneous allocation ideas of Beaumont et al. that the paper's
//! reference [4] builds on.
//!
//! Two allocation schemes are provided:
//!
//! * [`Distribution::BlockCyclic2D`] — the classic p×q grid, used when the
//!   selected nodes are homogeneous. Changing the node count reshapes the
//!   grid abruptly, which is one source of the paper's small "in-group"
//!   response-curve breaks.
//! * [`Distribution::WeightedBalance`] — deterministic greedy balancing of
//!   per-tile work proportional to node weights, used for heterogeneous
//!   node sets (slow nodes get few tiles — but the tiles they do get can
//!   still drag the Cholesky critical path, the paper's discontinuity at
//!   group boundaries).

use crate::workload::Workload;
use adaphet_runtime::NodeId;

/// Allocation scheme selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// p×q block-cyclic over the node list (homogeneous).
    BlockCyclic2D,
    /// Greedy weighted load balance (heterogeneous).
    WeightedBalance,
}

/// A concrete tile-to-node mapping for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct TileDist {
    workload: Workload,
    /// Owner per lower-tile linear index.
    owners: Vec<NodeId>,
}

impl TileDist {
    /// Build a distribution of `workload`'s lower tiles over `nodes` with
    /// relative `weights` (same length as `nodes`; any positive scale).
    ///
    /// `BlockCyclic2D` ignores the weights. `WeightedBalance` assigns each
    /// tile — heaviest first, where tile `(i,j)` weighs `min(i,j)+1` update
    /// units — to the node with the smallest projected weighted load.
    ///
    /// # Panics
    /// Panics if `nodes` is empty or lengths mismatch.
    pub fn build(
        workload: Workload,
        scheme: Distribution,
        nodes: &[NodeId],
        weights: &[f64],
    ) -> Self {
        assert!(!nodes.is_empty(), "need at least one node");
        assert_eq!(nodes.len(), weights.len(), "weights per node");
        assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
        match scheme {
            Distribution::BlockCyclic2D => Self::block_cyclic(workload, nodes),
            Distribution::WeightedBalance => Self::weighted(workload, nodes, weights),
        }
    }

    /// Pick [`Distribution::BlockCyclic2D`] when weights are (nearly)
    /// uniform and [`Distribution::WeightedBalance`] otherwise.
    pub fn auto(workload: Workload, nodes: &[NodeId], weights: &[f64]) -> Self {
        let max = weights.iter().copied().fold(f64::MIN, f64::max);
        let min = weights.iter().copied().fold(f64::MAX, f64::min);
        let scheme = if max / min < 1.05 {
            Distribution::BlockCyclic2D
        } else {
            Distribution::WeightedBalance
        };
        Self::build(workload, scheme, nodes, weights)
    }

    fn block_cyclic(workload: Workload, nodes: &[NodeId]) -> Self {
        let n = nodes.len();
        // Largest divisor of n that is <= sqrt(n) gives the squarest grid.
        let mut p = (n as f64).sqrt().floor() as usize;
        while p > 1 && !n.is_multiple_of(p) {
            p -= 1;
        }
        let p = p.max(1);
        let q = n / p;
        let mut owners = vec![NodeId(0); workload.n_tiles_lower()];
        for i in 0..workload.nt {
            for j in 0..=i {
                let slot = (i % p) * q + (j % q);
                owners[workload.tile_index(i, j)] = nodes[slot];
            }
        }
        TileDist { workload, owners }
    }

    fn weighted(workload: Workload, nodes: &[NodeId], weights: &[f64]) -> Self {
        // Tiles ordered heaviest-first, deterministic tie-break.
        let mut tiles: Vec<(usize, usize)> =
            (0..workload.nt).flat_map(|i| (0..=i).map(move |j| (i, j))).collect();
        let tile_work = |i: usize, j: usize| (i.min(j) + 1) as f64;
        tiles.sort_by(|&(ai, aj), &(bi, bj)| {
            tile_work(bi, bj).partial_cmp(&tile_work(ai, aj)).unwrap().then((ai, aj).cmp(&(bi, bj)))
        });
        let mut load = vec![0.0_f64; nodes.len()];
        let mut owners = vec![NodeId(0); workload.n_tiles_lower()];
        for (i, j) in tiles {
            let w = tile_work(i, j);
            // Node minimizing projected weighted finish time.
            let (best, _) = load
                .iter()
                .enumerate()
                .map(|(k, &l)| (k, (l + w) / weights[k]))
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)))
                .expect("nodes non-empty");
            load[best] += w;
            owners[workload.tile_index(i, j)] = nodes[best];
        }
        TileDist { workload, owners }
    }

    /// Owner of lower tile `(i, j)`.
    pub fn owner(&self, i: usize, j: usize) -> NodeId {
        self.owners[self.workload.tile_index(i, j)]
    }

    /// Owner of vector block `i` (co-located with the diagonal tile).
    pub fn vec_owner(&self, i: usize) -> NodeId {
        self.owner(i, i)
    }

    /// The workload this distribution maps.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// Tiles per node (diagnostic).
    pub fn tile_counts(&self, n_nodes: usize) -> Vec<usize> {
        let mut counts = vec![0usize; n_nodes];
        for o in &self.owners {
            counts[o.0] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn nodes(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn block_cyclic_uses_all_nodes_evenly() {
        let w = Workload::new(12, 8);
        let d = TileDist::build(w, Distribution::BlockCyclic2D, &nodes(4), &[1.0; 4]);
        let counts = d.tile_counts(4);
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max / min < 2.0, "imbalanced: {counts:?}");
    }

    #[test]
    fn weighted_balance_is_proportional() {
        let w = Workload::new(20, 8);
        // Node 0 four times faster than node 1.
        let d = TileDist::build(w, Distribution::WeightedBalance, &nodes(2), &[4.0, 1.0]);
        // Weighted work per node: min(i,j)+1 units per tile.
        let mut work = [0.0; 2];
        for i in 0..w.nt {
            for j in 0..=i {
                work[d.owner(i, j).0] += (i.min(j) + 1) as f64;
            }
        }
        let ratio = work[0] / work[1];
        assert!((ratio - 4.0).abs() < 1.0, "work ratio {ratio}");
    }

    #[test]
    fn single_node_owns_everything() {
        let w = Workload::new(6, 4);
        for scheme in [Distribution::BlockCyclic2D, Distribution::WeightedBalance] {
            let d = TileDist::build(w, scheme, &nodes(1), &[1.0]);
            assert_eq!(d.tile_counts(1)[0], w.n_tiles_lower());
        }
    }

    #[test]
    fn auto_picks_scheme_by_weight_spread() {
        let w = Workload::new(10, 4);
        let uniform = TileDist::auto(w, &nodes(4), &[1.0, 1.0, 1.0, 1.0]);
        let skewed = TileDist::auto(w, &nodes(4), &[4.0, 1.0, 1.0, 1.0]);
        let bc = TileDist::build(w, Distribution::BlockCyclic2D, &nodes(4), &[1.0; 4]);
        assert_eq!(uniform, bc);
        assert_ne!(skewed, bc);
    }

    #[test]
    fn vector_blocks_follow_diagonal() {
        let w = Workload::new(8, 4);
        let d = TileDist::build(w, Distribution::BlockCyclic2D, &nodes(3), &[1.0; 3]);
        for i in 0..8 {
            assert_eq!(d.vec_owner(i), d.owner(i, i));
        }
    }

    #[test]
    fn deterministic_construction() {
        let w = Workload::new(16, 4);
        let a = TileDist::build(
            w,
            Distribution::WeightedBalance,
            &nodes(5),
            &[3.0, 2.0, 1.0, 1.0, 1.0],
        );
        let b = TileDist::build(
            w,
            Distribution::WeightedBalance,
            &nodes(5),
            &[3.0, 2.0, 1.0, 1.0, 1.0],
        );
        assert_eq!(a, b);
    }

    #[test]
    fn changing_node_count_reshapes_block_cyclic() {
        // The "partition reorganization" effect: 4 -> 5 nodes changes the
        // grid shape (2x2 -> 1x5), remapping most tiles.
        let w = Workload::new(12, 4);
        let d4 = TileDist::build(w, Distribution::BlockCyclic2D, &nodes(4), &[1.0; 4]);
        let d5 = TileDist::build(w, Distribution::BlockCyclic2D, &nodes(5), &[1.0; 5]);
        let moved = (0..w.nt)
            .flat_map(|i| (0..=i).map(move |j| (i, j)))
            .filter(|&(i, j)| d4.owner(i, j) != d5.owner(i, j))
            .count();
        assert!(moved > w.n_tiles_lower() / 3, "only {moved} tiles moved");
    }

    proptest! {
        /// Every tile gets an owner within the node list, and weighted
        /// loads never leave a positive-weight node starved when there are
        /// enough tiles.
        #[test]
        fn prop_distribution_covers(nn in 1usize..9, nt in 4usize..16, seed in 0u64..50) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let w = Workload::new(nt, 4);
            let ns = nodes(nn);
            let weights: Vec<f64> = (0..nn).map(|_| rng.random_range(0.5..4.0)).collect();
            for scheme in [Distribution::BlockCyclic2D, Distribution::WeightedBalance] {
                let d = TileDist::build(w, scheme, &ns, &weights);
                let counts = d.tile_counts(nn);
                prop_assert_eq!(counts.iter().sum::<usize>(), w.n_tiles_lower());
                if w.n_tiles_lower() >= 4 * nn {
                    prop_assert!(counts.iter().all(|&c| c > 0), "starved node: {:?}", counts);
                }
            }
        }
    }
}
