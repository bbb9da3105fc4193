//! Static per-level structures of synchronizer γ_w.
//!
//! The normalized network's edges are partitioned into *weight classes*:
//! class `i` holds the edges whose rounded weight `power(w(e))` equals
//! `2^i`. (The paper phrases levels via divisibility — `E_i` = edges with
//! weight divisible by `2^i` — but meters each message's arrival through
//! the synchronizer of its own weight class; using exact classes avoids
//! making the light levels wait on heavy acknowledgments, which is the
//! whole point of the level decomposition.)
//!
//! Each class subgraph is partitioned with Awerbuch's ball-growing
//! [`ball_partition`](csp_graph::cover::ball_partition) (parameter `k`),
//! yielding per-cluster trees with leaders and one preferred edge per
//! adjacent cluster pair — the structure synchronizer γ sweeps once per
//! super-pulse of that level.

use csp_graph::cover::ball_partition;
use csp_graph::{NodeId, WeightedGraph};

/// The weight-class level of an edge: `log₂ power(w)`.
pub(super) fn edge_level(w: u64) -> u32 {
    w.next_power_of_two().trailing_zeros()
}

/// The smallest multiple of `m` that is `≥ x`.
pub(super) fn next_multiple(x: u64, m: u64) -> u64 {
    debug_assert!(m > 0);
    x.div_ceil(m) * m
}

/// Static structure of one weight class.
#[derive(Debug)]
pub(super) struct LevelLayout {
    /// Class exponent `i` (edges of rounded weight `2^i`).
    pub(super) exp: u32,
    /// `2^i`.
    pub(super) width: u64,
    /// Whether each vertex has class-`i` edges (non-participants confirm
    /// every super-pulse trivially, with no messages).
    pub(super) participates: Vec<bool>,
    /// Cluster-tree parent of each participating vertex (`None` for
    /// leaders and non-participants).
    pub(super) parent: Vec<Option<NodeId>>,
    /// Cluster-tree children.
    pub(super) children: Vec<Vec<NodeId>>,
    /// Whether each vertex leads its cluster.
    pub(super) is_leader: Vec<bool>,
    /// For leaders: the number of adjacent clusters.
    pub(super) nbr_cluster_count: Vec<usize>,
    /// Per vertex: remote endpoints of incident preferred edges.
    pub(super) preferred_of: Vec<Vec<NodeId>>,
}

impl LevelLayout {
    /// Builds the class-`exp` layout of `g` with partition parameter `k`.
    pub(super) fn build(g: &WeightedGraph, exp: u32, k: usize) -> Self {
        let n = g.node_count();
        let width = 1u64 << exp;
        let sub = g.edge_subgraph(|_, e| edge_level(e.weight().get()) == exp);
        let partition = ball_partition(&sub, k);
        let mut participates = vec![false; n];
        for v in sub.nodes() {
            participates[v.index()] = sub.degree(v) > 0;
        }
        let mut parent = vec![None; n];
        let mut children = vec![Vec::new(); n];
        let mut is_leader = vec![false; n];
        for tree in &partition.trees {
            is_leader[tree.root().index()] = true;
            for v in tree.members() {
                parent[v.index()] = tree.parent(v).map(|(p, _, _)| p);
                children[v.index()] = tree.children_lists()[v.index()]
                    .iter()
                    .map(|&(c, _)| c)
                    .collect();
            }
        }
        let mut nbr_clusters = vec![std::collections::BTreeSet::new(); partition.len()];
        let mut preferred_of = vec![Vec::new(); n];
        for &(e, a, b) in &partition.preferred {
            nbr_clusters[a].insert(b);
            nbr_clusters[b].insert(a);
            // NOTE: `e` indexes the class *subgraph*, whose edge ids are
            // renumbered — resolve endpoints against `sub`, not `g`.
            let (u, v) = sub.edge(e).endpoints();
            preferred_of[u.index()].push(v);
            preferred_of[v.index()].push(u);
        }
        let mut nbr_cluster_count = vec![0; n];
        for (c, tree) in partition.trees.iter().enumerate() {
            nbr_cluster_count[tree.root().index()] = nbr_clusters[c].len();
        }
        LevelLayout {
            exp,
            width,
            participates,
            parent,
            children,
            is_leader,
            nbr_cluster_count,
            preferred_of,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_graph::generators;

    #[test]
    fn edge_levels() {
        assert_eq!(edge_level(1), 0);
        assert_eq!(edge_level(2), 1);
        assert_eq!(edge_level(3), 2); // power(3) = 4
        assert_eq!(edge_level(4), 2);
        assert_eq!(edge_level(5), 3);
        assert_eq!(edge_level(1024), 10);
    }

    #[test]
    fn next_multiples() {
        assert_eq!(next_multiple(0, 4), 0);
        assert_eq!(next_multiple(1, 4), 4);
        assert_eq!(next_multiple(4, 4), 4);
        assert_eq!(next_multiple(9, 4), 12);
        assert_eq!(next_multiple(7, 1), 7);
    }

    #[test]
    fn layout_partitions_each_class() {
        // weights 1 and 5 → classes 0 and 3.
        let mut b = csp_graph::GraphBuilder::new(4);
        b.edge(0, 1, 1).edge(1, 2, 5).edge(2, 3, 1);
        let g = b.build().unwrap();
        let l0 = LevelLayout::build(&g, 0, 2);
        assert!(l0.participates[0] && l0.participates[1]);
        assert!(l0.participates[2] && l0.participates[3]);
        let l3 = LevelLayout::build(&g, 3, 2);
        assert!(!l3.participates[0] && l3.participates[1] && l3.participates[2]);
        assert!(!l3.participates[3]);
    }

    #[test]
    fn leaders_know_neighbor_cluster_counts() {
        let g = generators::cycle(9, |_| 1);
        let l = LevelLayout::build(&g, 0, 3);
        let leaders: Vec<usize> = (0..9).filter(|&v| l.is_leader[v]).collect();
        assert!(!leaders.is_empty());
        // Sum of leader neighbor counts = 2 × number of preferred pairs.
        let total: usize = leaders.iter().map(|&v| l.nbr_cluster_count[v]).sum();
        let pairs: usize = l.preferred_of.iter().map(Vec::len).sum::<usize>() / 2;
        assert_eq!(total, 2 * pairs);
    }
}
