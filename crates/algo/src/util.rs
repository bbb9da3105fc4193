//! Shared helpers for extracting structures from protocol runs.

use csp_graph::{NodeId, RootedTree, WeightedGraph};
use std::collections::VecDeque;

/// Reassembles a [`RootedTree`] from per-vertex parent pointers (the usual
/// output shape of distributed spanning-tree protocols).
///
/// Vertices with `None` outside the root are left out of the tree (they
/// were never reached).
///
/// # Panics
///
/// Panics if `parents[root]` is not `None`, if a parent pointer refers to
/// a non-edge, or if the pointers contain a cycle.
pub fn tree_from_parents(
    g: &WeightedGraph,
    root: NodeId,
    parents: &[Option<NodeId>],
) -> RootedTree {
    assert_eq!(parents.len(), g.node_count(), "one parent slot per vertex");
    assert!(
        parents[root.index()].is_none(),
        "root must not have a parent"
    );
    let mut tree = RootedTree::new(g.node_count(), root);
    // Attach in topological order: repeatedly attach vertices whose parent
    // is already a member.
    let mut remaining: Vec<NodeId> = g
        .nodes()
        .filter(|&v| v != root && parents[v.index()].is_some())
        .collect();
    while !remaining.is_empty() {
        let before = remaining.len();
        remaining.retain(|&v| {
            let p = parents[v.index()].expect("filtered to Some");
            if tree.contains(p) {
                tree.attach(v, p, g);
                false
            } else {
                true
            }
        });
        assert!(
            remaining.len() < before,
            "parent pointers contain a cycle or dangle off the tree"
        );
    }
    tree
}

/// Roots the tree formed by *branch* edges — the output shape of the
/// GHS-family MST protocols, where every vertex knows its incident tree
/// edges but not their direction — at `root`, by breadth-first search
/// over them in adjacency order.
///
/// # Panics
///
/// Panics if a reported branch is not a graph edge.
pub fn tree_from_branches(
    g: &WeightedGraph,
    root: NodeId,
    branches: impl Fn(NodeId) -> Vec<NodeId>,
) -> RootedTree {
    let mut is_branch = vec![false; g.edge_count()];
    for v in g.nodes() {
        for u in branches(v) {
            let eid = g.edge_between(v, u).expect("branch is a graph edge");
            is_branch[eid.index()] = true;
        }
    }
    let mut parents: Vec<Option<NodeId>> = vec![None; g.node_count()];
    let mut seen = vec![false; g.node_count()];
    seen[root.index()] = true;
    let mut queue = VecDeque::from([root]);
    while let Some(v) = queue.pop_front() {
        for (u, eid, _) in g.neighbors(v) {
            if is_branch[eid.index()] && !seen[u.index()] {
                seen[u.index()] = true;
                parents[u.index()] = Some(v);
                queue.push_back(u);
            }
        }
    }
    tree_from_parents(g, root, &parents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_graph::generators;

    #[test]
    fn rebuilds_a_path_tree() {
        let g = generators::path(4, |_| 2);
        let parents = vec![
            None,
            Some(NodeId::new(0)),
            Some(NodeId::new(1)),
            Some(NodeId::new(2)),
        ];
        let t = tree_from_parents(&g, NodeId::new(0), &parents);
        assert!(t.is_spanning());
        assert_eq!(t.weight().get(), 6);
    }

    #[test]
    fn unreached_vertices_left_out() {
        let g = generators::path(4, |_| 1);
        let parents = vec![None, Some(NodeId::new(0)), None, None];
        let t = tree_from_parents(&g, NodeId::new(0), &parents);
        assert!(t.contains(NodeId::new(1)));
        assert!(!t.contains(NodeId::new(2)));
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycles_detected() {
        let g = generators::cycle(3, |_| 1);
        let parents = vec![None, Some(NodeId::new(2)), Some(NodeId::new(1))];
        let _ = tree_from_parents(&g, NodeId::new(0), &parents);
    }

    #[test]
    #[should_panic(expected = "root must not have a parent")]
    fn parented_root_rejected() {
        let g = generators::path(2, |_| 1);
        let parents = vec![Some(NodeId::new(1)), None];
        let _ = tree_from_parents(&g, NodeId::new(0), &parents);
    }
}
