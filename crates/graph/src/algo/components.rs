//! Connected components, including components of crash-induced
//! subgraphs.

use crate::graph::WeightedGraph;
use crate::ids::NodeId;
use crate::weight::Cost;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The partition of `V` into connected components.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Components {
    /// `label[v]` = component index of vertex `v` (dense, `0..count`).
    label: Vec<usize>,
    count: usize,
}

impl Components {
    /// Number of components.
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether `u` and `v` are in the same component.
    #[inline]
    pub fn same(&self, u: NodeId, v: NodeId) -> bool {
        self.label[u.index()] == self.label[v.index()]
    }

    /// The members of each component.
    pub fn groups(&self) -> Vec<Vec<NodeId>> {
        let mut groups = vec![Vec::new(); self.count];
        for (i, &c) in self.label.iter().enumerate() {
            groups[c].push(NodeId::new(i));
        }
        groups
    }
}

/// Computes connected components by repeated DFS.
///
/// Component indices are assigned in order of their smallest vertex.
///
/// # Example
///
/// ```
/// use csp_graph::{GraphBuilder, NodeId};
/// use csp_graph::algo::connected_components;
///
/// let mut b = GraphBuilder::new(4);
/// b.edge(0, 1, 1).edge(2, 3, 1);
/// let g = b.build()?;
/// let cc = connected_components(&g);
/// assert_eq!(cc.count(), 2);
/// assert!(cc.same(NodeId::new(0), NodeId::new(1)));
/// assert!(!cc.same(NodeId::new(1), NodeId::new(2)));
/// # Ok::<(), csp_graph::GraphError>(())
/// ```
pub fn connected_components(g: &WeightedGraph) -> Components {
    let n = g.node_count();
    let mut label = vec![usize::MAX; n];
    let mut count = 0;
    for start in 0..n {
        if label[start] != usize::MAX {
            continue;
        }
        let mut stack = vec![NodeId::new(start)];
        label[start] = count;
        while let Some(v) = stack.pop() {
            for (u, _, _) in g.neighbors(v) {
                if label[u.index()] == usize::MAX {
                    label[u.index()] = count;
                    stack.push(u);
                }
            }
        }
        count += 1;
    }
    Components { label, count }
}

/// Whether `G` is connected. The empty graph counts as connected.
pub fn is_connected(g: &WeightedGraph) -> bool {
    connected_components(g).count() <= 1
}

/// Membership mask of the *surviving component* of `source`: the set of
/// vertices reachable from `source` in the subgraph induced by the
/// vertices with `dead[v] == false`.
///
/// This is the reference notion behind the self-healing protocols'
/// correctness contract ("every live vertex in the source's surviving
/// component terminates with the right answer"). When `source` itself is
/// dead the mask is all-`false` — the contract is vacuous.
///
/// # Panics
///
/// Panics if `source` is out of range or `dead.len() != n`.
pub fn surviving_component(g: &WeightedGraph, source: NodeId, dead: &[bool]) -> Vec<bool> {
    g.check_node(source);
    assert_eq!(dead.len(), g.node_count(), "dead mask must cover V");
    let mut alive = vec![false; g.node_count()];
    if dead[source.index()] {
        return alive;
    }
    alive[source.index()] = true;
    let mut stack = vec![source];
    while let Some(v) = stack.pop() {
        for (u, _, _) in g.neighbors(v) {
            if !dead[u.index()] && !alive[u.index()] {
                alive[u.index()] = true;
                stack.push(u);
            }
        }
    }
    alive
}

/// Weighted distances from `s` restricted to the subgraph induced by the
/// vertices with `dead[v] == false` — `None` for dead vertices and for
/// live vertices cut off from `s` by the crashes.
///
/// The reference answer a crash-tolerant SPT protocol must converge to
/// on the surviving component.
///
/// # Panics
///
/// Panics if `s` is out of range or `dead.len() != n`.
pub fn surviving_distances(g: &WeightedGraph, s: NodeId, dead: &[bool]) -> Vec<Option<Cost>> {
    g.check_node(s);
    assert_eq!(dead.len(), g.node_count(), "dead mask must cover V");
    let mut dist = vec![None; g.node_count()];
    if dead[s.index()] {
        return dist;
    }
    dist[s.index()] = Some(Cost::ZERO);
    let mut heap = BinaryHeap::new();
    heap.push(Reverse((Cost::ZERO, s)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if dist[v.index()].is_some_and(|b| d > b) {
            continue; // stale entry
        }
        for (u, _, w) in g.neighbors(v) {
            if dead[u.index()] {
                continue;
            }
            let nd = d + w;
            if dist[u.index()].is_none_or(|b| nd < b) {
                dist[u.index()] = Some(nd);
                heap.push(Reverse((nd, u)));
            }
        }
    }
    dist
}

/// Hop distances from `s` restricted to the live-induced subgraph — the
/// reference answer for a crash-tolerant flood.
///
/// # Panics
///
/// Panics if `s` is out of range or `dead.len() != n`.
pub fn surviving_hop_distances(g: &WeightedGraph, s: NodeId, dead: &[bool]) -> Vec<Option<usize>> {
    g.check_node(s);
    assert_eq!(dead.len(), g.node_count(), "dead mask must cover V");
    let mut dist = vec![None; g.node_count()];
    if dead[s.index()] {
        return dist;
    }
    dist[s.index()] = Some(0);
    let mut queue = std::collections::VecDeque::from([s]);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.index()].expect("queued with distance");
        for (u, _, _) in g.neighbors(v) {
            if !dead[u.index()] && dist[u.index()].is_none() {
                dist[u.index()] = Some(dv + 1);
                queue.push_back(u);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    #[test]
    fn single_component() {
        let mut b = GraphBuilder::new(3);
        b.edge(0, 1, 1).edge(1, 2, 1);
        let g = b.build().unwrap();
        assert!(is_connected(&g));
        assert_eq!(connected_components(&g).count(), 1);
    }

    #[test]
    fn isolated_vertices_are_own_components() {
        let g = GraphBuilder::new(3).build().unwrap();
        let cc = connected_components(&g);
        assert_eq!(cc.count(), 3);
        assert!(!cc.same(NodeId::new(0), NodeId::new(1)));
    }

    #[test]
    fn groups_partition_vertices() {
        let mut b = GraphBuilder::new(5);
        b.edge(0, 2, 1).edge(1, 3, 1);
        let g = b.build().unwrap();
        let cc = connected_components(&g);
        let groups = cc.groups();
        assert_eq!(groups.len(), 3);
        let total: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(total, 5);
        assert_eq!(groups[0], vec![NodeId::new(0), NodeId::new(2)]);
    }

    #[test]
    fn empty_graph_is_connected() {
        let g = GraphBuilder::new(0).build().unwrap();
        assert!(is_connected(&g));
    }

    /// Path 0-1-2-3 with a 2-weight shortcut 0-3; killing vertex 1 cuts
    /// the cheap route but leaves everyone reachable via the shortcut.
    fn shortcut_path() -> WeightedGraph {
        let mut b = GraphBuilder::new(4);
        b.edge(0, 1, 1).edge(1, 2, 1).edge(2, 3, 1).edge(0, 3, 2);
        b.build().unwrap()
    }

    #[test]
    fn surviving_component_excludes_cut_off_vertices() {
        let mut b = GraphBuilder::new(4);
        b.edge(0, 1, 1).edge(1, 2, 1).edge(2, 3, 1);
        let g = b.build().unwrap();
        let mut dead = vec![false; 4];
        dead[1] = true;
        let alive = surviving_component(&g, NodeId::new(0), &dead);
        assert_eq!(alive, vec![true, false, false, false]);
    }

    #[test]
    fn surviving_component_is_empty_when_the_source_is_dead() {
        let g = shortcut_path();
        let mut dead = vec![false; 4];
        dead[0] = true;
        let alive = surviving_component(&g, NodeId::new(0), &dead);
        assert!(alive.iter().all(|&a| !a));
    }

    #[test]
    fn surviving_distances_reroute_around_the_crash() {
        let g = shortcut_path();
        let mut dead = vec![false; 4];
        dead[1] = true;
        let d = surviving_distances(&g, NodeId::new(0), &dead);
        assert_eq!(d[0], Some(Cost::ZERO));
        assert_eq!(d[1], None);
        assert_eq!(d[3], Some(Cost::new(2))); // via the shortcut
        assert_eq!(d[2], Some(Cost::new(3))); // 0-3-2 now that 1 is gone
    }

    #[test]
    fn surviving_hop_distances_match_a_bfs_on_the_live_subgraph() {
        let g = shortcut_path();
        let mut dead = vec![false; 4];
        dead[2] = true;
        let d = surviving_hop_distances(&g, NodeId::new(0), &dead);
        assert_eq!(d, vec![Some(0), Some(1), None, Some(1)]);
    }
}
