//! The weighted communication graph `G = (V, E, w)`.
//!
//! [`WeightedGraph`] is an immutable undirected multigraph-free graph with
//! positive integer edge weights, stored in **CSR (compressed sparse
//! row)** form: one dense edge table plus two flat adjacency arrays —
//! `adj_off` (`n + 1` offsets) and `adj` (`2m` u32 edge ids) — instead
//! of a `Vec<Vec<EdgeId>>` per vertex. The struct-of-arrays layout costs
//! 4 bytes per vertex and 4 bytes per directed edge, makes construction
//! two counting-sort passes with no per-vertex allocation, and keeps
//! neighbor scans on one contiguous cache stream — the layout the
//! million-node tier depends on. Per-vertex incident lists keep exact
//! edge-insertion order, so iteration order (and therefore every
//! simulated protocol trace) is identical to the historical per-vertex
//! `Vec` representation.
//!
//! Construction goes through [`GraphBuilder`], which validates endpoints
//! and rejects duplicate edges and self-loops. Generators whose edge
//! streams are duplicate-free by construction can skip the duplicate
//! scan with [`GraphBuilder::build_unchecked`].

use crate::ids::{EdgeId, NodeId};
use crate::weight::{Cost, Weight};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// An undirected weighted edge.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Edge {
    /// Lower-indexed endpoint.
    u: NodeId,
    /// Higher-indexed endpoint.
    v: NodeId,
    /// Positive weight `w(e)`.
    weight: Weight,
}

impl Edge {
    /// The endpoint with the smaller index.
    #[inline]
    pub fn u(&self) -> NodeId {
        self.u
    }

    /// The endpoint with the larger index.
    #[inline]
    pub fn v(&self) -> NodeId {
        self.v
    }

    /// Both endpoints as a pair `(u, v)` with `u < v`.
    #[inline]
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        (self.u, self.v)
    }

    /// The weight `w(e)`.
    #[inline]
    pub fn weight(&self) -> Weight {
        self.weight
    }

    /// Given one endpoint, returns the other.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an endpoint of this edge.
    #[inline]
    pub fn other(&self, x: NodeId) -> NodeId {
        if x == self.u {
            self.v
        } else if x == self.v {
            self.u
        } else {
            panic!("{x} is not an endpoint of edge ({}, {})", self.u, self.v)
        }
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}; w={})", self.u, self.v, self.weight)
    }
}

/// Errors raised while building a [`WeightedGraph`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GraphError {
    /// An edge endpoint is `>= n`.
    NodeOutOfRange {
        /// The offending endpoint index.
        node: usize,
        /// The number of nodes in the graph.
        n: usize,
    },
    /// An edge connects a vertex to itself.
    SelfLoop {
        /// The vertex with the self-loop.
        node: usize,
    },
    /// The same vertex pair was connected twice.
    DuplicateEdge {
        /// First endpoint.
        u: usize,
        /// Second endpoint.
        v: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "edge endpoint {node} out of range for {n} nodes")
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop at node {node}"),
            GraphError::DuplicateEdge { u, v } => {
                write!(f, "duplicate edge between {u} and {v}")
            }
        }
    }
}

impl Error for GraphError {}

/// Builder for [`WeightedGraph`] ([C-BUILDER]).
///
/// # Example
///
/// ```
/// use csp_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.edge(0, 1, 2).edge(1, 2, 5);
/// let g = b.build()?;
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// # Ok::<(), csp_graph::GraphError>(())
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(usize, usize, u64)>,
}

impl GraphBuilder {
    /// Starts a builder for a graph on `n` vertices `0..n`.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Starts a builder with room reserved for `m` edges — the
    /// streaming generators know their edge count (or a tight bound) up
    /// front, and one reservation avoids the doubling re-allocations a
    /// million-edge push sequence would otherwise pay.
    pub fn with_edge_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Adds an undirected edge `{u, v}` with weight `w`.
    ///
    /// Validation is deferred to [`GraphBuilder::build`], except the weight:
    ///
    /// # Panics
    ///
    /// Panics if `w == 0`.
    pub fn edge(&mut self, u: usize, v: usize, w: u64) -> &mut Self {
        let _ = Weight::new(w); // validate eagerly for a clear panic site
        self.edges.push((u, v, w));
        self
    }

    /// Adds every edge of an iterator of `(u, v, w)` triples.
    pub fn edges<I: IntoIterator<Item = (usize, usize, u64)>>(&mut self, iter: I) -> &mut Self {
        for (u, v, w) in iter {
            self.edge(u, v, w);
        }
        self
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Finalizes the graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if an endpoint is out of range, an edge is a
    /// self-loop, or the same vertex pair appears twice.
    pub fn build(&self) -> Result<WeightedGraph, GraphError> {
        self.build_inner(true)
    }

    /// Finalizes the graph **without the duplicate-pair scan** — for
    /// edge streams that are duplicate-free by construction (every
    /// generator in [`crate::generators`] qualifies). Endpoint range and
    /// self-loop checks still run; debug builds additionally re-run the
    /// full duplicate scan, so a generator bug cannot silently produce
    /// a multigraph in tests.
    ///
    /// On a million-edge graph this skips the hash table that otherwise
    /// dominates construction time and transient memory.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if an endpoint is out of range or an edge
    /// is a self-loop.
    pub fn build_unchecked(&self) -> Result<WeightedGraph, GraphError> {
        self.build_inner(cfg!(debug_assertions))
    }

    fn build_inner(&self, check_dups: bool) -> Result<WeightedGraph, GraphError> {
        let n = self.n;
        let mut seen: HashMap<(usize, usize), ()> = if check_dups {
            HashMap::with_capacity(self.edges.len())
        } else {
            HashMap::new()
        };
        let mut edges = Vec::with_capacity(self.edges.len());
        for &(u, v, w) in &self.edges {
            if u >= n {
                return Err(GraphError::NodeOutOfRange { node: u, n });
            }
            if v >= n {
                return Err(GraphError::NodeOutOfRange { node: v, n });
            }
            if u == v {
                return Err(GraphError::SelfLoop { node: u });
            }
            let key = (u.min(v), u.max(v));
            if check_dups && seen.insert(key, ()).is_some() {
                return Err(GraphError::DuplicateEdge { u: key.0, v: key.1 });
            }
            edges.push(Edge {
                u: NodeId::new(key.0),
                v: NodeId::new(key.1),
                weight: Weight::new(w),
            });
        }
        // Directed-edge positions are u32 offsets: 2m must fit.
        assert!(
            edges.len() <= (u32::MAX / 2) as usize,
            "edge count {} exceeds the u32 CSR offset space",
            edges.len()
        );
        // CSR in two counting-sort passes: degree count + prefix sum,
        // then a stable fill in edge-insertion order (so per-vertex
        // incident order matches the historical Vec-per-vertex layout).
        let mut adj_off = vec![0u32; n + 1];
        for e in &edges {
            adj_off[e.u.index() + 1] += 1;
            adj_off[e.v.index() + 1] += 1;
        }
        for i in 0..n {
            adj_off[i + 1] += adj_off[i];
        }
        let mut cursor: Vec<u32> = adj_off[..n].to_vec();
        let mut adj = vec![EdgeId::new(0); 2 * edges.len()];
        for (i, e) in edges.iter().enumerate() {
            let eid = EdgeId::new(i);
            for v in [e.u, e.v] {
                let c = &mut cursor[v.index()];
                adj[*c as usize] = eid;
                *c += 1;
            }
        }
        Ok(WeightedGraph {
            n,
            edges,
            adj_off,
            adj,
        })
    }
}

/// An immutable undirected weighted graph `G = (V, E, w)`.
///
/// Vertices are the dense range `0..n`; edges carry positive integer
/// weights. This is the communication-graph model of the paper: the weight
/// of an edge is simultaneously the *cost* of sending one message across it
/// and its worst-case *delay*.
///
/// Adjacency is CSR: `adj[adj_off[v]..adj_off[v+1]]` are the edge ids
/// incident to `v`, in edge-insertion order (see the [module
/// docs](self) for the layout and its limits).
#[derive(Clone, Debug)]
pub struct WeightedGraph {
    n: usize,
    edges: Vec<Edge>,
    /// `n + 1` prefix offsets into [`WeightedGraph::adj`].
    adj_off: Vec<u32>,
    /// `2m` incident edge ids, grouped by vertex.
    adj: Vec<EdgeId>,
}

impl WeightedGraph {
    /// Number of vertices `n = |V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of edges `m = |E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterates over all vertices.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n).map(NodeId::new)
    }

    /// Iterates over all edge identifiers.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len()).map(EdgeId::new)
    }

    /// Iterates over all edges.
    pub fn edges(&self) -> impl Iterator<Item = &Edge> + '_ {
        self.edges.iter()
    }

    /// The edge with the given identifier.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.index()]
    }

    /// The weight of edge `e`.
    #[inline]
    pub fn weight(&self, e: EdgeId) -> Weight {
        self.edges[e.index()].weight
    }

    /// Edges incident to `v`, in edge-insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn incident(&self, v: NodeId) -> &[EdgeId] {
        let i = v.index();
        &self.adj[self.adj_off[i] as usize..self.adj_off[i + 1] as usize]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let i = v.index();
        (self.adj_off[i + 1] - self.adj_off[i]) as usize
    }

    /// Iterates over `(neighbor, edge id, weight)` triples around `v`.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId, Weight)> + '_ {
        self.incident(v).iter().map(move |&eid| {
            let e = &self.edges[eid.index()];
            (e.other(v), eid, e.weight)
        })
    }

    /// Looks up the edge between `u` and `v`, if any.
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.incident(a)
            .iter()
            .copied()
            .find(|&eid| self.edges[eid.index()].other(a) == b)
    }

    /// Heap bytes of the graph's three flat arrays (edge table, CSR
    /// offsets, CSR incident ids) — the `bytes/vertex` numerator
    /// `bench_all` reports as `graph.bytes_per_vertex`. Capacity slack
    /// is excluded: this is the steady-state footprint of the layout,
    /// not of the builder.
    pub fn memory_bytes(&self) -> usize {
        self.edges.len() * std::mem::size_of::<Edge>()
            + self.adj_off.len() * std::mem::size_of::<u32>()
            + self.adj.len() * std::mem::size_of::<EdgeId>()
    }

    /// Total weight `w(G) = Σ_e w(e)` — the paper's `Ê`.
    pub fn total_weight(&self) -> Cost {
        self.edges.iter().map(|e| e.weight.to_cost()).sum()
    }

    /// Maximum edge weight `W`.
    ///
    /// Returns [`Weight::ONE`] for an edgeless graph.
    pub fn max_weight(&self) -> Weight {
        self.edges
            .iter()
            .map(|e| e.weight)
            .max()
            .unwrap_or(Weight::ONE)
    }

    /// Whether all edge weights are powers of two — a *normalized* network
    /// in the sense of Definition 4.3.
    pub fn is_normalized(&self) -> bool {
        self.edges.iter().all(|e| e.weight.is_power_of_two())
    }

    /// Returns the normalized network `Ĝ(V, E, ŵ)` of Lemma 4.5 Step 2:
    /// every weight replaced by `power(w)`, the smallest power of two ≥ w.
    pub fn normalized(&self) -> WeightedGraph {
        let mut g = self.clone();
        for e in &mut g.edges {
            e.weight = e.weight.next_power_of_two();
        }
        g
    }

    /// Builds the subgraph induced by keeping only edges satisfying `keep`,
    /// over the same vertex set.
    pub fn edge_subgraph<F: FnMut(EdgeId, &Edge) -> bool>(&self, mut keep: F) -> WeightedGraph {
        let mut b = GraphBuilder::new(self.n);
        for (i, e) in self.edges.iter().enumerate() {
            let eid = EdgeId::new(i);
            if keep(eid, e) {
                b.edge(e.u.index(), e.v.index(), e.weight.get());
            }
        }
        b.build().expect("edge subgraph of a valid graph is valid")
    }

    /// Renders the graph in Graphviz DOT format, optionally highlighting
    /// a set of edges (e.g. a spanning tree) with bold strokes.
    ///
    /// # Example
    ///
    /// ```
    /// use csp_graph::GraphBuilder;
    /// let mut b = GraphBuilder::new(2);
    /// b.edge(0, 1, 3);
    /// let g = b.build()?;
    /// let dot = g.to_dot(&[]);
    /// assert!(dot.contains("v0 -- v1"));
    /// # Ok::<(), csp_graph::GraphError>(())
    /// ```
    pub fn to_dot(&self, highlight: &[EdgeId]) -> String {
        use std::fmt::Write as _;
        let bold: std::collections::HashSet<EdgeId> = highlight.iter().copied().collect();
        let mut out = String::from("graph G {\n  node [shape=circle];\n");
        for (i, e) in self.edges.iter().enumerate() {
            let eid = EdgeId::new(i);
            let style = if bold.contains(&eid) {
                ", penwidth=3, color=black"
            } else {
                ", color=gray"
            };
            writeln!(
                out,
                "  v{} -- v{} [label=\"{}\"{}];",
                e.u.index(),
                e.v.index(),
                e.weight,
                style
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}\n");
        out
    }

    /// Asserts that `v` is a vertex of this graph.
    ///
    /// # Panics
    ///
    /// Panics if `v.index() >= n`.
    #[inline]
    pub fn check_node(&self, v: NodeId) {
        assert!(
            v.index() < self.n,
            "{v} out of range for graph with {} nodes",
            self.n
        );
    }
}

impl fmt::Display for WeightedGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "WeightedGraph(n={}, m={}, Ê={})",
            self.n,
            self.edges.len(),
            self.total_weight()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> WeightedGraph {
        let mut b = GraphBuilder::new(3);
        b.edge(0, 1, 1).edge(1, 2, 2).edge(2, 0, 4);
        b.build().unwrap()
    }

    #[test]
    fn counts_and_weights() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.total_weight(), Cost::new(7));
        assert_eq!(g.max_weight(), Weight::new(4));
    }

    #[test]
    fn adjacency_is_symmetric() {
        let g = triangle();
        for e in g.edges() {
            let (u, v) = e.endpoints();
            assert!(g.neighbors(u).any(|(x, _, _)| x == v));
            assert!(g.neighbors(v).any(|(x, _, _)| x == u));
        }
    }

    #[test]
    fn edge_between_finds_and_misses() {
        let mut b = GraphBuilder::new(4);
        b.edge(0, 1, 1).edge(2, 3, 1);
        let g = b.build().unwrap();
        assert!(g.edge_between(NodeId::new(0), NodeId::new(1)).is_some());
        assert!(g.edge_between(NodeId::new(1), NodeId::new(0)).is_some());
        assert!(g.edge_between(NodeId::new(0), NodeId::new(2)).is_none());
    }

    #[test]
    fn builder_rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        b.edge(0, 5, 1);
        assert_eq!(
            b.build().unwrap_err(),
            GraphError::NodeOutOfRange { node: 5, n: 2 }
        );
    }

    #[test]
    fn builder_rejects_self_loop() {
        let mut b = GraphBuilder::new(2);
        b.edge(1, 1, 1);
        assert_eq!(b.build().unwrap_err(), GraphError::SelfLoop { node: 1 });
    }

    #[test]
    fn builder_rejects_duplicate_even_reversed() {
        let mut b = GraphBuilder::new(3);
        b.edge(0, 1, 1).edge(1, 0, 9);
        assert_eq!(
            b.build().unwrap_err(),
            GraphError::DuplicateEdge { u: 0, v: 1 }
        );
    }

    #[test]
    fn normalization_rounds_to_powers_of_two() {
        let mut b = GraphBuilder::new(2);
        b.edge(0, 1, 5);
        let g = b.build().unwrap();
        assert!(!g.is_normalized());
        let gn = g.normalized();
        assert!(gn.is_normalized());
        assert_eq!(gn.weight(EdgeId::new(0)), Weight::new(8));
    }

    #[test]
    fn triangle_is_already_normalized() {
        // 1, 2, 4 are all powers of two.
        assert!(triangle().is_normalized());
    }

    #[test]
    fn edge_subgraph_filters() {
        let g = triangle();
        let sub = g.edge_subgraph(|_, e| e.weight() <= Weight::new(2));
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 2);
        assert_eq!(sub.total_weight(), Cost::new(3));
    }

    #[test]
    fn edge_other_endpoint() {
        let g = triangle();
        let e = g.edge(EdgeId::new(0));
        assert_eq!(e.other(NodeId::new(0)), NodeId::new(1));
        assert_eq!(e.other(NodeId::new(1)), NodeId::new(0));
    }

    #[test]
    #[should_panic(expected = "is not an endpoint")]
    fn edge_other_panics_for_non_endpoint() {
        let g = triangle();
        let _ = g.edge(EdgeId::new(0)).other(NodeId::new(2));
    }

    #[test]
    fn display_summary() {
        let g = triangle();
        assert_eq!(g.to_string(), "WeightedGraph(n=3, m=3, Ê=7)");
    }

    #[test]
    fn dot_export_highlights() {
        let g = triangle();
        let dot = g.to_dot(&[EdgeId::new(1)]);
        assert!(dot.starts_with("graph G {"));
        assert_eq!(dot.matches("penwidth=3").count(), 1);
        assert_eq!(dot.matches(" -- ").count(), 3);
        assert!(dot.contains("label=\"2\""));
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build().unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.total_weight(), Cost::ZERO);
    }

    #[test]
    fn csr_incident_order_matches_insertion_order() {
        // The CSR fill must be stable: each vertex's incident list is
        // its edges in insertion order, exactly like the historical
        // Vec-per-vertex layout (protocol traces depend on this order).
        let mut b = GraphBuilder::new(5);
        b.edge(0, 1, 1)
            .edge(2, 0, 2)
            .edge(3, 4, 3)
            .edge(0, 3, 4)
            .edge(1, 2, 5);
        let g = b.build().unwrap();
        let mut reference = vec![Vec::new(); 5];
        for (i, e) in g.edges().enumerate() {
            reference[e.u().index()].push(EdgeId::new(i));
            reference[e.v().index()].push(EdgeId::new(i));
        }
        for v in g.nodes() {
            assert_eq!(g.incident(v), reference[v.index()].as_slice(), "{v}");
            assert_eq!(g.degree(v), reference[v.index()].len());
        }
    }

    #[test]
    fn build_unchecked_matches_checked_build() {
        let mut b = GraphBuilder::new(4);
        b.edge(0, 1, 3).edge(1, 2, 1).edge(2, 3, 2).edge(3, 0, 9);
        let checked = b.build().unwrap();
        let fast = b.build_unchecked().unwrap();
        assert_eq!(fast.node_count(), checked.node_count());
        assert_eq!(fast.edge_count(), checked.edge_count());
        for v in fast.nodes() {
            assert_eq!(fast.incident(v), checked.incident(v));
        }
    }

    #[test]
    fn build_unchecked_still_validates_range_and_loops() {
        let mut b = GraphBuilder::new(2);
        b.edge(0, 7, 1);
        assert_eq!(
            b.build_unchecked().unwrap_err(),
            GraphError::NodeOutOfRange { node: 7, n: 2 }
        );
        let mut b = GraphBuilder::new(2);
        b.edge(1, 1, 1);
        assert_eq!(
            b.build_unchecked().unwrap_err(),
            GraphError::SelfLoop { node: 1 }
        );
    }

    #[test]
    fn memory_bytes_counts_the_flat_arrays() {
        let g = triangle();
        // 3 edges × 16 B + 4 offsets × 4 B + 6 incident ids × 4 B.
        let expected = 3 * std::mem::size_of::<Edge>() + 4 * 4 + 6 * 4;
        assert_eq!(g.memory_bytes(), expected);
    }
}
