//! Clusters, covers and the Awerbuch–Peleg cover coarsening.
//!
//! Section 1.2 of the paper defines: a *cluster* is a vertex set `S` whose
//! induced subgraph `G(S)` is connected; its *radius* is
//! `Rad(S) = min_{v∈S} max_{w∈S} dist(v, w, G(S))`; a *cover* is a
//! collection of clusters whose union is `V`; the *degree* of a vertex in
//! a cover is the number of clusters containing it.
//!
//! Theorem 1.1 (\[AP91]) takes an initial cover `S` and a parameter `k ≥ 1`
//! and produces a cover `T` that (1) subsumes `S`, (2) has
//! `Rad(T) ≤ (2k−1)·Rad(S)` and (3) has maximum degree
//! `Δ(T) = O(k·|S|^{1/k})`. [`coarsen`] implements the construction.
//!
//! [`tree_edge_cover`] instantiates it per Lemma 3.2: starting from the
//! cover of all neighbor shortest paths with `k = log n`, it yields the
//! collection of trees used by clock synchronizer γ\* (Definition 3.1).

use crate::algo::distances;
use crate::graph::WeightedGraph;
use crate::ids::NodeId;
use crate::tree::RootedTree;
use crate::weight::{Cost, Weight};
use std::collections::BTreeSet;
use std::fmt;

/// A cluster: a vertex set inducing a connected subgraph.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Cluster {
    /// Sorted member vertices.
    members: Vec<NodeId>,
}

impl Cluster {
    /// Creates a cluster from a vertex set.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or the induced subgraph `G(S)` is
    /// disconnected.
    pub fn new(g: &WeightedGraph, members: impl IntoIterator<Item = NodeId>) -> Self {
        let set: BTreeSet<NodeId> = members.into_iter().collect();
        assert!(!set.is_empty(), "cluster must be nonempty");
        let members: Vec<NodeId> = set.into_iter().collect();
        let cluster = Cluster { members };
        assert!(
            cluster.is_connected(g),
            "cluster must induce a connected subgraph"
        );
        cluster
    }

    /// Member vertices in sorted order.
    #[inline]
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the cluster is a single vertex.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false // a cluster is never empty by construction
    }

    /// Whether `v` belongs to the cluster.
    pub fn contains(&self, v: NodeId) -> bool {
        self.members.binary_search(&v).is_ok()
    }

    /// Whether this cluster is a subset of `other`.
    pub fn is_subset_of(&self, other: &Cluster) -> bool {
        self.members.iter().all(|&v| other.contains(v))
    }

    /// The induced subgraph `G(S)` over the full vertex universe (vertices
    /// outside the cluster are isolated).
    pub fn induced_subgraph(&self, g: &WeightedGraph) -> WeightedGraph {
        let mut member = vec![false; g.node_count()];
        for &v in &self.members {
            member[v.index()] = true;
        }
        g.edge_subgraph(|_, e| member[e.u().index()] && member[e.v().index()])
    }

    fn is_connected(&self, g: &WeightedGraph) -> bool {
        let sub = self.induced_subgraph(g);
        let d = crate::algo::hop_distances(&sub, self.members[0]);
        self.members.iter().all(|&v| d[v.index()].is_some())
    }

    /// `Rad(S)` and a realizing center: the vertex minimizing eccentricity
    /// inside `G(S)`.
    pub fn radius_and_center(&self, g: &WeightedGraph) -> (Cost, NodeId) {
        let sub = self.induced_subgraph(g);
        let mut best = (Cost::INFINITY, self.members[0]);
        for &c in &self.members {
            let dist = distances(&sub, c);
            let ecc = self
                .members
                .iter()
                .map(|&v| dist[v.index()])
                .max()
                .expect("cluster nonempty");
            if ecc < best.0 {
                best = (ecc, c);
            }
        }
        best
    }

    /// A shortest-path spanning tree of `G(S)` rooted at the cluster
    /// center (used to build the trees of a tree edge-cover).
    pub fn center_tree(&self, g: &WeightedGraph) -> RootedTree {
        let (_, center) = self.radius_and_center(g);
        let sub = self.induced_subgraph(g);
        crate::algo::shortest_path_tree(&sub, center)
    }
}

impl fmt::Display for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cluster({} vertices)", self.members.len())
    }
}

/// A cover: a collection of clusters whose union is the vertex set.
#[derive(Clone, Debug)]
pub struct Cover {
    clusters: Vec<Cluster>,
}

impl Cover {
    /// Creates a cover from clusters.
    ///
    /// # Panics
    ///
    /// Panics if the clusters do not jointly cover all `n` vertices of `g`.
    pub fn new(g: &WeightedGraph, clusters: Vec<Cluster>) -> Self {
        let mut covered = vec![false; g.node_count()];
        for c in &clusters {
            for &v in c.members() {
                covered[v.index()] = true;
            }
        }
        assert!(
            covered.iter().all(|&c| c),
            "clusters must cover every vertex"
        );
        Cover { clusters }
    }

    /// The clusters.
    #[inline]
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// Number of clusters `|S|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether the cover has no clusters (never true for a valid cover of
    /// a nonempty graph).
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// `Rad(S) = max_i Rad(S_i)`.
    pub fn radius(&self, g: &WeightedGraph) -> Cost {
        self.clusters
            .iter()
            .map(|c| c.radius_and_center(g).0)
            .max()
            .unwrap_or(Cost::ZERO)
    }

    /// `Δ(S) = max_v deg_S(v)`: the maximum number of clusters sharing a
    /// vertex.
    pub fn max_degree(&self, n: usize) -> usize {
        let mut deg = vec![0usize; n];
        for c in &self.clusters {
            for &v in c.members() {
                deg[v.index()] += 1;
            }
        }
        deg.into_iter().max().unwrap_or(0)
    }

    /// Whether `self` subsumes `other`: every cluster of `other` is
    /// contained in some cluster of `self`.
    pub fn subsumes(&self, other: &Cover) -> bool {
        other
            .clusters
            .iter()
            .all(|s| self.clusters.iter().any(|t| s.is_subset_of(t)))
    }

    /// The trivial cover of singletons.
    pub fn singletons(g: &WeightedGraph) -> Cover {
        let clusters = g.nodes().map(|v| Cluster { members: vec![v] }).collect();
        Cover { clusters }
    }

    /// The cover `{Path(u, v, G) : (u, v) ∈ E}` of all neighbor shortest
    /// paths — the initial cover of Lemma 3.2. Its radius is at most `d`,
    /// the maximum distance between neighbors.
    ///
    /// # Panics
    ///
    /// Panics if `g` is disconnected (a shortest path between some edge's
    /// endpoints would be undefined) or has no edges.
    pub fn neighbor_paths(g: &WeightedGraph) -> Cover {
        assert!(g.edge_count() > 0, "neighbor-path cover needs edges");
        let mut clusters = Vec::with_capacity(g.edge_count());
        for e in g.edges() {
            let (u, v) = e.endpoints();
            let path = crate::algo::shortest_path(g, u, v)
                .expect("graph must be connected for the neighbor-path cover");
            clusters.push(Cluster::new(g, path));
        }
        Cover { clusters }
    }
}

impl fmt::Display for Cover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cover({} clusters)", self.clusters.len())
    }
}

/// Cover coarsening — Theorem 1.1 of the paper (\[AP91]).
///
/// Given an initial cover `S` and `k ≥ 1`, constructs a cover `T` with
///
/// 1. `T` subsumes `S`,
/// 2. `Rad(T) ≤ (2k + 1)·Rad(S)`, and
/// 3. small maximum degree — `Δ(T) = O(k·|S|^{1/k})` in the regimes the
///    paper uses (`k = log n`), and never more than `Δ(S)`.
///
/// The construction repeatedly picks an unprocessed cluster and grows a
/// merged cluster around it layer by layer (each layer absorbs every
/// remaining cluster intersecting the current kernel), stopping as soon as
/// a layer fails to multiply the kernel size by `|S|^{1/k}`; the merged
/// clusters are retired and their union emitted.
///
/// The paper quotes the radius constant `(2k − 1)` from \[AP91]; the
/// published layer-growing construction implemented here provably achieves
/// `(2k + 1)` — the kernel grows at most `k − 1` times (each growth
/// multiplies its size by more than `|S|^{1/k}`), adding `2·Rad(S)` per
/// layer plus a final boundary layer. The two-unit constant gap is
/// immaterial to every asymptotic statement in the paper, and the tests
/// additionally record that measured radii sit well below either bound.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn coarsen(g: &WeightedGraph, initial: &Cover, k: usize) -> Cover {
    assert!(k >= 1, "coarsening parameter k must be at least 1");
    let s_total = initial.len();
    let growth = (s_total.max(1) as f64).powf(1.0 / k as f64);
    let n = g.node_count();

    // remaining[i]: cluster i not yet retired.
    let mut remaining: Vec<bool> = vec![true; s_total];
    // For the intersection queries: vertex -> clusters containing it.
    let mut clusters_of: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, c) in initial.clusters().iter().enumerate() {
        for &v in c.members() {
            clusters_of[v.index()].push(i);
        }
    }

    let mut output: Vec<Cluster> = Vec::new();
    let mut remaining_count = s_total;
    let mut cursor = 0usize;
    while remaining_count > 0 {
        // Select an arbitrary remaining cluster.
        while !remaining[cursor] {
            cursor += 1;
        }
        let seed = cursor;

        // Kernel Y (cluster indices) and its vertex set.
        let mut kernel: Vec<usize> = vec![seed];
        let mut in_kernel_cluster = vec![false; s_total];
        in_kernel_cluster[seed] = true;
        let mut kernel_vertices = vec![false; n];
        for &v in initial.clusters()[seed].members() {
            kernel_vertices[v.index()] = true;
        }

        loop {
            // Z = all remaining clusters intersecting the kernel vertices.
            let mut layer: Vec<usize> = Vec::new();
            let mut in_layer = in_kernel_cluster.clone();
            for v in 0..n {
                if !kernel_vertices[v] {
                    continue;
                }
                for &ci in &clusters_of[v] {
                    if remaining[ci] && !in_layer[ci] {
                        in_layer[ci] = true;
                        layer.push(ci);
                    }
                }
            }
            let z_size = kernel.len() + layer.len();
            if (z_size as f64) <= growth * kernel.len() as f64 {
                // Growth stalled: emit union of Z = kernel ∪ layer and
                // retire every merged cluster (subsumption: each retired
                // cluster is inside the emitted union).
                let mut member_set = BTreeSet::new();
                for &ci in kernel.iter().chain(layer.iter()) {
                    member_set.extend(initial.clusters()[ci].members().iter().copied());
                }
                output.push(Cluster {
                    members: member_set.into_iter().collect(),
                });
                for &ci in kernel.iter().chain(layer.iter()) {
                    if remaining[ci] {
                        remaining[ci] = false;
                        remaining_count -= 1;
                    }
                }
                break;
            }
            // Absorb the layer into the kernel and grow again.
            for &ci in &layer {
                in_kernel_cluster[ci] = true;
                for &v in initial.clusters()[ci].members() {
                    kernel_vertices[v.index()] = true;
                }
            }
            kernel.extend(layer);
        }
    }
    Cover::new(g, output)
}

/// A tree edge-cover (Definition 3.1): a collection of trees such that
///
/// 1. every graph edge appears in at most `O(log n)` trees,
/// 2. every tree has weighted depth `O(d·log n)`, and
/// 3. for every graph edge, some tree contains both endpoints.
#[derive(Clone, Debug)]
pub struct TreeEdgeCover {
    /// The cluster trees (shortest-path trees of the coarsened clusters).
    pub trees: Vec<RootedTree>,
    /// For each graph edge, the index of one tree containing both
    /// endpoints.
    pub home_tree: Vec<usize>,
}

impl TreeEdgeCover {
    /// Maximum number of trees any single vertex belongs to.
    pub fn max_vertex_degree(&self) -> usize {
        let n = self.trees.first().map(RootedTree::universe).unwrap_or(0);
        let mut deg = vec![0usize; n];
        for t in &self.trees {
            for v in t.members() {
                deg[v.index()] += 1;
            }
        }
        deg.into_iter().max().unwrap_or(0)
    }

    /// Maximum weighted tree depth across the cover.
    pub fn max_depth(&self) -> Cost {
        self.trees
            .iter()
            .map(RootedTree::height)
            .max()
            .unwrap_or(Cost::ZERO)
    }
}

/// Builds a tree edge-cover per Lemma 3.2: coarsen the neighbor-path cover
/// with `k = ⌈log₂ n⌉` and take the center shortest-path tree of each
/// output cluster.
///
/// # Panics
///
/// Panics if `g` is disconnected or has no edges.
pub fn tree_edge_cover(g: &WeightedGraph) -> TreeEdgeCover {
    let initial = Cover::neighbor_paths(g);
    let k = (g.node_count().max(2) as f64).log2().ceil() as usize;
    let coarse = coarsen(g, &initial, k.max(1));
    let trees: Vec<RootedTree> = coarse.clusters().iter().map(|c| c.center_tree(g)).collect();
    let home_tree = g
        .edges()
        .map(|e| {
            let (u, v) = e.endpoints();
            trees
                .iter()
                .position(|t| t.contains(u) && t.contains(v))
                .expect("coarsened cover subsumes every neighbor path")
        })
        .collect();
    TreeEdgeCover { trees, home_tree }
}

/// A disjoint partition of (a subgraph's) vertices into clusters, with a
/// rooted spanning tree per cluster and one *preferred edge* between each
/// pair of adjacent clusters — the structure synchronizer γ of \[Awe85a]
/// runs on.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Cluster index of each vertex.
    pub cluster_of: Vec<usize>,
    /// Member lists per cluster.
    pub clusters: Vec<Vec<NodeId>>,
    /// BFS spanning tree of each cluster (rooted at the cluster seed,
    /// which acts as the leader).
    pub trees: Vec<RootedTree>,
    /// One preferred edge per adjacent cluster pair:
    /// `(edge, cluster a, cluster b)`.
    pub preferred: Vec<(crate::ids::EdgeId, usize, usize)>,
}

impl Partition {
    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether the partition is empty (only for empty graphs).
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Maximum hop depth over all cluster trees.
    pub fn max_tree_depth(&self) -> usize {
        self.trees
            .iter()
            .map(|t| t.members().map(|v| t.hop_depth(v)).max().unwrap_or(0))
            .max()
            .unwrap_or(0)
    }
}

/// Awerbuch's ball-growing partition (\[Awe85a], the preprocessing of
/// synchronizer γ), applied to `g` (typically a subgraph: vertices with
/// no edges become singleton clusters).
///
/// Repeatedly grows a BFS ball around an unassigned seed while the next
/// layer would multiply the ball's size by more than `k`; this bounds
/// every cluster tree's hop depth by `log_k n` while keeping the number
/// of inter-cluster edge *pairs* at most `k·n` — the communication/time
/// trade-off knob of the synchronizer.
///
/// # Panics
///
/// Panics if `k < 2`.
pub fn ball_partition(g: &WeightedGraph, k: usize) -> Partition {
    assert!(k >= 2, "partition parameter k must be at least 2");
    let n = g.node_count();
    let mut cluster_of = vec![usize::MAX; n];
    let mut clusters: Vec<Vec<NodeId>> = Vec::new();
    let mut trees: Vec<RootedTree> = Vec::new();

    for seed in 0..n {
        if cluster_of[seed] != usize::MAX {
            continue;
        }
        let c = clusters.len();
        let seed_id = NodeId::new(seed);
        let mut tree = RootedTree::new(n, seed_id);
        let mut ball = vec![seed_id];
        cluster_of[seed] = c;
        let mut frontier = vec![seed_id];
        loop {
            // Next BFS layer of unassigned vertices.
            let mut layer: Vec<(NodeId, NodeId, crate::ids::EdgeId, crate::weight::Weight)> =
                Vec::new();
            let mut in_layer = vec![false; n];
            for &v in &frontier {
                for (u, eid, w) in g.neighbors(v) {
                    if cluster_of[u.index()] == usize::MAX && !in_layer[u.index()] {
                        in_layer[u.index()] = true;
                        layer.push((u, v, eid, w));
                    }
                }
            }
            if layer.is_empty() || ball.len() + layer.len() <= k * ball.len() {
                // Growth stalled (or nothing left): absorb the final layer
                // and close the cluster.
                for &(u, p, eid, w) in &layer {
                    cluster_of[u.index()] = c;
                    tree.attach_via(u, p, eid, w);
                    ball.push(u);
                }
                break;
            }
            for &(u, p, eid, w) in &layer {
                cluster_of[u.index()] = c;
                tree.attach_via(u, p, eid, w);
                ball.push(u);
            }
            frontier = layer.into_iter().map(|(u, _, _, _)| u).collect();
        }
        clusters.push(ball);
        trees.push(tree);
    }

    // One preferred edge (smallest id) per adjacent cluster pair.
    let mut preferred_map: std::collections::HashMap<(usize, usize), crate::ids::EdgeId> =
        std::collections::HashMap::new();
    for e in g.edge_ids() {
        let (u, v) = g.edge(e).endpoints();
        let (a, b) = (cluster_of[u.index()], cluster_of[v.index()]);
        if a == b {
            continue;
        }
        let key = (a.min(b), a.max(b));
        preferred_map.entry(key).or_insert(e);
    }
    let mut preferred: Vec<(crate::ids::EdgeId, usize, usize)> = preferred_map
        .into_iter()
        .map(|((a, b), e)| (e, a, b))
        .collect();
    preferred.sort_by_key(|&(e, _, _)| e);

    Partition {
        cluster_of,
        clusters,
        trees,
        preferred,
    }
}

/// A disjoint assignment of every vertex to one of `shards` *shards* —
/// the unit of parallelism for `csp-sim`'s sharded executor. Unlike a
/// [`Cover`] (whose clusters overlap) and a [`Partition`] (whose cluster
/// count is emergent), a shard plan has a *fixed* shard count and every
/// vertex belongs to exactly one shard; empty shards are legal (they
/// simply idle).
///
/// The plan only affects *load balance*, never results: the sharded
/// executor is bit-identical to the sequential core under any
/// assignment, so all constructors here are deterministic, pure
/// functions of their inputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    /// Shard index of each vertex.
    shard_of: Vec<u32>,
    /// Number of shards (≥ 1); indices in `shard_of` are `< shards`.
    shards: usize,
}

/// Inter-shard cut statistics of a [`ShardPlan`] over a graph — the
/// quantities the conservative-parallel executor reasons about: how many
/// edges cross shards (cross-shard traffic volume) and the minimum
/// crossing weight (the classic conservative-PDES lookahead bound under
/// worst-case delays, where a message over edge `e` takes exactly
/// `w(e)` ticks).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CutStats {
    /// Number of edges whose endpoints live in different shards.
    pub cut_edges: usize,
    /// Minimum weight over the cut edges (`None` when no edge crosses —
    /// the shards are fully independent).
    pub min_cut_weight: Option<Weight>,
}

impl CutStats {
    /// The worst-case-delay lookahead the cut admits: the minimum cut
    /// weight, or `u64::MAX` when nothing crosses. Under arbitrary
    /// (adversarial) delays the sound bound degrades to the 1-tick
    /// quantization floor — see the sharded executor's docs.
    pub fn worst_case_lookahead(&self) -> u64 {
        self.min_cut_weight.map_or(u64::MAX, Weight::get)
    }
}

impl ShardPlan {
    /// Largest vertex count for which [`ShardPlan::derive`] attempts the
    /// cover-coarsening partition; above it, building a cover is far more
    /// expensive than the simulation it would balance, so `derive` goes
    /// straight to contiguous CSR ranges.
    pub const COVER_DERIVE_MAX_N: usize = 4096;

    /// Number of shards (≥ 1).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Shard of vertex `v`.
    #[inline]
    pub fn shard_of(&self, v: NodeId) -> usize {
        self.shard_of[v.index()] as usize
    }

    /// The raw vertex→shard assignment, indexed by vertex.
    pub fn assignment(&self) -> &[u32] {
        &self.shard_of
    }

    /// Vertex count per shard.
    pub fn shard_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.shards];
        for &s in &self.shard_of {
            sizes[s as usize] += 1;
        }
        sizes
    }

    /// Wraps an explicit vertex→shard assignment. Any total assignment
    /// is a valid plan — balance affects only speed, never the simulated
    /// execution — so empty shards are allowed.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or any entry is out of range.
    pub fn from_assignment(assignment: Vec<u32>, shards: usize) -> ShardPlan {
        assert!(shards >= 1, "a shard plan needs at least one shard");
        assert!(
            assignment.iter().all(|&s| (s as usize) < shards),
            "assignment references a shard out of range"
        );
        ShardPlan {
            shard_of: assignment,
            shards,
        }
    }

    /// Balanced contiguous ranges over the CSR vertex order: vertex `v`
    /// goes to shard `⌊v·shards/n⌋`, so shard sizes differ by at most
    /// one. The degenerate-cover fallback, and the only constructor that
    /// stays O(n) at million-node scale.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn contiguous(n: usize, shards: usize) -> ShardPlan {
        assert!(shards >= 1, "a shard plan needs at least one shard");
        ShardPlan {
            shard_of: (0..n).map(|v| (v * shards / n.max(1)) as u32).collect(),
            shards,
        }
    }

    /// Derives a disjoint plan from an (overlapping) [`Cover`]:
    ///
    /// 1. **Tie-break**: each vertex is owned by the lowest-index cluster
    ///    containing it (covers guarantee at least one).
    /// 2. **Packing**: clusters are ordered by owned size (largest
    ///    first, index ascending on ties) and greedily assigned to the
    ///    currently lightest shard (lowest index on ties).
    ///
    /// Both steps are deterministic, so the same cover always yields the
    /// same plan. Clusters that own no vertex after the tie-break are
    /// skipped.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`, or if the cover misses a vertex of `g`
    /// (impossible for covers built through [`Cover::new`]).
    pub fn from_cover(g: &WeightedGraph, cover: &Cover, shards: usize) -> ShardPlan {
        assert!(shards >= 1, "a shard plan needs at least one shard");
        let n = g.node_count();
        let mut owner = vec![usize::MAX; n];
        let mut owned = vec![0u64; cover.len()];
        for (ci, c) in cover.clusters().iter().enumerate() {
            for &v in c.members() {
                if owner[v.index()] == usize::MAX {
                    owner[v.index()] = ci;
                    owned[ci] += 1;
                }
            }
        }
        assert!(
            owner.iter().all(|&c| c != usize::MAX),
            "cover must contain every vertex"
        );

        let mut order: Vec<usize> = (0..cover.len()).filter(|&ci| owned[ci] > 0).collect();
        order.sort_by_key(|&ci| (std::cmp::Reverse(owned[ci]), ci));
        let mut shard_of_cluster = vec![0u32; cover.len()];
        let mut load = vec![0u64; shards];
        for ci in order {
            let lightest = (0..shards)
                .min_by_key(|&s| (load[s], s))
                .expect("shards ≥ 1");
            shard_of_cluster[ci] = lightest as u32;
            load[lightest] += owned[ci];
        }
        ShardPlan {
            shard_of: owner.into_iter().map(|ci| shard_of_cluster[ci]).collect(),
            shards,
        }
    }

    /// The default derivation: coarsen the singleton cover (Theorem 1.1
    /// with `k = 2` — cheap, locality-preserving balls) and pack the
    /// resulting clusters, falling back to [`ShardPlan::contiguous`]
    /// when the cover route is degenerate — fewer distinct clusters than
    /// shards (some shard would idle while others split the whole
    /// graph), or `n` past [`ShardPlan::COVER_DERIVE_MAX_N`] where cover
    /// construction would dwarf the run itself.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn derive(g: &WeightedGraph, shards: usize) -> ShardPlan {
        assert!(shards >= 1, "a shard plan needs at least one shard");
        let n = g.node_count();
        if shards == 1 || n <= 1 {
            return ShardPlan {
                shard_of: vec![0; n],
                shards,
            };
        }
        if n > Self::COVER_DERIVE_MAX_N {
            return Self::contiguous(n, shards);
        }
        let cover = coarsen(g, &Cover::singletons(g), 2);
        let plan = Self::from_cover(g, &cover, shards);
        // Degenerate cover: fewer populated shards than requested while
        // vertices would suffice — fall back to contiguous ranges.
        let populated = plan.shard_sizes().iter().filter(|&&s| s > 0).count();
        if populated < shards.min(n) {
            return Self::contiguous(n, shards);
        }
        plan
    }

    /// Inter-shard cut statistics of this plan over `g`: crossing-edge
    /// count and minimum crossing weight (the worst-case lookahead).
    pub fn cut(&self, g: &WeightedGraph) -> CutStats {
        let mut cut_edges = 0usize;
        let mut min_cut_weight: Option<Weight> = None;
        for e in g.edges() {
            let (u, v) = e.endpoints();
            if self.shard_of[u.index()] != self.shard_of[v.index()] {
                cut_edges += 1;
                let w = e.weight();
                min_cut_weight = Some(min_cut_weight.map_or(w, |m| m.min(w)));
            }
        }
        CutStats {
            cut_edges,
            min_cut_weight,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn grid_graph() -> WeightedGraph {
        generators::grid(4, 4, generators::WeightDist::Uniform(1, 4), 9)
    }

    #[test]
    fn cluster_validation() {
        let g = grid_graph();
        let c = Cluster::new(&g, [NodeId::new(0), NodeId::new(1), NodeId::new(2)]);
        assert_eq!(c.len(), 3);
        assert!(c.contains(NodeId::new(1)));
        assert!(!c.contains(NodeId::new(5)));
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn disconnected_cluster_rejected() {
        let g = grid_graph();
        // 0 and 15 are opposite corners, not adjacent.
        let _ = Cluster::new(&g, [NodeId::new(0), NodeId::new(15)]);
    }

    #[test]
    fn singleton_cover_properties() {
        let g = grid_graph();
        let s = Cover::singletons(&g);
        assert_eq!(s.len(), 16);
        assert_eq!(s.max_degree(16), 1);
        assert_eq!(s.radius(&g), Cost::ZERO);
    }

    #[test]
    fn neighbor_path_cover_radius_at_most_d() {
        let g = grid_graph();
        let p = crate::params::CostParams::of(&g);
        let cover = Cover::neighbor_paths(&g);
        assert_eq!(cover.len(), g.edge_count());
        assert!(cover.radius(&g) <= p.max_neighbor_distance);
    }

    #[test]
    fn coarsening_satisfies_theorem_1_1() {
        let g = grid_graph();
        for k in 1..=4 {
            let initial = Cover::neighbor_paths(&g);
            let rad_s = initial.radius(&g).max(Cost::new(1));
            let coarse = coarsen(&g, &initial, k);
            // (1) subsumption
            assert!(coarse.subsumes(&initial), "k={k}: no subsumption");
            // (2) radius bound — (2k+1)·Rad(S), see the `coarsen` docs for
            // why the implementable constant is +1 rather than the paper's
            // −1.
            let rad_t = coarse.radius(&g);
            let bound = rad_s * (2 * k as u128 + 1);
            assert!(
                rad_t <= bound,
                "k={k}: Rad(T)={rad_t} > (2k+1)Rad(S)={bound}"
            );
            // (3) degree bound with a small constant
            let s = initial.len() as f64;
            let deg_bound = (4.0 * k as f64 * s.powf(1.0 / k as f64)).ceil() as usize;
            let deg = coarse.max_degree(g.node_count());
            assert!(
                deg <= deg_bound,
                "k={k}: Δ(T)={deg} > 4k|S|^(1/k)={deg_bound}"
            );
        }
    }

    #[test]
    fn coarsen_with_k1_stops_after_one_layer() {
        // k = 1: the growth threshold |S| is never exceeded, so every
        // output is a seed cluster plus the clusters touching it —
        // radius at most 3·Rad(S).
        let g = grid_graph();
        let initial = Cover::neighbor_paths(&g);
        let rad_s = initial.radius(&g);
        let coarse = coarsen(&g, &initial, 1);
        assert!(coarse.subsumes(&initial));
        assert!(coarse.radius(&g) <= rad_s * 3);
    }

    #[test]
    fn tree_edge_cover_satisfies_definition_3_1() {
        let g = generators::heavy_chord_cycle(12, 200);
        let p = crate::params::CostParams::of(&g);
        let n = g.node_count();
        let log_n = (n as f64).log2().ceil();
        let cover = tree_edge_cover(&g);
        // (3) every edge has a home tree containing both endpoints
        assert_eq!(cover.home_tree.len(), g.edge_count());
        for (i, e) in g.edges().enumerate() {
            let t = &cover.trees[cover.home_tree[i]];
            assert!(t.contains(e.u()) && t.contains(e.v()));
        }
        // (2) depth O(d log n): allow constant 4
        let d = p.max_neighbor_distance.max(Cost::new(1));
        let depth_bound = d * (4.0 * log_n).ceil() as u128;
        assert!(
            cover.max_depth() <= depth_bound,
            "depth {} > 4·d·log n = {depth_bound}",
            cover.max_depth()
        );
        // (1) vertex degree O(log n): allow constant 6 (vertex degree
        // bounds edge sharing).
        let deg_bound = (6.0 * log_n).ceil() as usize;
        assert!(
            cover.max_vertex_degree() <= deg_bound.max(2),
            "degree {} > {deg_bound}",
            cover.max_vertex_degree()
        );
    }

    #[test]
    fn cover_subsumes_itself() {
        let g = grid_graph();
        let s = Cover::neighbor_paths(&g);
        assert!(s.subsumes(&s));
    }

    #[test]
    fn ball_partition_covers_disjointly() {
        let g = generators::connected_gnp(40, 0.1, generators::WeightDist::Uniform(1, 9), 13);
        for k in [2, 3, 8] {
            let p = ball_partition(&g, k);
            // Every vertex in exactly one cluster.
            let mut seen = [false; 40];
            for (ci, cl) in p.clusters.iter().enumerate() {
                for &v in cl {
                    assert!(!seen[v.index()], "vertex {v} in two clusters");
                    seen[v.index()] = true;
                    assert_eq!(p.cluster_of[v.index()], ci);
                }
            }
            assert!(seen.iter().all(|&s| s));
            // Tree depth ≤ log_k n + 1.
            let bound = ((40f64).log2() / (k as f64).log2()).ceil() as usize + 1;
            assert!(
                p.max_tree_depth() <= bound,
                "k={k}: depth {} > {bound}",
                p.max_tree_depth()
            );
        }
    }

    #[test]
    fn ball_partition_preferred_edges_connect_adjacent_clusters() {
        let g = generators::grid(5, 5, generators::WeightDist::Constant(2), 0);
        let p = ball_partition(&g, 2);
        for &(e, a, b) in &p.preferred {
            let (u, v) = g.edge(e).endpoints();
            let cu = p.cluster_of[u.index()];
            let cv = p.cluster_of[v.index()];
            assert_ne!(a, b);
            assert_eq!((cu.min(cv), cu.max(cv)), (a.min(b), a.max(b)));
        }
        // Pair count bounded by k·n.
        assert!(p.preferred.len() <= 2 * 25);
    }

    #[test]
    fn ball_partition_isolated_vertices_are_singletons() {
        let mut b = crate::graph::GraphBuilder::new(5);
        b.edge(0, 1, 1);
        let g = b.build().unwrap();
        let p = ball_partition(&g, 2);
        assert_eq!(p.len(), 4); // {0,1} plus three singletons
        assert!(p.preferred.is_empty());
    }

    #[test]
    fn ball_partition_large_k_swallows_a_complete_graph() {
        let g = generators::complete(10, |_, _| 3);
        let p = ball_partition(&g, 16);
        assert_eq!(p.len(), 1);
        assert!(p.trees[0].is_spanning());
    }

    #[test]
    fn ball_partition_on_cycle_makes_radius_one_balls() {
        // On a cycle every layer has 2 vertices, so growth stalls after
        // the first layer for any k ≥ 3: clusters of 3 consecutive
        // vertices (the tail may be smaller).
        let g = generators::cycle(10, |_| 3);
        let p = ball_partition(&g, 4);
        assert!(p.len() >= 3);
        assert!(p.max_tree_depth() <= 1);
    }

    #[test]
    #[should_panic(expected = "cover every vertex")]
    fn partial_cover_rejected() {
        let g = grid_graph();
        let c = Cluster::new(&g, [NodeId::new(0)]);
        let _ = Cover::new(&g, vec![c]);
    }

    #[test]
    fn contiguous_plan_is_balanced_and_total() {
        for (n, k) in [(10, 4), (16, 1), (3, 8), (1000, 7)] {
            let plan = ShardPlan::contiguous(n, k);
            assert_eq!(plan.shards(), k);
            assert_eq!(plan.assignment().len(), n);
            let sizes = plan.shard_sizes();
            assert_eq!(sizes.iter().sum::<usize>(), n);
            let (min, max) = (
                sizes.iter().filter(|&&s| s > 0).min().copied().unwrap_or(0),
                sizes.iter().max().copied().unwrap_or(0),
            );
            assert!(max - min <= 1, "n={n} k={k}: sizes {sizes:?}");
            // Contiguity: assignment is non-decreasing in vertex order.
            assert!(plan.assignment().windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn from_cover_is_disjoint_deterministic_and_packed() {
        let g = grid_graph();
        let cover = coarsen(&g, &Cover::singletons(&g), 2);
        let a = ShardPlan::from_cover(&g, &cover, 3);
        let b = ShardPlan::from_cover(&g, &cover, 3);
        assert_eq!(a, b, "same cover must give the same plan");
        assert_eq!(a.assignment().len(), 16);
        assert!(a.assignment().iter().all(|&s| (s as usize) < 3));
        // Overlapping vertices go to the lowest-index cluster: every
        // vertex in cluster 0 that no earlier cluster claims (there is
        // none earlier) maps to cluster 0's shard.
        let c0_shard = a.shard_of(cover.clusters()[0].members()[0]);
        for &v in cover.clusters()[0].members() {
            let first_cluster = cover.clusters().iter().position(|c| c.contains(v)).unwrap();
            if first_cluster == 0 {
                assert_eq!(a.shard_of(v), c0_shard);
            }
        }
    }

    #[test]
    fn derive_covers_all_vertices_and_falls_back_when_degenerate() {
        let g = grid_graph();
        let plan = ShardPlan::derive(&g, 4);
        assert_eq!(plan.shard_sizes().iter().sum::<usize>(), 16);
        assert_eq!(plan.shard_sizes().iter().filter(|&&s| s > 0).count(), 4);

        // Above COVER_DERIVE_MAX_N the cover machinery is too expensive;
        // derive switches to contiguous CSR ranges.
        let n = ShardPlan::COVER_DERIVE_MAX_N + 1;
        let big = generators::path(n, |_| 1);
        assert_eq!(ShardPlan::derive(&big, 4), ShardPlan::contiguous(n, 4));

        // shards == 1 short-circuits to the trivial plan.
        let one = ShardPlan::derive(&g, 1);
        assert!(one.assignment().iter().all(|&s| s == 0));
    }

    #[test]
    fn cut_stats_report_min_crossing_weight() {
        // Path 0-1-2-3 with weights 5, 1, 7; split {0,1} | {2,3}: the
        // only crossing edge is the 1-weight middle edge.
        let mut b = crate::graph::GraphBuilder::new(4);
        b.edge(0, 1, 5).edge(1, 2, 1).edge(2, 3, 7);
        let g = b.build().unwrap();
        let plan = ShardPlan::contiguous(4, 2);
        let cut = plan.cut(&g);
        assert_eq!(cut.cut_edges, 1);
        assert_eq!(cut.min_cut_weight, Some(Weight::new(1)));
        assert_eq!(cut.worst_case_lookahead(), 1);

        let solo = ShardPlan::contiguous(4, 1);
        let no_cut = solo.cut(&g);
        assert_eq!(no_cut.cut_edges, 0);
        assert_eq!(no_cut.min_cut_weight, None);
        assert_eq!(no_cut.worst_case_lookahead(), u64::MAX);
    }
}
