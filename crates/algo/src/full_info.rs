//! The full-information tree-growth engine shared by `MST_centr`
//! (Section 6.3) and `SPT_centr` (Section 6.4).
//!
//! Both algorithms grow a rooted tree one vertex per phase, maintaining
//! the invariant that *every tree vertex knows the structure of the whole
//! tree* (and, for SPT, every member's distance label). A phase is:
//!
//! 1. the root broadcasts `FindMin` down the tree;
//! 2. every member reports (convergecast) its best incident candidate
//!    edge to a non-member, ranked by the [`GrowthRule`];
//! 3. the root picks the global best, broadcasts `Add{new, host, dist}`
//!    (every member updates its tree copy), the host sends the new vertex
//!    a `Join` snapshot across the connecting edge, and a `PhaseDone`
//!    climbs back to the root, which starts the next phase.
//!
//! FIFO edge delivery guarantees the `Join` snapshot reaches the new
//! vertex before the next phase's `FindMin` passes through the same edge.
//!
//! Each phase costs `O(w(T))` communication, giving `O(n·w(T))` in total:
//! `O(n·V̂)` for MST (Corollary 6.4) and `O(n²·V̂)` for SPT via Fact 6.5
//! (Corollary 6.6).
//!
//! The `Join` snapshot is conceptually a long message; the paper's
//! full-information model charges it as a single transmission, and so do
//! we.

use crate::catalogue::Outcome;
use crate::util::tree_from_parents;
use csp_graph::{Cost, EdgeId, NodeId, RootedTree, WeightedGraph};
use csp_sim::{Context, CostReport, LinkOracle, Process, Run, SimError, Simulator};

/// Ranks candidate edges `(host ∈ T) —e→ (new ∉ T)`; the smallest key is
/// added each phase.
pub trait GrowthRule: Clone + std::fmt::Debug {
    /// `host_dist` is the host's tree distance label from the root;
    /// smaller keys win, and the edge id breaks ties deterministically.
    fn key(&self, host_dist: u128, edge_weight: u64, edge: EdgeId) -> (u128, usize);

    /// Distance label assigned to the new vertex when this edge is added.
    fn new_dist(&self, host_dist: u128, edge_weight: u64) -> u128;
}

/// Prim's rule: lightest outgoing edge (`MST_centr`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MstRule;

impl GrowthRule for MstRule {
    fn key(&self, _host_dist: u128, edge_weight: u64, edge: EdgeId) -> (u128, usize) {
        (edge_weight as u128, edge.index())
    }

    fn new_dist(&self, host_dist: u128, edge_weight: u64) -> u128 {
        // Maintained for reporting; MST selection ignores it.
        host_dist + edge_weight as u128
    }
}

/// Dijkstra's rule: smallest tentative distance (`SPT_centr`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SptRule;

impl GrowthRule for SptRule {
    fn key(&self, host_dist: u128, edge_weight: u64, edge: EdgeId) -> (u128, usize) {
        (host_dist + edge_weight as u128, edge.index())
    }

    fn new_dist(&self, host_dist: u128, edge_weight: u64) -> u128 {
        host_dist + edge_weight as u128
    }
}

/// A candidate edge reported during convergecast.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// Selection key (smaller wins).
    pub key: (u128, usize),
    /// The non-member endpoint.
    pub new: NodeId,
    /// The member endpoint.
    pub host: NodeId,
}

/// Messages of the growth engine.
#[derive(Clone, Debug)]
pub enum GrowMsg {
    /// Phase start, broadcast down the tree.
    FindMin,
    /// Convergecast of the subtree's best candidate.
    Report(Option<Candidate>),
    /// Phase outcome, broadcast down the tree.
    Add {
        /// The joining vertex.
        new: NodeId,
        /// The member it attaches under.
        host: NodeId,
        /// The new vertex's distance label.
        dist: u128,
    },
    /// Full tree snapshot handed to the joining vertex.
    Join {
        /// `(child, parent)` pairs of the current tree.
        edges: Vec<(NodeId, NodeId)>,
        /// Distance labels of all members (indexed by vertex).
        dists: Vec<u128>,
    },
    /// Phase-completion signal climbing to the root.
    PhaseDone,
}

/// Per-vertex state of the full-information growth engine.
#[derive(Clone, Debug)]
pub struct FullInfoGrowth<R> {
    rule: R,
    root: NodeId,
    member: bool,
    dist: u128,
    /// Known membership of all vertices (kept consistent by broadcasts).
    members: Vec<bool>,
    /// Distance labels of members.
    dists: Vec<u128>,
    /// Full tree copy: `(child, parent)` pairs.
    tree_edges: Vec<(NodeId, NodeId)>,
    /// Tree parent for the convergecast (`None` at the root).
    tree_parent: Option<NodeId>,
    /// Tree children.
    children: Vec<NodeId>,
    /// Convergecast countdown.
    pending: usize,
    /// Best candidate folded so far this phase.
    best: Option<Candidate>,
    /// At the root: growth finished.
    done: bool,
    /// Optional communication budget (root-side estimate).
    budget: Option<u128>,
    /// At the root: conservative estimate of communication spent so far.
    spent_estimate: u128,
    /// At the root: the budget was exceeded and growth suspended.
    exceeded: bool,
}

impl<R: GrowthRule> FullInfoGrowth<R> {
    /// Creates the per-vertex state for growth rooted at `root`.
    pub fn new(v: NodeId, g: &WeightedGraph, root: NodeId, rule: R) -> Self {
        let n = g.node_count();
        let mut members = vec![false; n];
        members[root.index()] = true;
        FullInfoGrowth {
            rule,
            root,
            member: v == root,
            dist: 0,
            members,
            dists: vec![0; n],
            tree_edges: Vec::new(),
            tree_parent: None,
            children: Vec::new(),
            pending: 0,
            best: None,
            done: false,
            budget: None,
            spent_estimate: 0,
            exceeded: false,
        }
    }

    /// Creates the per-vertex state for *budgeted* growth: the root
    /// suspends before any phase that would push its (conservative)
    /// communication estimate past `budget`.
    pub fn with_budget(v: NodeId, g: &WeightedGraph, root: NodeId, rule: R, budget: u128) -> Self {
        let mut state = FullInfoGrowth::new(v, g, root, rule);
        state.budget = Some(budget);
        state
    }

    /// Whether the root has finished growing (meaningful at the root).
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// At the root, whether a budgeted growth suspended.
    pub fn exceeded(&self) -> bool {
        self.exceeded
    }

    /// The final tree as `(child, parent)` pairs (meaningful at members).
    pub fn tree_edges(&self) -> &[(NodeId, NodeId)] {
        &self.tree_edges
    }

    /// Distance labels of all members (meaningful at members).
    pub fn dists(&self) -> &[u128] {
        &self.dists
    }

    fn local_candidate(&self, ctx: &Context<'_, GrowMsg>) -> Option<Candidate> {
        if !self.member {
            return None;
        }
        let me = ctx.self_id();
        ctx.neighbors()
            .filter(|(u, _, _)| !self.members[u.index()])
            .map(|(u, eid, w)| Candidate {
                key: self.rule.key(self.dist, w.get(), eid),
                new: u,
                host: me,
            })
            .min_by_key(|c| c.key)
    }

    /// Root only: start the next phase, unless the budget says stop.
    ///
    /// The root knows the whole tree, so it can estimate the phase cost
    /// (a few sweeps of `w(T)` plus one joining edge) before spending it.
    fn root_begin_phase(&mut self, ctx: &mut Context<'_, GrowMsg>) {
        if let Some(b) = self.budget {
            let g = ctx.graph();
            let tree_w: u128 = self
                .tree_edges
                .iter()
                .map(|&(c, p)| {
                    let eid = g.edge_between(c, p).expect("tree edge exists");
                    g.weight(eid).get() as u128
                })
                .sum();
            let phase = 5 * tree_w.max(1);
            if self.spent_estimate + phase > b {
                self.exceeded = true;
                return;
            }
            self.spent_estimate += phase;
        }
        self.start_convergecast(ctx);
    }

    fn start_convergecast(&mut self, ctx: &mut Context<'_, GrowMsg>) {
        self.pending = self.children.len();
        self.best = self.local_candidate(ctx);
        for c in self.children.clone() {
            ctx.send(c, GrowMsg::FindMin);
        }
        self.maybe_reply(ctx);
    }

    fn fold(&mut self, candidate: Option<Candidate>) {
        self.best = match (self.best, candidate) {
            (Some(a), Some(b)) => Some(if a.key <= b.key { a } else { b }),
            (a, None) => a,
            (None, b) => b,
        };
    }

    fn maybe_reply(&mut self, ctx: &mut Context<'_, GrowMsg>) {
        if self.pending > 0 {
            return;
        }
        match self.tree_parent {
            Some(p) => {
                ctx.send(p, GrowMsg::Report(self.best));
            }
            None => self.decide(ctx),
        }
    }

    /// Root only: act on the folded result of a phase.
    fn decide(&mut self, ctx: &mut Context<'_, GrowMsg>) {
        match self.best.take() {
            None => self.done = true,
            Some(c) => {
                let (dist, join_w) = {
                    let g = ctx.graph();
                    let eid = g
                        .edge_between(c.host, c.new)
                        .expect("candidate is a graph edge");
                    let w = g.weight(eid).get();
                    (self.rule.new_dist(self.dists[c.host.index()], w), w)
                };
                // Second budget gate: the joining edge's weight is known
                // only now.
                if let Some(b) = self.budget {
                    if self.spent_estimate + join_w as u128 > b {
                        self.exceeded = true;
                        return;
                    }
                    self.spent_estimate += join_w as u128;
                }
                self.apply_add(c.new, c.host, dist, ctx);
            }
        }
    }

    /// Processes (and at the root, originates) an `Add` broadcast.
    fn apply_add(&mut self, new: NodeId, host: NodeId, dist: u128, ctx: &mut Context<'_, GrowMsg>) {
        self.members[new.index()] = true;
        self.dists[new.index()] = dist;
        self.tree_edges.push((new, host));
        for c in self.children.clone() {
            ctx.send(c, GrowMsg::Add { new, host, dist });
        }
        if ctx.self_id() == host {
            self.children.push(new);
            ctx.send(
                new,
                GrowMsg::Join {
                    edges: self.tree_edges.clone(),
                    dists: self.dists.clone(),
                },
            );
            // Signal phase completion toward the root.
            match self.tree_parent {
                Some(p) => {
                    ctx.send(p, GrowMsg::PhaseDone);
                }
                None => self.root_begin_phase(ctx), // root is the host
            }
        }
    }
}

impl<R: GrowthRule> Process for FullInfoGrowth<R> {
    type Msg = GrowMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, GrowMsg>) {
        if ctx.self_id() == self.root {
            if ctx.node_count() == 1 {
                self.done = true;
            } else {
                self.root_begin_phase(ctx);
            }
        }
    }

    fn on_message(&mut self, from: NodeId, msg: GrowMsg, ctx: &mut Context<'_, GrowMsg>) {
        match msg {
            GrowMsg::FindMin => self.start_convergecast(ctx),
            GrowMsg::Report(candidate) => {
                self.fold(candidate);
                self.pending -= 1;
                self.maybe_reply(ctx);
            }
            GrowMsg::Add { new, host, dist } => self.apply_add(new, host, dist, ctx),
            GrowMsg::Join { edges, dists } => {
                self.member = true;
                self.tree_parent = Some(from);
                self.tree_edges = edges;
                self.dists = dists;
                for &(c, _) in &self.tree_edges {
                    self.members[c.index()] = true;
                }
                self.members[self.root.index()] = true;
                self.dist = self.dists[ctx.self_id().index()];
            }
            GrowMsg::PhaseDone => match self.tree_parent {
                Some(p) => {
                    ctx.send(p, GrowMsg::PhaseDone);
                }
                None => self.root_begin_phase(ctx),
            },
        }
    }
}

/// The `MST_centr` / `SPT_centr` outcome of a finished growth run: the
/// root's tree copy and distance labels.
///
/// # Panics
///
/// Panics if growth did not complete or the tree does not span.
pub(crate) fn outcome<R: GrowthRule>(
    g: &WeightedGraph,
    root: NodeId,
    run: Run<FullInfoGrowth<R>>,
) -> Outcome {
    let root_state = &run.states[root.index()];
    assert!(root_state.is_done(), "growth must complete");
    let tree = grown_tree(g, root, root_state);
    let dists = root_state.dists().iter().map(|&d| Cost::new(d)).collect();
    Outcome {
        dists,
        ..Outcome::spanning(run.cost, tree)
    }
}

/// Runs the growth engine with a root-side communication budget — the
/// `MST_centr` attempt of the hybrids' budget doubling: the root refuses
/// to start any phase whose conservative cost estimate would exceed
/// `budget`, suspending instead, and no tree comes back. The cost is
/// metered either way.
pub(crate) fn budgeted<R: GrowthRule, O: LinkOracle>(
    g: &WeightedGraph,
    root: NodeId,
    rule: R,
    budget: u128,
    oracle: &mut O,
) -> Result<(Option<RootedTree>, CostReport), SimError> {
    let run = Simulator::new(g).run_with_oracle(oracle, |v, g| {
        FullInfoGrowth::with_budget(v, g, root, rule.clone(), budget)
    })?;
    let root_state = &run.states[root.index()];
    let tree = root_state
        .is_done()
        .then(|| grown_tree(g, root, root_state));
    Ok((tree, run.cost))
}

/// The tree the root's full-information copy describes.
fn grown_tree<R>(g: &WeightedGraph, root: NodeId, root_state: &FullInfoGrowth<R>) -> RootedTree {
    let mut parents: Vec<Option<NodeId>> = vec![None; g.node_count()];
    for &(child, parent) in &root_state.tree_edges {
        parents[child.index()] = Some(parent);
    }
    tree_from_parents(g, root, &parents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::Claim;
    use csp_graph::params::CostParams;
    use csp_graph::{algo, generators};
    use csp_sim::{DelayModel, ModelOracle};

    fn worst() -> ModelOracle {
        ModelOracle::new(DelayModel::WorstCase, 0)
    }

    #[test]
    fn budgeted_growth_suspends_and_completes() {
        let g = generators::connected_gnp(16, 0.2, generators::WeightDist::Uniform(1, 10), 2);
        let root = NodeId::new(0);
        // Tiny budget: must suspend, cheaply.
        let (tree, cost) = budgeted(&g, root, MstRule, 4, &mut worst()).unwrap();
        assert!(tree.is_none());
        assert!(cost.weighted_comm.get() <= 64);
        // Huge budget: behaves like the unbudgeted run.
        let (tree, cost) = budgeted(&g, root, MstRule, u128::MAX / 8, &mut worst()).unwrap();
        let plain = Claim::MstCentr { root }.run(&g, worst()).unwrap();
        assert_eq!(tree.unwrap().weight(), plain.tree.unwrap().weight());
        assert_eq!(cost.messages, plain.cost.messages);
    }

    #[test]
    fn mst_rule_reproduces_prims_tree() {
        let mut graphs: Vec<WeightedGraph> = (0..4)
            .map(|seed| {
                generators::connected_gnp(18, 0.25, generators::WeightDist::Uniform(1, 40), seed)
            })
            .collect();
        graphs.push(generators::cluster_graph(3, 5, 40, 8));
        for g in &graphs {
            let root = NodeId::new(0);
            let out = Claim::MstCentr { root }
                .run(g, ModelOracle::new(DelayModel::Uniform, 3))
                .unwrap();
            let reference = algo::prim_mst(g, root);
            assert_eq!(out.tree.unwrap().weight(), reference.weight());
        }
    }

    #[test]
    fn spt_rule_reproduces_dijkstra_distances() {
        for seed in 0..4 {
            let g =
                generators::connected_gnp(18, 0.25, generators::WeightDist::Uniform(1, 40), seed);
            let source = NodeId::new(3);
            let out = Claim::SptCentr { source }
                .run(&g, ModelOracle::new(DelayModel::Uniform, seed))
                .unwrap();
            let reference = algo::distances(&g, source);
            let tree = out.tree.unwrap();
            for v in g.nodes() {
                assert_eq!(
                    out.dists[v.index()],
                    reference[v.index()],
                    "distance mismatch at {v}, seed {seed}"
                );
                assert_eq!(tree.depth(v), reference[v.index()]);
            }
        }
    }

    #[test]
    fn mst_centr_communication_is_o_n_v() {
        // Corollary 6.4: O(n·V̂). Constant: each phase ≤ ~5 sweeps of w(T).
        let g = generators::lower_bound_family(14, 6);
        let p = CostParams::of(&g);
        let row = Claim::MstCentr {
            root: NodeId::new(0),
        };
        let out = row.run(&g, worst()).unwrap();
        assert!(
            row.bounds(&g, &p)
                .comm
                .unwrap()
                .admits(out.cost.weighted_comm.get()),
            "comm {} > 6·n·V̂",
            out.cost.weighted_comm
        );
        // Critically: MST_centr never touches the heavy bypass edges
        // (beyond treating them as candidates), so its cost beats Ê here.
        assert!(out.cost.weighted_comm < p.total_weight);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let g = generators::grid(3, 5, generators::WeightDist::Uniform(1, 9), 2);
        let row = Claim::MstCentr {
            root: NodeId::new(0),
        };
        let a = row
            .run(&g, ModelOracle::new(DelayModel::Uniform, 9))
            .unwrap();
        let b = row
            .run(&g, ModelOracle::new(DelayModel::Uniform, 9))
            .unwrap();
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn single_vertex_growth_is_trivial() {
        let g = csp_graph::GraphBuilder::new(1).build().unwrap();
        let row = Claim::MstCentr {
            root: NodeId::new(0),
        };
        assert_eq!(row.run(&g, worst()).unwrap().cost.messages, 0);
    }

    #[test]
    fn spt_from_every_root_is_consistent() {
        let g = generators::heavy_chord_cycle(10, 25);
        for r in 0..10 {
            let source = NodeId::new(r);
            let out = Claim::SptCentr { source }.run(&g, worst()).unwrap();
            assert_eq!(out.dists, algo::distances(&g, source));
        }
    }
}
