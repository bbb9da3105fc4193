//! `MST_ghs` — the Gallager–Humblet–Spira minimum spanning tree algorithm
//! (Section 8.1, \[GHS83]), in its classic asynchronous form.
//!
//! Fragments of the MST merge level by level. Within a fragment, the core
//! edge's endpoints coordinate a search for the fragment's minimum-weight
//! outgoing edge (`Initiate`/`Test`/`Accept`/`Reject` then a `Report`
//! convergecast); the fragment then connects over that edge (`ChangeRoot`,
//! `Connect`), either merging with a same-level fragment (creating a new
//! core, level + 1) or absorbing into a higher-level one.
//!
//! Weighted complexity (Lemma 8.1): every non-tree edge is scanned at most
//! twice (`Test`/`Reject`) and every tree edge carries `O(log n)` rounds
//! of fragment coordination, so communication is `O(Ê + V̂·log n)`.
//!
//! Distinct weights are required for correctness; we use the canonical
//! `(weight, edge id)` key, the same tie-break as the sequential
//! [`prim_mst`](csp_graph::algo::prim_mst), so the result is *the*
//! canonical MST.
//!
//! All vertices awaken spontaneously at time zero. (The paper's §8.1
//! "wake-up stage" — flooding or DFS from one initiator — matters only
//! for the hybrid variant, which wakes the network via DFS; see
//! [`hybrid`](crate::mst::hybrid).)

use csp_graph::{NodeId, WeightedGraph};
use csp_sim::{Context, Process};
use std::collections::VecDeque;

/// A totally ordered edge key: `(weight, edge id)`. Fragment names are
/// core-edge keys.
pub type EdgeKey = (u64, usize);

/// The "no edge" / infinite-weight sentinel.
const INF: EdgeKey = (u64::MAX, usize::MAX);

/// Node states of GHS.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum NodeState {
    Sleeping,
    Find,
    Found,
}

/// Per-incident-edge classification.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum EdgeState {
    /// Untested.
    Basic,
    /// In the MST.
    Branch,
    /// Proven non-MST (both endpoints in the same fragment).
    Rejected,
}

/// GHS messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GhsMsg {
    /// Fragment connection attempt at `level`.
    Connect {
        /// Sender fragment's level.
        level: u32,
    },
    /// New fragment identity broadcast.
    Initiate {
        /// Fragment level.
        level: u32,
        /// Fragment name (core edge key).
        name: EdgeKey,
        /// Whether the receiver should join the find.
        find: bool,
    },
    /// Is this edge outgoing from my fragment?
    Test {
        /// Sender fragment's level.
        level: u32,
        /// Sender fragment's name.
        name: EdgeKey,
    },
    /// The tested edge leaves the sender's fragment.
    Accept,
    /// The tested edge stays inside the fragment.
    Reject,
    /// Convergecast of the subtree's best outgoing edge weight.
    Report {
        /// Best outgoing key in the subtree (INF if none).
        best: EdgeKey,
    },
    /// Move the fragment root toward the best outgoing edge.
    ChangeRoot,
}

/// Per-vertex state of the GHS protocol.
#[derive(Clone, Debug)]
pub struct Ghs {
    state: NodeState,
    level: u32,
    fragment: EdgeKey,
    /// Edge states, parallel to the sorted neighbor table.
    edge_state: Vec<EdgeState>,
    /// Sorted `(neighbor, edge key)` table.
    neighbors: Vec<(NodeId, EdgeKey)>,
    /// Index into `neighbors` of the edge toward the core.
    in_branch: Option<usize>,
    /// Index of the edge under test.
    test_edge: Option<usize>,
    /// Best outgoing edge seen this find: (key, local index).
    best_edge: Option<usize>,
    best_key: EdgeKey,
    find_count: u32,
    /// Messages that arrived too early (higher level than ours).
    deferred: VecDeque<(NodeId, GhsMsg)>,
    /// This node detected global termination (core nodes only).
    halted: bool,
}

impl Ghs {
    /// Creates the per-vertex GHS state.
    pub fn new(v: NodeId, g: &WeightedGraph) -> Self {
        let mut neighbors: Vec<(NodeId, EdgeKey)> = g
            .neighbors(v)
            .map(|(u, eid, w)| (u, (w.get(), eid.index())))
            .collect();
        neighbors.sort_by_key(|&(_, key)| key);
        Ghs {
            state: NodeState::Sleeping,
            level: 0,
            fragment: INF,
            edge_state: vec![EdgeState::Basic; neighbors.len()],
            neighbors,
            in_branch: None,
            test_edge: None,
            best_edge: None,
            best_key: INF,
            find_count: 0,
            deferred: VecDeque::new(),
            halted: false,
        }
    }

    /// The neighbors this vertex marked as MST (Branch) edges.
    pub fn branch_neighbors(&self) -> Vec<NodeId> {
        self.neighbors
            .iter()
            .zip(self.edge_state.iter())
            .filter(|&(_, &s)| s == EdgeState::Branch)
            .map(|(&(u, _), _)| u)
            .collect()
    }

    /// Whether this vertex detected global termination.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// The neighbor across the final core edge (meaningful once
    /// [`halted`](Ghs::halted) — the two core endpoints are the only
    /// vertices that detect termination, and they are adjacent).
    pub fn core_neighbor(&self) -> Option<NodeId> {
        self.in_branch.map(|j| self.neighbors[j].0)
    }

    fn index_of(&self, u: NodeId) -> usize {
        self.neighbors
            .iter()
            .position(|&(v, _)| v == u)
            .expect("message from a neighbor")
    }

    fn wakeup(&mut self, ctx: &mut Context<'_, GhsMsg>) {
        if self.state != NodeState::Sleeping {
            return;
        }
        // (1): connect over the lightest incident edge at level 0.
        let m = 0; // neighbors sorted by key: index 0 is the minimum
        self.edge_state[m] = EdgeState::Branch;
        self.level = 0;
        self.state = NodeState::Found;
        self.find_count = 0;
        let (u, _) = self.neighbors[m];
        ctx.send(u, GhsMsg::Connect { level: 0 });
    }

    /// Tries to handle one message; returns `false` to defer it.
    fn handle(&mut self, from: NodeId, msg: GhsMsg, ctx: &mut Context<'_, GhsMsg>) -> bool {
        match msg {
            GhsMsg::Connect { level } => {
                self.wakeup(ctx);
                let j = self.index_of(from);
                if level < self.level {
                    // Absorb the lower-level fragment.
                    self.edge_state[j] = EdgeState::Branch;
                    ctx.send(
                        from,
                        GhsMsg::Initiate {
                            level: self.level,
                            name: self.fragment,
                            find: self.state == NodeState::Find,
                        },
                    );
                    if self.state == NodeState::Find {
                        self.find_count += 1;
                    }
                    true
                } else if self.edge_state[j] == EdgeState::Basic {
                    false // defer until our level catches up
                } else {
                    // Same-level merge: edge j becomes the new core.
                    let (_, key) = self.neighbors[j];
                    ctx.send(
                        from,
                        GhsMsg::Initiate {
                            level: self.level + 1,
                            name: key,
                            find: true,
                        },
                    );
                    true
                }
            }
            GhsMsg::Initiate { level, name, find } => {
                let j = self.index_of(from);
                self.level = level;
                self.fragment = name;
                self.state = if find {
                    NodeState::Find
                } else {
                    NodeState::Found
                };
                self.in_branch = Some(j);
                self.best_edge = None;
                self.best_key = INF;
                self.test_edge = None;
                for i in 0..self.neighbors.len() {
                    if i != j && self.edge_state[i] == EdgeState::Branch {
                        let (u, _) = self.neighbors[i];
                        ctx.send(u, GhsMsg::Initiate { level, name, find });
                        if find {
                            self.find_count += 1;
                        }
                    }
                }
                if find {
                    self.test(ctx);
                }
                true
            }
            GhsMsg::Test { level, name } => {
                self.wakeup(ctx);
                if level > self.level {
                    return false; // defer
                }
                let j = self.index_of(from);
                if name != self.fragment {
                    ctx.send(from, GhsMsg::Accept);
                } else {
                    if self.edge_state[j] == EdgeState::Basic {
                        self.edge_state[j] = EdgeState::Rejected;
                    }
                    if self.test_edge != Some(j) {
                        ctx.send(from, GhsMsg::Reject);
                    } else {
                        // Both ends tested the same internal edge; skip the
                        // Reject and move on.
                        self.test(ctx);
                    }
                }
                true
            }
            GhsMsg::Accept => {
                let j = self.index_of(from);
                self.test_edge = None;
                let (_, key) = self.neighbors[j];
                if key < self.best_key {
                    self.best_key = key;
                    self.best_edge = Some(j);
                }
                self.report(ctx);
                true
            }
            GhsMsg::Reject => {
                let j = self.index_of(from);
                if self.edge_state[j] == EdgeState::Basic {
                    self.edge_state[j] = EdgeState::Rejected;
                }
                self.test(ctx);
                true
            }
            GhsMsg::Report { best } => {
                let j = self.index_of(from);
                if Some(j) != self.in_branch {
                    // From a child subtree.
                    self.find_count -= 1;
                    if best < self.best_key {
                        self.best_key = best;
                        self.best_edge = Some(j);
                    }
                    self.report(ctx);
                    true
                } else if self.state == NodeState::Find {
                    false // defer: our own find is still running
                } else if best > self.best_key {
                    self.change_root(ctx);
                    true
                } else if best == INF && self.best_key == INF {
                    self.halted = true; // the MST is complete
                    true
                } else {
                    // The other side has the better edge; it will act.
                    true
                }
            }
            GhsMsg::ChangeRoot => {
                self.change_root(ctx);
                true
            }
        }
    }

    /// (4): test the lightest untested edge, or start reporting.
    fn test(&mut self, ctx: &mut Context<'_, GhsMsg>) {
        let basic = (0..self.neighbors.len()).find(|&i| self.edge_state[i] == EdgeState::Basic);
        match basic {
            Some(i) => {
                self.test_edge = Some(i);
                let (u, _) = self.neighbors[i];
                ctx.send(
                    u,
                    GhsMsg::Test {
                        level: self.level,
                        name: self.fragment,
                    },
                );
            }
            None => {
                self.test_edge = None;
                self.report(ctx);
            }
        }
    }

    /// (8): if the local search and all children are done, report up.
    fn report(&mut self, ctx: &mut Context<'_, GhsMsg>) {
        if self.find_count == 0 && self.test_edge.is_none() && self.state == NodeState::Find {
            self.state = NodeState::Found;
            let j = self.in_branch.expect("find implies a core direction");
            let (u, _) = self.neighbors[j];
            ctx.send(
                u,
                GhsMsg::Report {
                    best: self.best_key,
                },
            );
        }
    }

    /// (10): move the fragment root to the best outgoing edge.
    fn change_root(&mut self, ctx: &mut Context<'_, GhsMsg>) {
        let b = self
            .best_edge
            .expect("change-root implies a best outgoing edge");
        let (u, _) = self.neighbors[b];
        if self.edge_state[b] == EdgeState::Branch {
            ctx.send(u, GhsMsg::ChangeRoot);
        } else {
            self.edge_state[b] = EdgeState::Branch;
            ctx.send(u, GhsMsg::Connect { level: self.level });
        }
    }

    /// Re-tries deferred messages until none makes progress.
    fn drain_deferred(&mut self, ctx: &mut Context<'_, GhsMsg>) {
        loop {
            let mut progressed = false;
            for _ in 0..self.deferred.len() {
                let (from, msg) = self.deferred.pop_front().expect("length checked");
                if self.handle(from, msg, ctx) {
                    progressed = true;
                } else {
                    self.deferred.push_back((from, msg));
                }
            }
            if !progressed || self.deferred.is_empty() {
                return;
            }
        }
    }
}

impl Process for Ghs {
    type Msg = GhsMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, GhsMsg>) {
        if ctx.degree() > 0 {
            self.wakeup(ctx);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: GhsMsg, ctx: &mut Context<'_, GhsMsg>) {
        if self.handle(from, msg, ctx) {
            self.drain_deferred(ctx);
        } else {
            self.deferred.push_back((from, msg));
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::catalogue::{Claim, Outcome};
    use csp_graph::params::CostParams;
    use csp_graph::{algo, generators};
    use csp_sim::{DelayModel, ModelOracle};

    /// The GHS row from vertex `root`.
    pub(crate) fn ghs(g: &WeightedGraph, root: usize, delay: DelayModel, seed: u64) -> Outcome {
        let row = Claim::MstGhs {
            root: NodeId::new(root),
        };
        row.run(g, ModelOracle::new(delay, seed)).unwrap()
    }

    #[test]
    fn ghs_finds_the_canonical_mst_on_random_graphs() {
        for seed in 0..6 {
            let g =
                generators::connected_gnp(20, 0.25, generators::WeightDist::Uniform(1, 50), seed);
            let out = ghs(&g, 0, DelayModel::WorstCase, 0);
            let reference = algo::prim_mst(&g, NodeId::new(0));
            assert_eq!(
                out.tree.unwrap().weight(),
                reference.weight(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn ghs_survives_adversarial_random_delays() {
        let g = generators::grid(4, 5, generators::WeightDist::Uniform(1, 30), 11);
        let reference = algo::prim_mst(&g, NodeId::new(0)).weight();
        for seed in 0..8 {
            let out = ghs(&g, 0, DelayModel::Uniform, seed);
            assert_eq!(out.tree.unwrap().weight(), reference, "delay seed {seed}");
        }
    }

    #[test]
    fn ghs_on_two_nodes() {
        let g = generators::path(2, |_| 7);
        let out = ghs(&g, 0, DelayModel::WorstCase, 0);
        assert_eq!(out.tree.unwrap().weight().get(), 7);
    }

    #[test]
    fn ghs_with_equal_weights_uses_id_tie_break() {
        let g = generators::complete(8, |_, _| 5);
        let tree = ghs(&g, 0, DelayModel::WorstCase, 0).tree.unwrap();
        let reference = algo::prim_mst(&g, NodeId::new(0));
        assert_eq!(tree.weight(), reference.weight());
        let mut a: Vec<_> = tree.edges().map(|(_, _, e, _)| e).collect();
        let mut b: Vec<_> = reference.edges().map(|(_, _, e, _)| e).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "edge sets must match the canonical MST");
    }

    #[test]
    fn ghs_communication_matches_lemma_8_1() {
        // comm ≤ c·(Ê + V̂·log n) with a small constant.
        for seed in 0..3 {
            let g =
                generators::connected_gnp(30, 0.2, generators::WeightDist::Uniform(1, 64), seed);
            let out = ghs(&g, 0, DelayModel::WorstCase, 0);
            let row = Claim::MstGhs {
                root: NodeId::new(0),
            };
            let bound = row.bounds(&g, &CostParams::of(&g)).comm.unwrap();
            assert!(
                bound.admits(out.cost.weighted_comm.get()),
                "comm {} > 5(Ê + V̂ log n)",
                out.cost.weighted_comm
            );
        }
    }

    #[test]
    fn ghs_on_a_long_path() {
        let g = generators::path(40, |i| (i as u64 % 9) + 1);
        let out = ghs(&g, 0, DelayModel::WorstCase, 0);
        assert_eq!(out.tree.unwrap().weight(), g.total_weight());
    }
}

#[cfg(test)]
mod stress_tests {
    use super::tests::ghs;
    use super::*;
    use csp_graph::{algo, generators};
    use csp_sim::{DelayModel, Simulator};

    #[test]
    fn ghs_on_complete_graphs_with_eager_delays() {
        // Eager delivery maximizes racing Connect/Initiate interleavings.
        for n in [6usize, 10, 14] {
            let g = generators::complete(n, |i, j| ((i * 7 + j * 13) % 40 + 1) as u64);
            let reference = algo::prim_mst(&g, NodeId::new(0)).weight();
            let out = ghs(&g, 0, DelayModel::Eager, 0);
            assert_eq!(out.tree.unwrap().weight(), reference, "n={n}");
        }
    }

    #[test]
    fn ghs_on_stars_and_paths() {
        let star = generators::star(12, |i| i as u64 + 1);
        let out = ghs(&star, 0, DelayModel::WorstCase, 0);
        assert_eq!(out.tree.unwrap().weight(), star.total_weight());

        let path = generators::path(30, |_| 5);
        let out = ghs(&path, 15, DelayModel::Uniform, 9);
        assert_eq!(out.tree.unwrap().weight(), path.total_weight());
    }

    #[test]
    fn ghs_proportional_delays_sweep() {
        let g = generators::grid(3, 5, generators::WeightDist::Uniform(1, 20), 3);
        let reference = algo::prim_mst(&g, NodeId::new(0)).weight();
        for den in [2u64, 3, 5] {
            let out = ghs(&g, 0, DelayModel::Proportional { num: 1, den }, 0);
            assert_eq!(out.tree.unwrap().weight(), reference, "den={den}");
        }
    }

    #[test]
    fn exactly_two_core_endpoints_halt() {
        let g = generators::connected_gnp(20, 0.2, generators::WeightDist::Uniform(1, 30), 6);
        let run = Simulator::new(&g).run(Ghs::new).unwrap();
        let halted: Vec<usize> = (0..20).filter(|&i| run.states[i].halted()).collect();
        assert_eq!(halted.len(), 2, "exactly the two core endpoints halt");
        let a = NodeId::new(halted[0]);
        let b = NodeId::new(halted[1]);
        assert_eq!(run.states[a.index()].core_neighbor(), Some(b));
        assert_eq!(run.states[b.index()].core_neighbor(), Some(a));
    }
}
