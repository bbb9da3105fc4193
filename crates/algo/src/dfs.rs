//! Distributed depth-first search with root estimates (Section 6.2).
//!
//! A token traverses the network in depth-first order; each edge is
//! traversed at most twice in each direction (forward/reject on non-tree
//! edges, forward/return on tree edges), so communication and time are
//! both `O(Ê)` (Fact 6.2).
//!
//! The algorithm additionally maintains two running estimates of the total
//! traversal cost — the *center estimate* `EST_C` carried with the token
//! and the *root estimate* `EST_R` held at the root. Whenever the center
//! is about to traverse an edge that would double `EST_C` relative to
//! `EST_R`, it first sends a report up the DFS tree refreshing `EST_R`.
//! The doubling rule makes the reports' total cost a geometric series
//! bounded by twice the traversal cost, and keeps `EST_R` within a factor
//! of two of the true cost — the hook the hybrid algorithms (Sections 7.2,
//! 8.2) use to arbitrate between sub-protocols at the root.

use crate::util::tree_from_parents;
use csp_graph::{Cost, NodeId, RootedTree, WeightedGraph};
use csp_sim::{Context, CostClass, CostReport, LinkOracle, Process, SimError, Simulator};

/// Messages of the DFS protocol. Every variant carries the center
/// estimate (the cumulative weight of all traversals, including itself).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DfsMsg {
    /// The token moving forward to a (hopefully unvisited) vertex.
    Token {
        /// Center estimate after this traversal.
        est: u128,
        /// Root estimate known to the center.
        root_est: u128,
    },
    /// Bounce: the target was already visited.
    Reject {
        /// Center estimate after the bounce traversal.
        est: u128,
        /// Root estimate known to the center.
        root_est: u128,
    },
    /// Backtrack: the child's subtree is fully explored.
    Return {
        /// Center estimate after the backtrack traversal.
        est: u128,
        /// Root estimate known to the center.
        root_est: u128,
    },
    /// Estimate refresh climbing the DFS tree to the root.
    Report {
        /// The new root estimate.
        est: u128,
    },
    /// Budget exceeded: the search is being called off; climbs the DFS
    /// tree to the root (budgeted runs only, see [`Dfs::with_budget`]).
    Abort {
        /// Center estimate when the budget was hit.
        est: u128,
    },
}

/// Per-vertex state of the DFS protocol.
#[derive(Clone, Debug)]
pub struct Dfs {
    root: NodeId,
    visited: bool,
    parent: Option<NodeId>,
    /// Sorted neighbor list, fixed at construction.
    neighbors: Vec<NodeId>,
    /// Next neighbor index to try.
    cursor: usize,
    /// At the root: the final center estimate when the search completed.
    final_estimate: Option<u128>,
    /// At the root: the current root estimate `EST_R`.
    root_estimate: u128,
    /// Optional traversal-cost budget; exceeding it aborts the search.
    budget: Option<u128>,
    /// At the root: the budget was exceeded.
    exceeded: bool,
}

impl Dfs {
    /// Creates the per-vertex state for a DFS rooted at `root`.
    pub fn new(v: NodeId, g: &WeightedGraph, root: NodeId) -> Self {
        let mut neighbors: Vec<NodeId> = g.neighbors(v).map(|(u, _, _)| u).collect();
        neighbors.sort();
        Dfs {
            root,
            visited: false,
            parent: None,
            neighbors,
            cursor: 0,
            final_estimate: None,
            root_estimate: 0,
            budget: None,
            exceeded: false,
        }
    }

    /// Creates the per-vertex state for a *budgeted* DFS: the search
    /// aborts once the center estimate would exceed `budget`.
    pub fn with_budget(v: NodeId, g: &WeightedGraph, root: NodeId, budget: u128) -> Self {
        let mut state = Dfs::new(v, g, root);
        state.budget = Some(budget);
        state
    }

    /// At the root, whether a budgeted search gave up.
    pub fn exceeded(&self) -> bool {
        self.exceeded
    }

    /// The DFS-tree parent (`None` at the root).
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// At the root, the exact total traversal cost when the search ended.
    pub fn final_estimate(&self) -> Option<Cost> {
        self.final_estimate.map(Cost::new)
    }

    /// At the root, the doubling-maintained estimate `EST_R`.
    pub fn root_estimate(&self) -> Cost {
        Cost::new(self.root_estimate)
    }

    fn edge_weight(&self, ctx: &Context<'_, DfsMsg>, to: NodeId) -> u128 {
        let g = ctx.graph();
        let eid = g
            .edge_between(ctx.self_id(), to)
            .expect("DFS only talks to neighbors");
        g.weight(eid).get() as u128
    }

    /// Advances the token from this vertex: try the next neighbor, or
    /// backtrack.
    fn proceed(&mut self, est: u128, mut root_est: u128, ctx: &mut Context<'_, DfsMsg>) {
        let me_is_root = ctx.self_id() == self.root;
        while self.cursor < self.neighbors.len() {
            let u = self.neighbors[self.cursor];
            if Some(u) == self.parent {
                self.cursor += 1;
                continue;
            }
            self.cursor += 1;
            let w = self.edge_weight(ctx, u);
            let est2 = est + w;
            if self.budget.is_some_and(|b| est2 > b) {
                self.begin_abort(est, ctx);
                return;
            }
            self.maybe_report(est2, &mut root_est, me_is_root, ctx);
            ctx.send(
                u,
                DfsMsg::Token {
                    est: est2,
                    root_est,
                },
            );
            return;
        }
        // Exhausted: backtrack or finish.
        match self.parent {
            Some(p) => {
                let w = self.edge_weight(ctx, p);
                let est2 = est + w;
                self.maybe_report(est2, &mut root_est, me_is_root, ctx);
                ctx.send(
                    p,
                    DfsMsg::Return {
                        est: est2,
                        root_est,
                    },
                );
            }
            None => {
                // The root has explored everything. `EST_R` is left at its
                // last doubling-rule refresh so callers can observe the
                // factor-two invariant.
                self.final_estimate = Some(est);
            }
        }
    }

    /// Starts (or continues) an abort: hand the bad news to the parent,
    /// paying for the climb, without exploring further.
    fn begin_abort(&mut self, est: u128, ctx: &mut Context<'_, DfsMsg>) {
        match self.parent {
            Some(p) => {
                let w = self.edge_weight(ctx, p);
                ctx.send(p, DfsMsg::Abort { est: est + w });
            }
            None => {
                self.exceeded = true;
            }
        }
    }

    /// Implements the doubling rule: refresh `EST_R` before a traversal
    /// that would exceed twice its current value.
    fn maybe_report(
        &mut self,
        est_after: u128,
        root_est: &mut u128,
        me_is_root: bool,
        ctx: &mut Context<'_, DfsMsg>,
    ) {
        if est_after > 2 * (*root_est).max(1) {
            *root_est = est_after;
            if me_is_root {
                self.root_estimate = self.root_estimate.max(est_after);
            } else if let Some(p) = self.parent {
                ctx.send_class(p, DfsMsg::Report { est: est_after }, CostClass::Auxiliary);
            }
        }
    }
}

impl Process for Dfs {
    type Msg = DfsMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, DfsMsg>) {
        if ctx.self_id() == self.root {
            self.visited = true;
            self.proceed(0, 0, ctx);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: DfsMsg, ctx: &mut Context<'_, DfsMsg>) {
        match msg {
            DfsMsg::Token { est, root_est } => {
                if self.visited {
                    let w = self.edge_weight(ctx, from);
                    ctx.send(
                        from,
                        DfsMsg::Reject {
                            est: est + w,
                            root_est,
                        },
                    );
                } else {
                    self.visited = true;
                    self.parent = Some(from);
                    self.proceed(est, root_est, ctx);
                }
            }
            DfsMsg::Reject { est, root_est } | DfsMsg::Return { est, root_est } => {
                self.proceed(est, root_est, ctx);
            }
            DfsMsg::Abort { est } => self.begin_abort(est, ctx),
            DfsMsg::Report { est } => {
                if ctx.self_id() == self.root {
                    self.root_estimate = self.root_estimate.max(est);
                } else if let Some(p) = self.parent {
                    ctx.send_class(p, DfsMsg::Report { est }, CostClass::Auxiliary);
                } else {
                    // A report raced ahead of the token to an unvisited
                    // vertex — impossible: reports climb the tree, and
                    // tree edges are only created by the token.
                    unreachable!("report climbed past an unvisited vertex");
                }
            }
        }
    }
}

/// Runs the DFS protocol with a traversal-cost budget — the DFS attempt
/// of `CON_hybrid`'s budget doubling. If a *forward* traversal would
/// push the center estimate past `budget`, the token climbs home and no
/// tree comes back. (Backtracks are exempt: a `Return` move costs exactly
/// what the abort climb would, so the completed-run overshoot is bounded
/// by one climb, same as an abort.) The wasted work of an aborted run is
/// at most the budget plus one climb (`≤ 2·budget`), which is what makes
/// budget-doubling hybrids (Sections 7.2, 8.2) cost only a constant
/// factor above the cheaper component. The cost is metered either way.
pub(crate) fn budgeted<O: LinkOracle>(
    g: &WeightedGraph,
    root: NodeId,
    budget: u128,
    oracle: &mut O,
) -> Result<(Option<RootedTree>, CostReport), SimError> {
    let run =
        Simulator::new(g).run_with_oracle(oracle, |v, g| Dfs::with_budget(v, g, root, budget))?;
    let root_state = &run.states[root.index()];
    let tree = (!root_state.exceeded() && root_state.final_estimate().is_some()).then(|| {
        let parents: Vec<Option<NodeId>> = run.states.iter().map(Dfs::parent).collect();
        tree_from_parents(g, root, &parents)
    });
    Ok((tree, run.cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::Claim;
    use csp_graph::generators;
    use csp_graph::params::CostParams;
    use csp_sim::{DelayModel, ModelOracle, Run};

    /// The DFS row on `g`, and the root's final state.
    fn dfs(g: &WeightedGraph, root: usize, delay: DelayModel, seed: u64) -> (RootedTree, Run<Dfs>) {
        let root = NodeId::new(root);
        let out = Claim::Dfs { root }
            .run(g, ModelOracle::new(delay, seed))
            .unwrap();
        let run = Simulator::new(g)
            .delay(delay)
            .seed(seed)
            .run(|v, g| Dfs::new(v, g, root))
            .unwrap();
        assert_eq!(out.cost, run.cost);
        (out.tree.unwrap(), run)
    }

    #[test]
    fn dfs_spans_and_stays_within_fact_6_2() {
        for seed in 0..4 {
            let g =
                generators::connected_gnp(25, 0.2, generators::WeightDist::Uniform(1, 16), seed);
            // Token/reject/return: ≤ 4 traversals per edge; reports add at
            // most 2× more (geometric series). Total ≤ 12·Ê is a very
            // safe envelope; typical runs are ≈ 2–4·Ê.
            let row = Claim::Dfs {
                root: NodeId::new(0),
            };
            let out = row
                .run(&g, ModelOracle::new(DelayModel::WorstCase, 0))
                .unwrap();
            let bound = row.bounds(&g, &CostParams::of(&g)).comm.unwrap();
            assert!(
                bound.admits(out.cost.weighted_comm.get()),
                "comm {} > 12·Ê",
                out.cost.weighted_comm
            );
        }
    }

    #[test]
    fn dfs_tree_on_a_path_is_the_path() {
        let g = generators::path(6, |i| i as u64 + 1);
        let (tree, run) = dfs(&g, 0, DelayModel::WorstCase, 0);
        assert_eq!(tree.weight(), g.total_weight());
        // On a tree-shaped graph every edge is traversed exactly twice.
        assert_eq!(run.states[0].final_estimate(), Some(g.total_weight() * 2));
    }

    #[test]
    fn root_estimate_within_factor_two() {
        for seed in 0..6 {
            let g =
                generators::connected_gnp(20, 0.25, generators::WeightDist::Uniform(1, 50), seed);
            let (_, run) = dfs(&g, 0, DelayModel::Uniform, seed);
            let exact = run.states[0].final_estimate().unwrap();
            let est = run.states[0].root_estimate();
            assert!(
                est <= exact,
                "EST_R {est} must never exceed the true cost {exact}"
            );
            assert!(
                est.get() * 2 >= exact.get(),
                "EST_R {est} below half the true cost {exact}"
            );
        }
    }

    #[test]
    fn visits_every_vertex_exactly_once() {
        let g = generators::grid(4, 5, generators::WeightDist::Uniform(1, 9), 1);
        let (tree, _) = dfs(&g, 10, DelayModel::WorstCase, 0);
        assert_eq!(tree.len(), 20);
        assert_eq!(tree.root(), NodeId::new(10));
    }

    #[test]
    fn dfs_is_deterministic_under_worst_case_delays() {
        let g = generators::heavy_chord_cycle(12, 30);
        let (_, a) = dfs(&g, 0, DelayModel::WorstCase, 0);
        let (_, b) = dfs(&g, 0, DelayModel::WorstCase, 0);
        assert_eq!(a.cost.messages, b.cost.messages);
        assert_eq!(a.states[0].final_estimate(), b.states[0].final_estimate());
    }

    #[test]
    fn reports_are_tagged_auxiliary() {
        let g = generators::lower_bound_family(10, 3);
        let (_, run) = dfs(&g, 0, DelayModel::WorstCase, 0);
        // The DFS itself uses Protocol class; reports use Auxiliary.
        assert!(run.cost.messages_of(CostClass::Protocol) > 0);
        // Reports exist on graphs with non-trivial weight growth.
        assert!(
            run.cost.comm_of(CostClass::Auxiliary) <= run.cost.comm_of(CostClass::Protocol) * 2
        );
    }
}

#[cfg(test)]
mod budget_tests {
    use super::*;
    use crate::catalogue::Claim;
    use csp_graph::generators;
    use csp_sim::{DelayModel, ModelOracle};

    fn worst() -> ModelOracle {
        ModelOracle::new(DelayModel::WorstCase, 0)
    }

    #[test]
    fn tiny_budget_aborts_cheaply() {
        let g = generators::connected_gnp(20, 0.2, generators::WeightDist::Uniform(1, 20), 1);
        let (tree, cost) = budgeted(&g, NodeId::new(0), 10, &mut worst()).unwrap();
        assert!(tree.is_none());
        // Wasted work bounded: budget + climb home + reports.
        assert!(
            cost.weighted_comm.get() <= 3 * 10 + 40,
            "aborted run cost {} too high",
            cost.weighted_comm
        );
    }

    #[test]
    fn huge_budget_behaves_like_unbudgeted() {
        let g = generators::grid(4, 4, generators::WeightDist::Uniform(1, 5), 3);
        let root = NodeId::new(0);
        let plain = Claim::Dfs { root }.run(&g, worst()).unwrap();
        let (tree, cost) = budgeted(&g, root, u128::MAX / 4, &mut worst()).unwrap();
        assert_eq!(tree.unwrap().weight(), plain.tree.unwrap().weight());
        assert_eq!(cost.messages, plain.cost.messages);
    }

    #[test]
    fn budget_exactly_at_cost_completes() {
        let g = generators::path(5, |_| 2);
        // full traversal cost = 2 * 8 = 16
        let (tree, _) = budgeted(&g, NodeId::new(0), 16, &mut worst()).unwrap();
        assert!(tree.is_some());
    }

    #[test]
    fn budget_below_forward_cost_aborts() {
        // Forward traversals happen at cost 2, 4, 6, 8; a budget of 7
        // blocks the fourth one. (Backtracks are exempt from the check —
        // a Return move costs exactly what the Abort climb would, so
        // cutting them saves nothing.)
        let g = generators::path(5, |_| 2);
        let (tree, cost) = budgeted(&g, NodeId::new(0), 7, &mut worst()).unwrap();
        assert!(tree.is_none());
        assert!(cost.weighted_comm.get() <= 3 * 7 + 8);
    }
}
