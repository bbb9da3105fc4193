//! `MST_hybrid` — minimum spanning tree in
//! `O(min{Ê + V̂·log n, n·V̂})` communication (Section 8.2).
//!
//! The paper's plan: wake GHS via the controlled DFS (so the root knows
//! the communication wasted so far) and dovetail it against `MST_centr`
//! as in `CON_hybrid`. We realize the arbitration the same way as
//! [`con_hybrid`](crate::con_hybrid): budget-doubling
//! restarts, where each attempt is *suspended* at its communication
//! budget — GHS through the simulator's [`comm_limit`]
//! (modelling the root withholding permission; the wasted work of a
//! suspended attempt is bounded by the budget), `MST_centr` through its
//! root-side budget. The first component to finish within budget wins;
//! geometric budgets keep the total within a constant factor of the
//! cheaper component.
//!
//! [`comm_limit`]: csp_sim::Simulator::comm_limit

use crate::catalogue::{Claim, Outcome};
use crate::full_info::{self, MstRule};
use crate::mst::ghs::Ghs;
use crate::util::tree_from_branches;
use csp_graph::{NodeId, RootedTree, WeightedGraph};
use csp_sim::{CostReport, LinkOracle, SimError, Simulator};

/// Runs `MST_hybrid` from `root`, each attempt under its own copy of
/// `oracle`; the outcome names the component that finished.
pub(crate) fn run<O: LinkOracle + Clone>(
    g: &WeightedGraph,
    root: NodeId,
    oracle: &O,
) -> Result<Outcome, SimError> {
    if g.node_count() == 1 {
        return Ok(Outcome::spanning(
            CostReport::new(0),
            RootedTree::new(1, root),
        ));
    }
    let mut total = CostReport::new(g.edge_count());
    let mut budget: u128 = g
        .neighbors(root)
        .map(|(_, _, w)| w.get() as u128)
        .min()
        .unwrap_or(1)
        * 4;
    let mut rounds = 0;
    loop {
        rounds += 1;
        let ghs = Simulator::new(g)
            .comm_limit(budget)
            .run_with_oracle(&mut oracle.clone(), Ghs::new)?;
        total.then(&ghs.cost);
        if !ghs.truncated && ghs.states.iter().any(Ghs::halted) {
            let tree = tree_from_branches(g, root, |v| ghs.states[v.index()].branch_neighbors());
            if tree.is_spanning() {
                return Ok(Outcome {
                    winner: Some(Claim::MstGhs { root }),
                    ..Outcome::spanning(total, tree)
                });
            }
        }
        let (tree, cost) = full_info::budgeted(g, root, MstRule, budget, &mut oracle.clone())?;
        total.then(&cost);
        if let Some(tree) = tree.filter(RootedTree::is_spanning) {
            return Ok(Outcome {
                winner: Some(Claim::MstCentr { root }),
                ..Outcome::spanning(total, tree)
            });
        }
        budget = budget.saturating_mul(2);
        assert!(rounds < 200, "budget doubling failed to converge");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_graph::params::CostParams;
    use csp_graph::{algo, generators};
    use csp_sim::{DelayModel, ModelOracle};

    fn worst() -> ModelOracle {
        ModelOracle::new(DelayModel::WorstCase, 0)
    }

    #[test]
    fn hybrid_finds_the_mst_in_both_regimes() {
        let root = NodeId::new(0);
        // Regime A: Ê + V̂ log n ≪ n·V̂ — GHS should win.
        let a = generators::sparse_heavy_path(24, 50, 2);
        let out_a = Claim::MstHybrid { root }.run(&a, worst()).unwrap();
        assert_eq!(
            out_a.tree.unwrap().weight(),
            algo::prim_mst(&a, root).weight()
        );

        // Regime B: n·V̂ ≪ Ê — MST_centr should win.
        let b = generators::lower_bound_family(20, 16);
        let pb = CostParams::of(&b);
        let out_b = Claim::MstHybrid { root }.run(&b, worst()).unwrap();
        assert_eq!(
            out_b.tree.unwrap().weight(),
            algo::prim_mst(&b, root).weight()
        );
        assert!(
            out_b.cost.weighted_comm < pb.total_weight,
            "hybrid cost {} should beat Ê = {} on the bypass family",
            out_b.cost.weighted_comm,
            pb.total_weight
        );
    }

    #[test]
    fn hybrid_cost_within_constant_of_best_component() {
        let g = generators::connected_gnp(18, 0.25, generators::WeightDist::Uniform(1, 24), 4);
        let root = NodeId::new(0);
        let comm = |row: Claim| row.run(&g, worst()).unwrap().cost.weighted_comm;
        let best = comm(Claim::MstGhs { root }).min(comm(Claim::MstCentr { root }));
        let hybrid = comm(Claim::MstHybrid { root });
        assert!(
            hybrid <= best * 16,
            "hybrid {hybrid} ≫ 16×best component {best}"
        );
    }
}
