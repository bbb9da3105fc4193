//! `CON_hybrid` — connectivity / spanning tree in
//! `O(min{Ê, n·V̂})` communication (Section 7.2).
//!
//! The paper runs DFS (cost `Θ(Ê)`) and `MST_centr` (cost `Θ(n·V̂)`) in
//! parallel, with the root suspending whichever has the larger running
//! estimate; the total is at most a constant factor above the cheaper of
//! the two. We realize the same arbitration as **budget-doubling
//! restarts**: for budgets `B = B₀, 2B₀, 4B₀, …` the root runs a budgeted
//! DFS, then a budgeted `MST_centr`; an attempt that would exceed its
//! budget aborts after wasting at most `O(B)`. The first attempt to finish
//! wins. Since the loop ends once `B ≥ min(c_DFS, c_MST)` and each round's
//! waste is geometric, the total is `O(min{Ê, n·V̂})` — the same bound,
//! with a slightly larger constant than the paper's interleaved version.
//! (Restart signaling is free: messages carry the round's budget, so a
//! fresh run is equivalent to lazily resetting stale state.)

use crate::catalogue::{Claim, Outcome};
use crate::dfs;
use crate::full_info::{self, MstRule};
use csp_graph::{NodeId, RootedTree, WeightedGraph};
use csp_sim::{CostReport, LinkOracle, SimError};

/// Runs `CON_hybrid` from `root`, each attempt under its own copy of
/// `oracle`; the outcome names the component that finished.
pub(crate) fn run<O: LinkOracle + Clone>(
    g: &WeightedGraph,
    root: NodeId,
    oracle: &O,
) -> Result<Outcome, SimError> {
    let mut total = CostReport::new(g.edge_count());
    // Initial budget: enough for at least one step from the root.
    let mut budget: u128 = g
        .neighbors(root)
        .map(|(_, _, w)| w.get() as u128)
        .min()
        .unwrap_or(1)
        .max(1)
        * 2;
    let mut rounds = 0;
    loop {
        rounds += 1;
        let (tree, cost) = dfs::budgeted(g, root, budget, &mut oracle.clone())?;
        total.then(&cost);
        if let Some(tree) = tree.filter(RootedTree::is_spanning) {
            return Ok(Outcome {
                winner: Some(Claim::Dfs { root }),
                ..Outcome::spanning(total, tree)
            });
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
        assert!(
            rounds < 200,
            "budget doubling failed to converge — protocol bug"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_graph::generators;
    use csp_graph::params::CostParams;
    use csp_sim::{DelayModel, ModelOracle};

    fn hybrid(g: &WeightedGraph, delay: DelayModel, seed: u64) -> Outcome {
        let row = Claim::ConHybrid {
            root: NodeId::new(0),
        };
        row.run(g, ModelOracle::new(delay, seed)).unwrap()
    }

    #[test]
    fn hybrid_tracks_the_cheaper_component_on_both_regimes() {
        // Regime A: Ê ≪ n·V̂ — DFS should win.
        let a = generators::sparse_heavy_path(24, 100, 5);
        let out_a = hybrid(&a, DelayModel::WorstCase, 0);
        let pivot_a = CostParams::of(&a).min_e_nv();
        assert!(
            out_a.cost.weighted_comm <= pivot_a * 40,
            "regime A: cost {} ≫ pivot {pivot_a}",
            out_a.cost.weighted_comm
        );

        // Regime B: n·V̂ ≪ Ê — MST_centr should win. (The budget-doubling
        // restarts cost a few dozen × the pivot in the worst case, so the
        // witness gap must be wide: x = 16 makes Ê/n·V̂ ≈ 70.)
        let b = generators::lower_bound_family(24, 16);
        let pb = CostParams::of(&b);
        let out_b = hybrid(&b, DelayModel::WorstCase, 0);
        assert_eq!(
            out_b.winner,
            Some(Claim::MstCentr {
                root: NodeId::new(0)
            })
        );
        let row = Claim::ConHybrid {
            root: NodeId::new(0),
        };
        assert!(
            row.bounds(&b, &pb)
                .comm
                .unwrap()
                .admits(out_b.cost.weighted_comm.get()),
            "regime B: cost {} ≫ 60·pivot",
            out_b.cost.weighted_comm
        );
        // And crucially, far below Ê (never floods the heavy bypasses).
        assert!(out_b.cost.weighted_comm < pb.total_weight);
    }

    #[test]
    fn hybrid_completes_on_small_graphs() {
        let g = generators::path(4, |_| 3);
        assert!(hybrid(&g, DelayModel::WorstCase, 0).winner.is_some());
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let g = generators::grid(4, 4, generators::WeightDist::Uniform(1, 12), 6);
        let a = hybrid(&g, DelayModel::Uniform, 4);
        let b = hybrid(&g, DelayModel::Uniform, 4);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.winner, b.winner);
    }
}
