//! `SPT_hybrid` — shortest-path tree at the cheaper of `SPT_synch` and
//! `SPT_recur` (Section 9.3).
//!
//! Same budget-doubling arbitration as the other hybrids: for geometric
//! communication budgets, first a budgeted `SPT_recur` attempt, then a
//! budgeted `SPT_synch` attempt (both suspended at the budget through the
//! simulator's communication cap); the first to finish wins.

use crate::catalogue::{Claim, Outcome};
use crate::spt::recur::SptRecur;
use crate::spt::synch;
use csp_graph::{NodeId, WeightedGraph};
use csp_sim::{CostReport, LinkOracle, SimError, Simulator};

/// Runs `SPT_hybrid` from `s` with strip depth `delta` (for the recur
/// component) and cluster parameter `k` (for the synch component), each
/// attempt under its own copy of `oracle`; the outcome names the
/// component that finished.
pub(crate) fn run<O: LinkOracle + Clone>(
    g: &WeightedGraph,
    s: NodeId,
    delta: u64,
    k: usize,
    oracle: &O,
) -> Result<Outcome, SimError> {
    let synch_hosts = synch::hosts(g, s, k);
    let mut total = CostReport::new(g.edge_count());
    let mut budget: u128 = g
        .neighbors(s)
        .map(|(_, _, w)| w.get() as u128)
        .min()
        .unwrap_or(1)
        * 4;
    let mut rounds = 0;
    loop {
        rounds += 1;
        // Component 1: budgeted SPT_recur.
        let recur = Simulator::new(g)
            .comm_limit(budget)
            .run_with_oracle(&mut oracle.clone(), |v, _| SptRecur::new(v, s, delta))?;
        total.then(&recur.cost);
        if !recur.truncated && recur.states[s.index()].finished() {
            let per_vertex = recur.states.iter().map(|st| (st.parent(), st.dist()));
            return Ok(Outcome {
                winner: Some(Claim::SptRecur { source: s, delta }),
                ..Outcome::shortest_paths(g, s, total, per_vertex)
            });
        }
        // Component 2: budgeted SPT_synch.
        let synch = Simulator::new(g)
            .comm_limit(budget)
            .run_with_oracle(&mut oracle.clone(), &synch_hosts)?;
        total.then(&synch.cost);
        if !synch.truncated && synch.states.iter().all(|h| h.undelivered() == 0) {
            let per_vertex = synch
                .states
                .iter()
                .map(|h| (h.hosted().parent(), h.hosted().dist()));
            return Ok(Outcome {
                winner: Some(Claim::SptSynch { source: s, k }),
                ..Outcome::shortest_paths(g, s, total, per_vertex)
            });
        }
        budget = budget.saturating_mul(2);
        assert!(rounds < 200, "budget doubling failed to converge");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_graph::{algo, generators};
    use csp_sim::{DelayModel, ModelOracle};

    fn worst() -> ModelOracle {
        ModelOracle::new(DelayModel::WorstCase, 0)
    }

    #[test]
    fn hybrid_distances_are_exact() {
        let g = generators::connected_gnp(14, 0.25, generators::WeightDist::Uniform(1, 10), 6);
        let source = NodeId::new(0);
        let row = Claim::SptHybrid {
            source,
            delta: 4,
            k: 2,
        };
        let out = row.run(&g, worst()).unwrap();
        assert_eq!(out.dists, algo::distances(&g, source));
    }

    #[test]
    fn hybrid_cost_within_constant_of_best_component() {
        let g = generators::grid(3, 4, generators::WeightDist::Uniform(1, 8), 2);
        let source = NodeId::new(0);
        let comm = |row: Claim| row.run(&g, worst()).unwrap().cost.weighted_comm;
        let best =
            comm(Claim::SptRecur { source, delta: 4 }).min(comm(Claim::SptSynch { source, k: 2 }));
        let hybrid = comm(Claim::SptHybrid {
            source,
            delta: 4,
            k: 2,
        });
        assert!(
            hybrid <= best * 16,
            "hybrid {hybrid} ≫ 16×best component {best}"
        );
    }
}
