//! Distributed shallow-light tree construction (Theorem 2.7).
//!
//! The paper's recipe: build the MST with `MST_centr`
//! (`O(n·V̂)` comm, `O(n²·D̂)` time via Fact 6.3), after which *every*
//! tree vertex knows the whole MST (the full-information invariant);
//! stretching the MST into the line `L` and scanning for breakpoints is
//! then pure local computation, and one more `SPT_centr` pass over the
//! spliced subgraph `G'` finishes the job (`O(n²·V̂)` comm, `O(n·D̂)`
//! time). Overall `O(V̂·n²)` communication and `O(D̂·n²)` time.
//!
//! Every vertex outputs its parent in the resulting SLT. The run and its
//! bounds are the Figure 5 row, [`Claim::Slt`].

use crate::catalogue::{Claim, Outcome};
use csp_graph::slt::shallow_light_tree;
use csp_graph::{GraphBuilder, NodeId, WeightedGraph};
use csp_sim::{LinkOracle, SimError};

/// Runs the distributed SLT construction rooted at `root` with
/// breakpoint parameter `q`, each pass under its own copy of `oracle`.
///
/// The two communication-bearing passes (`MST_centr` on `G`, `SPT_centr`
/// on the spliced `G'`) are executed distributedly and metered, composed
/// in sequence; the line stretching and breakpoint scan between them are
/// local computation at every (fully informed) vertex and cost nothing,
/// exactly as in the paper's Theorem 2.7 accounting.
pub(crate) fn run<O: LinkOracle + Clone>(
    g: &WeightedGraph,
    root: NodeId,
    q: u64,
    oracle: &O,
) -> Result<Outcome, SimError> {
    // Pass 1: distributed MST; afterwards every vertex knows the tree.
    let mut cost = Claim::MstCentr { root }.run(g, oracle.clone())?.cost;

    // Local computation at every vertex: Euler tour, breakpoints, splice.
    // (`shallow_light_tree` recomputes the same canonical MST internally —
    // identical to what the vertices now hold.)
    let reference = shallow_light_tree(g, root, q);

    // Pass 2: distributed SPT over G' = MST ∪ spliced paths.
    let mut present = std::collections::HashSet::new();
    let mut b = GraphBuilder::new(g.node_count());
    for (child, parent, _, w) in reference.tree.edges() {
        let key = (child.min(parent), child.max(parent));
        if present.insert(key) {
            b.edge(key.0.index(), key.1.index(), w.get());
        }
    }
    let g_prime = b.build().expect("SLT edges form a valid graph");
    let mut spliced = Claim::SptCentr { source: root }
        .run(&g_prime, oracle.clone())?
        .cost;
    // G' is a subgraph of G: carry its per-edge counts to G's edge ids.
    let mut per_edge = vec![0; g.edge_count()];
    for (e, &count) in g_prime.edges().zip(&spliced.per_edge_messages) {
        let eid = g
            .edge_between(e.u(), e.v())
            .expect("G' edges are edges of G");
        per_edge[eid.index()] += count;
    }
    spliced.per_edge_messages = per_edge;
    cost.then(&spliced);
    Ok(Outcome::spanning(cost, reference.tree))
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_graph::generators;
    use csp_graph::params::CostParams;
    use csp_sim::{DelayModel, ModelOracle};

    fn worst() -> ModelOracle {
        ModelOracle::new(DelayModel::WorstCase, 0)
    }

    #[test]
    fn distributed_slt_satisfies_both_bounds() {
        let q = 2u64;
        for seed in 0..3 {
            let g =
                generators::connected_gnp(16, 0.2, generators::WeightDist::Uniform(1, 24), seed);
            let p = CostParams::of(&g);
            let row = Claim::Slt {
                root: NodeId::new(0),
                q,
            };
            let tree = row.run(&g, worst()).unwrap().tree.unwrap();
            // Lemma 2.4 and 2.5 bounds.
            assert!(tree.weight().get() * q as u128 <= p.mst_weight.get() * (q as u128 + 2));
            assert!(tree.height() <= p.weighted_diameter * (q as u128 + 1));
        }
    }

    #[test]
    fn communication_is_o_n_squared_v() {
        let g = generators::heavy_chord_cycle(12, 50);
        let row = Claim::Slt {
            root: NodeId::new(0),
            q: 2,
        };
        let out = row.run(&g, worst()).unwrap();
        let bound = row.bounds(&g, &CostParams::of(&g)).comm.unwrap();
        assert!(
            bound.admits(out.cost.weighted_comm.get()),
            "comm {} > 8·n²·V̂",
            out.cost.weighted_comm
        );
        assert_eq!(
            out.cost.per_edge_messages.iter().sum::<u64>(),
            out.cost.messages
        );
    }
}
