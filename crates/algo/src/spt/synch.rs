//! `SPT_synch` — the synchronous shortest-path tree algorithm
//! (Section 9.1).
//!
//! On a *synchronous* weighted network, where a message sent at pulse `p`
//! over edge `e` arrives exactly at pulse `p + w(e)`, shortest paths
//! compute themselves: the source floods at pulse 0, and the first token
//! to reach a vertex arrives exactly at its weighted distance, from an
//! SPT parent. One message crosses each edge direction at most once, so
//! the synchronous protocol costs `O(Ê)` communication and `D̂` time.
//!
//! [`run_spt_synch_ideal`] executes this directly on the lock-step
//! [`SyncRunner`]. The full `SPT_synch` of the paper — the
//! [`SptSynch`](crate::catalogue::Claim::SptSynch) row — runs the same
//! protocol on an *asynchronous* network through the network synchronizer
//! γ_w of `csp-sync`, paying the synchronizer's `O(k·n·log n)` per-pulse
//! communication overhead (Corollary 9.1: `O(Ê + D̂·k·n·log n)` total).

use crate::catalogue::Outcome;
use csp_graph::{Cost, NodeId, WeightedGraph};
use csp_sim::sync::{SyncContext, SyncProcess, SyncRunner};
use csp_sync::net::GammaWHost;

/// Per-vertex state of the synchronous SPT flood.
#[derive(Clone, Debug)]
pub struct SptSynch {
    source: NodeId,
    /// Pulse of first arrival — exactly the weighted distance.
    dist: Option<u64>,
    parent: Option<NodeId>,
}

impl SptSynch {
    /// Creates the per-vertex state for a run from `source`.
    pub fn new(v: NodeId, source: NodeId) -> Self {
        SptSynch {
            source,
            dist: if v == source { Some(0) } else { None },
            parent: None,
        }
    }

    /// Weighted distance from the source (after the run).
    pub fn dist(&self) -> Option<Cost> {
        self.dist.map(|d| Cost::new(d as u128))
    }

    /// SPT parent pointer.
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    fn flood(&self, ctx: &mut SyncContext<'_, ()>) {
        let targets: Vec<NodeId> = ctx.neighbors().map(|(u, _, _)| u).collect();
        for u in targets {
            ctx.send(u, ());
        }
    }
}

impl SyncProcess for SptSynch {
    type Msg = ();

    fn on_pulse(&mut self, pulse: u64, inbox: &[(NodeId, ())], ctx: &mut SyncContext<'_, ()>) {
        if pulse == 0 {
            if ctx.self_id() == self.source {
                self.flood(ctx);
            }
            ctx.finish();
            return;
        }
        if self.dist.is_none() {
            if let Some(&(from, ())) = inbox.first() {
                self.dist = Some(pulse);
                self.parent = Some(from);
                self.flood(ctx);
            }
        }
        // Late duplicate arrivals are ignored; `finish` was already
        // declared at pulse 0, so the runner stops at quiescence.
    }
}

/// Runs the synchronous SPT on the lock-step weighted synchronous
/// executor (the idealized network the synchronizer simulates): its
/// `completion` is `D̂`.
///
/// # Panics
///
/// Panics if `g` is disconnected, `s` is out of range, or the run
/// exceeds the pulse budget (`D̂` pulses are needed).
pub fn run_spt_synch_ideal(g: &WeightedGraph, s: NodeId) -> Outcome {
    g.check_node(s);
    let run = SyncRunner::new(&g.clone())
        .pulse_limit(u64::MAX / 4)
        .run(|v, _| SptSynch::new(v, s))
        .expect("synchronous SPT cannot exceed the pulse budget");
    let per_vertex = run.states.iter().map(|st| (st.parent(), st.dist()));
    Outcome::shortest_paths(g, s, run.cost, per_vertex)
}

/// The γ_w hosts of `SPT_synch` from `s` with cluster parameter `k`.
/// The synchronous SPT finishes at pulse D̂ (the eccentricity of `s`) and
/// the synchronizer needs the horizon up front (Section 4 provides
/// pulses, not termination detection — see the γ_w docs): the last
/// vertex fires at pulse D̂ and its (ignored) echo messages land at most
/// `W` pulses later.
///
/// # Panics
///
/// Panics if `k < 2`.
pub(crate) fn hosts(
    g: &WeightedGraph,
    s: NodeId,
    k: usize,
) -> impl Fn(NodeId, &WeightedGraph) -> GammaWHost<SptSynch> + Sync {
    let ecc = csp_graph::algo::distances(g, s)
        .into_iter()
        .map(|d| d.get() as u64)
        .max()
        .unwrap_or(0);
    let horizon = ecc + g.max_weight().get() + 1;
    GammaWHost::factory(g, k, horizon, move |v, _| SptSynch::new(v, s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::Claim;
    use csp_graph::params::CostParams;
    use csp_graph::{algo, generators};
    use csp_sim::{DelayModel, ModelOracle};

    #[test]
    fn ideal_run_matches_dijkstra_exactly() {
        for seed in 0..4 {
            let g =
                generators::connected_gnp(20, 0.25, generators::WeightDist::Uniform(1, 20), seed);
            let out = run_spt_synch_ideal(&g, NodeId::new(0));
            let reference = algo::distances(&g, NodeId::new(0));
            let tree = out.tree.unwrap();
            for v in g.nodes() {
                assert_eq!(out.dists[v.index()], reference[v.index()]);
                assert_eq!(tree.depth(v), reference[v.index()]);
            }
        }
    }

    #[test]
    fn ideal_run_costs_at_most_two_messages_per_edge_and_time_d() {
        let g = generators::heavy_chord_cycle(16, 40);
        let p = CostParams::of(&g);
        let out = run_spt_synch_ideal(&g, NodeId::new(0));
        assert!(out.cost.weighted_comm <= p.total_weight * 2);
        assert!(
            Cost::new(out.cost.completion.get() as u128)
                <= p.weighted_diameter + p.max_weight.to_cost(),
            "time {} > D̂ + W",
            out.cost.completion
        );
    }

    #[test]
    fn synchronized_run_matches_dijkstra() {
        let g = generators::connected_gnp(12, 0.25, generators::WeightDist::Uniform(1, 8), 3);
        let row = Claim::SptSynch {
            source: NodeId::new(0),
            k: 2,
        };
        let out = row
            .run(&g, ModelOracle::new(DelayModel::WorstCase, 0))
            .unwrap();
        assert_eq!(out.dists, algo::distances(&g, NodeId::new(0)));
    }
}
