//! `CON_flood` — flooding broadcast and spanning-tree construction
//! (Section 6.1).
//!
//! The initiator sends a token to all neighbors; every vertex forwards the
//! token to all its neighbors on first receipt and records the first
//! sender as its parent. The marked edges form a spanning tree rooted at
//! the initiator.
//!
//! Fact 6.1: communication `O(Ê)` (at most two messages per edge, each of
//! cost `w(e)`), time `O(D̂)` (the token reaches every vertex within its
//! weighted distance from the initiator).

use csp_graph::NodeId;
use csp_sim::{Context, FaultAware, Process};

/// Per-vertex state of the flooding protocol.
#[derive(Clone, Debug, Hash)]
pub struct Flood {
    /// Whether this vertex initiates the flood.
    initiator: bool,
    /// First vertex the token arrived from (`None` at the initiator).
    parent: Option<NodeId>,
    /// Whether the token has been seen.
    reached: bool,
}

impl Flood {
    /// Creates the per-vertex state; exactly one vertex should be the
    /// initiator.
    pub fn new(is_initiator: bool) -> Self {
        Flood {
            initiator: is_initiator,
            parent: None,
            reached: false,
        }
    }

    /// The parent in the flood tree (`None` for the initiator and
    /// unreached vertices).
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// Whether the token reached this vertex.
    pub fn reached(&self) -> bool {
        self.reached
    }
}

impl Process for Flood {
    type Msg = ();

    fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
        if self.initiator {
            self.reached = true;
            ctx.send_all(());
        }
    }

    fn on_message(&mut self, from: NodeId, _msg: (), ctx: &mut Context<'_, ()>) {
        if !self.reached {
            self.reached = true;
            self.parent = Some(from);
            ctx.send_all(());
        }
    }
}

/// Flooding ignores fault upcalls: a dead neighbor only ever costs the
/// one token it would have forwarded. Opting in lets the protocol ride
/// inside [`Reliable`](csp_sim::Reliable) and
/// [`Detect`](csp_sim::Detect).
impl FaultAware for Flood {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::{Claim, Outcome};
    use csp_graph::params::CostParams;
    use csp_graph::{generators, WeightedGraph};
    use csp_sim::{DelayModel, ModelOracle};

    fn flood(g: &WeightedGraph, root: usize, delay: DelayModel, seed: u64) -> Outcome {
        let row = Claim::Flood {
            root: NodeId::new(root),
        };
        row.run(g, ModelOracle::new(delay, seed)).unwrap()
    }

    #[test]
    fn flood_spans_and_respects_fact_6_1() {
        let g = generators::connected_gnp(30, 0.15, generators::WeightDist::Uniform(1, 16), 2);
        let row = Claim::Flood {
            root: NodeId::new(0),
        };
        let out = row
            .run(&g, ModelOracle::new(DelayModel::WorstCase, 0))
            .unwrap();
        // comm ≤ 2·Ê; time ≤ D̂ + W under worst-case delays: the token
        // reaches each vertex no later than its weighted distance, but the
        // last *message* may land later (an edge into an already-reached
        // vertex).
        let bounds = row.bounds(&g, &CostParams::of(&g));
        let (comm, time) = row.measure(&out);
        assert!(bounds.comm.unwrap().admits(comm), "comm {comm} > 2·Ê");
        assert!(
            bounds.time.unwrap().admits(time.into()),
            "completion {time} > D̂+W"
        );
    }

    #[test]
    fn flood_tree_depths_bounded_by_distance_under_worst_case() {
        // Under exact (worst-case) delays the token arrives at each vertex
        // exactly at its weighted distance, so parents realize shortest
        // paths.
        let g = generators::heavy_chord_cycle(14, 60);
        let tree = flood(&g, 0, DelayModel::WorstCase, 0).tree.unwrap();
        let dist = csp_graph::algo::distances(&g, NodeId::new(0));
        for v in g.nodes() {
            assert_eq!(tree.depth(v), dist[v.index()], "depth mismatch at {v}");
        }
    }

    #[test]
    fn flood_under_random_delays_still_spans() {
        let g = generators::grid(5, 5, generators::WeightDist::Uniform(1, 9), 7);
        for seed in 0..4 {
            let tree = flood(&g, 12, DelayModel::Uniform, seed).tree.unwrap();
            assert_eq!(tree.root(), NodeId::new(12));
        }
    }

    #[test]
    fn exactly_one_message_per_direction_at_most() {
        let g = generators::cycle(10, |_| 3);
        let out = flood(&g, 0, DelayModel::WorstCase, 0);
        assert!(out.cost.max_edge_congestion() <= 2);
        assert!(out.cost.messages <= 2 * g.edge_count() as u64);
    }
}
