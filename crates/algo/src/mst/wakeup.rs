//! Wake-up stages for GHS (Sections 8.1 and 8.2).
//!
//! The paper's `MST_ghs` starts with a *wake-up stage*: a single
//! initiator activates the network before the GHS work stage runs —
//! by flooding in §8.1 (`O(Ê)` extra communication, `O(D̂)` time), or by
//! the controlled DFS in §8.2 (also `O(Ê)`, but leaving the root with a
//! running estimate of the communication spent, the hook `MST_hybrid`
//! arbitrates on). The bare GHS row
//! ([`Claim::MstGhs`](crate::catalogue::Claim::MstGhs)) wakes
//! every vertex spontaneously (GHS's other standard mode); these
//! variants reproduce the single-initiator protocols.

use crate::dfs::{Dfs, DfsMsg};
use crate::mst::ghs::{Ghs, GhsMsg};
use crate::util::tree_from_branches;
use csp_graph::{NodeId, RootedTree, WeightedGraph};
use csp_sim::{Context, CostClass, CostReport, DelayModel, Process, SimError, Simulator};
use std::collections::VecDeque;

/// How the network is awakened.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WakeUp {
    /// §8.1: the initiator floods a wake-up token.
    Flood,
    /// §8.2: the initiator's DFS token visits (and wakes) every vertex.
    Dfs,
}

/// Messages of the wake-staged GHS.
#[derive(Clone, Debug)]
pub enum WakeMsg {
    /// Flood wake-up token.
    Wake,
    /// Embedded DFS traffic (DFS wake-up only).
    Dfs(DfsMsg),
    /// Embedded GHS traffic.
    Ghs(GhsMsg),
}

/// Per-vertex state: an optional DFS, the GHS machine, and the awake
/// flag.
#[derive(Debug)]
pub struct StagedGhs {
    mode: WakeUp,
    initiator: bool,
    awake: bool,
    dfs: Dfs,
    ghs: Ghs,
    /// GHS messages that arrived before this vertex awoke.
    early: VecDeque<(NodeId, GhsMsg)>,
}

impl StagedGhs {
    /// Creates the per-vertex state for a wake-staged GHS initiated at
    /// `root`.
    pub fn new(v: NodeId, g: &WeightedGraph, root: NodeId, mode: WakeUp) -> Self {
        StagedGhs {
            mode,
            initiator: v == root,
            awake: false,
            dfs: Dfs::new(v, g, root),
            ghs: Ghs::new(v, g),
            early: VecDeque::new(),
        }
    }

    /// Access to the embedded GHS state (branch edges, halt flag).
    pub fn ghs(&self) -> &Ghs {
        &self.ghs
    }

    /// Whether this vertex was awakened.
    pub fn awake(&self) -> bool {
        self.awake
    }

    fn relay_ghs(
        &mut self,
        ctx: &mut Context<'_, WakeMsg>,
        inner_run: impl FnOnce(&mut Ghs, &mut Context<'_, GhsMsg>),
    ) {
        let mut inner = ctx.derive::<GhsMsg>();
        inner_run(&mut self.ghs, &mut inner);
        for (to, msg, class) in inner.take_outbox() {
            ctx.send_class(to, WakeMsg::Ghs(msg), class);
        }
    }

    fn relay_dfs(
        &mut self,
        ctx: &mut Context<'_, WakeMsg>,
        inner_run: impl FnOnce(&mut Dfs, &mut Context<'_, DfsMsg>),
    ) {
        let mut inner = ctx.derive::<DfsMsg>();
        inner_run(&mut self.dfs, &mut inner);
        for (to, msg, _class) in inner.take_outbox() {
            // All wake-stage traffic is auxiliary to the MST itself.
            ctx.send_class(to, WakeMsg::Dfs(msg), CostClass::Auxiliary);
        }
    }

    /// First activation: start the GHS machine and drain early arrivals.
    fn wake(&mut self, ctx: &mut Context<'_, WakeMsg>) {
        if self.awake {
            return;
        }
        self.awake = true;
        self.relay_ghs(ctx, |ghs, inner| ghs.on_start(inner));
        while let Some((from, msg)) = self.early.pop_front() {
            self.relay_ghs(ctx, |ghs, inner| ghs.on_message(from, msg, inner));
        }
    }
}

impl Process for StagedGhs {
    type Msg = WakeMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, WakeMsg>) {
        if !self.initiator {
            return;
        }
        match self.mode {
            WakeUp::Flood => {
                let targets: Vec<NodeId> = ctx.neighbors().map(|(u, _, _)| u).collect();
                for u in targets {
                    ctx.send_class(u, WakeMsg::Wake, CostClass::Auxiliary);
                }
            }
            WakeUp::Dfs => self.relay_dfs(ctx, |dfs, inner| dfs.on_start(inner)),
        }
        self.wake(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: WakeMsg, ctx: &mut Context<'_, WakeMsg>) {
        match msg {
            WakeMsg::Wake => {
                if !self.awake {
                    let targets: Vec<NodeId> = ctx.neighbors().map(|(u, _, _)| u).collect();
                    for u in targets {
                        ctx.send_class(u, WakeMsg::Wake, CostClass::Auxiliary);
                    }
                    self.wake(ctx);
                }
            }
            WakeMsg::Dfs(m) => {
                self.relay_dfs(ctx, |dfs, inner| dfs.on_message(from, m, inner));
                // The token's visit awakens the vertex.
                self.wake(ctx);
            }
            WakeMsg::Ghs(m) => {
                if self.awake {
                    self.relay_ghs(ctx, |ghs, inner| ghs.on_message(from, m, inner));
                } else {
                    // GHS raced ahead of the wake-up: buffer until awake.
                    // (Connect from an already-awake neighbor can arrive
                    // before our Wake token.)
                    self.early.push_back((from, m));
                }
            }
        }
    }
}

/// Outcome of a wake-staged GHS run.
#[derive(Debug)]
pub struct StagedGhsOutcome {
    /// The minimum spanning tree (rooted at the initiator).
    pub tree: RootedTree,
    /// Metered costs; wake-stage traffic is
    /// [`CostClass::Auxiliary`].
    pub cost: CostReport,
}

/// Runs GHS with a single-initiator wake-up stage (Sections 8.1/8.2).
///
/// # Errors
///
/// Propagates [`SimError`] from the simulator.
///
/// # Panics
///
/// Panics if `g` is disconnected or `root` is out of range.
pub fn run_mst_ghs_staged(
    g: &WeightedGraph,
    root: NodeId,
    mode: WakeUp,
    delay: DelayModel,
    seed: u64,
) -> Result<StagedGhsOutcome, SimError> {
    g.check_node(root);
    if g.node_count() == 1 {
        return Ok(StagedGhsOutcome {
            tree: RootedTree::new(1, root),
            cost: CostReport::new(0),
        });
    }
    let run = Simulator::new(g)
        .delay(delay)
        .seed(seed)
        .run(|v, g| StagedGhs::new(v, g, root, mode))?;
    assert!(
        run.states.iter().all(StagedGhs::awake),
        "wake-up must reach every vertex"
    );
    assert!(
        run.states.iter().any(|s| s.ghs().halted()),
        "GHS must detect termination"
    );
    let tree = tree_from_branches(g, root, |v| run.states[v.index()].ghs().branch_neighbors());
    assert!(tree.is_spanning(), "staged GHS tree must span");
    Ok(StagedGhsOutcome {
        tree,
        cost: run.cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_graph::params::CostParams;
    use csp_graph::{algo, generators};

    #[test]
    fn both_wake_modes_find_the_canonical_mst() {
        for seed in 0..4 {
            let g =
                generators::connected_gnp(18, 0.25, generators::WeightDist::Uniform(1, 40), seed);
            let reference = algo::prim_mst(&g, NodeId::new(0)).weight();
            for mode in [WakeUp::Flood, WakeUp::Dfs] {
                let out = run_mst_ghs_staged(&g, NodeId::new(0), mode, DelayModel::Uniform, seed)
                    .unwrap();
                assert_eq!(out.tree.weight(), reference, "{mode:?} seed {seed}");
            }
        }
    }

    #[test]
    fn wake_stage_overhead_is_o_e_hat() {
        let g = generators::grid(4, 5, generators::WeightDist::Uniform(1, 12), 7);
        let p = CostParams::of(&g);
        for (mode, factor) in [(WakeUp::Flood, 2u128), (WakeUp::Dfs, 12u128)] {
            let out =
                run_mst_ghs_staged(&g, NodeId::new(0), mode, DelayModel::WorstCase, 0).unwrap();
            let wake_comm = out.cost.comm_of(CostClass::Auxiliary);
            assert!(
                wake_comm <= p.total_weight * factor,
                "{mode:?}: wake comm {wake_comm} > {factor}·Ê"
            );
        }
    }

    #[test]
    fn staged_matches_spontaneous_tree() {
        let g = generators::heavy_chord_cycle(14, 60);
        let spontaneous = crate::mst::ghs::tests::ghs(&g, 0, DelayModel::WorstCase, 0)
            .tree
            .unwrap()
            .weight();
        let staged =
            run_mst_ghs_staged(&g, NodeId::new(0), WakeUp::Flood, DelayModel::WorstCase, 0)
                .unwrap()
                .tree
                .weight();
        assert_eq!(staged, spontaneous);
    }

    #[test]
    fn two_vertex_graph_with_dfs_wake() {
        let g = generators::path(2, |_| 3);
        let out =
            run_mst_ghs_staged(&g, NodeId::new(0), WakeUp::Dfs, DelayModel::WorstCase, 0).unwrap();
        assert_eq!(out.tree.weight().get(), 3);
    }
}
