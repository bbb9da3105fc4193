//! Convergecast + broadcast evaluation of a global function over a
//! locally computed spanning tree (Corollary 2.3).
//!
//! The paper's model for this problem (Section 1.4.1) gives every vertex
//! full knowledge of the network structure; only the `n` inputs are
//! distributed. Each vertex therefore computes the *same* spanning tree
//! deterministically from the graph, then:
//!
//! 1. **Convergecast**: each leaf sends its lifted input to its parent;
//!    each interior vertex folds its own input with all children's partial
//!    results and forwards one value to its parent.
//! 2. **Broadcast**: the root folds the last partial results, obtains the
//!    output, and floods it down the tree; every vertex outputs it.
//!
//! Over a shallow-light tree this costs `2·w(T) = O(V̂)` communication and
//! `O(Diam(T)) = O(D̂)` time — matching the lower bounds of Theorem 2.1.

use crate::global::functions::SymmetricCompact;
use csp_graph::algo::{bfs_tree, prim_mst, shortest_path_tree};
use csp_graph::slt::shallow_light_tree;
use csp_graph::{NodeId, RootedTree, WeightedGraph};
use csp_sim::{Context, Process};

/// Which spanning tree the computation is convergecast over.
///
/// The tree choice is the whole story of Section 2: SPTs are shallow but
/// can be heavy (`w(T_S) = Ω(n·V̂)`), MSTs are light but can be deep
/// (`Diam(T_M) = Ω(n·D̂)`); the SLT is both.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TreeKind {
    /// Shallow-light tree with breakpoint parameter `q`: the optimal
    /// choice (`O(V̂)` comm, `O(D̂)` time).
    Slt {
        /// Breakpoint parameter (`q ≥ 1`); 2 is a good default.
        q: u64,
    },
    /// Minimum spanning tree: light (`w = V̂`) but possibly deep.
    Mst,
    /// Shortest-path tree: shallow (`depth ≤ D̂`) but possibly heavy.
    Spt,
    /// Hop-BFS tree: the weight-oblivious classical baseline.
    Bfs,
}

impl TreeKind {
    /// Builds the deterministic tree every vertex agrees on.
    pub fn build(self, g: &WeightedGraph, root: NodeId) -> RootedTree {
        match self {
            TreeKind::Slt { q } => shallow_light_tree(g, root, q).tree,
            TreeKind::Mst => prim_mst(g, root),
            TreeKind::Spt => shortest_path_tree(g, root),
            TreeKind::Bfs => bfs_tree(g, root),
        }
    }
}

/// Messages of the convergecast/broadcast protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GlobalMsg {
    /// Partial fold moving toward the root.
    Up(u64),
    /// Final result moving toward the leaves.
    Down(u64),
}

/// Per-vertex state of the global computation.
#[derive(Clone, Debug)]
pub struct GlobalFunction<F> {
    function: F,
    input: u64,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    pending: usize,
    acc: u64,
    result: Option<u64>,
}

impl<F: SymmetricCompact> GlobalFunction<F> {
    /// Creates the state at `v`: computes the shared tree locally and
    /// positions itself in it.
    pub fn new(v: NodeId, g: &WeightedGraph, function: F, input: u64, tree: &RootedTree) -> Self {
        let _ = g;
        let parent = tree.parent(v).map(|(p, _, _)| p);
        let children: Vec<NodeId> = tree.children_lists()[v.index()]
            .iter()
            .map(|&(c, _)| c)
            .collect();
        let acc = function.lift(input);
        GlobalFunction {
            function,
            input,
            parent,
            pending: children.len(),
            children,
            acc,
            result: None,
        }
    }

    /// The computed output (available after the run).
    pub fn result(&self) -> Option<u64> {
        self.result
    }

    /// The raw input this vertex contributed.
    pub fn input(&self) -> u64 {
        self.input
    }

    fn forward_or_finish(&mut self, ctx: &mut Context<'_, GlobalMsg>) {
        if self.pending > 0 {
            return;
        }
        match self.parent {
            Some(p) => {
                ctx.send(p, GlobalMsg::Up(self.acc));
            }
            None => {
                // Root: the fold is complete.
                self.result = Some(self.acc);
                for c in self.children.clone() {
                    ctx.send(c, GlobalMsg::Down(self.acc));
                }
            }
        }
    }
}

impl<F: SymmetricCompact> Process for GlobalFunction<F> {
    type Msg = GlobalMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, GlobalMsg>) {
        // Leaves (and a degenerate single-vertex root) fire immediately.
        self.forward_or_finish(ctx);
    }

    fn on_message(&mut self, _from: NodeId, msg: GlobalMsg, ctx: &mut Context<'_, GlobalMsg>) {
        match msg {
            GlobalMsg::Up(partial) => {
                self.acc = self.function.combine(self.acc, partial);
                self.pending -= 1;
                self.forward_or_finish(ctx);
            }
            GlobalMsg::Down(result) => {
                self.result = Some(result);
                for c in self.children.clone() {
                    ctx.send(c, GlobalMsg::Down(result));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::Claim;
    use crate::global::functions::{fold_all, Count, Max, Sum, Xor};
    use csp_graph::generators;
    use csp_graph::params::CostParams;
    use csp_sim::{CostReport, DelayModel, ModelOracle, Simulator};

    fn inputs_for(n: usize) -> Vec<u64> {
        (0..n).map(|i| ((i as u64) * 37 + 11) % 101).collect()
    }

    /// `function` folded over `kind`'s tree from vertex `root`: every
    /// vertex's output and the metered cost.
    fn fold<F: SymmetricCompact>(
        g: &WeightedGraph,
        root: usize,
        function: F,
        inputs: &[u64],
        kind: TreeKind,
        delay: DelayModel,
    ) -> (Vec<Option<u64>>, CostReport) {
        let tree = kind.build(g, NodeId::new(root));
        let run = Simulator::new(g)
            .delay(delay)
            .run(|v, g| GlobalFunction::new(v, g, function.clone(), inputs[v.index()], &tree))
            .unwrap();
        (
            run.states.iter().map(GlobalFunction::result).collect(),
            run.cost,
        )
    }

    #[test]
    fn all_vertices_output_the_right_value() {
        let g = generators::connected_gnp(25, 0.2, generators::WeightDist::Uniform(1, 20), 5);
        let inputs = inputs_for(25);
        let expect = Some(fold_all(&Max, &inputs));
        for kind in [
            TreeKind::Slt { q: 2 },
            TreeKind::Mst,
            TreeKind::Spt,
            TreeKind::Bfs,
        ] {
            let (outputs, _) = fold(&g, 0, Max, &inputs, kind, DelayModel::WorstCase);
            assert!(outputs.iter().all(|&o| o == expect), "{kind:?}");
        }
    }

    #[test]
    fn works_for_every_function() {
        let g = generators::grid(4, 5, generators::WeightDist::Uniform(1, 6), 3);
        let inputs = inputs_for(20);
        let kind = TreeKind::Slt { q: 2 };
        macro_rules! check {
            ($f:expr) => {
                let (outputs, _) = fold(&g, 7, $f, &inputs, kind, DelayModel::Uniform);
                assert_eq!(outputs[7], Some(fold_all(&$f, &inputs)));
            };
        }
        check!(Max);
        check!(Sum);
        check!(Xor);
        check!(Count);
    }

    #[test]
    fn slt_meets_theorem_2_1_bounds() {
        // comm ≤ 2·w(SLT) ≤ 2(1+2/q)V̂ and time ≤ 2·(q+1)·D̂.
        for q in [1, 2, 4] {
            for seed in 0..4 {
                let g = generators::connected_gnp(
                    30,
                    0.15,
                    generators::WeightDist::Uniform(1, 64),
                    seed,
                );
                let row = Claim::GlobalSlt {
                    root: NodeId::new(0),
                    q,
                    inputs: inputs_for(30),
                };
                let out = row
                    .run(&g, ModelOracle::new(DelayModel::WorstCase, 0))
                    .unwrap();
                let bounds = row.bounds(&g, &CostParams::of(&g));
                let (comm, time) = row.measure(&out);
                assert!(bounds.comm.unwrap().admits(comm), "comm {comm} > 2(1+2/q)V̂");
                assert!(
                    bounds.time.unwrap().admits(time.into()),
                    "time {time} > 2(q+1)D̂"
                );
            }
        }
    }

    #[test]
    fn exactly_two_messages_per_tree_edge() {
        let g = generators::cycle(12, |i| i as u64 + 1);
        let row = Claim::GlobalMst {
            root: NodeId::new(0),
            inputs: inputs_for(12),
        };
        let out = row
            .run(&g, ModelOracle::new(DelayModel::WorstCase, 0))
            .unwrap();
        // n-1 tree edges, one Up and one Down each.
        assert_eq!(out.cost.messages, 2 * 11);
        assert_eq!(out.cost.weighted_comm, out.tree.unwrap().weight() * 2);
    }

    #[test]
    fn single_vertex_graph_degenerates_gracefully() {
        let g = csp_graph::GraphBuilder::new(1).build().unwrap();
        let (outputs, cost) = fold(&g, 0, Sum, &[42], TreeKind::Mst, DelayModel::WorstCase);
        assert_eq!(outputs, [Some(42)]);
        assert_eq!(cost.messages, 0);
    }

    #[test]
    fn lower_bound_witness_spt_vs_slt_weight() {
        // On the family where the SPT is heavy, convergecast over the SPT
        // costs ≫ the SLT's O(V̂): the paper's motivation for SLTs.
        let g = generators::lower_bound_family(16, 4);
        let root = NodeId::new(0);
        let inputs = inputs_for(16);
        let worst = || ModelOracle::new(DelayModel::WorstCase, 0);
        let spt = Claim::GlobalSpt {
            root,
            inputs: inputs.clone(),
        };
        let slt = Claim::GlobalSlt { root, q: 2, inputs };
        let spt = spt.run(&g, worst()).unwrap().cost.weighted_comm;
        let slt = slt.run(&g, worst()).unwrap().cost.weighted_comm;
        assert!(slt <= spt);
    }
}
