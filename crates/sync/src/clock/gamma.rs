//! Clock synchronizer γ\* (Section 3.3).
//!
//! Preprocessing builds a **tree edge-cover** (Definition 3.1, via
//! [`csp_graph::cover::tree_edge_cover`]): a collection of trees of depth
//! `O(d·log n)` such that every edge's endpoints share a tree and no
//! vertex lies in more than `O(log n)` trees.
//!
//! Per pulse, two phases:
//!
//! 1. **β inside each tree**: completion reports convergecast to the tree
//!    leader, which broadcasts `TreeDone` back down;
//! 2. **α among trees**: for every pair of *neighboring* trees (trees
//!    sharing a vertex), a designated shared vertex relays the neighbor's
//!    `TreeDone` toward the other leader; once a leader knows its own
//!    tree and all neighboring trees are done, it broadcasts `Go`, and a
//!    vertex generates the next pulse when all its trees said `Go`.
//!
//! Congestion adds at most a `O(log n)` factor over the `O(d·log n)`
//! tree depth, so the pulse delay is `O(d·log² n)` — near the `Ω(d)`
//! lower bound, and far below α\*'s `O(W)` when heavy edges have light
//! detours.

use csp_graph::cover::{tree_edge_cover, TreeEdgeCover};
use csp_graph::{NodeId, WeightedGraph};
use csp_sim::{Context, CostClass, Process, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// γ\* messages. `tree` always addresses the tree whose structure the
/// message travels on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GammaMsg {
    /// Convergecast: subtree of `tree` finished pulse `p`.
    DoneUp {
        /// Tree index in the cover.
        tree: usize,
        /// Pulse index.
        pulse: u64,
    },
    /// Broadcast: all of `tree` finished pulse `p`.
    TreeDone {
        /// Tree index in the cover.
        tree: usize,
        /// Pulse index.
        pulse: u64,
    },
    /// Relay climbing `tree` toward its leader: neighboring tree `from`
    /// is done with pulse `p`.
    NbrDone {
        /// Destination tree (whose leader must learn the fact).
        tree: usize,
        /// The neighboring tree that finished.
        from: usize,
        /// Pulse index.
        pulse: u64,
    },
    /// Broadcast: `tree` and all its neighbors are done; members may
    /// count `tree` toward generating pulse `p + 1`.
    Go {
        /// Tree index in the cover.
        tree: usize,
        /// Pulse index.
        pulse: u64,
    },
}

/// A vertex's `(parent, children)` within one cover tree.
type TreePosition = (Option<NodeId>, Vec<NodeId>);

/// Static per-vertex placement inside the cover, shared by all vertices.
#[derive(Debug)]
struct CoverLayout {
    /// Trees containing each vertex.
    trees_of: Vec<Vec<usize>>,
    /// `(parent, children)` of each vertex in each tree (indexed
    /// `[tree][vertex]`), `None` if the vertex is outside the tree.
    position: Vec<Vec<Option<TreePosition>>>,
    /// Neighboring trees of each tree.
    tree_neighbors: Vec<BTreeSet<usize>>,
    /// For each ordered pair `(a, b)` of neighboring trees, the single
    /// vertex responsible for relaying `TreeDone(a)` into `b`.
    relay: BTreeMap<(usize, usize), NodeId>,
}

impl CoverLayout {
    fn build(g: &WeightedGraph, cover: &TreeEdgeCover) -> Self {
        let n = g.node_count();
        let t = cover.trees.len();
        let mut trees_of = vec![Vec::new(); n];
        let mut position = vec![vec![None; n]; t];
        for (ti, tree) in cover.trees.iter().enumerate() {
            let children = tree.children_lists();
            for v in tree.members() {
                trees_of[v.index()].push(ti);
                let parent = tree.parent(v).map(|(p, _, _)| p);
                let kids = children[v.index()].iter().map(|&(c, _)| c).collect();
                position[ti][v.index()] = Some((parent, kids));
            }
        }
        let mut tree_neighbors = vec![BTreeSet::new(); t];
        let mut relay = BTreeMap::new();
        for (v, ts) in trees_of.iter().enumerate() {
            for (i, &a) in ts.iter().enumerate() {
                for &b in &ts[i + 1..] {
                    tree_neighbors[a].insert(b);
                    tree_neighbors[b].insert(a);
                    // smallest shared vertex is responsible, both ways
                    relay.entry((a, b)).or_insert(NodeId::new(v));
                    relay.entry((b, a)).or_insert(NodeId::new(v));
                }
            }
        }
        CoverLayout {
            trees_of,
            position,
            tree_neighbors,
            relay,
        }
    }
}

/// Per-(tree, pulse) progress at one vertex.
#[derive(Clone, Debug, Default)]
struct TreeRound {
    done_up: usize,
    tree_done: bool,
    nbr_done: BTreeSet<usize>,
    go: bool,
}

/// Per-vertex state of synchronizer γ\*.
#[derive(Clone, Debug)]
pub struct GammaStar {
    layout: Arc<CoverLayout>,
    pulses: u64,
    current: u64,
    times: Vec<SimTime>,
    /// Progress per (tree, pulse).
    rounds: BTreeMap<(usize, u64), TreeRound>,
}

impl GammaStar {
    /// Builds the tree edge-cover of `g` once and returns the per-vertex
    /// constructor for a run of `pulses` pulses on `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is disconnected or has no edges (the tree
    /// edge-cover is undefined).
    pub fn factory(
        g: &WeightedGraph,
        pulses: u64,
    ) -> impl Fn(NodeId, &WeightedGraph) -> Self + Sync {
        let layout = Arc::new(CoverLayout::build(g, &tree_edge_cover(g)));
        move |_, _| GammaStar {
            layout: Arc::clone(&layout),
            pulses,
            current: 0,
            times: Vec::new(),
            rounds: BTreeMap::new(),
        }
    }

    /// Recorded pulse generation times.
    pub fn times(&self) -> &[SimTime] {
        &self.times
    }

    fn my_position(&self, tree: usize, me: NodeId) -> &(Option<NodeId>, Vec<NodeId>) {
        self.layout.position[tree][me.index()]
            .as_ref()
            .expect("message routed within a containing tree")
    }

    fn generate(&mut self, pulse: u64, ctx: &mut Context<'_, GammaMsg>) {
        self.current = pulse;
        self.times.push(ctx.time());
        if pulse + 1 >= self.pulses {
            return;
        }
        // Phase 1 kickoff in every containing tree.
        let me = ctx.self_id();
        for tree in self.layout.trees_of[me.index()].clone() {
            self.maybe_done_up(tree, pulse, ctx);
        }
    }

    /// Convergecast step: report `DoneUp` when self + all children in the
    /// tree are done with `pulse`.
    fn maybe_done_up(&mut self, tree: usize, pulse: u64, ctx: &mut Context<'_, GammaMsg>) {
        let me = ctx.self_id();
        if (self.times.len() as u64) <= pulse {
            return; // haven't generated this pulse yet
        }
        let (parent, children) = self.my_position(tree, me).clone();
        let round = self.rounds.entry((tree, pulse)).or_default();
        if round.done_up != children.len() {
            return;
        }
        match parent {
            Some(p) => {
                ctx.send_class(p, GammaMsg::DoneUp { tree, pulse }, CostClass::Synchronizer);
            }
            None => self.on_tree_done(tree, pulse, ctx),
        }
    }

    /// A tree (ours or relayed) is fully done: broadcast inside it and
    /// relay to neighboring trees at the designated shared vertices.
    fn on_tree_done(&mut self, tree: usize, pulse: u64, ctx: &mut Context<'_, GammaMsg>) {
        let me = ctx.self_id();
        {
            let round = self.rounds.entry((tree, pulse)).or_default();
            if round.tree_done {
                return;
            }
            round.tree_done = true;
        }
        let (_, children) = self.my_position(tree, me).clone();
        for c in children {
            ctx.send_class(
                c,
                GammaMsg::TreeDone { tree, pulse },
                CostClass::Synchronizer,
            );
        }
        // Relay duty: for each neighboring tree pair where I'm designated.
        for other in self.layout.trees_of[me.index()].clone() {
            if other == tree {
                continue;
            }
            if self.layout.relay.get(&(tree, other)) == Some(&me) {
                self.forward_nbr_done(other, tree, pulse, ctx);
            }
        }
        // Leaders also re-check the Go condition.
        self.maybe_go(tree, pulse, ctx);
    }

    /// Climb `tree` toward its leader with the news that `from` is done.
    fn forward_nbr_done(
        &mut self,
        tree: usize,
        from: usize,
        pulse: u64,
        ctx: &mut Context<'_, GammaMsg>,
    ) {
        let me = ctx.self_id();
        let (parent, _) = self.my_position(tree, me).clone();
        match parent {
            Some(p) => {
                ctx.send_class(
                    p,
                    GammaMsg::NbrDone { tree, from, pulse },
                    CostClass::Synchronizer,
                );
            }
            None => {
                // I am the leader of `tree`.
                self.rounds
                    .entry((tree, pulse))
                    .or_default()
                    .nbr_done
                    .insert(from);
                self.maybe_go(tree, pulse, ctx);
            }
        }
    }

    /// Leader check: own tree done + all neighboring trees done → `Go`.
    fn maybe_go(&mut self, tree: usize, pulse: u64, ctx: &mut Context<'_, GammaMsg>) {
        let me = ctx.self_id();
        let (parent, _) = self.my_position(tree, me).clone();
        if parent.is_some() {
            return; // only the leader decides
        }
        let needed = self.layout.tree_neighbors[tree].len();
        let ready = {
            let round = self.rounds.entry((tree, pulse)).or_default();
            round.tree_done && round.nbr_done.len() == needed && !round.go
        };
        if ready {
            self.on_go(tree, pulse, ctx);
        }
    }

    /// Process (and forward) a `Go` broadcast, then try to pulse.
    fn on_go(&mut self, tree: usize, pulse: u64, ctx: &mut Context<'_, GammaMsg>) {
        let me = ctx.self_id();
        {
            let round = self.rounds.entry((tree, pulse)).or_default();
            if round.go {
                return;
            }
            round.go = true;
        }
        let (_, children) = self.my_position(tree, me).clone();
        for c in children {
            ctx.send_class(c, GammaMsg::Go { tree, pulse }, CostClass::Synchronizer);
        }
        self.maybe_pulse(ctx);
    }

    /// Generate the next pulse once every containing tree said `Go`.
    fn maybe_pulse(&mut self, ctx: &mut Context<'_, GammaMsg>) {
        let me = ctx.self_id();
        loop {
            let p = self.current;
            if p + 1 >= self.pulses {
                return;
            }
            let all_go = self.layout.trees_of[me.index()]
                .iter()
                .all(|&t| self.rounds.get(&(t, p)).map(|r| r.go).unwrap_or(false));
            if !all_go {
                return;
            }
            // Clean up the completed round's state.
            for &t in &self.layout.trees_of[me.index()] {
                self.rounds.remove(&(t, p));
            }
            self.generate(p + 1, ctx);
        }
    }
}

impl Process for GammaStar {
    type Msg = GammaMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, GammaMsg>) {
        if self.pulses > 0 {
            self.generate(0, ctx);
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: GammaMsg, ctx: &mut Context<'_, GammaMsg>) {
        match msg {
            GammaMsg::DoneUp { tree, pulse } => {
                self.rounds.entry((tree, pulse)).or_default().done_up += 1;
                self.maybe_done_up(tree, pulse, ctx);
            }
            GammaMsg::TreeDone { tree, pulse } => self.on_tree_done(tree, pulse, ctx),
            GammaMsg::NbrDone { tree, from, pulse } => {
                self.forward_nbr_done(tree, from, pulse, ctx)
            }
            GammaMsg::Go { tree, pulse } => self.on_go(tree, pulse, ctx),
        }
    }
}
