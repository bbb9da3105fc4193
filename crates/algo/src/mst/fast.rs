//! `MST_fast` — the time-efficient MST algorithm (Section 8.3).
//!
//! GHS's find phase scans a fragment's incident edges *serially* in
//! increasing weight order, so a single phase can spend `Θ(Ê)` time on
//! heavy edges that are not in the MST. `MST_fast` modifies the find:
//!
//! * the fragment core maintains a **guess** `G` for the weight of the
//!   minimum outgoing edge, starting at 1;
//! * a find round broadcasts `(fragment, level, G)` and every member
//!   tests **all** its untested edges of weight `≤ G` **in parallel**;
//! * the convergecast reports the best accepted edge, plus a flag
//!   "heavier untested edges exist"; if no outgoing edge `≤ G` was found
//!   but heavier candidates remain, the core doubles `G` and re-runs the
//!   round.
//!
//! Each edge is tested `O(log V̂)` times and each doubling round costs one
//! sweep of the fragment tree, giving communication
//! `O(Ê·log n·log V̂)` and time `O(Diam(MST)·log V̂·log n)`
//! (Corollary 8.3) — more messages than GHS, far less time on workloads
//! whose heavy edges dominate `Ê`.

use csp_graph::{NodeId, WeightedGraph};
use csp_sim::{Context, Process};
use std::collections::VecDeque;

use super::ghs::EdgeKey;

const INF: EdgeKey = (u64::MAX, usize::MAX);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum NodeState {
    Sleeping,
    Find,
    Found,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum EdgeState {
    Basic,
    Branch,
    Rejected,
}

/// `MST_fast` messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FastMsg {
    /// Fragment connection attempt at `level`.
    Connect {
        /// Sender fragment's level.
        level: u32,
    },
    /// Fragment identity + guess broadcast starting a find round.
    Initiate {
        /// Fragment level.
        level: u32,
        /// Fragment name (core edge key).
        name: EdgeKey,
        /// Whether to participate in the find.
        find: bool,
        /// Current weight guess.
        guess: u64,
    },
    /// Is this edge outgoing? (sent in parallel for all edges ≤ guess)
    Test {
        /// Sender fragment's level.
        level: u32,
        /// Sender fragment's name.
        name: EdgeKey,
    },
    /// The tested edge leaves the sender's fragment.
    Accept,
    /// The tested edge stays inside the fragment.
    Reject,
    /// Convergecast of the subtree's find results.
    Report {
        /// Best outgoing key found (INF if none ≤ guess).
        best: EdgeKey,
        /// Whether untested edges heavier than the guess remain.
        heavier: bool,
    },
    /// Move the fragment root toward the best outgoing edge.
    ChangeRoot,
}

/// Per-vertex state of `MST_fast`.
#[derive(Clone, Debug)]
pub struct MstFast {
    state: NodeState,
    level: u32,
    fragment: EdgeKey,
    guess: u64,
    edge_state: Vec<EdgeState>,
    neighbors: Vec<(NodeId, EdgeKey)>,
    in_branch: Option<usize>,
    /// Indices of edges currently under (parallel) test.
    pending_tests: Vec<usize>,
    best_edge: Option<usize>,
    best_key: EdgeKey,
    /// Subtree has untested edges heavier than the guess.
    heavier: bool,
    find_count: u32,
    deferred: VecDeque<(NodeId, FastMsg)>,
    halted: bool,
}

impl MstFast {
    /// Creates the per-vertex state.
    pub fn new(v: NodeId, g: &WeightedGraph) -> Self {
        let mut neighbors: Vec<(NodeId, EdgeKey)> = g
            .neighbors(v)
            .map(|(u, eid, w)| (u, (w.get(), eid.index())))
            .collect();
        neighbors.sort_by_key(|&(_, key)| key);
        MstFast {
            state: NodeState::Sleeping,
            level: 0,
            fragment: INF,
            guess: 1,
            edge_state: vec![EdgeState::Basic; neighbors.len()],
            neighbors,
            in_branch: None,
            pending_tests: Vec::new(),
            best_edge: None,
            best_key: INF,
            heavier: false,
            find_count: 0,
            deferred: VecDeque::new(),
            halted: false,
        }
    }

    /// The neighbors this vertex marked as MST (Branch) edges.
    pub fn branch_neighbors(&self) -> Vec<NodeId> {
        self.neighbors
            .iter()
            .zip(self.edge_state.iter())
            .filter(|&(_, &s)| s == EdgeState::Branch)
            .map(|(&(u, _), _)| u)
            .collect()
    }

    /// Whether this vertex detected global termination.
    pub fn halted(&self) -> bool {
        self.halted
    }

    fn index_of(&self, u: NodeId) -> usize {
        self.neighbors
            .iter()
            .position(|&(v, _)| v == u)
            .expect("message from a neighbor")
    }

    fn wakeup(&mut self, ctx: &mut Context<'_, FastMsg>) {
        if self.state != NodeState::Sleeping {
            return;
        }
        self.edge_state[0] = EdgeState::Branch;
        self.level = 0;
        self.state = NodeState::Found;
        let (u, _) = self.neighbors[0];
        ctx.send(u, FastMsg::Connect { level: 0 });
    }

    fn handle(&mut self, from: NodeId, msg: FastMsg, ctx: &mut Context<'_, FastMsg>) -> bool {
        match msg {
            FastMsg::Connect { level } => {
                self.wakeup(ctx);
                let j = self.index_of(from);
                if level < self.level {
                    self.edge_state[j] = EdgeState::Branch;
                    ctx.send(
                        from,
                        FastMsg::Initiate {
                            level: self.level,
                            name: self.fragment,
                            find: self.state == NodeState::Find,
                            guess: self.guess,
                        },
                    );
                    if self.state == NodeState::Find {
                        self.find_count += 1;
                    }
                    true
                } else if self.edge_state[j] == EdgeState::Basic {
                    false
                } else {
                    let (_, key) = self.neighbors[j];
                    ctx.send(
                        from,
                        FastMsg::Initiate {
                            level: self.level + 1,
                            name: key,
                            find: true,
                            guess: 1,
                        },
                    );
                    true
                }
            }
            FastMsg::Initiate {
                level,
                name,
                find,
                guess,
            } => {
                let j = self.index_of(from);
                self.begin_round(level, name, find, guess, Some(j), ctx);
                true
            }
            FastMsg::Test { level, name } => {
                self.wakeup(ctx);
                if level > self.level {
                    return false;
                }
                let j = self.index_of(from);
                if name != self.fragment {
                    ctx.send(from, FastMsg::Accept);
                } else {
                    if self.edge_state[j] == EdgeState::Basic {
                        self.edge_state[j] = EdgeState::Rejected;
                    }
                    if let Some(pos) = self.pending_tests.iter().position(|&i| i == j) {
                        // Mutual internal test: count it as our response.
                        self.pending_tests.swap_remove(pos);
                        self.maybe_report(ctx);
                    } else {
                        ctx.send(from, FastMsg::Reject);
                    }
                }
                true
            }
            FastMsg::Accept => {
                let j = self.index_of(from);
                if let Some(pos) = self.pending_tests.iter().position(|&i| i == j) {
                    self.pending_tests.swap_remove(pos);
                }
                let (_, key) = self.neighbors[j];
                if key < self.best_key {
                    self.best_key = key;
                    self.best_edge = Some(j);
                }
                self.maybe_report(ctx);
                true
            }
            FastMsg::Reject => {
                let j = self.index_of(from);
                if self.edge_state[j] == EdgeState::Basic {
                    self.edge_state[j] = EdgeState::Rejected;
                }
                if let Some(pos) = self.pending_tests.iter().position(|&i| i == j) {
                    self.pending_tests.swap_remove(pos);
                }
                self.maybe_report(ctx);
                true
            }
            FastMsg::Report { best, heavier } => {
                let j = self.index_of(from);
                if Some(j) != self.in_branch {
                    self.find_count -= 1;
                    if best < self.best_key {
                        self.best_key = best;
                        self.best_edge = Some(j);
                    }
                    self.heavier |= heavier;
                    self.maybe_report(ctx);
                    true
                } else if self.state == NodeState::Find {
                    false
                } else if best == INF && self.best_key == INF {
                    if heavier || self.heavier {
                        // Both halves came up empty but heavier candidates
                        // remain: double the guess and re-run the round on
                        // this half. The other core endpoint does the same.
                        let new_guess = self.guess.saturating_mul(2);
                        let (level, name) = (self.level, self.fragment);
                        self.begin_round(level, name, true, new_guess, self.in_branch, ctx);
                    } else {
                        self.halted = true;
                    }
                    true
                } else if best > self.best_key {
                    self.change_root(ctx);
                    true
                } else {
                    true
                }
            }
            FastMsg::ChangeRoot => {
                self.change_root(ctx);
                true
            }
        }
    }

    /// Starts a find round (or joins one): adopt identity + guess,
    /// rebroadcast over branch edges away from `via`, then test locally.
    fn begin_round(
        &mut self,
        level: u32,
        name: EdgeKey,
        find: bool,
        guess: u64,
        via: Option<usize>,
        ctx: &mut Context<'_, FastMsg>,
    ) {
        self.level = level;
        self.fragment = name;
        self.guess = guess;
        self.state = if find {
            NodeState::Find
        } else {
            NodeState::Found
        };
        self.in_branch = via;
        self.best_edge = None;
        self.best_key = INF;
        self.heavier = false;
        self.pending_tests.clear();
        for i in 0..self.neighbors.len() {
            if Some(i) != via && self.edge_state[i] == EdgeState::Branch {
                let (u, _) = self.neighbors[i];
                ctx.send(
                    u,
                    FastMsg::Initiate {
                        level,
                        name,
                        find,
                        guess,
                    },
                );
                if find {
                    self.find_count += 1;
                }
            }
        }
        if find {
            self.test_parallel(ctx);
        }
    }

    /// Tests every untested edge of weight ≤ guess, all at once.
    fn test_parallel(&mut self, ctx: &mut Context<'_, FastMsg>) {
        for i in 0..self.neighbors.len() {
            let (u, key) = self.neighbors[i];
            if self.edge_state[i] != EdgeState::Basic {
                continue;
            }
            if key.0 <= self.guess {
                self.pending_tests.push(i);
                ctx.send(
                    u,
                    FastMsg::Test {
                        level: self.level,
                        name: self.fragment,
                    },
                );
            } else {
                self.heavier = true;
            }
        }
        self.maybe_report(ctx);
    }

    fn maybe_report(&mut self, ctx: &mut Context<'_, FastMsg>) {
        if self.find_count == 0 && self.pending_tests.is_empty() && self.state == NodeState::Find {
            self.state = NodeState::Found;
            match self.in_branch {
                Some(j) => {
                    let (u, _) = self.neighbors[j];
                    ctx.send(
                        u,
                        FastMsg::Report {
                            best: self.best_key,
                            heavier: self.heavier,
                        },
                    );
                }
                None => unreachable!("find always has a core direction"),
            }
        }
    }

    fn change_root(&mut self, ctx: &mut Context<'_, FastMsg>) {
        let b = self
            .best_edge
            .expect("change-root implies a best outgoing edge");
        let (u, _) = self.neighbors[b];
        if self.edge_state[b] == EdgeState::Branch {
            ctx.send(u, FastMsg::ChangeRoot);
        } else {
            self.edge_state[b] = EdgeState::Branch;
            ctx.send(u, FastMsg::Connect { level: self.level });
        }
    }

    fn drain_deferred(&mut self, ctx: &mut Context<'_, FastMsg>) {
        loop {
            let mut progressed = false;
            for _ in 0..self.deferred.len() {
                let (from, msg) = self.deferred.pop_front().expect("length checked");
                if self.handle(from, msg, ctx) {
                    progressed = true;
                } else {
                    self.deferred.push_back((from, msg));
                }
            }
            if !progressed || self.deferred.is_empty() {
                return;
            }
        }
    }
}

impl Process for MstFast {
    type Msg = FastMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, FastMsg>) {
        if ctx.degree() > 0 {
            self.wakeup(ctx);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: FastMsg, ctx: &mut Context<'_, FastMsg>) {
        if self.handle(from, msg, ctx) {
            self.drain_deferred(ctx);
        } else {
            self.deferred.push_back((from, msg));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::{Claim, Outcome};
    use crate::mst::ghs::tests::ghs;
    use csp_graph::{algo, generators};
    use csp_sim::{DelayModel, ModelOracle};

    fn fast(g: &WeightedGraph, root: usize, delay: DelayModel, seed: u64) -> Outcome {
        let row = Claim::MstFast {
            root: NodeId::new(root),
        };
        row.run(g, ModelOracle::new(delay, seed)).unwrap()
    }

    #[test]
    fn fast_finds_the_canonical_mst() {
        for seed in 0..6 {
            let g =
                generators::connected_gnp(20, 0.25, generators::WeightDist::Uniform(1, 50), seed);
            let out = fast(&g, 0, DelayModel::WorstCase, 0);
            let reference = algo::prim_mst(&g, NodeId::new(0));
            assert_eq!(
                out.tree.unwrap().weight(),
                reference.weight(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn fast_under_random_delays() {
        let g = generators::grid(4, 4, generators::WeightDist::Uniform(1, 30), 5);
        let reference = algo::prim_mst(&g, NodeId::new(0)).weight();
        for seed in 0..6 {
            let out = fast(&g, 0, DelayModel::Uniform, seed);
            assert_eq!(out.tree.unwrap().weight(), reference, "delay seed {seed}");
        }
    }

    #[test]
    fn fast_beats_ghs_in_time_when_heavy_rejections_serialize() {
        // A light star (the MST) inside a heavy complete graph: by the
        // final find every vertex must *reject* ~n heavy internal edges.
        // GHS scans them one round-trip at a time (Θ(n·H) time); MST_fast
        // tests everything under the guess in parallel (Θ(H) plus
        // doubling sweeps) — the scenario Section 8.3 is about.
        let g = generators::complete(16, |i, _| if i == 0 { 1 } else { 64 });
        let fast = fast(&g, 0, DelayModel::WorstCase, 0);
        let ghs = ghs(&g, 0, DelayModel::WorstCase, 0);
        assert_eq!(fast.tree.unwrap().weight(), ghs.tree.unwrap().weight());
        assert!(
            fast.cost.completion < ghs.cost.completion,
            "fast time {} not below GHS time {}",
            fast.cost.completion,
            ghs.cost.completion
        );
    }

    #[test]
    fn fast_on_two_nodes() {
        let g = generators::path(2, |_| 9);
        let out = fast(&g, 1, DelayModel::WorstCase, 0);
        assert_eq!(out.tree.unwrap().weight().get(), 9);
    }

    #[test]
    fn fast_with_equal_weights() {
        let g = generators::complete(7, |_, _| 4);
        let out = fast(&g, 0, DelayModel::WorstCase, 0);
        let reference = algo::prim_mst(&g, NodeId::new(0));
        assert_eq!(out.tree.unwrap().weight(), reference.weight());
    }
}
