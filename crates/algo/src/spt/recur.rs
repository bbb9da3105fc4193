//! `SPT_recur` — layered shortest-path tree construction with the strip
//! method (Section 9.2, Figure 9).
//!
//! The weighted network is conceptually reduced to an unweighted one by
//! subdividing each edge of weight `w` into `w` unit edges; a BFS of the
//! subdivided graph is a weighted SPT of the original. Running the simple
//! layered algorithm (the paper's DIJKSTRA algorithm, after
//! Dijkstra–Scholten) one unit layer at a time would take `D̂` global
//! iterations; the *strip method* slices the distance range into strips
//! of depth `Δ` and processes one strip per iteration:
//!
//! * all distances `≤ k·Δ` are final when strip `k` starts;
//! * the source starts strip `k` with a `Start` broadcast over the
//!   *introduction tree* (every reached vertex hangs under the vertex
//!   that first reached it);
//! * each reached vertex relaxes exactly those incident edges whose
//!   relaxed distance lands inside the strip `(k·Δ, (k+1)·Δ]`;
//!   intra-strip improvements propagate Bellman–Ford style but can never
//!   escape the strip;
//! * termination of the strip is detected by Dijkstra–Scholten
//!   acknowledgments: every `Start`/`Relax` is acked, engaging messages
//!   only after the engaged vertex's own activity quiesces; the ack wave
//!   aggregates the number of newly reached vertices, so the source knows
//!   when all `n` vertices are final.
//!
//! Per strip the synchronization overhead is one sweep of the
//! introduction tree; there are `⌈D̂/Δ⌉` strips. Small `Δ` approximates
//! the layer-by-layer DIJKSTRA algorithm (cheap relaxation, heavy
//! synchronization); large `Δ` approaches plain distributed Bellman–Ford.
//! The full recursion of \[Awe89] (slicing recursively with balanced
//! parameters) is approximated by this single-level strip decomposition —
//! see DESIGN.md for the substitution note.
//!
//! `Start`/`Ack` traffic is metered as [`CostClass::Auxiliary`] so the
//! synchronization overhead is separable in benchmarks.

use csp_graph::{Cost, NodeId};
use csp_sim::{Context, CostClass, FaultAware, Process};

/// Messages of `SPT_recur`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecurMsg {
    /// Strip `k` begins — broadcast over the introduction tree.
    Start {
        /// Strip index.
        strip: u64,
    },
    /// Distance relaxation within strip `strip`.
    Relax {
        /// Tentative distance offered to the receiver.
        dist: u128,
        /// Strip index.
        strip: u64,
    },
    /// Dijkstra–Scholten acknowledgment.
    Ack {
        /// Newly reached vertices accounted by this ack's subtree.
        count: u64,
        /// Whether the acker asks to become the receiver's introduction
        /// child (it was reached for the first time).
        adopt: bool,
    },
}

/// Per-vertex state of `SPT_recur`.
#[derive(Debug, Hash)]
pub struct SptRecur {
    source: NodeId,
    delta: u64,
    /// Tentative / final weighted distance.
    dist: Option<u128>,
    /// Current SPT parent (the best relaxer so far).
    parent: Option<NodeId>,
    /// Vertices introduced (first reached) by this vertex.
    intro_children: Vec<NodeId>,
    /// Whether this vertex has ever announced itself to an introducer.
    adopted: bool,
    /// Dijkstra–Scholten episode state.
    engaged: bool,
    engager: Option<NodeId>,
    outstanding: u32,
    count_acc: u64,
    reached_this_episode: bool,
    /// Current strip index.
    strip: u64,
    /// Source only: total vertices reached, and completion flag.
    total_reached: u64,
    finished: bool,
}

// Hand-written so `clone_from` reuses the `intro_children` buffer: the
// adversary's checkpoint restore overwrites every pooled state with the
// snapshot's by `clone_from`, once per candidate.
impl Clone for SptRecur {
    fn clone(&self) -> Self {
        SptRecur {
            intro_children: self.intro_children.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, src: &Self) {
        let SptRecur {
            source,
            delta,
            dist,
            parent,
            ref intro_children,
            adopted,
            engaged,
            engager,
            outstanding,
            count_acc,
            reached_this_episode,
            strip,
            total_reached,
            finished,
        } = *src;
        self.intro_children.clone_from(intro_children);
        self.source = source;
        self.delta = delta;
        self.dist = dist;
        self.parent = parent;
        self.adopted = adopted;
        self.engaged = engaged;
        self.engager = engager;
        self.outstanding = outstanding;
        self.count_acc = count_acc;
        self.reached_this_episode = reached_this_episode;
        self.strip = strip;
        self.total_reached = total_reached;
        self.finished = finished;
    }
}

impl SptRecur {
    /// Creates the per-vertex state for a run from `source` with strip
    /// depth `delta`.
    ///
    /// # Panics
    ///
    /// Panics if `delta == 0`.
    pub fn new(v: NodeId, source: NodeId, delta: u64) -> Self {
        assert!(delta >= 1, "strip depth must be at least 1");
        SptRecur {
            source,
            delta,
            dist: if v == source { Some(0) } else { None },
            parent: None,
            intro_children: Vec::new(),
            adopted: v == source,
            engaged: false,
            engager: None,
            outstanding: 0,
            count_acc: 0,
            reached_this_episode: false,
            strip: 0,
            total_reached: 1,
            finished: false,
        }
    }

    /// Final distance (exact after the run).
    pub fn dist(&self) -> Option<Cost> {
        self.dist.map(Cost::new)
    }

    /// SPT parent pointer.
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// Source only: the protocol completed.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Number of strips processed (source only; `strip` is the last
    /// started strip index + 1 after completion).
    pub fn strips_used(&self) -> u64 {
        self.strip
    }

    fn strip_upper(&self, strip: u64) -> u128 {
        (strip as u128 + 1) * self.delta as u128
    }

    fn strip_lower(&self, strip: u64) -> u128 {
        strip as u128 * self.delta as u128
    }

    /// Relaxes this vertex's incident edges whose relaxed distance lands
    /// in the current strip. `fresh_only` limits to offers landing in the
    /// strip's range (always true — kept for clarity).
    fn relax_neighbors(&mut self, strip: u64, ctx: &mut Context<'_, RecurMsg>) {
        let d = self.dist.expect("only reached vertices relax");
        let offers: Vec<(NodeId, u128)> = ctx
            .neighbors()
            .filter_map(|(u, _, w)| {
                let nd = d + w.get() as u128;
                (nd > self.strip_lower(strip) && nd <= self.strip_upper(strip)).then_some((u, nd))
            })
            .collect();
        for (u, nd) in offers {
            self.outstanding += 1;
            ctx.send(u, RecurMsg::Relax { dist: nd, strip });
        }
    }

    /// Ends the Dijkstra–Scholten episode if all activity quiesced.
    fn maybe_quiesce(&mut self, ctx: &mut Context<'_, RecurMsg>) {
        if !self.engaged || self.outstanding > 0 {
            return;
        }
        self.engaged = false;
        let count = self.count_acc + u64::from(self.reached_this_episode);
        self.count_acc = 0;
        let adopt = self.reached_this_episode && !self.adopted;
        if adopt {
            self.adopted = true;
        }
        self.reached_this_episode = false;
        match self.engager.take() {
            Some(e) => {
                ctx.send_class(e, RecurMsg::Ack { count, adopt }, CostClass::Auxiliary);
            }
            None => {
                // Source: strip complete.
                self.total_reached += count;
                if self.total_reached as usize >= ctx.node_count() {
                    self.finished = true;
                } else {
                    self.strip += 1;
                    self.begin_strip(ctx);
                }
            }
        }
    }

    /// Source only: start the next strip. Iterates past strips that
    /// produce no traffic at the source (everything still local), so deep
    /// distance ranges cannot recurse through `maybe_quiesce`.
    fn begin_strip(&mut self, ctx: &mut Context<'_, RecurMsg>) {
        loop {
            self.engaged = true;
            self.engager = None;
            let strip = self.strip;
            for c in self.intro_children.clone() {
                self.outstanding += 1;
                ctx.send_class(c, RecurMsg::Start { strip }, CostClass::Auxiliary);
            }
            self.relax_neighbors(strip, ctx);
            if self.outstanding > 0 {
                return; // quiescence will arrive with the acks
            }
            // Nothing to do in this strip at the source and no tree to
            // sweep: move straight to the next strip.
            self.engaged = false;
            self.strip += 1;
        }
    }
}

impl Process for SptRecur {
    type Msg = RecurMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, RecurMsg>) {
        if ctx.self_id() == self.source {
            if ctx.node_count() == 1 {
                self.finished = true;
            } else {
                self.begin_strip(ctx);
            }
        }
    }

    fn on_message(&mut self, from: NodeId, msg: RecurMsg, ctx: &mut Context<'_, RecurMsg>) {
        match msg {
            RecurMsg::Start { strip } => {
                self.strip = strip;
                if !self.engaged {
                    self.engaged = true;
                    self.engager = Some(from);
                }
                // Forward the strip start to introduced vertices and relax
                // the fringe.
                for c in self.intro_children.clone() {
                    self.outstanding += 1;
                    ctx.send_class(c, RecurMsg::Start { strip }, CostClass::Auxiliary);
                }
                self.relax_neighbors(strip, ctx);
                self.maybe_quiesce(ctx);
            }
            RecurMsg::Relax { dist, strip } => {
                self.strip = strip;
                let engaging = !self.engaged;
                if engaging {
                    self.engaged = true;
                    self.engager = Some(from);
                }
                let improved = match self.dist {
                    None => {
                        self.reached_this_episode = true;
                        true
                    }
                    Some(d) => dist < d,
                };
                if improved {
                    self.dist = Some(dist);
                    self.parent = Some(from);
                    self.relax_neighbors(strip, ctx);
                }
                if !engaging {
                    // Non-engaging messages are acked immediately.
                    ctx.send_class(
                        from,
                        RecurMsg::Ack {
                            count: 0,
                            adopt: false,
                        },
                        CostClass::Auxiliary,
                    );
                }
                self.maybe_quiesce(ctx);
            }
            RecurMsg::Ack { count, adopt } => {
                self.outstanding -= 1;
                self.count_acc += count;
                if adopt {
                    self.intro_children.push(from);
                }
                self.maybe_quiesce(ctx);
            }
        }
    }
}

/// `SPT_recur` ignores fault upcalls itself — its ack-counting
/// termination assumes reliable channels, which is exactly what the
/// [`Reliable`](csp_sim::Reliable) wrapper restores under bounded loss.
/// Opting in lets it ride inside that wrapper and under
/// [`Detect`](csp_sim::Detect).
impl FaultAware for SptRecur {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::{Claim, Outcome};
    use csp_graph::{algo, generators, WeightedGraph};
    use csp_sim::{DelayModel, ModelOracle, Simulator};

    fn recur(
        g: &WeightedGraph,
        source: usize,
        delta: u64,
        delay: DelayModel,
        seed: u64,
    ) -> Outcome {
        let row = Claim::SptRecur {
            source: NodeId::new(source),
            delta,
        };
        row.run(g, ModelOracle::new(delay, seed)).unwrap()
    }

    /// Strips the source processed in a worst-case run.
    fn strips(g: &WeightedGraph, delta: u64) -> u64 {
        let run = Simulator::new(g)
            .run(|v, _| SptRecur::new(v, NodeId::new(0), delta))
            .unwrap();
        run.states[0].strips_used() + 1
    }

    #[test]
    fn exact_distances_for_various_strip_depths() {
        let g = generators::connected_gnp(22, 0.2, generators::WeightDist::Uniform(1, 30), 7);
        let reference = algo::distances(&g, NodeId::new(0));
        for delta in [1, 2, 5, 17, 1000] {
            let out = recur(&g, 0, delta, DelayModel::WorstCase, 0);
            let tree = out.tree.unwrap();
            for v in g.nodes() {
                assert_eq!(
                    out.dists[v.index()],
                    reference[v.index()],
                    "Δ={delta}, vertex {v}"
                );
                assert_eq!(tree.depth(v), reference[v.index()]);
            }
        }
    }

    #[test]
    fn random_delays_do_not_break_exactness() {
        let g = generators::grid(4, 5, generators::WeightDist::Uniform(1, 12), 9);
        let reference = algo::distances(&g, NodeId::new(3));
        for seed in 0..5 {
            let out = recur(&g, 3, 4, DelayModel::Uniform, seed);
            assert_eq!(out.dists, reference, "seed {seed}");
        }
    }

    #[test]
    fn strip_count_matches_diameter_over_delta() {
        let g = generators::path(12, |_| 5); // eccentricity of 0 = 55
                                             // distances reach 55; strips of depth 10 → at least 6 strips.
        let fine = strips(&g, 10);
        assert!(fine >= 6, "expected ≥ 6 strips, got {fine}");
        assert_eq!(strips(&g, 100), 1);
    }

    #[test]
    fn bigger_strips_mean_less_sync_overhead() {
        let g = generators::connected_gnp(25, 0.15, generators::WeightDist::Uniform(1, 40), 2);
        let fine = recur(&g, 0, 2, DelayModel::WorstCase, 0);
        let coarse = recur(&g, 0, 200, DelayModel::WorstCase, 0);
        assert!(
            coarse.cost.comm_of(CostClass::Auxiliary) <= fine.cost.comm_of(CostClass::Auxiliary),
            "coarse strips must not increase sync overhead"
        );
    }

    #[test]
    fn single_vertex_is_trivial() {
        let g = csp_graph::GraphBuilder::new(1).build().unwrap();
        let out = recur(&g, 0, 5, DelayModel::WorstCase, 0);
        assert_eq!(out.cost.messages, 0);
        assert_eq!(out.dists[0], Cost::ZERO);
    }

    #[test]
    fn heavy_single_edge_crossing_many_strips() {
        // An edge of weight 50 with Δ = 3: relaxed exactly once, in the
        // strip containing its relaxed distance.
        let g = generators::path(3, |i| if i == 0 { 50 } else { 1 });
        let out = recur(&g, 0, 3, DelayModel::WorstCase, 0);
        assert_eq!(out.dists[1], Cost::new(50));
        assert_eq!(out.dists[2], Cost::new(51));
    }
}
