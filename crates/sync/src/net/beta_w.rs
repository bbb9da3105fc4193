//! The tree network synchronizer β_w — the second baseline for γ_w.
//!
//! Synchronizer β of \[Awe85a], lifted to the weighted setting: one
//! global spanning tree with a leader; after each pulse, safety reports
//! (all own messages acknowledged) convergecast to the leader, which
//! broadcasts permission for the next pulse. Per pulse this costs one
//! tree round-trip — `O(w(T))` weighted communication (frugal!) but
//! `Θ(depth(T)) = Ω(D̂)` time, regardless of how local the traffic is.
//! Like [α_w](super::alpha_w), it provides the *unit-delay* synchronous
//! abstraction.
//!
//! The three-way comparison α_w / β_w / γ_w per pulse:
//!
//! | | communication | time |
//! |---|---|---|
//! | α_w | `Θ(Ê)` | `Θ(W)` |
//! | β_w | `Θ(V̂)` | `Θ(D̂)` |
//! | γ_w | `O(k·n·log n)` | `O(log_k n·log n)` |

use super::hosted::Hosted;
use csp_graph::algo::shortest_path_tree;
use csp_graph::{NodeId, WeightedGraph};
use csp_sim::sync::SyncProcess;
use csp_sim::{Context, CostClass, Process};
use std::collections::BTreeMap;

/// Messages of the β_w host.
#[derive(Clone, Debug)]
pub enum BetaMsg<M> {
    /// A hosted payload sent at the sender's pulse `sent`.
    Hosted {
        /// The hosted message.
        msg: M,
        /// Sender's pulse.
        sent: u64,
    },
    /// Acknowledgment of one hosted payload.
    Ack,
    /// Subtree safe for `pulse` (convergecast).
    SafeUp {
        /// The completed pulse.
        pulse: u64,
    },
    /// Everyone safe; start `pulse` (broadcast).
    Next {
        /// The pulse to start.
        pulse: u64,
    },
}

/// The β_w host process wrapping one hosted [`SyncProcess`] instance.
#[derive(Clone, Debug)]
pub struct BetaWHost<P: SyncProcess> {
    hosted: Hosted<P>,
    until_pulse: u64,
    pulse: u64,
    /// Tree position.
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    ack_outstanding: u64,
    /// Children's SafeUp reports per pulse.
    safe_up: BTreeMap<u64, usize>,
    reported: bool,
}

impl<P: SyncProcess> BetaWHost<P> {
    /// Builds the shortest-path tree of `g` rooted at `leader` once and
    /// returns the per-vertex constructor of a run simulating pulses
    /// `0..=until_pulse`, hosting `make(v, g)` at each vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is disconnected or `leader` is out of range.
    pub fn factory<F>(
        g: &WeightedGraph,
        leader: NodeId,
        until_pulse: u64,
        make: F,
    ) -> impl Fn(NodeId, &WeightedGraph) -> Self + Sync
    where
        F: Fn(NodeId, &WeightedGraph) -> P + Sync,
    {
        g.check_node(leader);
        let tree = shortest_path_tree(g, leader);
        assert!(tree.is_spanning(), "β_w needs a connected graph");
        let children = tree.children_lists();
        move |v, g| BetaWHost {
            hosted: Hosted::new(make(v, g)),
            until_pulse,
            pulse: 0,
            parent: tree.parent(v).map(|(p, _, _)| p),
            children: children[v.index()].iter().map(|&(c, _)| c).collect(),
            ack_outstanding: 0,
            safe_up: BTreeMap::new(),
            reported: false,
        }
    }

    /// The hosted protocol state.
    pub fn hosted(&self) -> &P {
        &self.hosted.state
    }

    /// Hosted messages still buffered past the horizon.
    pub fn undelivered(&self) -> usize {
        self.hosted.undelivered()
    }

    pub(super) fn into_hosted(self) -> Hosted<P> {
        self.hosted
    }

    fn run_pulse(&mut self, ctx: &mut Context<'_, BetaMsg<P::Msg>>) {
        let q = self.pulse;
        for (to, msg) in self.hosted.pulse(q, ctx) {
            self.ack_outstanding += 1;
            ctx.send(to, BetaMsg::Hosted { msg, sent: q });
        }
        self.reported = false;
        self.maybe_report(ctx);
    }

    /// Convergecast step: report safety once self + subtree are safe.
    fn maybe_report(&mut self, ctx: &mut Context<'_, BetaMsg<P::Msg>>) {
        if self.reported || self.ack_outstanding > 0 {
            return;
        }
        let q = self.pulse;
        if self.safe_up.get(&q).copied().unwrap_or(0) != self.children.len() {
            return;
        }
        self.reported = true;
        self.safe_up.remove(&q);
        match self.parent {
            Some(p) => {
                ctx.send_class(p, BetaMsg::SafeUp { pulse: q }, CostClass::Synchronizer);
            }
            None => self.broadcast_next(ctx),
        }
    }

    /// Leader: everyone is safe; start the next pulse everywhere.
    fn broadcast_next(&mut self, ctx: &mut Context<'_, BetaMsg<P::Msg>>) {
        if self.pulse < self.until_pulse {
            self.start_pulse(self.pulse + 1, ctx);
        }
    }

    fn start_pulse(&mut self, pulse: u64, ctx: &mut Context<'_, BetaMsg<P::Msg>>) {
        for c in self.children.clone() {
            ctx.send_class(c, BetaMsg::Next { pulse }, CostClass::Synchronizer);
        }
        self.pulse = pulse;
        self.run_pulse(ctx);
    }
}

impl<P: SyncProcess> Process for BetaWHost<P> {
    type Msg = BetaMsg<P::Msg>;

    fn on_start(&mut self, ctx: &mut Context<'_, BetaMsg<P::Msg>>) {
        self.run_pulse(ctx);
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: BetaMsg<P::Msg>,
        ctx: &mut Context<'_, BetaMsg<P::Msg>>,
    ) {
        match msg {
            BetaMsg::Hosted { msg, sent } => {
                self.hosted
                    .receive(from, msg, sent, sent + 1, BetaMsg::Ack, ctx);
            }
            BetaMsg::Ack => {
                self.ack_outstanding -= 1;
                self.maybe_report(ctx);
            }
            BetaMsg::SafeUp { pulse } => {
                *self.safe_up.entry(pulse).or_insert(0) += 1;
                self.maybe_report(ctx);
            }
            BetaMsg::Next { pulse } => self.start_pulse(pulse, ctx),
        }
    }
}
