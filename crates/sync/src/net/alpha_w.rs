//! The naive network synchronizer α_w — the baseline γ_w is measured
//! against.
//!
//! Section 4.1 of the paper explains why the straightforward approach is
//! inefficient: "cleaning the links requires time proportional to the
//! maximal link weight `W`, which would therefore dictate the
//! multiplicative overhead of the synchronization". α_w is that
//! approach, made concrete:
//!
//! * every vertex executes hosted pulses one at a time;
//! * after pulse `q`, it waits for acknowledgments of its own pulse-`q`
//!   messages, then exchanges `Safe(q)` tokens with **all** neighbors
//!   over the direct edges;
//! * pulse `q + 1` starts when all neighbors are known safe.
//!
//! Because the hosted message sent at pulse `q` on edge `e` arrives (and
//! is acknowledged) before the sender's `Safe(q)` is processed at the
//! other end, first-arrival semantics per pulse are preserved; the
//! hosted message is delivered at the receiver's first pulse `≥` its
//! sender's pulse + nothing — α_w simulates the **unit-delay**
//! synchronous abstraction (every message crosses in one pulse),
//! which is the classical synchronizer semantics of \[Awe85a]. Per pulse
//! it costs `Θ(Ê)` communication and `Θ(W)` time — both terrible on
//! heavy-tailed weights, which is the paper's point.
//!
//! Use it to host protocols written against unit-delay synchronous
//! semantics (e.g. Bellman–Ford-style iteration), or purely as the
//! overhead baseline in benchmarks.

use super::hosted::Hosted;
use csp_graph::{NodeId, WeightedGraph};
use csp_sim::sync::SyncProcess;
use csp_sim::{Context, CostClass, Process};
use std::collections::BTreeMap;

/// Messages of the α_w host.
#[derive(Clone, Debug)]
pub enum AlphaMsg<M> {
    /// A hosted payload sent at the sender's pulse `sent`.
    Hosted {
        /// The hosted message.
        msg: M,
        /// Sender's pulse.
        sent: u64,
    },
    /// Acknowledgment of one hosted payload.
    Ack,
    /// The sender is safe with respect to pulse `pulse`.
    Safe {
        /// The completed pulse.
        pulse: u64,
    },
}

/// The α_w host process wrapping one hosted [`SyncProcess`] instance.
///
/// The hosted protocol sees *unit-delay* synchronous semantics: a
/// message sent at pulse `q` is delivered at pulse `q + 1`, regardless
/// of the edge weight. (Contrast with γ_w, which simulates the weighted
/// delay-`w(e)` semantics.)
#[derive(Clone, Debug)]
pub struct AlphaWHost<P: SyncProcess> {
    hosted: Hosted<P>,
    until_pulse: u64,
    pulse: u64,
    degree: usize,
    /// Outstanding acknowledgments for this pulse's sends.
    ack_outstanding: u64,
    /// Whether this vertex already announced safety for `pulse`.
    safe_sent: bool,
    /// Safe tokens received per pulse.
    safe_received: BTreeMap<u64, usize>,
}

impl<P: SyncProcess> AlphaWHost<P> {
    /// The per-vertex constructor of a run simulating pulses
    /// `0..=until_pulse`, hosting `make(v, g)` at each vertex `v`. (α_w
    /// shares no structure between vertices, so unlike the other hosts'
    /// factories this one needs no graph up front.)
    pub fn factory<F>(until_pulse: u64, make: F) -> impl Fn(NodeId, &WeightedGraph) -> Self + Sync
    where
        F: Fn(NodeId, &WeightedGraph) -> P + Sync,
    {
        move |v, g| AlphaWHost {
            hosted: Hosted::new(make(v, g)),
            until_pulse,
            pulse: 0,
            degree: g.degree(v),
            ack_outstanding: 0,
            safe_sent: false,
            safe_received: BTreeMap::new(),
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

    fn run_pulse(&mut self, ctx: &mut Context<'_, AlphaMsg<P::Msg>>) {
        let q = self.pulse;
        for (to, msg) in self.hosted.pulse(q, ctx) {
            self.ack_outstanding += 1;
            ctx.send(to, AlphaMsg::Hosted { msg, sent: q });
        }
        self.safe_sent = false;
        self.maybe_announce_safe(ctx);
    }

    fn maybe_announce_safe(&mut self, ctx: &mut Context<'_, AlphaMsg<P::Msg>>) {
        if self.safe_sent || self.ack_outstanding > 0 {
            return;
        }
        self.safe_sent = true;
        let q = self.pulse;
        let targets: Vec<NodeId> = ctx.neighbors().map(|(u, _, _)| u).collect();
        for u in targets {
            ctx.send_class(u, AlphaMsg::Safe { pulse: q }, CostClass::Synchronizer);
        }
        self.maybe_advance(ctx);
    }

    fn maybe_advance(&mut self, ctx: &mut Context<'_, AlphaMsg<P::Msg>>) {
        while self.pulse < self.until_pulse
            && self.safe_sent
            && self.safe_received.get(&self.pulse).copied().unwrap_or(0) == self.degree
        {
            self.safe_received.remove(&self.pulse);
            self.pulse += 1;
            self.run_pulse(ctx);
        }
    }
}

impl<P: SyncProcess> Process for AlphaWHost<P> {
    type Msg = AlphaMsg<P::Msg>;

    fn on_start(&mut self, ctx: &mut Context<'_, AlphaMsg<P::Msg>>) {
        self.run_pulse(ctx);
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: AlphaMsg<P::Msg>,
        ctx: &mut Context<'_, AlphaMsg<P::Msg>>,
    ) {
        match msg {
            AlphaMsg::Hosted { msg, sent } => {
                self.hosted
                    .receive(from, msg, sent, sent + 1, AlphaMsg::Ack, ctx);
            }
            AlphaMsg::Ack => {
                self.ack_outstanding -= 1;
                self.maybe_announce_safe(ctx);
            }
            AlphaMsg::Safe { pulse } => {
                *self.safe_received.entry(pulse).or_insert(0) += 1;
                self.maybe_advance(ctx);
            }
        }
    }
}
