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

use csp_graph::{NodeId, WeightedGraph};
use csp_sim::sync::{SyncContext, SyncProcess};
use csp_sim::{Context, CostClass, DelayModel, Process, SimError, Simulator};
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
    hosted: P,
    until_pulse: u64,
    pulse: u64,
    degree: usize,
    /// Hosted messages buffered for the next pulse.
    buffered: BTreeMap<u64, Vec<(NodeId, P::Msg)>>,
    /// Outstanding acknowledgments for this pulse's sends.
    ack_outstanding: u64,
    /// Whether this vertex already announced safety for `pulse`.
    safe_sent: bool,
    /// Safe tokens received per pulse.
    safe_received: BTreeMap<u64, usize>,
    wake_at: Option<u64>,
    hosted_finished: bool,
}

impl<P: SyncProcess> AlphaWHost<P> {
    /// Creates the host for one vertex, simulating pulses
    /// `0..=until_pulse`.
    pub fn new(hosted: P, degree: usize, until_pulse: u64) -> Self {
        AlphaWHost {
            hosted,
            until_pulse,
            pulse: 0,
            degree,
            buffered: BTreeMap::new(),
            ack_outstanding: 0,
            safe_sent: false,
            safe_received: BTreeMap::new(),
            wake_at: None,
            hosted_finished: false,
        }
    }

    /// The hosted protocol state.
    pub fn hosted(&self) -> &P {
        &self.hosted
    }

    /// Hosted messages still buffered past the horizon.
    pub fn undelivered(&self) -> usize {
        self.buffered.values().map(Vec::len).sum()
    }

    fn run_pulse(&mut self, ctx: &mut Context<'_, AlphaMsg<P::Msg>>) {
        let q = self.pulse;
        let inbox = self.buffered.remove(&q).unwrap_or_default();
        let woken = self.wake_at == Some(q);
        if q == 0 || !inbox.is_empty() || woken {
            if woken {
                self.wake_at = None;
            }
            let g = ctx.graph();
            let mut sctx: SyncContext<'_, P::Msg> = SyncContext::host(ctx.self_id(), q, g);
            self.hosted.on_pulse(q, &inbox, &mut sctx);
            let out = sctx.drain();
            assert!(
                out.timers.is_empty() && out.cancels.is_empty(),
                "synchronizer hosts do not forward timers; use wake_at"
            );
            if out.finished {
                self.hosted_finished = true;
            }
            if let Some(w) = out.wake_at {
                self.wake_at = Some(match self.wake_at {
                    Some(e) => e.min(w),
                    None => w,
                });
            }
            for (to, msg) in out.sends {
                self.ack_outstanding += 1;
                ctx.send(to, AlphaMsg::Hosted { msg, sent: q });
            }
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
                ctx.send_class(from, AlphaMsg::Ack, CostClass::Synchronizer);
                self.buffered.entry(sent + 1).or_default().push((from, msg));
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

/// Runs a unit-delay synchronous protocol on the asynchronous network
/// under the naive synchronizer α_w, simulating pulses
/// `0..=until_pulse`.
///
/// # Errors
///
/// Propagates [`SimError`] from the simulator.
///
/// # Panics
///
/// Panics if hosted messages remain buffered past the horizon.
pub fn run_synchronized_alpha<P, F>(
    g: &WeightedGraph,
    until_pulse: u64,
    delay: DelayModel,
    seed: u64,
    mut make: F,
) -> Result<super::HostedRun<P>, SimError>
where
    P: SyncProcess,
    F: FnMut(NodeId, &WeightedGraph) -> P,
{
    let run = Simulator::new(g)
        .delay(delay)
        .seed(seed)
        .run(|v, g| AlphaWHost::new(make(v, g), g.degree(v), until_pulse))?;
    let undelivered: usize = run.states.iter().map(AlphaWHost::undelivered).sum();
    assert_eq!(
        undelivered, 0,
        "until_pulse={until_pulse} too small: {undelivered} hosted messages undelivered"
    );
    let states = run.states.into_iter().map(|h| h.hosted).collect();
    Ok(super::HostedRun {
        states,
        cost: run.cost,
        pulses: until_pulse,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_graph::generators;

    /// Unit-delay BFS flood: first-hearing pulse = hop distance.
    #[derive(Clone, Debug)]
    struct HopFlood {
        heard_at: Option<u64>,
    }

    impl SyncProcess for HopFlood {
        type Msg = ();
        fn on_pulse(&mut self, pulse: u64, inbox: &[(NodeId, ())], ctx: &mut SyncContext<'_, ()>) {
            let fire = (pulse == 0 && ctx.self_id() == NodeId::new(0))
                || (!inbox.is_empty() && self.heard_at.is_none());
            if fire {
                self.heard_at = Some(pulse);
                let targets: Vec<NodeId> = ctx.neighbors().map(|(u, _, _)| u).collect();
                for u in targets {
                    ctx.send(u, ());
                }
            }
            if pulse == 0 {
                ctx.finish();
            }
        }
    }

    #[test]
    fn alpha_w_realizes_unit_delay_semantics() {
        let g = generators::heavy_chord_cycle(10, 50);
        let hops = csp_graph::algo::hop_distances(&g, NodeId::new(0));
        let max_hops = hops.iter().map(|h| h.unwrap() as u64).max().unwrap();
        for seed in 0..3 {
            let run =
                run_synchronized_alpha(&g, max_hops + 2, DelayModel::Uniform, seed, |_, _| {
                    HopFlood { heard_at: None }
                })
                .unwrap();
            for v in g.nodes() {
                assert_eq!(
                    run.states[v.index()].heard_at,
                    Some(hops[v.index()].unwrap() as u64),
                    "hop mismatch at {v} (seed {seed})"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn alpha_w_detects_insufficient_horizon() {
        let g = generators::path(6, |_| 3);
        let _ = run_synchronized_alpha(&g, 1, DelayModel::WorstCase, 0, |_, _| HopFlood {
            heard_at: None,
        });
    }
}
