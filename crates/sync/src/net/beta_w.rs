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

use csp_graph::algo::shortest_path_tree;
use csp_graph::{NodeId, RootedTree, WeightedGraph};
use csp_sim::sync::{SyncContext, SyncProcess};
use csp_sim::{Context, CostClass, DelayModel, Process, SimError, Simulator};
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
    hosted: P,
    until_pulse: u64,
    pulse: u64,
    /// Tree position.
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    buffered: BTreeMap<u64, Vec<(NodeId, P::Msg)>>,
    ack_outstanding: u64,
    /// Children's SafeUp reports per pulse.
    safe_up: BTreeMap<u64, usize>,
    reported: bool,
    wake_at: Option<u64>,
}

impl<P: SyncProcess> BetaWHost<P> {
    /// Creates the host for one vertex over the shared tree.
    pub fn new(v: NodeId, tree: &RootedTree, hosted: P, until_pulse: u64) -> Self {
        BetaWHost {
            hosted,
            until_pulse,
            pulse: 0,
            parent: tree.parent(v).map(|(p, _, _)| p),
            children: tree.children_lists()[v.index()]
                .iter()
                .map(|&(c, _)| c)
                .collect(),
            buffered: BTreeMap::new(),
            ack_outstanding: 0,
            safe_up: BTreeMap::new(),
            reported: false,
            wake_at: None,
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

    fn run_pulse(&mut self, ctx: &mut Context<'_, BetaMsg<P::Msg>>) {
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
            if let Some(w) = out.wake_at {
                self.wake_at = Some(match self.wake_at {
                    Some(e) => e.min(w),
                    None => w,
                });
            }
            for (to, msg) in out.sends {
                self.ack_outstanding += 1;
                ctx.send(to, BetaMsg::Hosted { msg, sent: q });
            }
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
        if self.pulse >= self.until_pulse {
            return;
        }
        let next = self.pulse + 1;
        for c in self.children.clone() {
            ctx.send_class(c, BetaMsg::Next { pulse: next }, CostClass::Synchronizer);
        }
        self.pulse = next;
        self.run_pulse(ctx);
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
                ctx.send_class(from, BetaMsg::Ack, CostClass::Synchronizer);
                self.buffered.entry(sent + 1).or_default().push((from, msg));
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

/// Runs a unit-delay synchronous protocol under β_w over the SPT rooted
/// at `leader`, simulating pulses `0..=until_pulse`.
///
/// # Errors
///
/// Propagates [`SimError`] from the simulator.
///
/// # Panics
///
/// Panics if `g` is disconnected, `leader` is out of range, or hosted
/// messages remain buffered past the horizon.
pub fn run_synchronized_beta<P, F>(
    g: &WeightedGraph,
    leader: NodeId,
    until_pulse: u64,
    delay: DelayModel,
    seed: u64,
    mut make: F,
) -> Result<super::HostedRun<P>, SimError>
where
    P: SyncProcess,
    F: FnMut(NodeId, &WeightedGraph) -> P,
{
    g.check_node(leader);
    let tree = shortest_path_tree(g, leader);
    assert!(tree.is_spanning(), "β_w needs a connected graph");
    let run = Simulator::new(g)
        .delay(delay)
        .seed(seed)
        .run(|v, g| BetaWHost::new(v, &tree, make(v, g), until_pulse))?;
    let undelivered: usize = run.states.iter().map(BetaWHost::undelivered).sum();
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
    fn beta_w_realizes_unit_delay_semantics() {
        let g = generators::heavy_chord_cycle(10, 70);
        let hops = csp_graph::algo::hop_distances(&g, NodeId::new(0));
        let max_hops = hops.iter().map(|h| h.unwrap() as u64).max().unwrap();
        for seed in 0..3 {
            let run = run_synchronized_beta(
                &g,
                NodeId::new(0),
                max_hops + 2,
                DelayModel::Uniform,
                seed,
                |_, _| HopFlood { heard_at: None },
            )
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
    fn alpha_and_beta_hosts_agree_on_outputs() {
        let g = generators::grid(3, 4, generators::WeightDist::Uniform(1, 9), 5);
        let hops = csp_graph::algo::hop_distances(&g, NodeId::new(0));
        let horizon = hops.iter().map(|h| h.unwrap() as u64).max().unwrap() + 2;
        let alpha = super::super::alpha_w::run_synchronized_alpha(
            &g,
            horizon,
            DelayModel::Uniform,
            3,
            |_, _| HopFlood { heard_at: None },
        )
        .unwrap();
        let beta = run_synchronized_beta(
            &g,
            NodeId::new(0),
            horizon,
            DelayModel::Uniform,
            3,
            |_, _| HopFlood { heard_at: None },
        )
        .unwrap();
        for v in g.nodes() {
            assert_eq!(
                alpha.states[v.index()].heard_at,
                beta.states[v.index()].heard_at
            );
        }
    }
}
