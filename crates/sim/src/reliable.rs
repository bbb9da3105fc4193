//! `Reliable<P>`: a retransmission wrapper making any [`Process`]
//! survive message loss.
//!
//! The paper's model assumes reliable FIFO links; the fault-injection
//! adversary ([`LinkDecision::Drop`](crate::LinkDecision::Drop)) breaks
//! that assumption. `Reliable<P>` restores it the classical way —
//! per-channel sequence numbers, cumulative acknowledgements, and
//! timeout-driven retransmission with bounded exponential backoff — so
//! the cost of reliability is itself measurable in the paper's
//! vocabulary:
//!
//! * original data sends are metered under the inner protocol's own
//!   [`CostClass`], exactly as if `P` ran bare;
//! * every ack and every retransmission is metered under
//!   [`CostClass::Auxiliary`], so the weighted overhead of surviving a
//!   drop schedule is `comm_of(Auxiliary)` — a Σ w(e) quantity directly
//!   comparable to the protocol's own communication.
//!
//! Retransmission stops after `max_retries` consecutive timeouts on a
//! channel (the peer has likely crashed); the channel is marked failed
//! and its buffer discarded, so runs against crash adversaries still
//! quiesce. Against a pure drop adversary whose per-channel loss streaks
//! are bounded — e.g. [`DropOracle`](crate::DropOracle) with budget at
//! most `max_retries` — delivery of every sent message is guaranteed,
//! not merely probable.
//!
//! Under churn a give-up is not the end of the story: when an enclosing
//! detector reports the peer restored ([`FaultAware::on_peer_restored`]),
//! the channel is reset to sequence zero — matching the rejoined
//! incarnation's fresh state — and traffic flows again.

use crate::cost::CostClass;
use crate::detect::FaultAware;
use crate::process::{Context, Process, TimerId};
use csp_graph::NodeId;
use std::collections::VecDeque;

/// Wire alphabet of [`Reliable<P>`]: sequenced data plus cumulative
/// acks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RelMsg<M> {
    /// The `seq`-th payload of this directed channel.
    Data {
        /// Channel-local sequence number, assigned in send order.
        seq: u64,
        /// The inner protocol's message.
        msg: M,
    },
    /// Cumulative acknowledgement: every `Data` with `seq < next` on the
    /// reverse channel has been received.
    Ack {
        /// One past the highest contiguously received sequence number.
        next: u64,
    },
}

/// Per-neighbor channel state: send window, receive cursor, and the
/// retransmission timer.
#[derive(Clone, Debug)]
struct Chan<M> {
    peer: NodeId,
    /// Next sequence number to assign on the send side.
    next_seq: u64,
    /// Sent but unacknowledged `(seq, msg, class)`, in seq order.
    send_buf: VecDeque<(u64, M, CostClass)>,
    /// Next sequence number the receive side will deliver.
    recv_next: u64,
    /// Consecutive timeouts since the last acknowledged progress.
    retries: u32,
    /// Outstanding retransmission timer, if any.
    timer: Option<TimerId>,
    /// Current timeout, doubled per retry up to `8 · rto_base`.
    rto: u64,
    /// Initial timeout: one round trip on this edge plus a tick,
    /// `2·w + 1`.
    rto_base: u64,
    /// Set when `max_retries` consecutive timeouts expired — the channel
    /// gave up and discards further traffic.
    failed: bool,
}

/// Retransmission wrapper: runs `P` unchanged over lossy links. See the
/// [module docs](self) for the protocol and its cost accounting.
///
/// The hosted protocol must be [`FaultAware`]: when a channel exhausts
/// its retries, the wrapper delivers
/// [`FaultAware::on_channel_failed`] so crash-tolerant protocols can
/// re-route (protocols that don't care opt in with an empty impl).
#[derive(Clone, Debug)]
pub struct Reliable<P: FaultAware> {
    inner: P,
    max_retries: u32,
    /// Retransmitted `Data` messages so far — the count behind the
    /// `Auxiliary` overhead meter, surfaced for fault reports.
    retransmissions: u64,
    /// Lazily created channels, scanned linearly by peer (vertex degrees
    /// in the model are small; determinism matters more than hashing).
    chans: Vec<Chan<P::Msg>>,
}

impl<P: FaultAware> Reliable<P> {
    /// Wraps `inner`, giving up on a channel after `max_retries`
    /// consecutive unacknowledged timeouts.
    pub fn new(inner: P, max_retries: u32) -> Self {
        Reliable {
            inner,
            max_retries,
            retransmissions: 0,
            chans: Vec::new(),
        }
    }

    /// The wrapped protocol instance.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Unwraps into the inner protocol instance.
    pub fn into_inner(self) -> P {
        self.inner
    }

    /// Whether the channel toward `peer` exhausted its retries and gave
    /// up.
    pub fn channel_failed(&self, peer: NodeId) -> bool {
        self.chans.iter().any(|c| c.peer == peer && c.failed)
    }

    /// Number of channels at this vertex that gave up.
    pub fn failed_channel_count(&self) -> usize {
        self.chans.iter().filter(|c| c.failed).count()
    }

    /// Number of `Data` retransmissions this vertex performed — each
    /// one was metered under [`CostClass::Auxiliary`].
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// The channel toward `peer`, created on first use with its
    /// edge-derived timeout.
    fn chan_mut<'c>(
        chans: &'c mut Vec<Chan<P::Msg>>,
        ctx: &Context<'_, RelMsg<P::Msg>>,
        peer: NodeId,
    ) -> &'c mut Chan<P::Msg> {
        if let Some(i) = chans.iter().position(|c| c.peer == peer) {
            return &mut chans[i];
        }
        let eid = ctx
            .graph()
            .edge_between(ctx.self_id(), peer)
            .expect("reliable channels only exist along edges");
        let rto_base = 2 * ctx.graph().weight(eid).get() + 1;
        chans.push(Chan {
            peer,
            next_seq: 0,
            send_buf: VecDeque::new(),
            recv_next: 0,
            retries: 0,
            timer: None,
            rto: rto_base,
            rto_base,
            failed: false,
        });
        chans.last_mut().expect("just pushed")
    }

    /// Relays the inner handler's queued sends as sequenced, buffered
    /// `Data` messages, arming each touched channel's timer.
    fn relay(
        &mut self,
        out: Vec<(NodeId, P::Msg, CostClass)>,
        ctx: &mut Context<'_, RelMsg<P::Msg>>,
    ) {
        for (to, msg, class) in out {
            let c = Self::chan_mut(&mut self.chans, ctx, to);
            if c.failed {
                continue;
            }
            let seq = c.next_seq;
            c.next_seq += 1;
            c.send_buf.push_back((seq, msg.clone(), class));
            let rto = c.rto;
            let needs_timer = c.timer.is_none();
            ctx.send_class(to, RelMsg::Data { seq, msg }, class);
            if needs_timer {
                let t = ctx.set_timer(rto);
                Self::chan_mut(&mut self.chans, ctx, to).timer = Some(t);
            }
        }
    }

    /// Runs an inner handler on a derived context and relays its output.
    fn host<F>(&mut self, ctx: &mut Context<'_, RelMsg<P::Msg>>, f: F)
    where
        F: FnOnce(&mut P, &mut Context<'_, P::Msg>),
    {
        let mut inner_ctx = ctx.derive::<P::Msg>();
        f(&mut self.inner, &mut inner_ctx);
        let out = inner_ctx.take_outbox();
        self.relay(out, ctx);
    }
}

impl<P: FaultAware> Process for Reliable<P> {
    type Msg = RelMsg<P::Msg>;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        self.host(ctx, |p, c| p.on_start(c));
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Context<'_, Self::Msg>) {
        match msg {
            RelMsg::Data { seq, msg } => {
                let c = Self::chan_mut(&mut self.chans, ctx, from);
                let deliver = seq == c.recv_next;
                if deliver {
                    c.recv_next += 1;
                }
                // Ack unconditionally: duplicates mean the previous ack
                // was lost, and out-of-window data tells the sender
                // where to resume. The ack is overhead, not protocol.
                let next = if deliver { seq + 1 } else { c.recv_next };
                ctx.send_class(from, RelMsg::Ack { next }, CostClass::Auxiliary);
                if deliver {
                    self.host(ctx, |p, c| p.on_message(from, msg, c));
                }
            }
            RelMsg::Ack { next } => {
                let c = Self::chan_mut(&mut self.chans, ctx, from);
                let mut progressed = false;
                while c.send_buf.front().is_some_and(|(s, _, _)| *s < next) {
                    c.send_buf.pop_front();
                    progressed = true;
                }
                if progressed {
                    c.retries = 0;
                    c.rto = c.rto_base;
                    let rto = c.rto;
                    let empty = c.send_buf.is_empty();
                    if let Some(t) = c.timer.take() {
                        ctx.cancel_timer(t);
                    }
                    if !empty {
                        let t = ctx.set_timer(rto);
                        Self::chan_mut(&mut self.chans, ctx, from).timer = Some(t);
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut Context<'_, Self::Msg>) {
        let Some(i) = self.chans.iter().position(|c| c.timer == Some(id)) else {
            return; // stale fire: the channel re-armed or finished
        };
        self.chans[i].timer = None;
        if self.chans[i].send_buf.is_empty() {
            return;
        }
        self.chans[i].retries += 1;
        if self.chans[i].retries > self.max_retries {
            // The peer is unreachable (crashed, or the adversary owns
            // the channel outright): give up so the run quiesces, and
            // leave the failure observable — both as queryable state and
            // as an upcall the hosted protocol can re-route on.
            self.chans[i].send_buf.clear();
            self.chans[i].failed = true;
            let peer = self.chans[i].peer;
            self.host(ctx, |p, c| p.on_channel_failed(peer, c));
            return;
        }
        // Retransmit the whole window in order — metered as Auxiliary,
        // the measurable price of reliability — and back off.
        let peer = self.chans[i].peer;
        let resend: Vec<(u64, P::Msg)> = self.chans[i]
            .send_buf
            .iter()
            .map(|(s, m, _)| (*s, m.clone()))
            .collect();
        self.retransmissions += resend.len() as u64;
        for (seq, msg) in resend {
            ctx.send_class(peer, RelMsg::Data { seq, msg }, CostClass::Auxiliary);
        }
        let c = &mut self.chans[i];
        c.rto = (c.rto * 2).min(c.rto_base * 8);
        let rto = c.rto;
        let t = ctx.set_timer(rto);
        self.chans[i].timer = Some(t);
    }
}

/// Failure notifications pass through to the hosted protocol: a
/// suspicion raised by an enclosing detector (`Detect<Reliable<P>>`)
/// reaches `P` with its sends still sequenced through this wrapper.
///
/// A *restoration* additionally resets the channel toward the rejoined
/// peer before the upcall is forwarded: the restarted incarnation opens
/// its channels from sequence zero and has forgotten everything we
/// sent, so any surviving send window, receive cursor, or failed
/// give-up mark is about a peer that no longer exists. Without the
/// reset, the first post-rejoin send would carry a stale sequence
/// number the fresh receiver never delivers.
impl<P: FaultAware> FaultAware for Reliable<P> {
    fn on_channel_failed(&mut self, peer: NodeId, ctx: &mut Context<'_, Self::Msg>) {
        self.host(ctx, |p, c| p.on_channel_failed(peer, c));
    }

    fn on_peer_suspected(&mut self, peer: NodeId, ctx: &mut Context<'_, Self::Msg>) {
        self.host(ctx, |p, c| p.on_peer_suspected(peer, c));
    }

    fn on_peer_restored(&mut self, peer: NodeId, ctx: &mut Context<'_, Self::Msg>) {
        if let Some(c) = self.chans.iter_mut().find(|c| c.peer == peer) {
            c.next_seq = 0;
            c.send_buf.clear();
            c.recv_next = 0;
            c.retries = 0;
            c.rto = c.rto_base;
            c.failed = false;
            if let Some(t) = c.timer.take() {
                ctx.cancel_timer(t);
            }
        }
        self.host(ctx, |p, c| p.on_peer_restored(peer, c));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::{
        DelayModel, DropOracle, FaultPlan, LinkDecision, LinkOracle, ModelOracle, MsgInfo,
    };
    use crate::runtime::{CoreKind, Simulator};
    use crate::time::SimTime;
    use csp_graph::generators;

    /// Minimal flooding protocol for wrapper tests.
    #[derive(Clone, Debug)]
    struct Flood {
        initiator: bool,
        reached: bool,
    }

    impl Process for Flood {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
            if self.initiator {
                self.reached = true;
                ctx.send_all(());
            }
        }
        fn on_message(&mut self, _from: NodeId, _msg: (), ctx: &mut Context<'_, ()>) {
            if !self.reached {
                self.reached = true;
                ctx.send_all(());
            }
        }
    }

    impl FaultAware for Flood {}

    fn make(v: NodeId, _: &csp_graph::WeightedGraph) -> Reliable<Flood> {
        Reliable::new(
            Flood {
                initiator: v == NodeId::new(0),
                reached: false,
            },
            8,
        )
    }

    #[test]
    #[should_panic(expected = "do not forward timers")]
    fn hosting_a_timer_using_protocol_is_refused_not_muted() {
        // `Reliable` relays sends only. A detector hosted under it used
        // to build, run and never beat: its heartbeat timers vanished
        // with the derived context. The supported order is
        // `Detect<Reliable<P>>`.
        use crate::detect::{Detect, DetectConfig};
        let g = generators::path(3, |_| 2);
        let _ = Simulator::new(&g).run(|v, _| {
            let flood = Flood {
                initiator: v == NodeId::new(0),
                reached: false,
            };
            Reliable::new(Detect::new(flood, DetectConfig::new(4, 3, 0)), 8)
        });
    }

    #[test]
    fn lossless_wrapped_flood_reaches_everyone() {
        let g = generators::connected_gnp(10, 0.35, generators::WeightDist::Uniform(1, 9), 3);
        let run = Simulator::new(&g).run(make).unwrap();
        assert!(run.states.iter().all(|s| s.inner().reached));
        // Overhead exists (one ack per delivered data message at least).
        assert!(run.cost.comm_of(CostClass::Auxiliary).raw() > 0);
        // Without faults nothing is retransmitted, so the original
        // traffic meters exactly as the bare run's does.
        let bare = Simulator::new(&g)
            .run(|v, _| make(v, &g).into_inner())
            .unwrap();
        assert_eq!(
            run.cost.comm_of(CostClass::Protocol),
            bare.cost.comm_of(CostClass::Protocol)
        );
    }

    #[test]
    fn wrapped_flood_survives_bounded_drops() {
        let g = generators::connected_gnp(10, 0.35, generators::WeightDist::Uniform(1, 9), 3);
        for seed in 0..5 {
            let mut oracle = DropOracle::new(DelayModel::Uniform, seed, 0.4, 4);
            let run = Simulator::new(&g)
                .run_with_oracle(&mut oracle, make)
                .unwrap();
            assert!(
                run.states.iter().all(|s| s.inner().reached),
                "a vertex stayed unreached at seed {seed}"
            );
        }
    }

    #[test]
    fn bare_flood_stalls_where_wrapped_flood_recovers() {
        // Drop the initiator's very first transmission on a path graph:
        // bare flood dies instantly, wrapped flood retransmits.
        struct DropFirst;
        impl LinkOracle for DropFirst {
            fn decide(&mut self, msg: &MsgInfo) -> LinkDecision {
                if msg.index == 0 {
                    LinkDecision::Drop
                } else {
                    LinkDecision::Deliver {
                        delay: msg.weight.get(),
                    }
                }
            }
        }
        let g = generators::path(4, |_| 3);
        let bare = Simulator::new(&g)
            .run_with_oracle(&mut DropFirst, |v, _| Flood {
                initiator: v == NodeId::new(0),
                reached: false,
            })
            .unwrap();
        assert!(!bare.states[1].reached, "the drop should kill bare flood");

        let wrapped = Simulator::new(&g)
            .run_with_oracle(&mut DropFirst, make)
            .unwrap();
        assert!(wrapped.states.iter().all(|s| s.inner().reached));
    }

    #[test]
    fn channel_gives_up_against_a_crashed_peer() {
        /// Delivers everything instantly but crashes vertex 1 at t=0.
        struct CrashOne;
        impl LinkOracle for CrashOne {
            fn decide(&mut self, _msg: &MsgInfo) -> LinkDecision {
                LinkDecision::Deliver { delay: 1 }
            }
            fn fault_plan(&mut self) -> FaultPlan {
                FaultPlan {
                    churn: vec![(NodeId::new(1), vec![SimTime::ZERO])],
                    drift: Vec::new(),
                }
            }
        }
        let g = generators::path(3, |_| 2);
        let run = Simulator::new(&g)
            .run_with_oracle(&mut CrashOne, |v, _| {
                Reliable::new(
                    Flood {
                        initiator: v == NodeId::new(0),
                        reached: false,
                    },
                    3,
                )
            })
            .unwrap();
        // The run quiesces (this line being reached proves it), the
        // initiator's channel to the dead vertex is marked failed, and
        // the partition behind the crash stays unreached.
        assert!(run.states[0].channel_failed(NodeId::new(1)));
        assert!(!run.states[2].inner().reached);
    }

    #[test]
    fn retransmissions_are_metered_as_auxiliary() {
        struct DropFirst;
        impl LinkOracle for DropFirst {
            fn decide(&mut self, msg: &MsgInfo) -> LinkDecision {
                if msg.index == 0 {
                    LinkDecision::Drop
                } else {
                    LinkDecision::Deliver {
                        delay: msg.weight.get(),
                    }
                }
            }
        }
        let g = generators::path(2, |_| 5);
        let lossless = Simulator::new(&g)
            .run_with_oracle(&mut ModelOracle::new(DelayModel::WorstCase, 0), make)
            .unwrap();
        let lossy = Simulator::new(&g)
            .run_with_oracle(&mut DropFirst, make)
            .unwrap();
        // The drop forces at least one retransmission, so the lossy
        // run's auxiliary (overhead) cost strictly exceeds lossless.
        assert!(
            lossy.cost.comm_of(CostClass::Auxiliary) > lossless.cost.comm_of(CostClass::Auxiliary)
        );
        // The protocol-class cost is identical: originals only.
        assert_eq!(
            lossy.cost.comm_of(CostClass::Protocol),
            lossless.cost.comm_of(CostClass::Protocol)
        );
    }

    #[test]
    fn give_up_delivers_the_channel_failed_upcall() {
        /// Flood that records which channels it was told failed.
        #[derive(Clone, Debug)]
        struct Probe {
            initiator: bool,
            reached: bool,
            failed: Vec<NodeId>,
        }
        impl Process for Probe {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                if self.initiator {
                    self.reached = true;
                    ctx.send_all(());
                }
            }
            fn on_message(&mut self, _f: NodeId, _m: (), ctx: &mut Context<'_, ()>) {
                if !self.reached {
                    self.reached = true;
                    ctx.send_all(());
                }
            }
        }
        impl FaultAware for Probe {
            fn on_channel_failed(&mut self, peer: NodeId, _ctx: &mut Context<'_, ()>) {
                self.failed.push(peer);
            }
        }
        struct CrashOne;
        impl LinkOracle for CrashOne {
            fn decide(&mut self, _msg: &MsgInfo) -> LinkDecision {
                LinkDecision::Deliver { delay: 1 }
            }
            fn fault_plan(&mut self) -> FaultPlan {
                FaultPlan {
                    churn: vec![(NodeId::new(1), vec![SimTime::ZERO])],
                    drift: Vec::new(),
                }
            }
        }
        let g = generators::path(3, |_| 2);
        let run = Simulator::new(&g)
            .run_with_oracle(&mut CrashOne, |v, _| {
                Reliable::new(
                    Probe {
                        initiator: v == NodeId::new(0),
                        reached: false,
                        failed: Vec::new(),
                    },
                    3,
                )
            })
            .unwrap();
        // The initiator's channel to the dead vertex gave up — and told
        // the hosted protocol so, with retransmissions metered.
        assert_eq!(run.states[0].inner().failed, vec![NodeId::new(1)]);
        assert_eq!(run.states[0].failed_channel_count(), 1);
        assert!(run.states[0].retransmissions() > 0);
        assert_eq!(run.cost.crashed_nodes, 1);
    }

    #[test]
    fn restored_peer_resets_the_channel_to_sequence_zero() {
        use crate::delay::ChurnOracle;
        use crate::detect::{Detect, DetectConfig};

        /// Greets on start; re-greets any peer reported restored.
        #[derive(Clone, Debug)]
        struct Greeter {
            initiator: bool,
            reached: bool,
            regreeted: bool,
        }
        impl Process for Greeter {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                if self.initiator {
                    self.reached = true;
                    ctx.send_all(());
                }
            }
            fn on_message(&mut self, _f: NodeId, _m: (), _ctx: &mut Context<'_, ()>) {
                self.reached = true;
            }
        }
        impl FaultAware for Greeter {
            fn on_peer_restored(&mut self, peer: NodeId, ctx: &mut Context<'_, ()>) {
                self.regreeted = true;
                ctx.send_class(peer, (), CostClass::Protocol);
            }
        }

        struct Clean;
        impl LinkOracle for Clean {
            fn decide(&mut self, msg: &MsgInfo) -> LinkDecision {
                LinkDecision::Deliver {
                    delay: msg.weight.get(),
                }
            }
        }

        // Vertex 1 takes the initiator's greeting (seq 0), crashes, and
        // rejoins as a fresh incarnation expecting sequence zero again.
        // Only the channel reset lets the post-rejoin re-greeting —
        // assigned seq 0 anew — reach it.
        let g = generators::path(2, |_| 2);
        let mut oracle = ChurnOracle::new(
            Clean,
            vec![(NodeId::new(1), vec![SimTime::new(9), SimTime::new(25)])],
            vec![],
        );
        let run = Simulator::new(&g)
            .run_with_oracle(&mut oracle, |v, _| {
                Detect::new(
                    Reliable::new(
                        Greeter {
                            initiator: v == NodeId::new(0),
                            reached: false,
                            regreeted: false,
                        },
                        3,
                    ),
                    DetectConfig::new(4, 30, 0),
                )
            })
            .unwrap();
        let initiator = &run.states[0];
        assert!(!initiator.suspects(NodeId::new(1)), "suspicion not revoked");
        assert!(initiator.inner().inner().regreeted, "restore upcall lost");
        assert!(
            !initiator.inner().channel_failed(NodeId::new(1)),
            "channel still marked failed after restore"
        );
        // The rejoined incarnation received the re-greeting: delivery
        // only works if the sender restarted from sequence zero.
        assert!(
            run.states[1].inner().inner().reached,
            "fresh incarnation never heard the re-greeting"
        );
        assert_eq!(run.cost.recoveries, 1);
    }

    #[test]
    fn wrapped_runs_are_identical_across_cores() {
        let g = generators::connected_gnp(9, 0.4, generators::WeightDist::Uniform(1, 7), 5);
        let run_on = |kind: CoreKind| {
            let mut oracle = DropOracle::new(DelayModel::Uniform, 2, 0.3, 4);
            let mut sim = Simulator::new(&g);
            sim.core(kind).record_trace(1 << 14);
            sim.run_with_oracle(&mut oracle, make).unwrap()
        };
        let b = run_on(CoreKind::Bucket);
        let h = run_on(CoreKind::Heap);
        assert_eq!(b.cost, h.cost);
        assert_eq!(b.trace.events(), h.trace.events());
        assert_eq!(format!("{:?}", b.states), format!("{:?}", h.states));
    }
}
