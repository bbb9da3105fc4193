//! `Detect<P>`: a heartbeat failure detector delivering
//! `peer_suspected` upcalls to crash-aware protocols.
//!
//! The fault adversary ([`LinkOracle::fault_plan`](crate::LinkOracle::fault_plan))
//! kills vertices silently: a crashed peer simply stops answering, and a
//! protocol that waits for it deadlocks or truncates its output. This
//! module adds the standard remedy — timer-driven neighbor monitoring —
//! in the paper's cost vocabulary:
//!
//! * every vertex sends a heartbeat ([`DetectMsg::Beat`]) to each
//!   neighbor at time zero and then every `period` ticks, `beats` times
//!   in total, metered under [`CostClass::Auxiliary`] (the measurable
//!   weighted price of monitoring);
//! * each neighbor is watched with a per-edge *suspicion timeout*
//!   `θ(e) = (loss_tolerance + 1)·period + w(e) + 1`: any arrival from
//!   the peer (heartbeat or application traffic) pushes its deadline to
//!   `now + θ(e)`, and a deadline that expires raises a suspicion,
//!   delivered to the hosted protocol as
//!   [`FaultAware::on_peer_suspected`]. `θ(e)` is computed from the
//!   *effective* weight ([`Context::weight_of`]) at every arrival, so
//!   mid-run weight drift widens or narrows the timeout from its
//!   instant (the watch's end-of-window instant stays fixed from the
//!   arm-time weight — a window cannot be reopened by a revision).
//!
//! # Suspicion is revocable: rejoin handling
//!
//! A suspected channel is put to rest: suspicion happens only when the
//! watch's own timer fires, so no timer is left to cancel, and
//! subsequent heartbeat rounds skip the peer, so a crashed neighbor
//! stops costing anything. But churn adversaries may *rejoin* a crashed
//! vertex: the restarted incarnation heartbeats afresh, and any arrival
//! from a suspected peer revokes the suspicion — the watch re-arms
//! (inside its original window), one immediate heartbeat is returned to
//! the peer so both directions re-establish liveness, and the hosted
//! protocol hears [`FaultAware::on_peer_restored`].
//!
//! # Accuracy and completeness (in the weighted-delay model)
//!
//! Delays on edge `e` are bounded by `w(e)` and per-channel loss streaks
//! by the adversary's drop budget, so for `loss_tolerance ≥ budget` the
//! detector is **accurate**: a live peer's inter-arrival gap is at most
//! `(loss_tolerance + 1)·period + w(e) − 1 < θ(e)`, so it is never
//! suspected. It is **complete up to a horizon**: the beat window is
//! bounded (`beats` rounds, so runs quiesce), and a crash at time `t` is
//! guaranteed to be suspected — within `θ(e)` of the peer's last sign of
//! life — only when `t ≤ (beats − 1 − loss_tolerance)·period − w(e) + 1`
//! (see [`DetectConfig::detection_horizon`]). Crashes after the horizon
//! may go unnoticed; that is the price of quiescence, stated in
//! DESIGN.md's failure-detector section.
//!
//! Because delays are bounded, suspicion is also *ordered*: every
//! message the crashed peer sent before dying arrives strictly before
//! the suspicion upcall, so a hosted protocol never hears from a peer it
//! was already told is dead (on that same channel; a retransmission
//! layer's give-up may interleave differently — see
//! [`FaultAware::on_channel_failed`]).

use crate::cost::CostClass;
use crate::process::{Context, Process, TimerId};
use crate::time::SimTime;
use csp_graph::{EdgeId, NodeId};

/// A [`Process`] that can react to failure notifications.
///
/// All upcalls default to no-ops, so any protocol can opt in with an
/// empty `impl FaultAware for X {}` and crash-tolerant protocols
/// override what they need. Upcalls run on a full [`Context`]: the
/// handler may send messages and arm timers like any other handler.
pub trait FaultAware: Process {
    /// The channel toward `peer` gave up: a retransmission layer
    /// exhausted its retries ([`Reliable`](crate::Reliable) after
    /// `max_retries` consecutive timeouts). Traffic to `peer` is being
    /// discarded from now on.
    fn on_channel_failed(&mut self, peer: NodeId, ctx: &mut Context<'_, Self::Msg>) {
        let _ = (peer, ctx);
    }

    /// The failure detector suspects `peer` has crashed. The upcall
    /// fires at most once per contiguous down period: a rejoin that
    /// revokes the suspicion (see [`FaultAware::on_peer_restored`])
    /// re-arms it for the peer's next crash.
    fn on_peer_suspected(&mut self, peer: NodeId, ctx: &mut Context<'_, Self::Msg>) {
        let _ = (peer, ctx);
    }

    /// A previously suspected `peer` showed a life sign again: the
    /// churn adversary rejoined it and its restarted incarnation is
    /// heartbeating. The suspicion has already been revoked when this
    /// fires; traffic to `peer` flows again.
    fn on_peer_restored(&mut self, peer: NodeId, ctx: &mut Context<'_, Self::Msg>) {
        let _ = (peer, ctx);
    }
}

/// Wire alphabet of [`Detect<P>`]: heartbeats plus the hosted protocol's
/// own messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DetectMsg<M> {
    /// A heartbeat — pure life sign, metered [`CostClass::Auxiliary`].
    Beat,
    /// A relayed message of the hosted protocol, metered under its own
    /// class.
    App(M),
}

/// Heartbeat and suspicion parameters of [`Detect<P>`].
#[derive(Clone, Copy, Debug)]
pub struct DetectConfig {
    /// Ticks between heartbeat rounds.
    pub period: u64,
    /// Total heartbeat rounds (the first fires at time zero). The beat
    /// window is bounded so monitored runs still quiesce.
    pub beats: u32,
    /// Consecutive per-channel losses the detector tolerates without a
    /// false suspicion. Match it to the drop adversary's streak budget
    /// (e.g. [`DropOracle`](crate::DropOracle)'s `budget`); `0` for
    /// crash-only adversaries.
    pub loss_tolerance: u32,
}

impl DetectConfig {
    /// A config with `period` ticks between `beats` rounds, tolerating
    /// `loss_tolerance` consecutive losses per channel.
    ///
    /// # Panics
    ///
    /// Panics unless `period ≥ 1` and `beats > loss_tolerance` (the
    /// monitoring window must outlast the tolerated loss streak).
    pub fn new(period: u64, beats: u32, loss_tolerance: u32) -> Self {
        assert!(period >= 1, "heartbeat period must be at least one tick");
        assert!(
            beats > loss_tolerance,
            "beat window must exceed the loss tolerance"
        );
        DetectConfig {
            period,
            beats,
            loss_tolerance,
        }
    }

    /// Suspicion timeout for an edge of weight `w`:
    /// `(loss_tolerance + 1)·period + w + 1`, strictly above any live
    /// peer's inter-arrival gap.
    pub fn theta(&self, w: u64) -> u64 {
        (u64::from(self.loss_tolerance) + 1) * self.period + w + 1
    }

    /// Last instant at which a watch on an edge of weight `w` may still
    /// raise a suspicion; later expiries mean the beat window is over
    /// and monitoring stops (a live peer's final heartbeat always pushes
    /// its deadline past this).
    fn watch_end(&self, w: u64) -> u64 {
        u64::from(self.beats - 1 - self.loss_tolerance) * self.period + self.theta(w)
    }

    /// Latest crash time guaranteed to be detected over an edge of
    /// weight `w`: `(beats − 1 − loss_tolerance)·period − w + 1`
    /// (saturating at zero). Crashes at or before the horizon are always
    /// suspected; later ones may slip through the end of the beat
    /// window.
    pub fn detection_horizon(&self, w: u64) -> u64 {
        (u64::from(self.beats - 1 - self.loss_tolerance) * self.period).saturating_sub(w - 1)
    }
}

impl Default for DetectConfig {
    /// Eight rounds, eight ticks apart, tolerating no loss.
    fn default() -> Self {
        DetectConfig::new(8, 8, 0)
    }
}

/// Per-neighbor monitoring state.
#[derive(Clone, Debug)]
struct Watch {
    peer: NodeId,
    /// The monitored channel; `θ(e)` is recomputed from its *effective*
    /// weight at every arrival, so weight drift moves the timeout.
    edge: EdgeId,
    /// Suspicion fires when the clock reaches this without an arrival.
    deadline: SimTime,
    /// Deadlines past this *absolute* instant end monitoring instead of
    /// suspecting: heartbeat schedules are anchored at time zero, so
    /// even a rejoined incarnation (whose watches are armed mid-run)
    /// monitors only for the remainder of the global beat window —
    /// otherwise it would falsely suspect live peers whose bounded beat
    /// rounds simply ran out. Fixed from the arm-time weight; drift
    /// cannot reopen a window.
    end: SimTime,
    /// Outstanding watch timer, if any.
    timer: Option<TimerId>,
    suspected: bool,
}

/// Heartbeat failure detector hosting a crash-aware protocol. See the
/// [module docs](self) for the monitoring protocol and its guarantees.
///
/// `Detect` is a protocol transformer in the same mold as
/// [`Reliable`](crate::Reliable): the hosted protocol runs unchanged,
/// its sends relayed as [`DetectMsg::App`] under their own cost class,
/// while heartbeats ride [`CostClass::Auxiliary`]. Unlike `Reliable`,
/// `Detect` also *forwards the hosted protocol's timers* (via
/// [`Context::derive_with_timers`]), so timer-using protocols — a
/// `Reliable` layer included — can be monitored:
/// `Detect<Reliable<P>>` is the full drop-and-crash-tolerant stack.
#[derive(Clone, Debug)]
pub struct Detect<P: FaultAware> {
    inner: P,
    cfg: DetectConfig,
    /// Heartbeat rounds already sent.
    beats_sent: u32,
    beat_timer: Option<TimerId>,
    watches: Vec<Watch>,
    /// Next timer id the hosted protocol will be handed.
    inner_timer_seq: u64,
    /// Live `(inner id, outer id)` timer pairs, unordered.
    timer_map: Vec<(u64, TimerId)>,
}

impl<P: FaultAware> Detect<P> {
    /// Monitors `inner`'s neighborhood with `cfg`'s heartbeat schedule.
    pub fn new(inner: P, cfg: DetectConfig) -> Self {
        Detect {
            inner,
            cfg,
            beats_sent: 0,
            beat_timer: None,
            watches: Vec::new(),
            inner_timer_seq: 0,
            timer_map: Vec::new(),
        }
    }

    /// The hosted protocol instance.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Unwraps into the hosted protocol instance.
    pub fn into_inner(self) -> P {
        self.inner
    }

    /// Whether this vertex's detector currently suspects `peer`.
    /// Suspicion is revocable: any later life sign from the peer (a
    /// rejoined incarnation's heartbeat) clears it again.
    pub fn suspects(&self, peer: NodeId) -> bool {
        self.watches.iter().any(|w| w.peer == peer && w.suspected)
    }

    /// The currently suspected neighbors, in neighbor order.
    pub fn suspected(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.watches.iter().filter(|w| w.suspected).map(|w| w.peer)
    }

    /// Sends one heartbeat round and re-arms the beat timer while rounds
    /// remain. Suspected peers are skipped — a confirmed-dead channel
    /// stops paying weighted heartbeat cost, and the dead vertex stops
    /// receiving deliveries that would churn the queue as dead events
    /// for the rest of the run. (A rejoined peer is un-suspected by its
    /// own fresh heartbeats and rejoins the round schedule.)
    fn beat(&mut self, ctx: &mut Context<'_, DetectMsg<P::Msg>>) {
        let g = ctx.graph();
        let me = ctx.self_id();
        for (peer, _, _) in g.neighbors(me) {
            if self.suspects(peer) {
                continue;
            }
            ctx.send_class(peer, DetectMsg::Beat, CostClass::Auxiliary);
        }
        self.beats_sent += 1;
        self.beat_timer = if self.beats_sent < self.cfg.beats {
            Some(ctx.set_timer(self.cfg.period))
        } else {
            None
        };
    }

    /// Runs a hosted handler on a derived context, then relays its sends
    /// and forwards its timer ops (mapping inner timer ids onto real
    /// ones).
    fn host<F>(&mut self, ctx: &mut Context<'_, DetectMsg<P::Msg>>, f: F)
    where
        F: FnOnce(&mut P, &mut Context<'_, P::Msg>),
    {
        let mut inner_ctx = ctx.derive_with_timers::<P::Msg>(self.inner_timer_seq);
        f(&mut self.inner, &mut inner_ctx);
        let (delays, cancels) = inner_ctx.take_timer_ops();
        let out = inner_ctx.take_outbox();
        for (to, msg, class) in out {
            ctx.send_class(to, DetectMsg::App(msg), class);
        }
        // Cancels of already-mapped timers go through; cancels of ids
        // armed in this same handler suppress the arm below — the same
        // net effect the runtime's own cancel-before-arm draining has.
        let base = self.inner_timer_seq;
        let mut cancelled_new: Vec<u64> = Vec::new();
        for id in cancels {
            if id >= base {
                cancelled_new.push(id);
            } else if let Some(pos) = self.timer_map.iter().position(|(inner, _)| *inner == id) {
                let (_, outer) = self.timer_map.swap_remove(pos);
                ctx.cancel_timer(outer);
            }
        }
        for (k, delay) in delays.into_iter().enumerate() {
            let inner_id = base + k as u64;
            self.inner_timer_seq += 1;
            if cancelled_new.contains(&inner_id) {
                continue;
            }
            let outer = ctx.set_timer(delay);
            self.timer_map.push((inner_id, outer));
        }
    }

    /// Records a life sign from `from` at the current time, pushing its
    /// watch deadline by the live `θ(e)` (effective weight, so drift
    /// moves the timeout from its instant).
    ///
    /// An arrival from a *suspected* peer proves it rejoined: the
    /// suspicion is revoked, the watch re-armed (inside its original
    /// window), one heartbeat is returned immediately so the restarted
    /// incarnation sees us alive in turn, and the hosted protocol hears
    /// [`FaultAware::on_peer_restored`].
    fn refresh(&mut self, from: NodeId, ctx: &mut Context<'_, DetectMsg<P::Msg>>) {
        let now = ctx.time();
        let Some(i) = self.watches.iter().position(|w| w.peer == from) else {
            return;
        };
        let theta = self.cfg.theta(ctx.weight_of(self.watches[i].edge).get());
        self.watches[i].deadline = now + theta;
        if !self.watches[i].suspected {
            return;
        }
        self.watches[i].suspected = false;
        if self.watches[i].deadline <= self.watches[i].end && self.watches[i].timer.is_none() {
            let t = ctx.set_timer(theta);
            self.watches[i].timer = Some(t);
        }
        ctx.send_class(from, DetectMsg::Beat, CostClass::Auxiliary);
        self.host(ctx, |p, c| p.on_peer_restored(from, c));
    }
}

impl<P: FaultAware> Process for Detect<P> {
    type Msg = DetectMsg<P::Msg>;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        // Arm one watch per neighbor before anything is sent, so even a
        // peer that crashes at time zero is eventually suspected. A
        // rejoined incarnation runs this mid-run: deadlines are
        // anchored at `now` *plus one edge traversal of grace* — peers
        // that suspected us only resume beating once our own restart
        // beat has crossed the edge, so the first life sign can lag a
        // full round trip behind a steady-state gap. The window end
        // stays the absolute instant the global beat schedule runs out
        // (see [`Watch`]).
        let g = ctx.graph();
        let me = ctx.self_id();
        let now = ctx.time();
        for (peer, eid, _) in g.neighbors(me) {
            let w = ctx.weight_of(eid).get();
            let theta = self.cfg.theta(w);
            let grace = if now == SimTime::ZERO { 0 } else { w };
            let timer = ctx.set_timer(grace + theta);
            self.watches.push(Watch {
                peer,
                edge: eid,
                deadline: now + grace + theta,
                end: SimTime::new(self.cfg.watch_end(w)),
                timer: Some(timer),
                suspected: false,
            });
        }
        self.beat(ctx);
        self.host(ctx, |p, c| p.on_start(c));
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Context<'_, Self::Msg>) {
        self.refresh(from, ctx);
        if let DetectMsg::App(msg) = msg {
            self.host(ctx, |p, c| p.on_message(from, msg, c));
        }
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut Context<'_, Self::Msg>) {
        if self.beat_timer == Some(id) {
            self.beat_timer = None;
            self.beat(ctx);
            return;
        }
        if let Some(i) = self.watches.iter().position(|w| w.timer == Some(id)) {
            self.watches[i].timer = None;
            if self.watches[i].suspected {
                return;
            }
            let now = ctx.time();
            if self.watches[i].deadline > self.watches[i].end {
                // The beat window is over: a live peer's last heartbeat
                // always lands its deadline here. Stop monitoring.
                return;
            }
            if now >= self.watches[i].deadline {
                // `beat` skips suspected peers from the next round on.
                self.watches[i].suspected = true;
                let peer = self.watches[i].peer;
                self.host(ctx, |p, c| p.on_peer_suspected(peer, c));
                return;
            }
            // An arrival moved the deadline since this timer was armed:
            // chase it.
            let remaining = self.watches[i].deadline.get() - now.get();
            let t = ctx.set_timer(remaining);
            self.watches[i].timer = Some(t);
            return;
        }
        if let Some(pos) = self.timer_map.iter().position(|(_, outer)| *outer == id) {
            let (inner_id, _) = self.timer_map.swap_remove(pos);
            self.host(ctx, |p, c| p.on_timer(TimerId(inner_id), c));
        }
    }
}

impl<P: FaultAware> FaultAware for Detect<P> {
    fn on_channel_failed(&mut self, peer: NodeId, ctx: &mut Context<'_, Self::Msg>) {
        self.host(ctx, |p, c| p.on_channel_failed(peer, c));
    }

    fn on_peer_suspected(&mut self, peer: NodeId, ctx: &mut Context<'_, Self::Msg>) {
        self.host(ctx, |p, c| p.on_peer_suspected(peer, c));
    }

    fn on_peer_restored(&mut self, peer: NodeId, ctx: &mut Context<'_, Self::Msg>) {
        self.host(ctx, |p, c| p.on_peer_restored(peer, c));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::{
        ChurnOracle, DelayModel, DropOracle, FaultPlan, LinkDecision, LinkOracle, MsgInfo,
    };
    use crate::reliable::Reliable;
    use crate::runtime::{CoreKind, Simulator};
    use csp_graph::{generators, Weight, WeightedGraph};

    /// Flood that also records which peers it was told are dead or
    /// restored.
    #[derive(Clone, Debug)]
    struct Flood {
        initiator: bool,
        reached: bool,
        dead_peers: Vec<NodeId>,
        restored_peers: Vec<NodeId>,
    }

    impl Flood {
        fn new(initiator: bool) -> Self {
            Flood {
                initiator,
                reached: false,
                dead_peers: Vec::new(),
                restored_peers: Vec::new(),
            }
        }
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

    impl FaultAware for Flood {
        fn on_peer_suspected(&mut self, peer: NodeId, _ctx: &mut Context<'_, ()>) {
            self.dead_peers.push(peer);
        }
        fn on_peer_restored(&mut self, peer: NodeId, _ctx: &mut Context<'_, ()>) {
            self.restored_peers.push(peer);
        }
    }

    fn cfg() -> DetectConfig {
        DetectConfig::new(4, 12, 0)
    }

    fn make(v: NodeId, _: &WeightedGraph) -> Detect<Flood> {
        Detect::new(Flood::new(v == NodeId::new(0)), cfg())
    }

    /// Delivers instantly; crashes one vertex at a chosen time.
    struct CrashAt(NodeId, SimTime);
    impl LinkOracle for CrashAt {
        fn decide(&mut self, msg: &MsgInfo) -> LinkDecision {
            LinkDecision::Deliver {
                delay: msg.weight.get(),
            }
        }
        fn fault_plan(&mut self) -> FaultPlan {
            FaultPlan {
                churn: vec![(self.0, vec![self.1])],
                drift: Vec::new(),
            }
        }
    }

    #[test]
    fn accurate_without_faults() {
        let g = generators::connected_gnp(9, 0.4, generators::WeightDist::Uniform(1, 3), 7);
        let run = Simulator::new(&g).run(make).unwrap();
        for s in &run.states {
            assert_eq!(s.suspected().count(), 0, "false suspicion");
            assert!(s.inner().reached);
        }
        // Heartbeats are pure overhead: every vertex sent `beats` rounds
        // to each neighbor, metered Auxiliary.
        let beats: u64 = 2 * g.edge_count() as u64 * u64::from(cfg().beats);
        assert_eq!(run.cost.messages_of(CostClass::Auxiliary), beats);
        assert!(!run.cost.has_faults());
    }

    #[test]
    fn crash_within_horizon_is_suspected_by_every_neighbor() {
        let g = generators::star(5, |_| 2);
        let victim = NodeId::new(0); // the hub: everyone watches it
        let at = SimTime::new(9);
        assert!(at.get() <= cfg().detection_horizon(2));
        let run = Simulator::new(&g)
            .run_with_oracle(&mut CrashAt(victim, at), |v, _| {
                Detect::new(Flood::new(v == NodeId::new(1)), cfg())
            })
            .unwrap();
        for v in g.nodes().filter(|v| *v != victim) {
            assert!(run.states[v.index()].suspects(victim), "{v} missed it");
            assert_eq!(run.states[v.index()].inner().dead_peers, vec![victim]);
            // Nobody suspects a live peer.
            assert_eq!(run.states[v.index()].suspected().count(), 1);
        }
        assert_eq!(run.cost.crashed_nodes, 1);
        assert!(run.cost.dead_events > 0);
    }

    #[test]
    fn crash_past_the_window_goes_unnoticed() {
        let g = generators::path(3, |_| 2);
        let horizon = cfg().detection_horizon(2);
        let run = Simulator::new(&g)
            .run_with_oracle(
                &mut CrashAt(NodeId::new(2), SimTime::new(10 * horizon)),
                make,
            )
            .unwrap();
        // The documented caveat: a post-window crash raises no
        // suspicion anywhere.
        assert!(run.states.iter().all(|s| s.suspected().count() == 0));
    }

    #[test]
    fn loss_tolerance_prevents_false_suspicion_under_drops() {
        let g = generators::connected_gnp(8, 0.4, generators::WeightDist::Uniform(1, 4), 3);
        let cfg = DetectConfig::new(4, 16, 3);
        for seed in 0..4 {
            let mut oracle = DropOracle::new(DelayModel::Uniform, seed, 0.3, 3);
            let run = Simulator::new(&g)
                .run_with_oracle(&mut oracle, |_, _| Detect::new(Flood::new(false), cfg))
                .unwrap();
            for s in &run.states {
                assert_eq!(s.suspected().count(), 0, "false suspicion at seed {seed}");
            }
        }
    }

    #[test]
    fn hosted_timers_are_forwarded() {
        // Detect<Reliable<Flood>>: the Reliable layer only works if its
        // retransmission timers survive the Detect transformer. Drop the
        // initiator's first transmission; recovery proves the timer
        // fired.
        struct DropFirst;
        impl LinkOracle for DropFirst {
            fn decide(&mut self, msg: &MsgInfo) -> LinkDecision {
                if msg.index == 1 {
                    // Index 0 is a heartbeat; index 1 the first payload.
                    LinkDecision::Drop
                } else {
                    LinkDecision::Deliver {
                        delay: msg.weight.get(),
                    }
                }
            }
        }
        let g = generators::path(3, |_| 3);
        let run = Simulator::new(&g)
            .run_with_oracle(&mut DropFirst, |v, _| {
                Detect::new(
                    Reliable::new(Flood::new(v == NodeId::new(0)), 8),
                    DetectConfig::new(6, 10, 2),
                )
            })
            .unwrap();
        assert!(run.states.iter().all(|s| s.inner().inner().reached));
        assert_eq!(run.cost.drops, 1);
    }

    #[test]
    fn monitored_runs_are_identical_across_cores() {
        let g = generators::connected_gnp(9, 0.35, generators::WeightDist::Uniform(1, 5), 11);
        let run_on = |kind: CoreKind| {
            let mut sim = Simulator::new(&g);
            sim.core(kind).record_trace(1 << 14);
            sim.run_with_oracle(&mut CrashAt(NodeId::new(3), SimTime::new(7)), make)
                .unwrap()
        };
        let b = run_on(CoreKind::Bucket);
        let h = run_on(CoreKind::Heap);
        assert_eq!(b.cost, h.cost);
        assert_eq!(b.trace.events(), h.trace.events());
        assert_eq!(format!("{:?}", b.states), format!("{:?}", h.states));
    }

    /// Instant full-weight delivery with no faults of its own; the
    /// churn/drift plans come from a wrapping [`ChurnOracle`].
    struct Clean;
    impl LinkOracle for Clean {
        fn decide(&mut self, msg: &MsgInfo) -> LinkDecision {
            LinkDecision::Deliver {
                delay: msg.weight.get(),
            }
        }
    }

    #[test]
    fn rejoin_revokes_suspicion_and_upcalls_restored() {
        let g = generators::star(4, |_| 2);
        let victim = NodeId::new(0); // the hub: everyone watches it
        let mut oracle = ChurnOracle::new(
            Clean,
            vec![(victim, vec![SimTime::new(9), SimTime::new(25)])],
            vec![],
        );
        let run = Simulator::new(&g)
            .run_with_oracle(&mut oracle, make)
            .unwrap();
        for v in g.nodes().filter(|v| *v != victim) {
            let s = &run.states[v.index()];
            assert!(!s.suspects(victim), "{v} still suspects a rejoined peer");
            assert_eq!(s.inner().dead_peers, vec![victim], "{v} never suspected");
            assert_eq!(s.inner().restored_peers, vec![victim], "{v} missed rejoin");
        }
        // The rejoined incarnation never falsely suspects the spokes:
        // its watch windows end at the absolute beat-schedule horizon.
        assert_eq!(run.states[victim.index()].suspected().count(), 0);
        assert_eq!(run.cost.recoveries, 1);
        assert!(run.cost.has_churn());
    }

    #[test]
    fn recrash_after_rejoin_is_suspected_again() {
        let g = generators::star(4, |_| 2);
        let victim = NodeId::new(0);
        let mut oracle = ChurnOracle::new(
            Clean,
            vec![(
                victim,
                vec![SimTime::new(9), SimTime::new(25), SimTime::new(33)],
            )],
            vec![],
        );
        let run = Simulator::new(&g)
            .run_with_oracle(&mut oracle, make)
            .unwrap();
        for v in g.nodes().filter(|v| *v != victim) {
            let s = &run.states[v.index()];
            assert!(s.suspects(victim), "{v} missed the recrash");
            assert_eq!(s.inner().dead_peers, vec![victim, victim]);
            assert_eq!(s.inner().restored_peers, vec![victim]);
        }
    }

    #[test]
    fn drift_widens_theta_instead_of_falsely_suspecting() {
        // Weight 2 -> 8 at t = 6: deliveries slow to 8 ticks, so the
        // arm-time θ(2) = 7 would expire between beats. The live θ(e)
        // reads the effective weight and keeps both peers unsuspected.
        let g = generators::path(2, |_| 2);
        let mut oracle = ChurnOracle::new(
            Clean,
            vec![],
            vec![(csp_graph::EdgeId::new(0), SimTime::new(6), Weight::new(8))],
        );
        let run = Simulator::new(&g)
            .run_with_oracle(&mut oracle, make)
            .unwrap();
        for s in &run.states {
            assert_eq!(s.suspected().count(), 0, "false suspicion under drift");
        }
        assert_eq!(run.cost.weight_revisions, 1);
        assert!(run.cost.has_churn());
    }

    #[test]
    fn suspected_channels_stop_paying_heartbeats() {
        // Crash-only: after suspicion the spokes must skip the hub in
        // every later beat round, so the monitored run costs strictly
        // less Auxiliary traffic than the fault-free census 2·m·beats.
        let g = generators::star(5, |_| 2);
        let run = Simulator::new(&g)
            .run_with_oracle(&mut CrashAt(NodeId::new(0), SimTime::new(9)), make)
            .unwrap();
        let census: u64 = 2 * g.edge_count() as u64 * u64::from(cfg().beats);
        assert!(
            run.cost.messages_of(CostClass::Auxiliary) < census,
            "suspected hub still billed for full heartbeat rounds"
        );
    }

    #[test]
    fn horizon_math_is_consistent() {
        let cfg = DetectConfig::new(4, 12, 2);
        assert_eq!(cfg.theta(5), 3 * 4 + 5 + 1);
        // horizon + theta stays within the watch window by construction.
        assert!(cfg.detection_horizon(5) <= cfg.watch_end(5));
    }
}
