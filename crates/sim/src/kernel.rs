//! The dispatch kernel: the one place the paper's rule — pay `w(e)` per
//! message, deliver within `[1, w(e)]`, FIFO per channel — and the
//! fault model around it are written down.
//!
//! Three pieces, each defined exactly once and shared by every
//! asynchronous executor except the deliberately independent
//! [`BaselineSimulator`](crate::BaselineSimulator):
//!
//! * **Time zero** ([`Kernel::boot`]): build the per-vertex states, take
//!   the oracle's [`FaultPlan`] in ([`FaultPlan::check`], sort drift, set the fault
//!   meters, seed the live weight table, stash a fresh state per
//!   rejoin, schedule the rejoin events), then start every live vertex.
//! * **The send step** ([`Ledger::send`]), per queued message:
//!
//!   ```text
//!   budget check → live weight → record_send → decide ──Drop──▶ drops += 1
//!                                                 │
//!                                    Deliver { delay }
//!                                                 ▼
//!        clamp into [1, w] → max with the channel's FIFO floor (and raise it)
//!                          → observer.dispatched → sink.push(arrival, event)
//!   ```
//!
//!   and per delivered message, before its handler runs,
//!   [`Ledger::delivered`]: meter it, then `observer.delivered`. These two
//!   calls are the whole [`Observer`] stream; the kernel keeps no record
//!   of its own.
//!
//! * **Pop routing** ([`Vertices::fire`] + [`Vertices::arm`]): cancelled
//!   and stale timers and events for dead vertices vanish; a rejoin
//!   swaps in the stashed state; the handler runs; its timer ops become
//!   scheduled or cancelled timers.
//!
//! The kernel never owns a queue: everything it schedules goes through a
//! [`Sink`]. [`Simulator`](crate::Simulator) passes its event core;
//! [`ShardedSimulator`](crate::ShardedSimulator) boots through the same
//! event core, fires handlers per shard in parallel, and runs the send
//! step on its leader with a sink that routes to the receiving shard.
//! State is split the same way: [`Vertices`] is what a handler may touch
//! (one table per shard), [`Ledger`] is what must move in global
//! dispatch order (one per run).
//!
//! The per-event pieces are `#[inline(always)]`: each has two or three
//! call sites, and left to its own judgement the compiler keeps them
//! out of line in the run loops, which costs pooled evaluation
//! (`Simulator::eval` / `eval_resume` on small graphs) 20–30 %. Inlined,
//! the sink and the handler closure monomorphise away and the loops
//! compile to what the hand-written copies did.

use crate::cost::{CostClass, CostReport};
use crate::delay::{FaultPlan, LinkDecision, LinkOracle, MsgInfo};
use crate::process::{Context, Process, TimerId};
use crate::runtime::SimError;
use crate::time::SimTime;
use crate::trace::{Observer, TraceEvent};
use csp_graph::{EdgeId, NodeId, Weight, WeightedGraph};
use std::collections::{HashSet, VecDeque};

/// One in-flight message: everything needed at delivery time. `Copy`
/// for copyable payloads so queue restores on the checkpoint-resume path
/// specialize to memcpy.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Delivery<M> {
    pub(crate) to: NodeId,
    pub(crate) from: NodeId,
    pub(crate) msg: M,
    pub(crate) sent: SimTime,
    pub(crate) class: CostClass,
    pub(crate) edge: EdgeId,
}

/// One scheduled occurrence: a message delivery, a local timer fire, or
/// a scheduled rejoin of a churned vertex. All three ride the same
/// `(time, seq)` order. Rejoins are scheduled before anything else, so
/// they hold the lowest sequence numbers: on a time tie the restart
/// runs first and messages arriving exactly then reach the fresh state.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Event<M> {
    Msg(Delivery<M>),
    Timer { node: NodeId, id: u64 },
    Rejoin { node: NodeId },
}

impl<M> Event<M> {
    /// The vertex the event happens at.
    #[inline]
    pub(crate) fn node(&self) -> NodeId {
        match self {
            Event::Msg(d) => d.to,
            Event::Timer { node, .. } | Event::Rejoin { node } => *node,
        }
    }
}

/// Where the kernel puts what it schedules. Pushes arrive in global
/// dispatch order; the sink numbers them.
pub(crate) trait Sink<M> {
    fn push(&mut self, at: SimTime, event: Event<M>);
}

/// A sink that only remembers — for a shard's handler phase, whose
/// timers wait for the leader to number them.
impl<M> Sink<M> for VecDeque<(SimTime, Event<M>)> {
    fn push(&mut self, at: SimTime, event: Event<M>) {
        self.push_back((at, event));
    }
}

/// The validated [`FaultPlan`] of a run, dense per vertex. Immutable
/// once installed; part of every [`Checkpoint`](crate::Checkpoint).
#[derive(Clone, Debug, Default)]
pub(crate) struct Faults {
    /// Toggle chain per vertex; empty = never churns.
    churn: Vec<Vec<SimTime>>,
    /// Whether any chain is non-empty. [`Faults::dead`] runs on every
    /// pop; without this a fault-free run would still pull one random
    /// `Vec` header out of the per-vertex table per event.
    any_churn: bool,
    /// Weight revisions, stably sorted by time so same-instant
    /// revisions apply in plan order.
    drift: Vec<(EdgeId, SimTime, Weight)>,
}

impl Faults {
    /// Installs `plan` — a broken one ([`FaultPlan::check`]) panics with
    /// its [`PlanError`](crate::PlanError) — and sets the fault meters:
    /// up front, whether or not the run lives long enough to reach every
    /// scheduled toggle.
    fn install(&mut self, g: &WeightedGraph, plan: FaultPlan, cost: &mut CostReport) {
        if let Err(e) = plan.check(g.node_count(), g.edge_count()) {
            panic!("{e}");
        }
        self.churn.clear();
        self.churn.resize_with(g.node_count(), Vec::new);
        for (v, chain) in plan.churn {
            if !chain.is_empty() {
                self.churn[v.index()] = chain;
            }
        }
        self.drift = plan.drift;
        self.drift.sort_by_key(|&(_, t, _)| t);
        cost.crashed_nodes = self.churn.iter().filter(|c| !c.is_empty()).count() as u64;
        self.any_churn = cost.crashed_nodes > 0;
        cost.recoveries = self.churn.iter().map(|c| (c.len() / 2) as u64).sum();
        cost.weight_revisions = self.drift.len() as u64;
    }

    /// Whether `v` is dead at `now`: an odd number of its toggles has
    /// taken effect (toggle instants inclusive).
    #[inline]
    pub(crate) fn dead(&self, v: NodeId, now: SimTime) -> bool {
        self.any_churn
            && self.churn[v.index()]
                .iter()
                .take_while(|&&t| now >= t)
                .count()
                % 2
                == 1
    }

    /// The rejoin instants of `v`, earliest first.
    fn rejoins(&self, v: NodeId) -> impl Iterator<Item = SimTime> + '_ {
        self.churn[v.index()].iter().skip(1).step_by(2).copied()
    }
}

/// The live weight of every edge: the graph's static weights with every
/// drift revision up to the current instant applied. The send step
/// meters and clamps against it; handlers read it through
/// [`Context::weight_of`](crate::Context::weight_of). A sharded run
/// keeps one copy per shard plus the leader's, all advanced through the
/// same monotone walk, so they agree at every tick.
#[derive(Clone, Debug, Default)]
pub(crate) struct Weights {
    eff: Vec<Weight>,
    /// First revision of [`Faults::drift`] not yet applied.
    cursor: usize,
}

impl Weights {
    fn reset(&mut self, g: &WeightedGraph) {
        self.eff.clear();
        self.eff.extend(g.edge_ids().map(|e| g.weight(e)));
        self.cursor = 0;
    }

    /// Applies every revision at or before `now`. Called before anything
    /// at `now` is handled, so every handler and send at time `t` sees
    /// exactly the revisions with time ≤ `t`.
    #[inline]
    pub(crate) fn advance(&mut self, faults: &Faults, now: SimTime) {
        while let Some(&(e, t, w)) = faults.drift.get(self.cursor) {
            if t > now {
                break;
            }
            self.eff[e.index()] = w;
            self.cursor += 1;
        }
    }

    #[inline]
    pub(crate) fn table(&self) -> &[Weight] {
        &self.eff
    }
}

/// A pop that reached a handler.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fired {
    pub(crate) node: NodeId,
    /// `Some` for a message delivery — what it was, kept after the
    /// handler consumed the payload — `None` for a timer fire or rejoin.
    pub(crate) msg: Option<TraceEvent>,
}

/// Everything that must move in global dispatch order: the meters, the
/// live weights the send step prices against, and the FIFO floor of
/// every directed channel.
#[derive(Clone, Debug)]
pub(crate) struct Ledger {
    pub(crate) cost: CostReport,
    /// Handler invocations so far (dead and cancelled pops excluded).
    pub(crate) events: u64,
    /// Set by the first send past the communication budget.
    pub(crate) truncated: bool,
    pub(crate) weights: Weights,
    /// Earliest admissible arrival per directed channel, indexed by
    /// `2·edge + direction`. `SimTime::ZERO` is the identity of the
    /// `max` update since every arrival is strictly positive.
    fifo_floor: Vec<SimTime>,
}

impl Ledger {
    pub(crate) fn new(g: &WeightedGraph) -> Self {
        Ledger {
            cost: CostReport::new(g.edge_count()),
            events: 0,
            truncated: false,
            weights: Weights::default(),
            fifo_floor: vec![SimTime::ZERO; 2 * g.edge_count()],
        }
    }

    /// Rewinds to a fresh ledger for `g`, keeping every allocation that
    /// still fits (the pooled-evaluation path).
    fn reset(&mut self, g: &WeightedGraph) {
        self.cost.reset(g.edge_count());
        self.events = 0;
        self.truncated = false;
        self.fifo_floor.clear();
        self.fifo_floor.resize(2 * g.edge_count(), SimTime::ZERO);
    }

    fn restore(&mut self, src: &Ledger) {
        self.cost.clone_from(&src.cost);
        self.events = src.events;
        self.truncated = src.truncated;
        self.weights.eff.clone_from(&src.weights.eff);
        self.weights.cursor = src.weights.cursor;
        self.fifo_floor.clone_from(&src.fifo_floor);
    }

    /// Number of directed channels — `2·m` of the graph the ledger was
    /// sized for.
    pub(crate) fn channels(&self) -> usize {
        self.fifo_floor.len()
    }

    /// Counts one handler invocation against the event budget.
    #[inline]
    pub(crate) fn count_event(&mut self, limit: u64) -> Result<(), SimError> {
        self.events += 1;
        if self.events > limit {
            return Err(SimError::EventLimitExceeded { limit });
        }
        Ok(())
    }

    /// Meters a delivery and reports it to `observer`. Completion time
    /// is the last *delivered message*; timer fires and rejoins are
    /// local and free.
    #[inline(always)]
    pub(crate) fn delivered<B: Observer + ?Sized>(&mut self, msg: &TraceEvent, observer: &mut B) {
        self.cost.record_delivery(msg.delivered, msg.class);
        observer.delivered(msg);
    }

    /// The send step, for every message `from` queued at `now`: see the
    /// [module docs](self) for the pipeline.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn send<M, O, B, S>(
        &mut self,
        g: &WeightedGraph,
        comm_limit: Option<u128>,
        oracle: &mut O,
        observer: &mut B,
        from: NodeId,
        now: SimTime,
        sends: impl Iterator<Item = (NodeId, M, CostClass, EdgeId)>,
        sink: &mut S,
    ) where
        O: LinkOracle + ?Sized,
        B: Observer + ?Sized,
        S: Sink<M>,
    {
        for (to, msg, class, eid) in sends {
            // Budget check happens *before* metering: the send that
            // crossed the limit was the last one paid for, so the
            // overshoot is at most one message weight.
            if self.truncated || comm_limit.is_some_and(|lim| self.cost.weighted_comm.raw() > lim) {
                self.truncated = true;
                continue;
            }
            // Metering, clamping and the oracle's view all use the
            // *live* weight — drift is visible from its instant on.
            let w = self.weights.eff[eid.index()];
            let index = self.cost.messages;
            self.cost.record_send(eid, w, class);
            let channel = 2 * eid.index() + usize::from(g.edge(eid).u() != from);
            let info = MsgInfo {
                index,
                edge: eid,
                dir: (channel & 1) as u8,
                weight: w,
                from,
                to,
                sent: now,
            };
            let delay = match oracle.decide(&info) {
                // A dropped message is paid for and consumes its
                // dispatch index (so record/replay addressing stays
                // stable), but nothing is scheduled and the channel's
                // FIFO floor does not move.
                LinkDecision::Drop => {
                    self.cost.drops += 1;
                    continue;
                }
                LinkDecision::Deliver { delay } => delay.clamp(1, w.get()),
            };
            let arrival = (now + delay).max(self.fifo_floor[channel]);
            self.fifo_floor[channel] = arrival;
            // Post-clamp, post-floor: exactly when the delivery fires.
            observer.dispatched(&info, delay, arrival);
            sink.push(
                arrival,
                Event::Msg(Delivery {
                    to,
                    from,
                    msg,
                    sent: now,
                    class,
                    edge: eid,
                }),
            );
        }
    }
}

/// Everything a handler may touch, for a set of vertices addressed by
/// *slot*: the whole graph in vertex order for a sequential run, one
/// shard's vertices for a sharded one (callers map vertex → slot).
#[derive(Clone, Debug)]
pub(crate) struct Vertices<P: Process> {
    pub(crate) states: Vec<P>,
    /// Sends queued so far, per vertex — the `msg_base` of its next
    /// handler. Counted per sender, so [`MsgToken`](crate::MsgToken)s
    /// depend only on the vertex's own history (what lets shards run
    /// handlers in parallel). Equals the vertex's metered sends until a
    /// communication budget truncates the run, which ends it.
    msg_seq: Vec<u64>,
    /// Next timer id per vertex — unique per vertex, never reused.
    timer_seq: Vec<u64>,
    /// Per-vertex timer-id floor: ids below it belong to a previous
    /// incarnation and die at pop time. Raised to the vertex's timer
    /// seq at each rejoin.
    timer_floor: Vec<u64>,
    /// Fresh states for scheduled rejoins, per vertex, earliest rejoin
    /// *last* so execution pops them in rejoin order.
    rejoin_states: Vec<Vec<P>>,
    /// `(vertex, id)` pairs cancelled before firing; consumed at pop.
    cancelled: HashSet<(NodeId, u64)>,
    // The last handler's output, in recycled buffers: a warm run
    // allocates nothing per event.
    outbox: Vec<(NodeId, P::Msg, CostClass)>,
    out_edges: Vec<EdgeId>,
    timers: Vec<u64>,
    cancels: Vec<u64>,
}

impl<P: Process> Vertices<P> {
    pub(crate) fn new() -> Self {
        Vertices {
            states: Vec::new(),
            msg_seq: Vec::new(),
            timer_seq: Vec::new(),
            timer_floor: Vec::new(),
            rejoin_states: Vec::new(),
            cancelled: HashSet::new(),
            outbox: Vec::new(),
            out_edges: Vec::new(),
            timers: Vec::new(),
            cancels: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.states.clear();
        self.msg_seq.clear();
        self.timer_seq.clear();
        self.timer_floor.clear();
        self.rejoin_states.clear();
        self.cancelled.clear();
        self.clear_handler_output();
    }

    fn clear_handler_output(&mut self) {
        self.outbox.clear();
        self.out_edges.clear();
        self.timers.clear();
        self.cancels.clear();
    }

    fn reserve(&mut self, n: usize) {
        self.states.reserve_exact(n);
        self.msg_seq.reserve_exact(n);
        self.timer_seq.reserve_exact(n);
        self.timer_floor.reserve_exact(n);
        self.rejoin_states.reserve_exact(n);
    }

    /// Appends one vertex in the next slot.
    fn add(&mut self, state: P, msg_seq: u64, timer_seq: u64, timer_floor: u64, rejoins: Vec<P>) {
        self.states.push(state);
        self.msg_seq.push(msg_seq);
        self.timer_seq.push(timer_seq);
        self.timer_floor.push(timer_floor);
        self.rejoin_states.push(rejoins);
    }

    /// Deals the vertices out to `k` tables by `shard_of`, slots
    /// ascending in vertex order within each.
    pub(crate) fn scatter(self, k: usize, shard_of: impl Fn(NodeId) -> usize) -> Vec<Self> {
        let mut parts: Vec<Self> = (0..k).map(|_| Vertices::new()).collect();
        let rows = (self.states.into_iter().zip(self.msg_seq))
            .zip(self.timer_seq.into_iter().zip(self.timer_floor))
            .zip(self.rejoin_states);
        for (i, (((state, msgs), (timers, floor)), rejoins)) in rows.enumerate() {
            parts[shard_of(NodeId::new(i))].add(state, msgs, timers, floor, rejoins);
        }
        for (v, id) in self.cancelled {
            parts[shard_of(v)].cancelled.insert((v, id));
        }
        parts
    }

    /// Runs one handler of the vertex `node` in `slot` at `now`, leaving
    /// what it sent and armed in the output buffers.
    #[inline(always)]
    fn handle(
        &mut self,
        g: &WeightedGraph,
        eff: &[Weight],
        slot: usize,
        node: NodeId,
        now: SimTime,
        handler: impl FnOnce(&mut P, &mut Context<'_, P::Msg>),
    ) {
        let mut ctx = Context::recycled(
            node,
            now,
            g,
            std::mem::take(&mut self.outbox),
            std::mem::take(&mut self.out_edges),
            std::mem::take(&mut self.timers),
            std::mem::take(&mut self.cancels),
            self.msg_seq[slot],
            self.timer_seq[slot],
        )
        .with_weights(eff);
        handler(&mut self.states[slot], &mut ctx);
        (self.outbox, self.out_edges, self.timers, self.cancels) = ctx.into_parts();
        self.msg_seq[slot] += self.outbox.len() as u64;
    }

    /// Routes one popped event addressed to the vertex in `slot`:
    /// cancelled timers vanish; stale timers from a pre-rejoin
    /// incarnation and events for a dead vertex are counted in `dead`
    /// and vanish; a rejoin swaps in the stashed fresh state; otherwise
    /// the handler runs. `None` means no handler ran — no event count,
    /// no completion-time movement.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fire(
        &mut self,
        g: &WeightedGraph,
        faults: &Faults,
        eff: &[Weight],
        slot: usize,
        now: SimTime,
        event: Event<P::Msg>,
        dead: &mut u64,
    ) -> Option<Fired> {
        let node = event.node();
        if let Event::Timer { id, .. } = event {
            if self.cancelled.remove(&(node, id)) {
                return None;
            }
            if id < self.timer_floor[slot] {
                *dead += 1;
                return None;
            }
        }
        if faults.dead(node, now) {
            *dead += 1;
            return None;
        }
        let msg = match &event {
            Event::Msg(d) => Some(TraceEvent {
                from: d.from,
                to: d.to,
                edge: d.edge,
                sent: d.sent,
                delivered: now,
                class: d.class,
            }),
            _ => None,
        };
        if let Event::Rejoin { .. } = event {
            // Every timer id armed by the previous incarnation drops
            // behind the floor. Message and timer seqs keep counting —
            // tokens and ids are per vertex, not per incarnation.
            self.states[slot] = self.rejoin_states[slot]
                .pop()
                .expect("a fresh state was stashed per scheduled rejoin");
            self.timer_floor[slot] = self.timer_seq[slot];
        }
        self.handle(g, eff, slot, node, now, |p, ctx| match event {
            Event::Msg(d) => p.on_message(d.from, d.msg, ctx),
            Event::Timer { id, .. } => p.on_timer(TimerId(id), ctx),
            Event::Rejoin { .. } => p.on_start(ctx),
        });
        Some(Fired { node, msg })
    }

    /// Drains what the last handler sent, in send order.
    #[inline(always)]
    pub(crate) fn sends(
        &mut self,
    ) -> impl Iterator<Item = (NodeId, P::Msg, CostClass, EdgeId)> + '_ {
        (self.outbox.drain(..).zip(self.out_edges.drain(..)))
            .map(|((to, msg, class), eid)| (to, msg, class, eid))
    }

    /// Drains the last handler's timer ops: cancellations take effect
    /// first (so a handler that arms and cancels the same timer nets to
    /// nothing), then each armed delay becomes an [`Event::Timer`] with
    /// the vertex's next id. Timers ignore FIFO floors — they are
    /// local, not channel traffic.
    #[inline(always)]
    pub(crate) fn arm<S: Sink<P::Msg>>(
        &mut self,
        slot: usize,
        node: NodeId,
        now: SimTime,
        sink: &mut S,
    ) {
        for id in self.cancels.drain(..) {
            self.cancelled.insert((node, id));
        }
        for delay in self.timers.drain(..) {
            let id = self.timer_seq[slot];
            self.timer_seq[slot] += 1;
            if self.cancelled.remove(&(node, id)) {
                continue;
            }
            sink.push(now + delay, Event::Timer { node, id });
        }
    }
}

impl<P: Process + Clone> Vertices<P> {
    /// Overwrites this table with `src`, leaving `states` populated on
    /// entry so `clone_from` reuses each element's own buffers.
    fn restore(&mut self, src: &Vertices<P>) {
        self.states.clone_from(&src.states);
        self.msg_seq.clone_from(&src.msg_seq);
        self.timer_seq.clone_from(&src.timer_seq);
        self.timer_floor.clone_from(&src.timer_floor);
        self.rejoin_states.clone_from(&src.rejoin_states);
        self.cancelled.clone_from(&src.cancelled);
        self.clear_handler_output();
    }
}

/// The complete executor-independent state of a run in flight.
#[derive(Clone, Debug)]
pub(crate) struct Kernel<P: Process> {
    pub(crate) vertices: Vertices<P>,
    pub(crate) ledger: Ledger,
    pub(crate) faults: Faults,
}

impl<P: Process> Kernel<P> {
    pub(crate) fn new(g: &WeightedGraph) -> Self {
        Kernel {
            vertices: Vertices::new(),
            ledger: Ledger::new(g),
            faults: Faults::default(),
        }
    }

    /// Rewinds for a fresh run on `g`, keeping allocations.
    pub(crate) fn reset(&mut self, g: &WeightedGraph) {
        self.vertices.clear();
        self.ledger.reset(g);
    }

    /// Time zero, in the order every recording depends on: `make` once
    /// per vertex, the oracle's plan, `make` once more per scheduled
    /// rejoin (vertex order, then rejoin order), the rejoin events —
    /// first into the sink, so they win ties at their instant — and
    /// finally `on_start` at every vertex not crashed at zero, each
    /// followed by its sends and timers.
    pub(crate) fn boot<F, O, B, S>(
        &mut self,
        g: &WeightedGraph,
        comm_limit: Option<u128>,
        oracle: &mut O,
        observer: &mut B,
        mut make: F,
        sink: &mut S,
    ) where
        F: FnMut(NodeId, &WeightedGraph) -> P,
        O: LinkOracle + ?Sized,
        B: Observer + ?Sized,
        S: Sink<P::Msg>,
    {
        let Kernel {
            vertices,
            ledger,
            faults,
        } = self;
        vertices.reserve(g.node_count());
        for v in g.nodes() {
            vertices.add(make(v, g), 0, 0, 0, Vec::new());
        }
        faults.install(g, oracle.fault_plan(), &mut ledger.cost);
        // Revisions at time 0 take hold before any `on_start` runs.
        ledger.weights.reset(g);
        ledger.weights.advance(faults, SimTime::ZERO);
        for v in g.nodes() {
            let stash = &mut vertices.rejoin_states[v.index()];
            stash.extend(faults.rejoins(v).map(|_| make(v, g)));
            stash.reverse();
        }
        for v in g.nodes() {
            for at in faults.rejoins(v) {
                sink.push(at, Event::Rejoin { node: v });
            }
        }
        for v in g.nodes() {
            if faults.dead(v, SimTime::ZERO) {
                continue;
            }
            let eff = ledger.weights.table();
            vertices.handle(g, eff, v.index(), v, SimTime::ZERO, |p, ctx| {
                p.on_start(ctx)
            });
            ledger.send(
                g,
                comm_limit,
                oracle,
                observer,
                v,
                SimTime::ZERO,
                vertices.sends(),
                sink,
            );
            vertices.arm(v.index(), v, SimTime::ZERO, sink);
        }
    }
}

impl<P: Process + Clone> Kernel<P> {
    /// Overwrites this kernel with a snapshot, reusing allocations.
    pub(crate) fn restore(&mut self, src: &Kernel<P>) {
        self.vertices.restore(&src.vertices);
        self.ledger.restore(&src.ledger);
        self.faults.churn.clone_from(&src.faults.churn);
        self.faults.any_churn = src.faults.any_churn;
        self.faults.drift.clone_from(&src.faults.drift);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::{ChurnOracle, CrashOracle, DelayModel, DropOracle, ModelOracle};
    use crate::Simulator;
    use csp_graph::generators;

    /// Greets every neighbour once per incarnation.
    #[derive(Clone, Debug)]
    struct Hello {
        received: u32,
    }

    impl Process for Hello {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
            ctx.send_all(());
        }
        fn on_message(&mut self, _from: NodeId, _msg: (), _ctx: &mut Context<'_, ()>) {
            self.received += 1;
        }
    }

    fn run_under(plan: FaultPlan) -> crate::Run<Hello> {
        let g = generators::path(2, |_| 5);
        let mut oracle = ChurnOracle::new(
            ModelOracle::new(DelayModel::WorstCase, 0),
            plan.churn,
            plan.drift,
        );
        Simulator::new(&g)
            .run_with_oracle(&mut oracle, |_, _| Hello { received: 0 })
            .unwrap()
    }

    fn chain(v: usize, times: &[u64]) -> (NodeId, Vec<SimTime>) {
        (
            NodeId::new(v),
            times.iter().map(|&t| SimTime::new(t)).collect(),
        )
    }

    fn churn(chains: Vec<(NodeId, Vec<SimTime>)>) -> FaultPlan {
        FaultPlan {
            churn: chains,
            drift: Vec::new(),
        }
    }

    #[test]
    #[should_panic(expected = "churn chain for v1 must be strictly increasing")]
    fn intake_rejects_unordered_chains() {
        run_under(churn(vec![chain(1, &[9, 3])]));
    }

    #[test]
    #[should_panic(expected = "churn chain for v0 must be strictly increasing")]
    fn intake_rejects_repeated_toggle_times() {
        run_under(churn(vec![chain(0, &[4, 4])]));
    }

    #[test]
    #[should_panic(expected = "v1 has two churn chains")]
    fn intake_rejects_two_chains_for_one_vertex() {
        run_under(churn(vec![chain(1, &[3]), chain(1, &[5, 8])]));
    }

    #[test]
    #[should_panic(expected = "churn chain names v2, but the graph has 2 vertices")]
    fn intake_rejects_vertices_outside_the_graph() {
        run_under(churn(vec![chain(2, &[3])]));
    }

    #[test]
    #[should_panic(expected = "drift revision names e1, but the graph has 1 edges")]
    fn intake_rejects_edges_outside_the_graph() {
        run_under(FaultPlan {
            churn: Vec::new(),
            drift: vec![(EdgeId::new(1), SimTime::new(2), Weight::new(3))],
        });
    }

    #[test]
    #[should_panic(expected = "edge weight must be at least 1")]
    fn a_zero_weight_revision_cannot_be_written_down() {
        // `Weight` carries the `≥ 1` invariant, so intake never sees one.
        run_under(FaultPlan {
            churn: Vec::new(),
            drift: vec![(EdgeId::new(0), SimTime::new(2), Weight::new(0))],
        });
    }

    /// A crash wrapper over a churn wrapper over drops: the inner chain
    /// and drift and the outer crash all reach the run.
    fn stacked(outer: Vec<(NodeId, SimTime)>) -> CrashOracle<ChurnOracle<DropOracle>> {
        CrashOracle::new(
            ChurnOracle::new(
                DropOracle::new(DelayModel::WorstCase, 1, 0.0, 1),
                vec![chain(1, &[3, 10])],
                vec![(EdgeId::new(0), SimTime::new(12), Weight::new(2))],
            ),
            outer,
        )
    }

    #[test]
    fn wrapped_plans_compose() {
        let g = generators::path(3, |_| 5);
        let run = Simulator::new(&g)
            .run_with_oracle(
                &mut stacked(vec![(NodeId::new(2), SimTime::new(7))]),
                |_, _| Hello { received: 0 },
            )
            .unwrap();
        // Inner chain: v1 is dead over [3, 10) — both time-zero
        // greetings to it die at 5 — then rejoins and greets again.
        assert_eq!(run.cost.recoveries, 1);
        assert_eq!(run.states[0].received, 2);
        // Outer crash: v2 hears v1's first greeting at 5, dies at 7 and
        // misses the second at 15.
        assert_eq!(run.states[2].received, 1);
        assert_eq!(run.cost.dead_events, 3);
        assert_eq!(run.cost.crashed_nodes, 2);
        assert_eq!(run.cost.weight_revisions, 1);
    }

    #[test]
    #[should_panic(expected = "v1 has two churn chains")]
    fn wrapped_plans_may_not_claim_one_vertex_twice() {
        let g = generators::path(2, |_| 5);
        let _ = Simulator::new(&g).run_with_oracle(
            &mut stacked(vec![(NodeId::new(1), SimTime::new(7))]),
            |_, _| Hello { received: 0 },
        );
    }
}
