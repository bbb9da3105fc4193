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
//! (`Simulator::execute` into a warm pool on small graphs) 20–30 %. Inlined,
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
use std::sync::Arc;

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
/// once installed, so one run's [`Checkpoint`](crate::Checkpoint)s share
/// one copy.
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
#[derive(Debug)]
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
#[derive(Debug)]
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
        self.out_edges.clear();
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

    /// Drains what the last handler sent, in send order. The edges stay
    /// in `out_edges` until the next handler runs: a checkpoint capture
    /// reads them to know which ledger rows the send step wrote.
    #[inline(always)]
    pub(crate) fn sends(
        &mut self,
    ) -> impl Iterator<Item = (NodeId, P::Msg, CostClass, EdgeId)> + '_ {
        (self.outbox.drain(..).zip(self.out_edges.iter().copied()))
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

/// The complete executor-independent state of a run in flight.
#[derive(Debug)]
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

/// Rows per snapshot page of the vertex table, and of the edge table.
/// Measured, not knobs (EXPERIMENTS.md, "Checkpoints share what did not
/// change"): a smaller page copies fewer untouched rows with each
/// touched one, a larger one costs fewer allocations and page pointers
/// per snapshot. An edge row is a fraction of a vertex row's bytes.
pub(crate) const VERTEX_PAGE: usize = 8;
pub(crate) const EDGE_PAGE: usize = 32;

/// A snapshot of a table in `ROWS`-row pages. Consecutive snapshots of
/// one run share, by [`Arc`], every page no write touched in between,
/// so a snapshot costs the pages that changed plus one pointer per page.
#[derive(Clone, Debug)]
pub(crate) struct Pages<R, const ROWS: usize>(Vec<Arc<[R]>>);

impl<R, const ROWS: usize> Pages<R, ROWS> {
    /// Snapshots a `len`-row table whose row `i` reads `row(i)`: page `p`
    /// is `prev`'s page `p` unless `dirty` marks it, and a fresh copy
    /// otherwise. A run's first snapshot (`prev` is `None`) copies all.
    fn capture(
        len: usize,
        prev: Option<&Pages<R, ROWS>>,
        dirty: &Dirty<ROWS>,
        mut row: impl FnMut(usize) -> R,
    ) -> Self {
        let pages = (0..len.div_ceil(ROWS)).map(|p| match prev {
            Some(prev) if !dirty.0[p] => Arc::clone(&prev.0[p]),
            _ => (p * ROWS..len.min((p + 1) * ROWS)).map(&mut row).collect(),
        });
        Pages(pages.collect())
    }

    fn rows(&self) -> impl Iterator<Item = &R> {
        self.0.iter().flat_map(|page| page.iter())
    }

    fn len(&self) -> usize {
        self.0.iter().map(|page| page.len()).sum()
    }
}

/// Which pages of a table the run wrote since its last snapshot.
#[derive(Debug)]
struct Dirty<const ROWS: usize>(Vec<bool>);

impl<const ROWS: usize> Dirty<ROWS> {
    fn new(rows: usize) -> Self {
        Dirty(vec![false; rows.div_ceil(ROWS)])
    }

    fn mark(&mut self, row: usize) {
        self.0[row / ROWS] = true;
    }
}

/// The kernel's writes since a run's last snapshot, marked page by page
/// from what the kernel itself wrote — the handled vertex's row, the
/// ledger rows of the edges its handler sent on — and never from the
/// [`Observer`] stream, which reports neither dropped sends nor timers.
#[derive(Debug)]
pub(crate) struct Writes {
    vertices: Dirty<VERTEX_PAGE>,
    edges: Dirty<EDGE_PAGE>,
}

impl Writes {
    pub(crate) fn new(g: &WeightedGraph) -> Self {
        Writes {
            vertices: Dirty::new(g.node_count()),
            edges: Dirty::new(g.edge_count()),
        }
    }

    /// Marks what one event wrote: handling the vertex in `slot` touches
    /// only its own row, and the send step after it only the ledger rows
    /// of the edges the handler sent on. An event that reached no
    /// handler writes no row (the cancelled-timer set and the live
    /// weights are compared and re-read at capture instead).
    pub(crate) fn handled<P: Process>(&mut self, vertices: &Vertices<P>, slot: usize) {
        self.vertices.mark(slot);
        for e in &vertices.out_edges {
            self.edges.mark(e.index());
        }
    }

    fn clear(&mut self) {
        self.vertices.0.fill(false);
        self.edges.0.fill(false);
    }
}

/// One vertex as a snapshot keeps it.
#[derive(Clone, Debug)]
pub(crate) struct VertexRow<P> {
    pub(crate) state: P,
    msg_seq: u64,
    timer_seq: u64,
    timer_floor: u64,
    rejoins: Vec<P>,
}

/// One edge as a snapshot keeps it: its meter, the FIFO floors of its
/// two channels and its live weight.
#[derive(Clone, Copy, Debug)]
pub(crate) struct EdgeRow {
    pub(crate) messages: u64,
    floor: [SimTime; 2],
    weight: Weight,
}

/// A [`Kernel`] at a checkpoint, in the persistent form one run's
/// snapshots share: the vertex and edge tables in [`Pages`], the fault
/// plan — fixed at boot — in one [`Arc`] for the whole run, and the
/// cancelled-timer set in an [`Arc`] kept while it stays equal.
#[derive(Clone, Debug)]
pub(crate) struct KernelSnapshot<P> {
    vertices: Pages<VertexRow<P>, VERTEX_PAGE>,
    edges: Pages<EdgeRow, EDGE_PAGE>,
    cancelled: Arc<HashSet<(NodeId, u64)>>,
    /// The meters, with `per_edge_messages` left empty: it is in `edges`.
    pub(crate) cost: CostReport,
    pub(crate) events: u64,
    truncated: bool,
    /// [`Weights::cursor`].
    cursor: usize,
    faults: Arc<Faults>,
}

impl<P> KernelSnapshot<P> {
    /// Number of directed channels of the snapshotted graph.
    pub(crate) fn channels(&self) -> usize {
        2 * self.edges.len()
    }

    /// The vertex pages, the edge pages and the cancelled-timer set, for
    /// the tests that check what consecutive snapshots share.
    #[cfg(test)]
    #[allow(clippy::type_complexity)]
    pub(crate) fn parts(
        &self,
    ) -> (
        &[Arc<[VertexRow<P>]>],
        &[Arc<[EdgeRow]>],
        &Arc<HashSet<(NodeId, u64)>>,
    ) {
        (&self.vertices.0, &self.edges.0, &self.cancelled)
    }

    /// The run's fault plan, for the same tests.
    #[cfg(test)]
    pub(crate) fn faults(&self) -> &Arc<Faults> {
        &self.faults
    }
}

impl<P: Process + Clone> Kernel<P> {
    /// Snapshots the kernel, sharing with `prev` — the same run's last
    /// snapshot — every page `writes` did not mark, then clears the
    /// marks. Drift revisions applied since `prev` mark their edges here.
    pub(crate) fn snapshot(
        &self,
        prev: Option<&KernelSnapshot<P>>,
        writes: &mut Writes,
    ) -> KernelSnapshot<P> {
        let (v, l) = (&self.vertices, &self.ledger);
        let revised = &self.faults.drift[prev.map_or(0, |p| p.cursor)..l.weights.cursor];
        for &(e, _, _) in revised {
            writes.edges.mark(e.index());
        }
        let vertices = Pages::capture(
            v.states.len(),
            prev.map(|p| &p.vertices),
            &writes.vertices,
            |i| VertexRow {
                state: v.states[i].clone(),
                msg_seq: v.msg_seq[i],
                timer_seq: v.timer_seq[i],
                timer_floor: v.timer_floor[i],
                rejoins: v.rejoin_states[i].clone(),
            },
        );
        let edges = Pages::capture(
            l.weights.eff.len(),
            prev.map(|p| &p.edges),
            &writes.edges,
            |e| EdgeRow {
                messages: l.cost.per_edge_messages[e],
                floor: [l.fifo_floor[2 * e], l.fifo_floor[2 * e + 1]],
                weight: l.weights.eff[e],
            },
        );
        writes.clear();
        let cancelled = match prev {
            Some(p) if *p.cancelled == v.cancelled => Arc::clone(&p.cancelled),
            _ => Arc::new(v.cancelled.clone()),
        };
        KernelSnapshot {
            vertices,
            edges,
            cancelled,
            cost: CostReport {
                per_edge_messages: Vec::new(),
                ..l.cost
            },
            events: l.events,
            truncated: l.truncated,
            cursor: l.weights.cursor,
            faults: prev.map_or_else(|| Arc::new(self.faults.clone()), |p| Arc::clone(&p.faults)),
        }
    }

    /// Overwrites this kernel with a snapshot, reusing allocations: a
    /// state already in its slot takes the snapshot's by `clone_from`,
    /// so it keeps its own buffers.
    pub(crate) fn restore(&mut self, snap: &KernelSnapshot<P>) {
        let v = &mut self.vertices;
        let n = snap.vertices.len();
        v.states.truncate(n);
        v.rejoin_states.truncate(n);
        v.msg_seq.clear();
        v.timer_seq.clear();
        v.timer_floor.clear();
        for (i, row) in snap.vertices.rows().enumerate() {
            match v.states.get_mut(i) {
                Some(state) => state.clone_from(&row.state),
                None => v.states.push(row.state.clone()),
            }
            match v.rejoin_states.get_mut(i) {
                Some(stash) => stash.clone_from(&row.rejoins),
                None => v.rejoin_states.push(row.rejoins.clone()),
            }
            v.msg_seq.push(row.msg_seq);
            v.timer_seq.push(row.timer_seq);
            v.timer_floor.push(row.timer_floor);
        }
        v.cancelled.clone_from(&snap.cancelled);
        v.clear_handler_output();

        let l = &mut self.ledger;
        let mut per_edge = std::mem::take(&mut l.cost.per_edge_messages);
        per_edge.clear();
        l.fifo_floor.clear();
        l.weights.eff.clear();
        for page in &snap.edges.0 {
            per_edge.extend(page.iter().map(|row| row.messages));
            l.fifo_floor.extend(page.iter().flat_map(|row| row.floor));
            l.weights.eff.extend(page.iter().map(|row| row.weight));
        }
        l.cost = CostReport {
            per_edge_messages: per_edge,
            ..snap.cost
        };
        l.events = snap.events;
        l.truncated = snap.truncated;
        l.weights.cursor = snap.cursor;

        let (faults, src) = (&mut self.faults, &*snap.faults);
        faults.churn.clone_from(&src.churn);
        faults.any_churn = src.any_churn;
        faults.drift.clone_from(&src.drift);
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
