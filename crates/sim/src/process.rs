//! The protocol interface: message-driven state machines.

use crate::cost::CostClass;
use crate::time::SimTime;
use csp_graph::{EdgeId, NodeId, Weight, WeightedGraph};

/// A node-local protocol instance.
///
/// One value of the implementing type runs at each vertex. Handlers may
/// only touch local state and the [`Context`]; the simulator owns
/// scheduling and delivery. See the [crate docs](crate) for a complete
/// example.
pub trait Process {
    /// The protocol's message alphabet.
    type Msg: Clone + std::fmt::Debug;

    /// Called once at time zero, in vertex order. Typically only an
    /// initiator does anything here.
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>);

    /// Called on each message delivery.
    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Context<'_, Self::Msg>);

    /// Called when a timer armed with [`Context::set_timer`] fires
    /// (unless cancelled first). The default does nothing, so purely
    /// message-driven protocols never mention timers.
    fn on_timer(&mut self, id: TimerId, ctx: &mut Context<'_, Self::Msg>) {
        let _ = (id, ctx);
    }
}

/// Stable per-message identifier handed back by [`Context::send`].
///
/// The token is the *sender's* dispatch index — the number of metered
/// sends this vertex issued before it — assigned in send order, so
/// protocols and retransmission layers can correlate acks and timers
/// with specific transmissions without parallel bookkeeping. Numbering
/// per sender (rather than globally) keeps the assignment independent
/// of other vertices' concurrent activity, which is what lets the
/// sharded runtime execute same-tick handlers in parallel; the global
/// dispatch index remains the adversary-facing `index` in
/// [`MsgInfo`](crate::MsgInfo).
///
/// Tokens are only meaningful for sends metered by the run that issued
/// them: contexts created through [`Context::derive`] number from zero
/// (transformers relay the inner sends through their own, which get real
/// tokens), and under a `comm_limit` truncation a queued send past the
/// budget is never dispatched even though it received a token.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MsgToken(pub u64);

/// Handle to a pending timer, for [`Context::cancel_timer`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerId(pub u64);

/// Handler-side view of the network: identity, topology, clock and the
/// outbox.
///
/// The paper's model gives every vertex full knowledge of the network
/// structure (Section 1.4.1), so the whole [`WeightedGraph`] is exposed;
/// protocols for weaker models simply restrict themselves to
/// [`Context::neighbors`].
#[derive(Debug)]
pub struct Context<'a, M> {
    node: NodeId,
    now: SimTime,
    graph: &'a WeightedGraph,
    outbox: Vec<(NodeId, M, CostClass)>,
    /// Edge of each queued send, resolved once at `send` time so the
    /// runtime's dispatch never repeats the adjacency lookup.
    out_edges: Vec<EdgeId>,
    /// Requested delay of each timer armed this handler, in arming order.
    timers: Vec<u64>,
    /// Timer ids cancelled this handler.
    cancels: Vec<u64>,
    /// Token the first queued send will receive — the vertex's metered
    /// send count at handler entry.
    msg_base: u64,
    /// Id the first armed timer will receive — the vertex's timer count
    /// at handler entry.
    timer_base: u64,
    /// Effective per-edge weights under the adversary's drift plan, set
    /// by executors that support weight revision; `None` means the
    /// graph's static weights are current.
    eff: Option<&'a [Weight]>,
    /// Set by [`Context::derive`]: nobody reads this context's timer
    /// ops, so arming or cancelling one panics instead of vanishing.
    detached: bool,
}

impl<'a, M: Clone + std::fmt::Debug> Context<'a, M> {
    pub(crate) fn new(node: NodeId, now: SimTime, graph: &'a WeightedGraph) -> Self {
        Context::recycled(
            node,
            now,
            graph,
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            0,
            0,
        )
    }

    /// Creates a context reusing previously drained buffers — the
    /// runtime's steady-state path, which allocates nothing per event.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn recycled(
        node: NodeId,
        now: SimTime,
        graph: &'a WeightedGraph,
        outbox: Vec<(NodeId, M, CostClass)>,
        out_edges: Vec<EdgeId>,
        timers: Vec<u64>,
        cancels: Vec<u64>,
        msg_base: u64,
        timer_base: u64,
    ) -> Self {
        debug_assert!(outbox.is_empty() && out_edges.is_empty());
        debug_assert!(timers.is_empty() && cancels.is_empty());
        Context {
            node,
            now,
            graph,
            outbox,
            out_edges,
            timers,
            cancels,
            msg_base,
            timer_base,
            eff: None,
            detached: false,
        }
    }

    /// Attaches the executor's effective-weight table, making
    /// [`Context::weight_of`] reflect mid-run drift.
    pub(crate) fn with_weights(mut self, eff: &'a [Weight]) -> Self {
        self.eff = Some(eff);
        self
    }

    /// Disassembles the context into its send queue, the matching
    /// per-send edge ids (same length, same order), the armed timer
    /// delays and the cancelled timer ids.
    #[allow(clippy::type_complexity)]
    pub(crate) fn into_parts(
        self,
    ) -> (Vec<(NodeId, M, CostClass)>, Vec<EdgeId>, Vec<u64>, Vec<u64>) {
        (self.outbox, self.out_edges, self.timers, self.cancels)
    }

    /// Whether any timer was armed or cancelled through this context —
    /// lets executors without a timer facility reject timer use loudly
    /// instead of silently never firing.
    pub(crate) fn has_timer_ops(&self) -> bool {
        !self.timers.is_empty() || !self.cancels.is_empty()
    }

    /// This vertex's identifier.
    #[inline]
    pub fn self_id(&self) -> NodeId {
        self.node
    }

    /// Current simulated time.
    #[inline]
    pub fn time(&self) -> SimTime {
        self.now
    }

    /// The communication graph.
    #[inline]
    pub fn graph(&self) -> &'a WeightedGraph {
        self.graph
    }

    /// Number of vertices in the network.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// `(neighbor, edge, weight)` triples of this vertex. The weights
    /// are the graph's *static* weights; under a drifting adversary the
    /// current value of an edge is [`Context::weight_of`].
    pub fn neighbors(&self) -> impl Iterator<Item = (NodeId, EdgeId, Weight)> + 'a {
        self.graph.neighbors(self.node)
    }

    /// Current effective weight of edge `e`: the graph weight unless the
    /// adversary revised it mid-run
    /// ([`FaultPlan::drift`](crate::FaultPlan::drift)), in
    /// which case the revision visible at the current time is returned.
    /// Protocols that derive timeouts from weights (failure-detector
    /// horizons, retransmission timers) should read weights through
    /// this.
    #[inline]
    pub fn weight_of(&self, e: EdgeId) -> Weight {
        match self.eff {
            Some(eff) => eff[e.index()],
            None => self.graph.weight(e),
        }
    }

    /// Number of incident edges.
    pub fn degree(&self) -> usize {
        self.graph.degree(self.node)
    }

    /// Sends `msg` to neighbor `to` at protocol cost class, returning
    /// the message's stable [`MsgToken`].
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a neighbor of this vertex — the model only
    /// permits communication along edges.
    pub fn send(&mut self, to: NodeId, msg: M) -> MsgToken {
        self.send_class(to, msg, CostClass::Protocol)
    }

    /// Sends `msg` to neighbor `to`, accounted under `class`, returning
    /// the message's stable [`MsgToken`].
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a neighbor of this vertex.
    pub fn send_class(&mut self, to: NodeId, msg: M, class: CostClass) -> MsgToken {
        let Some(eid) = self.graph.edge_between(self.node, to) else {
            panic!("{} cannot send to non-neighbor {to}", self.node);
        };
        let token = MsgToken(self.msg_base + self.outbox.len() as u64);
        self.outbox.push((to, msg, class));
        self.out_edges.push(eid);
        token
    }

    /// Sends a copy of `msg` to every neighbor, returning the
    /// [`MsgToken`] of the *first* copy (the copies occupy consecutive
    /// dispatch indices in [`Context::neighbors`] order, so copy `k` is
    /// `MsgToken(first.0 + k)`). Returns `None` on an isolated vertex.
    pub fn send_all(&mut self, msg: M) -> Option<MsgToken> {
        let node = self.node;
        let first = MsgToken(self.msg_base + self.outbox.len() as u64);
        let mut any = false;
        for eid in self.graph.incident(node) {
            let to = self.graph.edge(*eid).other(node);
            self.outbox.push((to, msg.clone(), CostClass::Protocol));
            self.out_edges.push(*eid);
            any = true;
        }
        any.then_some(first)
    }

    /// Arms a local timer that fires [`Process::on_timer`] at this
    /// vertex after `delay` ticks (clamped to at least 1 — timers share
    /// the runtime's discrete clock). Timer fires are scheduler events
    /// but not communication: they cost nothing and do not advance the
    /// run's completion time on their own.
    ///
    /// Only the asynchronous [`Simulator`](crate::Simulator) cores
    /// execute timers; the
    /// [`BaselineSimulator`](crate::BaselineSimulator) rejects them.
    ///
    /// # Panics
    ///
    /// Panics on a context made by [`Context::derive`]: its host does
    /// not forward timers.
    pub fn set_timer(&mut self, delay: u64) -> TimerId {
        self.assert_timers_forwarded();
        let id = TimerId(self.timer_base + self.timers.len() as u64);
        self.timers.push(delay.max(1));
        id
    }

    /// Cancels a pending timer. Cancelling an already-fired or foreign
    /// timer id is a silent no-op.
    ///
    /// # Panics
    ///
    /// Panics on a context made by [`Context::derive`], like
    /// [`Context::set_timer`].
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.assert_timers_forwarded();
        self.cancels.push(id.0);
    }

    /// The one place a hosted protocol's timer use is refused: a host
    /// built on [`Context::derive`] relays sends only, and a timer that
    /// silently never fires (a detector that never beats, a
    /// retransmission that never retries) is worse than a panic.
    fn assert_timers_forwarded(&self) {
        assert!(
            !self.detached,
            "hosts built on Context::derive do not forward timers; \
             host the protocol through Context::derive_with_timers"
        );
    }

    /// Creates a context over a different message alphabet at the same
    /// vertex, time and graph — for protocol *transformers* (controllers,
    /// synchronizers) that host an inner protocol and relay its sends
    /// through their own wrapper messages.
    ///
    /// Derived contexts are detached from the runtime: their
    /// [`MsgToken`]s number from zero (the transformer's relayed sends
    /// carry the real tokens) and they take no timer ops — a transformer
    /// that hosts a timer-using protocol must forward them itself,
    /// through [`Context::derive_with_timers`].
    ///
    /// # Panics
    ///
    /// [`Context::set_timer`] and [`Context::cancel_timer`] panic on the
    /// derived context.
    pub fn derive<N: Clone + std::fmt::Debug>(&self) -> Context<'a, N> {
        let mut ctx = Context::new(self.node, self.now, self.graph);
        ctx.eff = self.eff;
        ctx.detached = true;
        ctx
    }

    /// Like [`Context::derive`], but the derived context assigns timer
    /// ids starting from `timer_base` — for transformers that *forward*
    /// a hosted protocol's timer ops to the runtime instead of
    /// discarding them.
    ///
    /// The transformer owns the inner protocol's timer-id space: it
    /// passes the count of inner timers armed so far as `timer_base`, so
    /// the ids the inner protocol sees are stable, then maps each
    /// inner arm/cancel onto real timers of its own (see
    /// `csp_sim::detect::Detect` for the canonical use). Message tokens
    /// still number from zero, exactly as with [`Context::derive`].
    pub fn derive_with_timers<N: Clone + std::fmt::Debug>(
        &self,
        timer_base: u64,
    ) -> Context<'a, N> {
        let mut ctx = Context::recycled(
            self.node,
            self.now,
            self.graph,
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            0,
            timer_base,
        );
        ctx.eff = self.eff;
        ctx
    }

    /// Drains the timer ops queued on this context — the armed delays
    /// (in arming order; the `k`-th entry carries id `timer_base + k`)
    /// and the cancelled timer ids. For transformers that forward a
    /// hosted protocol's timers; see [`Context::derive_with_timers`].
    pub fn take_timer_ops(&mut self) -> (Vec<u64>, Vec<u64>) {
        (
            std::mem::take(&mut self.timers),
            std::mem::take(&mut self.cancels),
        )
    }

    /// Drains the queued sends — for protocol transformers inspecting a
    /// hosted handler's output. Each entry is
    /// `(destination, message, cost class)`.
    pub fn take_outbox(&mut self) -> Vec<(NodeId, M, CostClass)> {
        self.out_edges.clear();
        std::mem::take(&mut self.outbox)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_graph::generators;

    #[test]
    fn context_exposes_topology() {
        let g = generators::star(4, |_| 3);
        let ctx: Context<'_, ()> = Context::new(NodeId::new(0), SimTime::new(9), &g);
        assert_eq!(ctx.self_id(), NodeId::new(0));
        assert_eq!(ctx.time(), SimTime::new(9));
        assert_eq!(ctx.degree(), 3);
        assert_eq!(ctx.node_count(), 4);
        assert_eq!(ctx.neighbors().count(), 3);
    }

    #[test]
    fn weight_of_prefers_the_effective_table() {
        let g = generators::path(3, |_| 4);
        let ctx: Context<'_, ()> = Context::new(NodeId::new(0), SimTime::ZERO, &g);
        assert_eq!(ctx.weight_of(EdgeId::new(0)), Weight::new(4));
        let eff = vec![Weight::new(9), Weight::new(4)];
        let ctx = ctx.with_weights(&eff);
        assert_eq!(ctx.weight_of(EdgeId::new(0)), Weight::new(9));
        // Derived contexts inherit the table.
        let d: Context<'_, u32> = ctx.derive();
        assert_eq!(d.weight_of(EdgeId::new(0)), Weight::new(9));
        let dt: Context<'_, u32> = ctx.derive_with_timers(3);
        assert_eq!(dt.weight_of(EdgeId::new(0)), Weight::new(9));
    }

    #[test]
    fn send_all_targets_every_neighbor() {
        let g = generators::star(4, |_| 3);
        let mut ctx: Context<'_, u32> = Context::new(NodeId::new(0), SimTime::ZERO, &g);
        ctx.send_all(7);
        let out = ctx.take_outbox();
        assert_eq!(out.len(), 3);
        assert!(out
            .iter()
            .all(|(_, m, c)| *m == 7 && *c == CostClass::Protocol));
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn send_to_non_neighbor_panics() {
        let g = generators::path(3, |_| 1);
        let mut ctx: Context<'_, ()> = Context::new(NodeId::new(0), SimTime::ZERO, &g);
        ctx.send(NodeId::new(2), ()); // 0 and 2 are not adjacent on a path
    }

    #[test]
    fn take_outbox_drains() {
        let g = generators::path(2, |_| 1);
        let mut ctx: Context<'_, ()> = Context::new(NodeId::new(0), SimTime::ZERO, &g);
        ctx.send(NodeId::new(1), ());
        assert_eq!(ctx.take_outbox().len(), 1);
        assert!(ctx.take_outbox().is_empty());
    }

    #[test]
    fn tokens_count_from_the_message_base() {
        let g = generators::star(4, |_| 3);
        let mut ctx: Context<'_, u32> = Context::recycled(
            NodeId::new(0),
            SimTime::ZERO,
            &g,
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            17,
            0,
        );
        assert_eq!(ctx.send(NodeId::new(1), 1), MsgToken(17));
        assert_eq!(ctx.send(NodeId::new(2), 2), MsgToken(18));
        // send_all returns the first copy; copies are consecutive.
        assert_eq!(ctx.send_all(3), Some(MsgToken(19)));
        assert_eq!(ctx.take_outbox().len(), 5);
    }

    #[test]
    fn timer_ids_count_from_the_timer_base() {
        let g = generators::path(2, |_| 1);
        let mut ctx: Context<'_, ()> = Context::recycled(
            NodeId::new(0),
            SimTime::ZERO,
            &g,
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            0,
            5,
        );
        assert!(!ctx.has_timer_ops());
        assert_eq!(ctx.set_timer(0), TimerId(5)); // delay clamps to 1
        assert_eq!(ctx.set_timer(9), TimerId(6));
        ctx.cancel_timer(TimerId(5));
        assert!(ctx.has_timer_ops());
        let (_, _, timers, cancels) = ctx.into_parts();
        assert_eq!(timers, [1, 9]);
        assert_eq!(cancels, [5]);
    }
}
