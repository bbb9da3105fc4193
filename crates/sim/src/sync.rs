//! Lock-step weighted synchronous executor.
//!
//! In the paper's synchronous weighted network, a message sent at pulse
//! `p` over edge `e` is received exactly at pulse `p + w(e)`. This module
//! executes [`SyncProcess`] state machines under those semantics. It is
//! used three ways:
//!
//! * to run synchronous protocols directly (e.g. the synchronous SPT of
//!   Section 9.1, which takes time `D̂` and communication `Ê`);
//! * as the *reference semantics* against which the network
//!   synchronizers (γ_w, and α_w / β_w on unit weights) are tested for
//!   equivalence, call by call;
//! * as the host interface for synchronizers: the synchronizer wraps a
//!   [`SyncProcess`] and drives it pulse by pulse with
//!   [`SyncContext::host`]/[`SyncContext::drain`], under the call rule
//!   and inbox order of [`SyncProcess::on_pulse`].
//!
//! Definition 4.2's *in-synch* restriction (a protocol may transmit on
//! edge `e` only at pulses divisible by `w(e)`) can be enforced with
//! [`SyncRunner::require_in_synch`].

use crate::cost::{CostClass, CostReport};
use crate::queue::BucketQueue;
use crate::time::SimTime;
use csp_graph::{EdgeId, NodeId, Weight, WeightedGraph};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;

/// A node-local synchronous protocol instance.
pub trait SyncProcess {
    /// The protocol's message alphabet.
    type Msg: Clone + std::fmt::Debug;

    /// Called at pulse 0 for every vertex, and afterwards whenever
    /// messages arrive or — until the vertex [finishes](SyncContext::finish)
    /// — at a requested wake-up. `inbox` holds the messages arriving
    /// exactly at this pulse, by send pulse, then sender index, then the
    /// order the sender sent them.
    fn on_pulse(
        &mut self,
        pulse: u64,
        inbox: &[(NodeId, Self::Msg)],
        ctx: &mut SyncContext<'_, Self::Msg>,
    );
}

/// Everything a [`SyncProcess`] handler produced during one pulse.
#[derive(Clone, Debug)]
pub struct SyncOutbox<M> {
    /// Messages to send, `(destination, message)`.
    pub sends: Vec<(NodeId, M)>,
    /// Whether the vertex declared local termination.
    pub finished: bool,
    /// Requested wake-up pulse, if any.
    pub wake_at: Option<u64>,
}

/// Handler-side view for synchronous protocols.
#[derive(Debug)]
pub struct SyncContext<'a, M> {
    node: NodeId,
    pulse: u64,
    graph: &'a WeightedGraph,
    sends: Vec<(NodeId, M)>,
    finished: bool,
    wake_at: Option<u64>,
}

impl<'a, M: Clone + std::fmt::Debug> SyncContext<'a, M> {
    /// Creates a context for an external host (a synchronizer driving the
    /// protocol inside an asynchronous network).
    pub fn host(node: NodeId, pulse: u64, graph: &'a WeightedGraph) -> Self {
        SyncContext {
            node,
            pulse,
            graph,
            sends: Vec::new(),
            finished: false,
            wake_at: None,
        }
    }

    /// This vertex's identifier.
    #[inline]
    pub fn self_id(&self) -> NodeId {
        self.node
    }

    /// The current pulse number.
    #[inline]
    pub fn pulse(&self) -> u64 {
        self.pulse
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

    /// `(neighbor, edge, weight)` triples of this vertex.
    pub fn neighbors(&self) -> impl Iterator<Item = (NodeId, EdgeId, Weight)> + 'a {
        self.graph.neighbors(self.node)
    }

    /// Sends `msg` to neighbor `to`; it arrives at pulse
    /// `pulse + w(edge)`.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a neighbor.
    pub fn send(&mut self, to: NodeId, msg: M) {
        assert!(
            self.graph.edge_between(self.node, to).is_some(),
            "{} cannot send to non-neighbor {to}",
            self.node
        );
        self.sends.push((to, msg));
    }

    /// Declares local termination: the runner stops calling this vertex
    /// (except to deliver stray messages) and the run ends when every
    /// vertex has finished and no messages are in flight.
    pub fn finish(&mut self) {
        self.finished = true;
    }

    /// Requests a wake-up call at `pulse` even without incoming messages.
    ///
    /// # Panics
    ///
    /// Panics if `pulse` is not in the future.
    pub fn wake_at(&mut self, pulse: u64) {
        assert!(pulse > self.pulse, "wake-up must be in the future");
        self.wake_at = Some(match self.wake_at {
            Some(existing) => existing.min(pulse),
            None => pulse,
        });
    }

    /// Extracts the handler's products (for synchronizer hosts).
    pub fn drain(&mut self) -> SyncOutbox<M> {
        SyncOutbox {
            sends: std::mem::take(&mut self.sends),
            finished: self.finished,
            wake_at: self.wake_at.take(),
        }
    }
}

/// Errors terminating a synchronous run abnormally.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SyncError {
    /// The pulse budget was exhausted before every vertex finished.
    PulseLimitExceeded {
        /// The configured limit.
        limit: u64,
    },
    /// With [`SyncRunner::require_in_synch`], a vertex transmitted on an
    /// edge at a pulse not divisible by the edge weight (Definition 4.2).
    InSynchViolation {
        /// The sending vertex.
        node: NodeId,
        /// The offending pulse.
        pulse: u64,
        /// The edge weight that does not divide the pulse.
        weight: Weight,
    },
}

impl fmt::Display for SyncError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SyncError::PulseLimitExceeded { limit } => {
                write!(f, "pulse limit of {limit} exceeded")
            }
            SyncError::InSynchViolation { node, pulse, weight } => write!(
                f,
                "{node} sent on an edge of weight {weight} at pulse {pulse}, which {weight} does not divide"
            ),
        }
    }
}

impl Error for SyncError {}

/// The outcome of a completed synchronous run.
#[derive(Debug)]
pub struct SyncRun<P> {
    /// Final per-vertex protocol states.
    pub states: Vec<P>,
    /// Metered costs; `completion` equals the final pulse.
    pub cost: CostReport,
    /// The pulse at which the run ended.
    pub pulses: u64,
}

/// Lock-step synchronous executor (non-consuming builder).
#[derive(Debug)]
pub struct SyncRunner<'g> {
    graph: &'g WeightedGraph,
    pulse_limit: u64,
    require_in_synch: bool,
}

impl<'g> SyncRunner<'g> {
    /// Creates a runner with a one-million-pulse budget.
    pub fn new(graph: &'g WeightedGraph) -> Self {
        SyncRunner {
            graph,
            pulse_limit: 1_000_000,
            require_in_synch: false,
        }
    }

    /// Sets the pulse budget.
    pub fn pulse_limit(&mut self, limit: u64) -> &mut Self {
        self.pulse_limit = limit;
        self
    }

    /// Enforces Definition 4.2: messages on edge `e` may only be sent at
    /// pulses divisible by `w(e)`.
    pub fn require_in_synch(&mut self, yes: bool) -> &mut Self {
        self.require_in_synch = yes;
        self
    }

    /// Runs `make`-constructed processes until every vertex finished and
    /// no messages are in flight.
    ///
    /// # Errors
    ///
    /// Returns [`SyncError::PulseLimitExceeded`] on budget exhaustion, or
    /// [`SyncError::InSynchViolation`] when the in-synch check is enabled
    /// and violated.
    pub fn run<P, F>(&self, mut make: F) -> Result<SyncRun<P>, SyncError>
    where
        P: SyncProcess,
        F: FnMut(NodeId, &WeightedGraph) -> P,
    {
        let g = self.graph;
        let n = g.node_count();
        let mut states: Vec<P> = g.nodes().map(|v| make(v, g)).collect();
        let mut finished = vec![false; n];
        let mut cost = CostReport::new(g.edge_count());

        // In-flight messages: the bucket queue holds `(arrival pulse, seq,
        // (to, from, msg))`. `seq` is globally unique, so same-pulse
        // deliveries pop in send order — the insertion order the old
        // `BTreeMap<_, Vec<_>>` kept. Arrivals are `pulse + w(e)`, so the
        // window sized by the max weight covers every send made at the
        // current pulse; `advance_to` below keeps the window anchored
        // when wake-ups jump the clock past the last delivery.
        let mut queue: BucketQueue<(NodeId, NodeId, P::Msg)> =
            BucketQueue::new(g.max_weight().get());
        let mut seq: u64 = 0;
        // Requested wake-ups as `(pulse, vertex)`; duplicates are
        // harmless since a wake only marks the vertex active.
        let mut wakes: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();

        // Persistent per-vertex buffers, reset between pulses via the
        // `touched` list so a pulse costs O(activations), not O(n).
        let mut inbox: Vec<Vec<(NodeId, P::Msg)>> = vec![Vec::new(); n];
        let mut active = vec![false; n];
        let mut touched: Vec<usize> = Vec::new();

        let mut pulse: u64 = 0;
        loop {
            // Gather this pulse's activations.
            for &i in &touched {
                inbox[i].clear();
                active[i] = false;
            }
            touched.clear();
            let everyone = pulse == 0;
            while queue.next_time() == Some(pulse) {
                let (_, _, (to, from, msg)) = queue.pop().expect("peeked entry");
                let i = to.index();
                if !active[i] {
                    active[i] = true;
                    touched.push(i);
                }
                inbox[i].push((from, msg));
            }
            while wakes.peek().is_some_and(|&Reverse((p, _))| p == pulse) {
                let Reverse((_, i)) = wakes.pop().expect("peeked entry");
                if !active[i] {
                    active[i] = true;
                    touched.push(i);
                }
            }

            for v in g.nodes() {
                let i = v.index();
                // Everyone runs at pulse 0; afterwards a vertex runs when
                // messages arrive, or at a wake-up unless it finished.
                let call = everyone || (active[i] && !(finished[i] && inbox[i].is_empty()));
                if !call {
                    continue;
                }
                let mut ctx = SyncContext::host(v, pulse, g);
                states[i].on_pulse(pulse, &inbox[i], &mut ctx);
                let out = ctx.drain();
                if out.finished {
                    finished[i] = true;
                }
                if let Some(w) = out.wake_at {
                    wakes.push(Reverse((w, i)));
                }
                for (to, msg) in out.sends {
                    let eid = g.edge_between(v, to).expect("send validated");
                    let w = g.weight(eid);
                    if self.require_in_synch && !pulse.is_multiple_of(w.get()) {
                        return Err(SyncError::InSynchViolation {
                            node: v,
                            pulse,
                            weight: w,
                        });
                    }
                    cost.record_send(eid, w, CostClass::Protocol);
                    queue.push(pulse + w.get(), seq, (to, v, msg));
                    seq += 1;
                }
            }

            // Advance to the next interesting pulse — unless every vertex
            // finished with nothing in flight, or nothing is scheduled at
            // all (a deadlock, treated as completion like asynchronous
            // quiescence; callers inspect `finished` via state). Either
            // way the queue is empty, so the last delivery was at or
            // before `pulse`.
            let all_done = finished.iter().all(|&f| f) && queue.is_empty();
            let next_wake = wakes.peek().map(|&Reverse((p, _))| p);
            let next = queue.next_time().into_iter().chain(next_wake).min();
            let Some(next) = next.filter(|_| !all_done) else {
                cost.completion = SimTime::new(pulse);
                cost.bucket_window = BucketQueue::capacity_for(g.max_weight().get()) as u64;
                cost.overflow_pushes = queue.overflow_pushes();
                return Ok(SyncRun {
                    states,
                    cost,
                    pulses: pulse,
                });
            };
            if next > self.pulse_limit {
                return Err(SyncError::PulseLimitExceeded {
                    limit: self.pulse_limit,
                });
            }
            pulse = next;
            // Wake-only jumps can move the clock past the last delivery;
            // re-anchor the bucket window so subsequent sends stay O(1).
            queue.advance_to(pulse);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_graph::{generators, Cost};

    /// Synchronous broadcast: node 0 floods; each node records the pulse
    /// at which it first heard — exactly its weighted distance from 0
    /// under exact delays along shortest paths.
    struct SyncFlood {
        heard_at: Option<u64>,
    }

    impl SyncProcess for SyncFlood {
        type Msg = ();

        fn on_pulse(&mut self, pulse: u64, inbox: &[(NodeId, ())], ctx: &mut SyncContext<'_, ()>) {
            let me_is_source = ctx.self_id() == NodeId::new(0);
            if pulse == 0 && me_is_source {
                self.heard_at = Some(0);
                let targets: Vec<NodeId> = ctx.neighbors().map(|(u, _, _)| u).collect();
                for u in targets {
                    ctx.send(u, ());
                }
                ctx.finish();
            } else if !inbox.is_empty() && self.heard_at.is_none() {
                self.heard_at = Some(pulse);
                let targets: Vec<NodeId> = ctx.neighbors().map(|(u, _, _)| u).collect();
                for u in targets {
                    ctx.send(u, ());
                }
                ctx.finish();
            } else if pulse == 0 {
                // passive until a message arrives
                ctx.finish();
            }
        }
    }

    #[test]
    fn exact_delays_realize_shortest_paths() {
        // diamond: 0-1 (1), 1-3 (1), 0-2 (3), 2-3 (1)
        let mut b = csp_graph::GraphBuilder::new(4);
        b.edge(0, 1, 1).edge(1, 3, 1).edge(0, 2, 3).edge(2, 3, 1);
        let g = b.build().unwrap();
        let run = SyncRunner::new(&g)
            .run(|_, _| SyncFlood { heard_at: None })
            .unwrap();
        let dist = csp_graph::algo::distances(&g, NodeId::new(0));
        for v in g.nodes() {
            assert_eq!(
                run.states[v.index()].heard_at,
                Some(dist[v.index()].get() as u64),
                "first-hearing pulse must equal weighted distance at {v}"
            );
        }
    }

    #[test]
    fn sync_flood_cost_is_bounded_by_total_weight_times_two() {
        let g = generators::connected_gnp(20, 0.2, generators::WeightDist::Uniform(1, 8), 4);
        let run = SyncRunner::new(&g)
            .run(|_, _| SyncFlood { heard_at: None })
            .unwrap();
        // every vertex sends to all neighbors at most once: ≤ 2·Ê.
        assert!(run.cost.weighted_comm <= g.total_weight() * 2);
    }

    /// Counts its own wake-ups at pulses 3, 6.
    struct Waker {
        wakes: Vec<u64>,
    }

    impl SyncProcess for Waker {
        type Msg = ();
        fn on_pulse(&mut self, pulse: u64, _inbox: &[(NodeId, ())], ctx: &mut SyncContext<'_, ()>) {
            if pulse == 0 {
                ctx.wake_at(3);
            } else {
                self.wakes.push(pulse);
                if pulse == 3 {
                    ctx.wake_at(6);
                } else {
                    ctx.finish();
                }
            }
        }
    }

    #[test]
    fn wake_ups_fire_at_requested_pulses() {
        let g = generators::path(2, |_| 1);
        let run = SyncRunner::new(&g)
            .run(|_, _| Waker { wakes: vec![] })
            .unwrap();
        assert_eq!(run.states[0].wakes, vec![3, 6]);
        assert_eq!(run.pulses, 6);
    }

    /// Sends at pulse 1 on a weight-2 edge — an in-synch violation.
    #[derive(Debug)]
    struct OutOfSynch;

    impl SyncProcess for OutOfSynch {
        type Msg = ();
        fn on_pulse(&mut self, pulse: u64, _inbox: &[(NodeId, ())], ctx: &mut SyncContext<'_, ()>) {
            if ctx.self_id() == NodeId::new(0) {
                if pulse == 0 {
                    ctx.wake_at(1);
                } else {
                    ctx.send(NodeId::new(1), ());
                    ctx.finish();
                }
            } else {
                ctx.finish();
            }
        }
    }

    #[test]
    fn in_synch_check_fires() {
        let g = generators::path(2, |_| 2);
        let err = SyncRunner::new(&g)
            .require_in_synch(true)
            .run(|_, _| OutOfSynch)
            .unwrap_err();
        assert!(matches!(err, SyncError::InSynchViolation { pulse: 1, .. }));
    }

    #[test]
    fn in_synch_check_allows_divisible_pulses() {
        let g = generators::path(2, |_| 2);
        // OutOfSynch sends at pulse 1 only; a variant sending at 0 passes.
        struct InSynch;
        impl SyncProcess for InSynch {
            type Msg = ();
            fn on_pulse(&mut self, pulse: u64, _i: &[(NodeId, ())], ctx: &mut SyncContext<'_, ()>) {
                if ctx.self_id() == NodeId::new(0) && pulse == 0 {
                    ctx.send(NodeId::new(1), ());
                }
                ctx.finish();
            }
        }
        let run = SyncRunner::new(&g)
            .require_in_synch(true)
            .run(|_, _| InSynch);
        assert!(run.is_ok());
    }

    #[test]
    fn pulse_limit_errors() {
        #[derive(Debug)]
        struct Insomniac;
        impl SyncProcess for Insomniac {
            type Msg = ();
            fn on_pulse(&mut self, pulse: u64, _i: &[(NodeId, ())], ctx: &mut SyncContext<'_, ()>) {
                ctx.wake_at(pulse + 10);
            }
        }
        let g = generators::path(2, |_| 1);
        let err = SyncRunner::new(&g)
            .pulse_limit(100)
            .run(|_, _| Insomniac)
            .unwrap_err();
        assert_eq!(err, SyncError::PulseLimitExceeded { limit: 100 });
    }

    #[test]
    fn communication_is_metered_with_weights() {
        let g = generators::path(2, |_| 7);
        let run = SyncRunner::new(&g)
            .run(|_, _| SyncFlood { heard_at: None })
            .unwrap();
        // 0 sends one message (7), 1 replies-floods one (7).
        assert_eq!(run.cost.weighted_comm, Cost::new(14));
    }
}

#[cfg(test)]
mod edge_case_tests {
    use super::*;
    use csp_graph::generators;

    /// Two sources flood simultaneously; inbox batching must deliver both
    /// messages arriving at the same pulse together.
    #[derive(Clone, Debug)]
    struct DualFlood {
        batches: Vec<usize>,
    }

    impl SyncProcess for DualFlood {
        type Msg = u8;
        fn on_pulse(&mut self, pulse: u64, inbox: &[(NodeId, u8)], ctx: &mut SyncContext<'_, u8>) {
            if pulse == 0 {
                let me = ctx.self_id().index();
                if me == 0 || me == 2 {
                    let targets: Vec<NodeId> = ctx.neighbors().map(|(u, _, _)| u).collect();
                    for u in targets {
                        ctx.send(u, me as u8);
                    }
                }
                ctx.finish();
            } else if !inbox.is_empty() {
                self.batches.push(inbox.len());
            }
        }
    }

    #[test]
    fn simultaneous_arrivals_share_one_inbox() {
        // vertex 1 sits between sources 0 and 2 at equal weight: both
        // messages land at the same pulse, in one on_pulse call.
        let g = generators::path(3, |_| 4);
        let run = SyncRunner::new(&g)
            .run(|_, _| DualFlood { batches: vec![] })
            .unwrap();
        assert_eq!(run.states[1].batches, vec![2]);
    }

    /// A finished vertex still receives stray deliveries.
    #[derive(Clone, Debug)]
    struct FinishEarly {
        late: usize,
    }

    impl SyncProcess for FinishEarly {
        type Msg = ();
        fn on_pulse(&mut self, pulse: u64, inbox: &[(NodeId, ())], ctx: &mut SyncContext<'_, ()>) {
            if pulse == 0 {
                if ctx.self_id() == NodeId::new(0) {
                    ctx.send(NodeId::new(1), ());
                }
                ctx.finish(); // everyone opts out immediately
            } else {
                self.late += inbox.len();
            }
        }
    }

    #[test]
    fn stray_messages_reach_finished_vertices() {
        let g = generators::path(2, |_| 3);
        let run = SyncRunner::new(&g)
            .run(|_, _| FinishEarly { late: 0 })
            .unwrap();
        assert_eq!(run.states[1].late, 1);
        assert_eq!(run.pulses, 3); // the delivery pulse
    }

    #[test]
    fn zero_pulse_protocol_ends_at_zero() {
        #[derive(Debug)]
        struct Nothing;
        impl SyncProcess for Nothing {
            type Msg = ();
            fn on_pulse(&mut self, _p: u64, _i: &[(NodeId, ())], ctx: &mut SyncContext<'_, ()>) {
                ctx.finish();
            }
        }
        let g = generators::cycle(4, |_| 7);
        let run = SyncRunner::new(&g).run(|_, _| Nothing).unwrap();
        assert_eq!(run.pulses, 0);
        assert_eq!(run.cost.messages, 0);
    }
}
