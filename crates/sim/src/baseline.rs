//! Reference `HashMap`-based event loop, kept for differential testing.
//!
//! [`BaselineSimulator`] is the original implementation of the
//! asynchronous runtime: payloads in a `HashMap<u64, Delivery>` keyed by
//! sequence number, FIFO floors in a `HashMap<usize, SimTime>` keyed by
//! `from·n + to`, and a freshly allocated outbox per event. The flat-array
//! core in [`crate::runtime`] replaced it in the hot path; this copy
//! stays as the executable specification the optimized core is checked
//! against (see the `flat_core_differential` test suite) and as the
//! before-side of `bench_all`'s `sim.runtime.baseline_ratio`.
//!
//! Semantics match [`crate::runtime::Simulator`] exactly for runs without
//! a communication budget. With [`BaselineSimulator::comm_limit`] set it
//! keeps the *historical* behavior of checking the budget one event late
//! at delivery time — the bug the optimized core fixes — so differential
//! comparisons must not set a budget.
//!
//! Only its *reporting* is shared: it feeds the same [`Observer`] stream
//! as the kernel executors, so the differential suites compare one
//! stream across all of them.

use crate::cost::CostReport;
use crate::delay::{DelayModel, LinkDecision, LinkOracle, ModelOracle, MsgInfo};
use crate::process::{Context, Process};
use crate::queue::BucketQueue;
use crate::runtime::{Run, SimError};
use crate::time::SimTime;
use crate::trace::{Observer, Trace, TraceEvent};
use csp_graph::{NodeId, WeightedGraph};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The pre-flat-core simulator. Same builder API as
/// [`crate::runtime::Simulator`]; see the [module docs](self) for why it
/// is kept around.
#[derive(Debug)]
pub struct BaselineSimulator<'g> {
    graph: &'g WeightedGraph,
    delay: DelayModel,
    seed: u64,
    event_limit: u64,
    comm_limit: Option<u128>,
    trace_cap: usize,
}

impl<'g> BaselineSimulator<'g> {
    /// Creates a baseline simulator with worst-case delays, seed 0 and a
    /// 100-million-event budget.
    pub fn new(graph: &'g WeightedGraph) -> Self {
        BaselineSimulator {
            graph,
            delay: DelayModel::WorstCase,
            seed: 0,
            event_limit: 100_000_000,
            comm_limit: None,
            trace_cap: 0,
        }
    }

    /// Sets the delay model.
    pub fn delay(&mut self, delay: DelayModel) -> &mut Self {
        self.delay = delay;
        self
    }

    /// Sets the seed for randomized delay models.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Sets the event budget.
    pub fn event_limit(&mut self, limit: u64) -> &mut Self {
        self.event_limit = limit;
        self
    }

    /// Records up to `cap` delivered messages into [`Run::trace`].
    pub fn record_trace(&mut self, cap: usize) -> &mut Self {
        self.trace_cap = cap;
        self
    }

    /// Caps the weighted communication with the *historical* late check:
    /// the budget is tested at delivery time, one event after it was
    /// exceeded. Kept verbatim so the baseline stays a faithful snapshot;
    /// use [`crate::runtime::Simulator`] for correct budget enforcement.
    pub fn comm_limit(&mut self, limit: u128) -> &mut Self {
        self.comm_limit = Some(limit);
        self
    }

    /// Runs `make(v, graph)`-constructed processes to quiescence.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventLimitExceeded`] if the protocol does not
    /// quiesce within the event budget.
    pub fn run<P, F>(&self, make: F) -> Result<Run<P>, SimError>
    where
        P: Process,
        F: FnMut(NodeId, &WeightedGraph) -> P,
    {
        self.run_with_oracle(&mut ModelOracle::new(self.delay, self.seed), make)
    }

    /// Runs with every message's fate decided by `oracle` — the same
    /// dispatch-time hook as
    /// [`Simulator::run_with_oracle`](crate::Simulator::run_with_oracle),
    /// so the differential suite can compare both cores under arbitrary
    /// adversaries (drops and crashes included). The configured
    /// [`DelayModel`] and seed are ignored on this path.
    ///
    /// The baseline has no timer facility: a handler that arms or
    /// cancels a timer panics here rather than silently never firing.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventLimitExceeded`] if the protocol does not
    /// quiesce within the event budget.
    pub fn run_with_oracle<P, F, O>(&self, oracle: &mut O, make: F) -> Result<Run<P>, SimError>
    where
        P: Process,
        F: FnMut(NodeId, &WeightedGraph) -> P,
        O: LinkOracle + ?Sized,
    {
        if self.trace_cap == 0 {
            return self.run_observed(oracle, &mut (), make);
        }
        let mut trace = Trace::new(self.trace_cap);
        let run = self.run_observed(oracle, &mut trace, make)?;
        Ok(Run { trace, ..run })
    }

    /// [`BaselineSimulator::run_with_oracle`], reporting every dispatch
    /// and every delivery to `observer` — the stream
    /// [`Simulator::execute`](crate::Simulator::execute) reports for the
    /// same run. [`Run::trace`] stays empty here.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventLimitExceeded`] if the protocol does not
    /// quiesce within the event budget.
    pub fn run_observed<P, F, O, B>(
        &self,
        oracle: &mut O,
        observer: &mut B,
        mut make: F,
    ) -> Result<Run<P>, SimError>
    where
        P: Process,
        F: FnMut(NodeId, &WeightedGraph) -> P,
        O: LinkOracle + ?Sized,
        B: Observer + ?Sized,
    {
        let g = self.graph;
        let n = g.node_count();
        let mut states: Vec<P> = g.nodes().map(|v| make(v, g)).collect();
        let mut cost = CostReport::new(g.edge_count());
        // The baseline predates churn: it understands the crash-stop
        // special case only, and rejects anything richer loudly rather
        // than silently diverging from the flat core. The plan is
        // queried at the same point as there — after the states are
        // built — so a recording oracle sees an identical stream.
        let plan = oracle.fault_plan();
        assert!(
            plan.drift.is_empty(),
            "BaselineSimulator does not support weight drift"
        );
        let mut crash: Vec<Option<SimTime>> = vec![None; n];
        for (v, chain) in plan.churn {
            assert!(
                chain.len() <= 1,
                "BaselineSimulator understands crash-stop only; vertex {v} has a rejoin scheduled"
            );
            assert!(crash[v.index()].is_none(), "{v} has two churn chains");
            crash[v.index()] = chain.first().copied();
        }
        cost.crashed_nodes = crash.iter().filter(|c| c.is_some()).count() as u64;
        let crashed = |v: NodeId, now: SimTime| crash[v.index()].is_some_and(|t| now >= t);

        // Min-heap of (time, seq) -> the payload and its delivery, whose
        // time is the arrival already.
        let mut queue: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
        let mut payloads: std::collections::HashMap<u64, (P::Msg, TraceEvent)> =
            std::collections::HashMap::new();
        let mut seq: u64 = 0;
        // FIFO floor per directed edge: key = from * n + to.
        let mut fifo_floor: std::collections::HashMap<usize, SimTime> =
            std::collections::HashMap::new();

        // Every handler in the order it runs — the time-zero starts
        // (crashed-at-zero vertices excepted), then one per delivery —
        // followed by the send step for what it queued.
        let mut starts = g.nodes().filter(|&v| !crashed(v, SimTime::ZERO));
        let mut events: u64 = 0;
        let mut truncated = false;
        loop {
            let (at, now, mut ctx) = if let Some(v) = starts.next() {
                let mut ctx = Context::new(v, SimTime::ZERO, g);
                states[v.index()].on_start(&mut ctx);
                (v, SimTime::ZERO, ctx)
            } else {
                let Some(Reverse((now, id))) = queue.pop() else {
                    break;
                };
                events += 1;
                if events > self.event_limit {
                    return Err(SimError::EventLimitExceeded {
                        limit: self.event_limit,
                    });
                }
                if self
                    .comm_limit
                    .is_some_and(|lim| cost.weighted_comm.raw() > lim)
                {
                    truncated = true;
                    break;
                }
                let (msg, delivery) = payloads.remove(&id).expect("payload for event");
                let (from, to) = (delivery.from, delivery.to);
                if crashed(to, now) {
                    // A dead vertex consumes its deliveries silently —
                    // same semantics as the flat core, which does not
                    // count the pop as an event either.
                    events -= 1;
                    cost.dead_events += 1;
                    continue;
                }
                cost.record_delivery(now, delivery.class);
                observer.delivered(&delivery);
                let mut ctx = Context::new(to, now, g);
                states[to.index()].on_message(from, msg, &mut ctx);
                (to, now, ctx)
            };
            assert!(
                !ctx.has_timer_ops(),
                "BaselineSimulator has no timer facility"
            );
            for (to, msg, class) in ctx.take_outbox() {
                let eid = g
                    .edge_between(at, to)
                    .expect("context validated the neighbor");
                let w = g.weight(eid);
                let index = cost.messages;
                cost.record_send(eid, w, class);
                let info = MsgInfo {
                    index,
                    edge: eid,
                    dir: u8::from(g.edge(eid).u() != at),
                    weight: w,
                    from: at,
                    to,
                    sent: now,
                };
                let delay = match oracle.decide(&info) {
                    // Same drop semantics as the flat core: paid for,
                    // index consumed, never enqueued, floor untouched.
                    LinkDecision::Drop => {
                        cost.drops += 1;
                        continue;
                    }
                    LinkDecision::Deliver { delay } => delay.clamp(1, w.get()),
                };
                let mut arrival = now + delay;
                let key = at.index() * n + to.index();
                if let Some(&floor) = fifo_floor.get(&key) {
                    arrival = arrival.max(floor);
                }
                fifo_floor.insert(key, arrival);
                observer.dispatched(&info, delay, arrival);
                queue.push(Reverse((arrival, seq)));
                let delivery = TraceEvent {
                    from: at,
                    to,
                    edge: eid,
                    sent: now,
                    delivered: arrival,
                    class,
                };
                payloads.insert(seq, (msg, delivery));
                seq += 1;
            }
        }

        // The window is a workload property shared with the optimized
        // cores (differential comparisons check full report equality);
        // the baseline's `BinaryHeap` never overflows, matching the
        // in-window bucket-core count of zero.
        cost.bucket_window = BucketQueue::capacity_for(g.max_weight().get()) as u64;
        Ok(Run {
            states,
            cost,
            truncated,
            trace: Trace::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Simulator;
    use csp_graph::generators::{self, WeightDist};

    /// Floods one numbered token outward; replies when it terminates.
    struct Flood {
        seen: bool,
    }

    impl Process for Flood {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            if ctx.self_id() == NodeId::new(0) {
                self.seen = true;
                ctx.send_all(0);
            }
        }
        fn on_message(&mut self, _from: NodeId, hops: u32, ctx: &mut Context<'_, u32>) {
            if !self.seen {
                self.seen = true;
                ctx.send_all(hops + 1);
            }
        }
    }

    #[test]
    fn baseline_matches_flat_core_on_flood() {
        let g = generators::connected_gnp(12, 0.3, WeightDist::Uniform(1, 16), 42);
        for seed in 0..4 {
            let base = BaselineSimulator::new(&g)
                .delay(DelayModel::Uniform)
                .seed(seed)
                .record_trace(4096)
                .run(|_, _| Flood { seen: false })
                .unwrap();
            let flat = Simulator::new(&g)
                .delay(DelayModel::Uniform)
                .seed(seed)
                .record_trace(4096)
                .run(|_, _| Flood { seen: false })
                .unwrap();
            assert_eq!(base.cost, flat.cost, "cost diverged at seed {seed}");
            assert_eq!(
                base.trace.events(),
                flat.trace.events(),
                "trace diverged at seed {seed}"
            );
        }
    }
}
