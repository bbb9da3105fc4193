//! Cost-sensitive accounting.
//!
//! Every message send is metered: the *weighted communication complexity*
//! is the sum of `w(e)` over all transmissions (Section 1.3 of the paper),
//! and the *time complexity* is the completion time of the run. Messages
//! can additionally be tagged with a [`CostClass`] so that, e.g., a
//! synchronizer's control overhead can be reported separately from the
//! client protocol's own traffic.

use crate::time::SimTime;
use csp_graph::{Cost, EdgeId, Weight};
use std::fmt;

/// A coarse label distinguishing message categories in a [`CostReport`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum CostClass {
    /// The client protocol's own messages (the default).
    #[default]
    Protocol,
    /// Synchronizer pulses, safety reports and acknowledgments.
    Synchronizer,
    /// Controller requests and permits.
    Controller,
    /// Anything else (wake-up floods, estimates, bookkeeping).
    Auxiliary,
}

impl CostClass {
    /// All classes, in report order.
    pub const ALL: [CostClass; 4] = [
        CostClass::Protocol,
        CostClass::Synchronizer,
        CostClass::Controller,
        CostClass::Auxiliary,
    ];

    #[inline]
    pub(crate) fn index(self) -> usize {
        match self {
            CostClass::Protocol => 0,
            CostClass::Synchronizer => 1,
            CostClass::Controller => 2,
            CostClass::Auxiliary => 3,
        }
    }
}

impl fmt::Display for CostClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CostClass::Protocol => "protocol",
            CostClass::Synchronizer => "synchronizer",
            CostClass::Controller => "controller",
            CostClass::Auxiliary => "auxiliary",
        };
        f.write_str(name)
    }
}

/// Aggregate cost of a protocol run.
///
/// Equality compares the *metered* quantities — messages, weighted
/// communication, completion, per-class/per-edge breakdowns, fault
/// meters and the workload's [`bucket_window`](CostReport::bucket_window).
/// The scheduler statistic
/// [`overflow_pushes`](CostReport::overflow_pushes) is excluded: it
/// describes which executor ran the workload (heap cores and the
/// baseline structurally report zero; bucket cores count window
/// spills, e.g. from retransmission timers armed past `W`), so
/// including it would break the cross-core differential contract that
/// identical runs produce equal reports.
#[derive(Clone, Debug, Default)]
pub struct CostReport {
    /// Total number of messages sent.
    pub messages: u64,
    /// Weighted communication complexity: `Σ w(e)` over all sends.
    pub weighted_comm: Cost,
    /// Completion time (time of the last delivered event).
    pub completion: SimTime,
    /// Completion time per [`CostClass`]: when the last message of each
    /// class was delivered (`ZERO` for classes that delivered nothing).
    /// Separates, e.g., the instant a protocol's own traffic settled
    /// after a churn event from the tail of a detector's heartbeat
    /// schedule — the quantity the post-heal reconvergence verifier
    /// bounds. Maintained by the asynchronous executors; the
    /// synchronous runner reports zeros.
    pub completion_by_class: [SimTime; 4],
    /// Message counts per [`CostClass`].
    pub messages_by_class: [u64; 4],
    /// Weighted communication per [`CostClass`].
    pub comm_by_class: [Cost; 4],
    /// Per-edge message counts (both directions combined), indexed by
    /// [`EdgeId`].
    pub per_edge_messages: Vec<u64>,
    /// Messages the adversary dropped: metered (the sender paid) and
    /// counted in [`CostReport::messages`], but never delivered.
    pub drops: u64,
    /// Vertices with a toggle chain in the adversary's
    /// [`FaultPlan`](crate::FaultPlan), whether or not the run lasted
    /// long enough to reach their first crash.
    pub crashed_nodes: u64,
    /// Events (deliveries and timer fires) silently consumed by a
    /// crashed vertex — traffic paid for but lost to a dead receiver.
    pub dead_events: u64,
    /// Rejoins in the adversary's [`FaultPlan`](crate::FaultPlan):
    /// vertices restarting with fresh protocol state, counted whether or
    /// not the run lasted long enough to reach them.
    pub recoveries: u64,
    /// Mid-run edge-weight revisions in the adversary's
    /// [`FaultPlan`](crate::FaultPlan).
    pub weight_revisions: u64,
    /// Scheduling-queue pushes that landed beyond the bucket core's
    /// window and fell back to the overflow heap
    /// ([`BucketQueue::overflow_pushes`](crate::queue::BucketQueue::overflow_pushes)).
    /// Zero on the heap core and the baseline (they have no window), and
    /// zero on the bucket core whenever the workload's maximum delay
    /// fits the auto-sized window — so any non-zero value flags the
    /// slow-path fallback without consumers reaching into the queue.
    /// A checkpoint carries the capturing core's count and a resume
    /// counts only the pushes after it (rebuilding the queue counts
    /// none), so a same-kind resume reports exactly what the cold run
    /// does; across kinds the two cores' counts mix, so only the
    /// zero/non-zero signal is portable there.
    /// Timer pushes share the queue, so timeouts armed beyond `W`
    /// (retransmission backoff, failure-detector horizons) can overflow
    /// even when message delays fit — which is why this field does
    /// **not** participate in [`CostReport`] equality.
    pub overflow_pushes: u64,
    /// The bucket window (bucket count) the workload sizes to:
    /// [`BucketQueue::capacity_for`](crate::queue::BucketQueue::capacity_for)
    /// of the graph's maximum weight. A property of the workload, not of
    /// the core that ran it — every executor reports the same value, so
    /// cross-core differential equality is preserved. Together with
    /// [`CostReport::overflow_pushes`] this tells a consumer how close
    /// the run sat to the window cap.
    pub bucket_window: u64,
}

// Manual `PartialEq`: every metered field except `overflow_pushes`
// (see the struct docs for why the scheduler statistic is excluded).
impl PartialEq for CostReport {
    fn eq(&self, other: &Self) -> bool {
        self.messages == other.messages
            && self.weighted_comm == other.weighted_comm
            && self.completion == other.completion
            && self.completion_by_class == other.completion_by_class
            && self.messages_by_class == other.messages_by_class
            && self.comm_by_class == other.comm_by_class
            && self.per_edge_messages == other.per_edge_messages
            && self.drops == other.drops
            && self.crashed_nodes == other.crashed_nodes
            && self.dead_events == other.dead_events
            && self.recoveries == other.recoveries
            && self.weight_revisions == other.weight_revisions
            && self.bucket_window == other.bucket_window
    }
}

impl Eq for CostReport {}

impl CostReport {
    /// Creates an empty report for a graph with `m` edges.
    pub fn new(m: usize) -> Self {
        CostReport {
            per_edge_messages: vec![0; m],
            ..CostReport::default()
        }
    }

    /// Zeroes every meter in place for a graph with `m` edges, keeping
    /// the per-edge buffer's allocation (pooled-evaluation reuse).
    pub fn reset(&mut self, m: usize) {
        self.messages = 0;
        self.weighted_comm = Cost::default();
        self.completion = SimTime::ZERO;
        self.completion_by_class = [SimTime::ZERO; 4];
        self.messages_by_class = [0; 4];
        self.comm_by_class = [Cost::default(); 4];
        self.per_edge_messages.clear();
        self.per_edge_messages.resize(m, 0);
        self.drops = 0;
        self.crashed_nodes = 0;
        self.dead_events = 0;
        self.recoveries = 0;
        self.weight_revisions = 0;
        self.overflow_pushes = 0;
        self.bucket_window = 0;
    }

    /// Meters one send of weight `w` on edge `e` under `class`.
    pub fn record_send(&mut self, e: EdgeId, w: Weight, class: CostClass) {
        self.messages += 1;
        self.weighted_comm += w;
        self.messages_by_class[class.index()] += 1;
        self.comm_by_class[class.index()] += w.to_cost();
        self.per_edge_messages[e.index()] += 1;
    }

    /// Weighted communication attributed to one class.
    pub fn comm_of(&self, class: CostClass) -> Cost {
        self.comm_by_class[class.index()]
    }

    /// Message count attributed to one class.
    pub fn messages_of(&self, class: CostClass) -> u64 {
        self.messages_by_class[class.index()]
    }

    /// Delivery time of the last message of one class (`ZERO` if the
    /// class delivered nothing).
    pub fn completion_of(&self, class: CostClass) -> SimTime {
        self.completion_by_class[class.index()]
    }

    /// Meters one delivery at `now` under `class`: advances the run's
    /// completion time and the class's own.
    pub fn record_delivery(&mut self, now: SimTime, class: CostClass) {
        self.completion = self.completion.max(now);
        let slot = &mut self.completion_by_class[class.index()];
        *slot = (*slot).max(now);
    }

    /// Sequential composition: appends `next`, a run on the same edges
    /// that started when this one completed. Counts and communication
    /// add; every completion time — the run's and each class's that
    /// delivered anything in `next` — is offset by this report's
    /// completion.
    pub fn then(&mut self, next: &CostReport) {
        debug_assert_eq!(
            self.per_edge_messages.len(),
            next.per_edge_messages.len(),
            "composed runs must share the edge set"
        );
        let prefix = self.completion.get();
        self.messages += next.messages;
        self.weighted_comm += next.weighted_comm;
        self.completion = SimTime::new(prefix + next.completion.get());
        for class in CostClass::ALL {
            let i = class.index();
            self.messages_by_class[i] += next.messages_by_class[i];
            self.comm_by_class[i] += next.comm_by_class[i];
            if next.completion_by_class[i] > SimTime::ZERO {
                self.completion_by_class[i] =
                    SimTime::new(prefix + next.completion_by_class[i].get());
            }
        }
        for (a, b) in self
            .per_edge_messages
            .iter_mut()
            .zip(&next.per_edge_messages)
        {
            *a += b;
        }
        self.drops += next.drops;
        self.crashed_nodes += next.crashed_nodes;
        self.dead_events += next.dead_events;
        self.recoveries += next.recoveries;
        self.weight_revisions += next.weight_revisions;
        self.overflow_pushes += next.overflow_pushes;
        self.bucket_window = self.bucket_window.max(next.bucket_window);
    }

    /// The maximum number of messages any single edge carried
    /// (a congestion measure).
    pub fn max_edge_congestion(&self) -> u64 {
        self.per_edge_messages.iter().copied().max().unwrap_or(0)
    }

    /// Whether the adversary injected any fault this run (drops, crashes
    /// or crash-consumed events).
    pub fn has_faults(&self) -> bool {
        self.drops > 0 || self.crashed_nodes > 0 || self.dead_events > 0
    }

    /// Whether the adversary churned the network beyond crash-stop:
    /// rejoins or mid-run weight revisions.
    pub fn has_churn(&self) -> bool {
        self.recoveries > 0 || self.weight_revisions > 0
    }
}

impl fmt::Display for CostReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "msgs={} comm={} time={}",
            self.messages, self.weighted_comm, self.completion
        )?;
        // Fault meters only appear when an adversary actually injected
        // faults, so fault-free reports keep the historical format.
        if self.has_faults() {
            write!(
                f,
                " drops={} crashes={} dead={}",
                self.drops, self.crashed_nodes, self.dead_events
            )?;
        }
        // Likewise the churn meters: crash-stop reports keep the
        // fault-meter format above byte for byte.
        if self.has_churn() {
            write!(
                f,
                " recoveries={} drifts={}",
                self.recoveries, self.weight_revisions
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut r = CostReport::new(3);
        r.record_send(EdgeId::new(0), Weight::new(4), CostClass::Protocol);
        r.record_send(EdgeId::new(0), Weight::new(4), CostClass::Synchronizer);
        r.record_send(EdgeId::new(2), Weight::new(1), CostClass::Protocol);
        assert_eq!(r.messages, 3);
        assert_eq!(r.weighted_comm, Cost::new(9));
        assert_eq!(r.comm_of(CostClass::Protocol), Cost::new(5));
        assert_eq!(r.comm_of(CostClass::Synchronizer), Cost::new(4));
        assert_eq!(r.messages_of(CostClass::Controller), 0);
        assert_eq!(r.per_edge_messages, vec![2, 0, 1]);
        assert_eq!(r.max_edge_congestion(), 2);
    }

    #[test]
    fn sequential_composition_offsets_every_completion() {
        let mut first = CostReport::new(2);
        first.record_send(EdgeId::new(0), Weight::new(3), CostClass::Protocol);
        first.record_delivery(SimTime::new(3), CostClass::Protocol);
        let mut second = CostReport::new(2);
        second.record_send(EdgeId::new(1), Weight::new(2), CostClass::Auxiliary);
        second.record_send(EdgeId::new(0), Weight::new(3), CostClass::Protocol);
        second.record_delivery(SimTime::new(2), CostClass::Auxiliary);
        second.record_delivery(SimTime::new(5), CostClass::Protocol);
        first.then(&second);
        assert_eq!(first.messages, 3);
        assert_eq!(first.weighted_comm, Cost::new(8));
        assert_eq!(first.completion, SimTime::new(8));
        assert_eq!(first.completion_of(CostClass::Protocol), SimTime::new(8));
        assert_eq!(first.completion_of(CostClass::Auxiliary), SimTime::new(5));
        assert_eq!(first.completion_of(CostClass::Synchronizer), SimTime::ZERO);
        assert_eq!(first.comm_of(CostClass::Auxiliary), Cost::new(2));
        assert_eq!(first.per_edge_messages, vec![2, 1]);
    }

    #[test]
    fn classes_cover_indices() {
        for (i, c) in CostClass::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn display() {
        let mut r = CostReport::new(1);
        r.record_send(EdgeId::new(0), Weight::new(2), CostClass::Protocol);
        r.completion = SimTime::new(5);
        assert_eq!(r.to_string(), "msgs=1 comm=2 time=t=5");
    }

    #[test]
    fn display_surfaces_fault_meters() {
        let mut r = CostReport::new(1);
        r.record_send(EdgeId::new(0), Weight::new(2), CostClass::Protocol);
        r.completion = SimTime::new(5);
        r.drops = 3;
        r.crashed_nodes = 1;
        r.dead_events = 2;
        assert!(r.has_faults());
        assert_eq!(
            r.to_string(),
            "msgs=1 comm=2 time=t=5 drops=3 crashes=1 dead=2"
        );
    }

    #[test]
    fn display_surfaces_churn_meters() {
        let mut r = CostReport::new(1);
        r.record_send(EdgeId::new(0), Weight::new(2), CostClass::Protocol);
        r.completion = SimTime::new(5);
        r.crashed_nodes = 2;
        r.dead_events = 1;
        r.recoveries = 2;
        r.weight_revisions = 3;
        assert!(r.has_churn());
        assert_eq!(
            r.to_string(),
            "msgs=1 comm=2 time=t=5 drops=0 crashes=2 dead=1 recoveries=2 drifts=3"
        );
        // Churn meters participate in equality and survive clone_from.
        let mut copy = CostReport::new(0);
        copy.clone_from(&r);
        assert_eq!(copy, r);
        copy.recoveries = 0;
        assert_ne!(copy, r);
        r.reset(1);
        assert!(!r.has_churn());
    }

    #[test]
    fn equality_ignores_overflow_pushes_but_not_window() {
        let mut a = CostReport::new(1);
        let mut b = a.clone();
        a.overflow_pushes = 40;
        assert_eq!(a, b, "scheduler statistic must not break equality");
        b.bucket_window = 128;
        assert_ne!(a, b, "the window is a workload property");
    }

    #[test]
    fn reset_clears_fault_meters() {
        let mut r = CostReport::new(2);
        r.drops = 5;
        r.crashed_nodes = 2;
        r.dead_events = 7;
        r.reset(2);
        assert!(!r.has_faults());
        let mut copy = CostReport::new(0);
        r.drops = 1;
        copy.clone_from(&r);
        assert_eq!(copy, r);
    }
}
