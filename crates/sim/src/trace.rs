//! What a run says about itself: the [`Observer`] stream and the
//! delivery [`Trace`] built on it.
//!
//! Every executor reports the same two events, in the same order, to
//! one [`Observer`]: each message as it is dispatched (with its
//! effective delay and arrival) and each delivery as its handler runs.
//! `()` is the observer that listens to nothing, so an unobserved run
//! compiles the calls away. Records of a run are consumers of this
//! stream: the delivery [`Trace`] that
//! [`Simulator::record_trace`](crate::Simulator::record_trace) installs,
//! `csp-adversary`'s dispatch trace, the differential suites' logs.

use crate::cost::CostClass;
use crate::delay::MsgInfo;
use crate::time::SimTime;
use csp_graph::{EdgeId, NodeId};
use std::fmt;
use std::sync::Arc;

/// Listens to a run. Both methods default to doing nothing; the runtime
/// ignores anything an observer does.
///
/// Pass one to an executor's observing entry
/// ([`Simulator::execute`](crate::Simulator::execute), fresh or resumed,
/// [`BaselineSimulator::run_observed`](crate::BaselineSimulator::run_observed),
/// [`ShardedSimulator::run_observed`](crate::ShardedSimulator::run_observed)):
/// all three report an identical stream for the same run, and a run
/// resumed from a checkpoint reports the cold run's stream from the
/// checkpoint on.
pub trait Observer {
    /// A message was handed to the network: `delay` is the oracle's
    /// decision clamped into `[1, w(e)]`, `arrival` is when the delivery
    /// fires — `sent + delay` raised to the channel's FIFO floor.
    /// Called in dispatch order; dropped messages are never reported
    /// (they have no arrival).
    #[inline]
    fn dispatched(&mut self, msg: &MsgInfo, delay: u64, arrival: SimTime) {
        let _ = (msg, delay, arrival);
    }

    /// A message reached a live receiver, just before its handler runs.
    /// Called in delivery order.
    #[inline]
    fn delivered(&mut self, event: &TraceEvent) {
        let _ = event;
    }
}

/// The observer that listens to nothing.
impl Observer for () {}

impl<B: Observer + ?Sized> Observer for &mut B {
    #[inline]
    fn dispatched(&mut self, msg: &MsgInfo, delay: u64, arrival: SimTime) {
        (**self).dispatched(msg, delay, arrival);
    }

    #[inline]
    fn delivered(&mut self, event: &TraceEvent) {
        (**self).delivered(event);
    }
}

/// One delivered message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// Sending vertex.
    pub from: NodeId,
    /// Receiving vertex.
    pub to: NodeId,
    /// The edge crossed.
    pub edge: EdgeId,
    /// When the message was sent.
    pub sent: SimTime,
    /// When it was delivered.
    pub delivered: SimTime,
    /// Cost class of the message.
    pub class: CostClass,
}

impl TraceEvent {
    /// The message's in-flight duration.
    pub fn latency(&self) -> u64 {
        self.delivered.since(self.sent)
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}→{} on {} [{}] sent {} delivered {}",
            self.from, self.to, self.edge, self.class, self.sent, self.delivered
        )
    }
}

/// A recorded message trace: the first `cap` deliveries of a run, as an
/// [`Observer`].
#[derive(Clone, Debug, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    /// Number of events dropped once the cap was reached.
    dropped: u64,
    /// Zero turns the trace off.
    pub(crate) cap: usize,
}

impl Observer for Trace {
    #[inline]
    fn delivered(&mut self, event: &TraceEvent) {
        self.push(*event);
    }
}

impl Trace {
    pub(crate) fn new(cap: usize) -> Self {
        Trace {
            cap,
            ..Trace::default()
        }
    }

    /// Keeps `event` while under the cap and counts it dropped after. A
    /// zero-cap trace is off: it records nothing and counts nothing.
    pub(crate) fn push(&mut self, event: TraceEvent) {
        if self.events.len() < self.cap {
            self.events.push(event);
        } else if self.cap > 0 {
            self.dropped += 1;
        }
    }

    /// The recorded events, in delivery order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events dropped after the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// All deliveries into `v`, in order.
    pub fn deliveries_to(&self, v: NodeId) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.events.iter().filter(move |e| e.to == v)
    }

    /// Checks per-directed-edge FIFO: for each `(from, to)` pair,
    /// delivery order must follow send order.
    pub fn is_fifo(&self) -> bool {
        use std::collections::HashMap;
        let mut last_sent: HashMap<(NodeId, NodeId), SimTime> = HashMap::new();
        for e in &self.events {
            let key = (e.from, e.to);
            if let Some(&prev) = last_sent.get(&key) {
                if e.sent < prev {
                    return false;
                }
            }
            last_sent.insert(key, e.sent);
        }
        true
    }
}

/// A [`Trace`] at a checkpoint. The trace only grows, so one run's
/// snapshots form a persistent list: each adds one chunk, the deliveries
/// since the snapshot before it, and shares every older chunk.
#[derive(Clone, Debug, Default)]
pub(crate) struct TraceSnapshot {
    newest: Option<Arc<TraceChunk>>,
    len: usize,
    dropped: u64,
    cap: usize,
}

#[derive(Debug)]
struct TraceChunk {
    events: Box<[TraceEvent]>,
    older: Option<Arc<TraceChunk>>,
}

// A long run's list is thousands of chunks deep: unlink it iteratively
// rather than dropping one chunk inside another.
impl Drop for TraceChunk {
    fn drop(&mut self) {
        let mut older = self.older.take();
        while let Some(chunk) = older {
            older = Arc::try_unwrap(chunk).ok().and_then(|mut c| c.older.take());
        }
    }
}

impl TraceSnapshot {
    /// Snapshots `trace`, sharing with `prev` — the same run's last
    /// snapshot — every delivery it already holds.
    pub(crate) fn capture(trace: &Trace, prev: Option<&TraceSnapshot>) -> Self {
        let prev = prev.cloned().unwrap_or_default();
        let fresh = &trace.events[prev.len..];
        let newest = if fresh.is_empty() {
            prev.newest
        } else {
            Some(Arc::new(TraceChunk {
                events: fresh.into(),
                older: prev.newest,
            }))
        };
        TraceSnapshot {
            newest,
            len: trace.events.len(),
            dropped: trace.dropped,
            cap: trace.cap,
        }
    }

    /// The trace as it stood at the snapshot.
    pub(crate) fn to_trace(&self) -> Trace {
        let mut chunks = Vec::new();
        let mut at = self.newest.as_deref();
        while let Some(chunk) = at {
            chunks.push(&chunk.events);
            at = chunk.older.as_deref();
        }
        let mut events = Vec::with_capacity(self.len);
        for chunk in chunks.iter().rev() {
            events.extend_from_slice(chunk);
        }
        Trace {
            events,
            dropped: self.dropped,
            cap: self.cap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(from: usize, to: usize, sent: u64, delivered: u64) -> TraceEvent {
        TraceEvent {
            from: NodeId::new(from),
            to: NodeId::new(to),
            edge: EdgeId::new(0),
            sent: SimTime::new(sent),
            delivered: SimTime::new(delivered),
            class: CostClass::Protocol,
        }
    }

    #[test]
    fn latency_and_display() {
        let e = ev(0, 1, 3, 8);
        assert_eq!(e.latency(), 5);
        assert!(e.to_string().contains("v0→v1"));
    }

    #[test]
    fn cap_drops_excess() {
        let mut t = Trace::new(2);
        for i in 0..5 {
            t.push(ev(0, 1, i, i + 1));
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn fifo_check() {
        let mut t = Trace::new(10);
        t.push(ev(0, 1, 0, 5));
        t.push(ev(0, 1, 2, 6));
        assert!(t.is_fifo());
        let mut bad = Trace::new(10);
        bad.push(ev(0, 1, 4, 5));
        bad.push(ev(0, 1, 2, 6)); // delivered after, but sent before
        assert!(!bad.is_fifo());
    }

    #[test]
    fn deliveries_filter() {
        let mut t = Trace::new(10);
        t.push(ev(0, 1, 0, 1));
        t.push(ev(0, 2, 0, 1));
        t.push(ev(2, 1, 1, 2));
        assert_eq!(t.deliveries_to(NodeId::new(1)).count(), 2);
    }
}
