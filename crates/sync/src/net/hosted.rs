//! The hosted-pulse step that α_w, β_w and γ_w share.
//!
//! A host's synchronizer decides *when* its vertex may run hosted pulse
//! `q`; [`Hosted`] decides what running it means, by the lock-step
//! [`SyncRunner`](csp_sim::sync::SyncRunner)'s rules (see
//! [`SyncProcess::on_pulse`]):
//!
//! * `on_pulse` runs at pulse 0, with a non-empty inbox, or at a due
//!   wake-up of a vertex that has not finished;
//! * the inbox is ordered by send pulse, then sender index — stably, so
//!   each channel stays FIFO — whatever order the asynchronous network
//!   delivered it in;
//! * every requested wake-up is kept until its pulse, not only the
//!   earliest pending one.

use csp_graph::NodeId;
use csp_sim::sync::{SyncContext, SyncProcess};
use csp_sim::{Context, CostClass};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;

/// One vertex's hosted protocol and what it is owed.
#[derive(Clone, Debug)]
pub(super) struct Hosted<P: SyncProcess> {
    pub(super) state: P,
    /// Hosted payloads per processing pulse, as `(send pulse, sender,
    /// message)` in arrival order.
    inbox: BTreeMap<u64, Vec<(u64, NodeId, P::Msg)>>,
    /// Pending wake-ups.
    wakes: BTreeSet<u64>,
    finished: bool,
}

impl<P: SyncProcess> Hosted<P> {
    pub(super) fn new(state: P) -> Self {
        Hosted {
            state,
            inbox: BTreeMap::new(),
            wakes: BTreeSet::new(),
            finished: false,
        }
    }

    /// Hosted payloads still buffered — none after a run with a sufficient
    /// pulse horizon.
    pub(super) fn undelivered(&self) -> usize {
        self.inbox.values().map(Vec::len).sum()
    }

    /// Runs hosted pulse `q` if the lock-step run would call the vertex
    /// then, and returns the sends it made.
    pub(super) fn pulse<M: Clone + Debug>(
        &mut self,
        q: u64,
        ctx: &Context<'_, M>,
    ) -> Vec<(NodeId, P::Msg)> {
        let mut arrived = self.inbox.remove(&q).unwrap_or_default();
        let woken = self.wakes.remove(&q) && !self.finished;
        if q != 0 && arrived.is_empty() && !woken {
            return Vec::new();
        }
        // Stable, so one channel's payloads keep their FIFO order.
        arrived.sort_by_key(|&(sent, from, _)| (sent, from));
        let inbox: Vec<(NodeId, P::Msg)> = arrived
            .into_iter()
            .map(|(_, from, msg)| (from, msg))
            .collect();
        let mut sctx = SyncContext::host(ctx.self_id(), q, ctx.graph());
        self.state.on_pulse(q, &inbox, &mut sctx);
        let out = sctx.drain();
        self.finished |= out.finished;
        self.wakes.extend(out.wake_at);
        out.sends
    }

    /// Acknowledges a hosted payload that `from` sent at its pulse `sent`
    /// with `ack`, and buffers it for processing pulse `proc`.
    pub(super) fn receive<M: Clone + Debug>(
        &mut self,
        from: NodeId,
        msg: P::Msg,
        sent: u64,
        proc: u64,
        ack: M,
        ctx: &mut Context<'_, M>,
    ) {
        ctx.send_class(from, ack, CostClass::Synchronizer);
        self.inbox.entry(proc).or_default().push((sent, from, msg));
    }
}
