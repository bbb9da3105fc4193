//! The event-driven asynchronous runtime.
//!
//! # Event-core layout
//!
//! The hot loop is allocation-free in steady state:
//!
//! * **The queue owns the event.** A pending delivery, timer or rejoin
//!   is stored *in* its scheduling-queue entry, `(arrival, seq, event)`
//!   — no payload table beside the queue, no slot to look up. `seq`
//!   preserves global send order, so delivery order is identical to the
//!   reference implementation in [`crate::baseline`]. A pop is two
//!   dependent loads (bucket head, then the entry with its payload)
//!   before the handler's own state; see EXPERIMENTS.md, "Naming the
//!   memory cliff".
//! * The scheduling queue is a [`BucketQueue`] by default: arrivals are
//!   monotone and within `max_weight` of the clock, so an integer-keyed
//!   bucket ladder gives O(1) amortized push/pop (see [`crate::queue`]
//!   for the invariants and the chunk arena). The retained `BinaryHeap`
//!   core stays selectable via [`Simulator::core`] as the differential
//!   reference.
//! * Per-directed-edge **FIFO floors** live in a flat `Vec<SimTime>` of
//!   length `2·m`, indexed by `2·edge + direction` — no hashing, and no
//!   `n²` table — beside the meters, in the kernel's ledger.
//! * The handler outbox buffers are drained by the send step and
//!   recycled through [`Context`](crate::Context), so a warm run
//!   performs zero allocations per delivered event.
//!
//! The communication budget ([`Simulator::comm_limit`]) is enforced at
//! *dispatch* time: the send that first pushes the metered cost past the
//! budget is the last one accepted, so the overshoot is bounded by a
//! single message weight.
//!
//! # Faults and timers
//!
//! What a send costs, when it arrives, who is alive to receive it and
//! what a popped event does are all decided in the crate's dispatch
//! kernel (`kernel.rs`, shared with [`crate::shard`]); this module owns
//! the queue those decisions are scheduled on and the run loop that
//! pops it. The dispatch hook is a [`LinkOracle`]: besides
//! choosing delays it may [`Drop`](crate::LinkDecision::Drop) messages
//! (metered, index-consuming, but never enqueued) and, through its
//! [`FaultPlan`](crate::FaultPlan), crash and restart vertices and
//! revise edge weights mid-run. Local timers
//! ([`Context::set_timer`](crate::Context::set_timer) /
//! [`Process::on_timer`]) share the event queue and its deterministic
//! `(time, seq)` order but are free: they meter no communication and a
//! timer fire by itself never advances the run's completion time, which
//! remains the time of the last delivered message.
//!
//! # One entry
//!
//! Every run starts in [`Simulator::execute`]`(start, pool, oracle,
//! observer, capture)`, the one place a run's machine is booted or
//! restored:
//!
//! * `start` is a factory (a fresh boot) or a [`Checkpoint`] (a resumed
//!   run) — see [`Start`]. A resumed run is bit-identical to a cold run
//!   whose oracle agrees on every message index at or above the
//!   checkpoint — the property the adversary's prefix-sharing
//!   hill-climb exploits, pinned by `tests/flat_core_differential.rs`.
//! * `pool` ([`EvalPool`]) retains every buffer (queue arena, floors,
//!   states, outboxes, trace) between runs; the run's final state stays
//!   in it and only an [`EvalSummary`] comes back.
//! * `observer` hears the run's [`Observer`] stream, resumed or not.
//! * `capture` is [`NoCapture`] or [`CaptureEvery`], which snapshots the
//!   complete state every time the metered message count crosses a mark.
//!   A run's checkpoints are persistent: each shares with the one before
//!   it every vertex and edge page no event wrote in between and every
//!   queue push still pending, and copies only the rest — so their
//!   memory grows with what changed, not with snapshots × machine size.
//!   The queue is kept as its pushes plus a frontier key and rebuilt on
//!   restore, the same way on both core kinds.
//!
//! [`Simulator::run`], [`Simulator::run_with_oracle`],
//! [`Simulator::run_with_checkpoints`], [`Simulator::eval`] and
//! [`Simulator::eval_resume`] are shorthands for common calls.

use crate::cost::CostReport;
use crate::delay::{DelayModel, LinkOracle, ModelOracle, MsgInfo};
use crate::kernel::{Event, Kernel, KernelSnapshot, Sink, Writes};
use crate::process::Process;
use crate::queue::{BucketQueue, HeapQueue, QueueEntry};
use crate::time::SimTime;
use crate::trace::{Observer, Trace, TraceEvent, TraceSnapshot};
use csp_graph::{Cost, NodeId, WeightedGraph};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Errors terminating a simulation abnormally.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimError {
    /// The event budget was exhausted — the protocol is probably not
    /// terminating (or the budget was set too low for the workload).
    EventLimitExceeded {
        /// The configured limit.
        limit: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SimError::EventLimitExceeded { limit } => {
                write!(
                    f,
                    "event limit of {limit} exceeded; protocol may not terminate"
                )
            }
        }
    }
}

impl Error for SimError {}

/// The outcome of a completed (quiescent) run.
#[derive(Debug)]
pub struct Run<P> {
    /// Final per-vertex protocol states, indexed by vertex.
    pub states: Vec<P>,
    /// Metered costs of the whole run.
    pub cost: CostReport,
    /// Whether the run was cut short by [`Simulator::comm_limit`] —
    /// remaining messages were dropped undelivered.
    pub truncated: bool,
    /// Delivery trace: empty unless [`Simulator::record_trace`] was set
    /// for a fresh run, or the checkpoint a resumed run started from
    /// carried one.
    pub trace: Trace,
}

/// Which scheduling-queue implementation drives the event core.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CoreKind {
    /// The integer-keyed bucket ladder ([`BucketQueue`]) — the default
    /// and the fast path.
    #[default]
    Bucket,
    /// The retained `BinaryHeap` core ([`HeapQueue`]) — the reference
    /// implementation the bucket core is differentially tested against.
    Heap,
}

/// The scheduling queue behind [`EventCore`], dispatched by [`CoreKind`].
/// Shared with the sharded runtime ([`crate::shard`]), whose per-shard
/// cores need the same kind dispatch.
#[derive(Debug)]
pub(crate) enum Queue<M> {
    Bucket(BucketQueue<Event<M>>),
    Heap(HeapQueue<Event<M>>),
}

impl<M> Queue<M> {
    fn new(kind: CoreKind, max_delay: u64) -> Self {
        match kind {
            CoreKind::Bucket => Queue::Bucket(BucketQueue::new(max_delay)),
            CoreKind::Heap => Queue::Heap(HeapQueue::new()),
        }
    }

    /// Earliest scheduled time without popping — `None` when empty.
    #[inline]
    pub(crate) fn next_time(&mut self) -> Option<u64> {
        match self {
            Queue::Bucket(q) => q.next_time(),
            Queue::Heap(q) => q.next_time(),
        }
    }

    /// Pushes that fell back to the overflow heap — zero on the heap
    /// core, which has no window to overflow.
    pub(crate) fn overflow_pushes(&self) -> u64 {
        match self {
            Queue::Bucket(q) => q.overflow_pushes(),
            Queue::Heap(_) => 0,
        }
    }

    /// The `(time, seq)` key of the next pop, without popping.
    fn peek(&self) -> Option<(u64, u64)> {
        match self {
            Queue::Bucket(q) => q.peek(),
            Queue::Heap(q) => q.peek(),
        }
    }

    /// Visits every pending entry pushed as number `seq` or later.
    fn pending_since(&self, seq: u64, visit: impl FnMut(&QueueEntry<Event<M>>)) {
        match self {
            Queue::Bucket(q) => q.pending_since(seq, visit),
            Queue::Heap(q) => q.pending_since(seq, visit),
        }
    }
}

/// The event core: the scheduling queue, which holds the events
/// themselves, and the counter that numbers them.
///
/// See the [module docs](self) for the layout rationale.
#[derive(Debug)]
pub(crate) struct EventCore<M> {
    /// Min-queue of `(arrival, seq, event)`. `seq` is globally unique so
    /// ties at equal arrival break in send order, exactly like the
    /// baseline's `(arrival, seq)` key.
    pub(crate) queue: Queue<M>,
    /// Sequence number the next [`Sink::push`] takes.
    pub(crate) seq: u64,
}

impl<M> EventCore<M> {
    pub(crate) fn new(kind: CoreKind, max_delay: u64) -> Self {
        EventCore {
            queue: Queue::new(kind, max_delay),
            seq: 0,
        }
    }

    /// Rewinds the core to a fresh state for `max_delay`, keeping every
    /// allocation that still fits (the pooled-evaluation path). A kind
    /// change or an undersized bucket window rebuilds just the queue.
    fn reset(&mut self, kind: CoreKind, max_delay: u64) {
        self.ensure_queue(kind, max_delay);
        match &mut self.queue {
            Queue::Bucket(q) => q.clear(),
            Queue::Heap(q) => q.clear(),
        }
        self.seq = 0;
    }

    /// Makes the queue's kind and window match `kind`/`max_delay`,
    /// rebuilding only on mismatch — the contents are untouched
    /// otherwise, so callers that immediately `restore` (which clears
    /// first) skip a redundant wipe.
    fn ensure_queue(&mut self, kind: CoreKind, max_delay: u64) {
        match (&mut self.queue, kind) {
            (Queue::Bucket(q), CoreKind::Bucket)
                if q.capacity() >= BucketQueue::capacity_for(max_delay) => {}
            (Queue::Heap(_), CoreKind::Heap) => {}
            (queue, kind) => *queue = Queue::new(kind, max_delay),
        }
    }

    /// Schedules `event` under an externally assigned `seq` — the
    /// sharded runtime numbers pushes on its leader.
    #[inline]
    pub(crate) fn push_seq(&mut self, at: SimTime, seq: u64, event: Event<M>) {
        match &mut self.queue {
            Queue::Bucket(q) => q.push(at.get(), seq, event),
            Queue::Heap(q) => q.push(at.get(), seq, event),
        }
    }

    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(SimTime, u64, Event<M>)> {
        let (now, seq, event) = match &mut self.queue {
            Queue::Bucket(q) => q.pop(),
            Queue::Heap(q) => q.pop(),
        }?;
        Some((SimTime::new(now), seq, event))
    }
}

impl<M> Sink<M> for EventCore<M> {
    #[inline]
    fn push(&mut self, at: SimTime, event: Event<M>) {
        self.push_seq(at, self.seq, event);
        self.seq += 1;
    }
}

/// The `(time, seq)` key a queue entry pops by.
type Key = (u64, u64);

/// A run of pushes in seq order, with its greatest key.
type Segment<M> = (Key, Arc<[QueueEntry<Event<M>>]>);

/// An [`EventCore`] at a checkpoint, as push segments plus a frontier.
///
/// Entries leave the queue only by pop, in key order, and every push
/// lands after the last popped key. So the pending set at any instant
/// is exactly "every entry pushed so far whose key is at or above the
/// least pending key", the frontier: a snapshot stores pushes, not the
/// queue. Each capture adds one segment — the entries pushed since the
/// run's previous capture that are still pending, in seq order — and
/// keeps, shared by [`Arc`], every earlier segment that still holds a
/// pending entry.
#[derive(Debug)]
struct QueueSnapshot<M> {
    /// The least pending key; `None` when nothing is pending.
    frontier: Option<Key>,
    /// In seq order.
    segments: Vec<Segment<M>>,
    seq: u64,
    /// The capturing queue's [`Queue::overflow_pushes`].
    overflow_pushes: u64,
}

// Hand-written: a derived `Clone` would ask for `M: Clone`, and the
// segments are shared, not copied.
impl<M> Clone for QueueSnapshot<M> {
    fn clone(&self) -> Self {
        QueueSnapshot {
            segments: self.segments.clone(),
            ..*self
        }
    }
}

impl<M: Clone> EventCore<M> {
    /// Snapshots the core, sharing with `prev` — the same run's last
    /// snapshot — its segments that still hold a pending entry.
    fn snapshot(&self, prev: Option<&QueueSnapshot<M>>) -> QueueSnapshot<M> {
        let frontier = self.queue.peek();
        let still_pending = |(last, _): &&Segment<M>| frontier.is_some_and(|f| *last >= f);
        let mut segments: Vec<_> = prev.map_or_else(Vec::new, |p| {
            p.segments.iter().filter(still_pending).cloned().collect()
        });
        // The new pushes hold distinct seqs in `since..seq`: placing each
        // at its offset puts them in seq order without a sort.
        let since = prev.map_or(0, |p| p.seq);
        let mut by_seq = vec![None; (self.seq - since) as usize];
        let (mut count, mut last) = (0, (0, 0));
        self.queue.pending_since(since, |e| {
            by_seq[(e.1 - since) as usize] = Some(e.clone());
            count += 1;
            last = last.max((e.0, e.1));
        });
        if count > 0 {
            let mut fresh = Vec::with_capacity(count);
            fresh.extend(by_seq.into_iter().flatten());
            segments.push((last, fresh.into()));
        }
        QueueSnapshot {
            frontier,
            segments,
            seq: self.seq,
            overflow_pushes: self.queue.overflow_pushes(),
        }
    }

    /// Overwrites the core with a snapshot: whatever the kind of either
    /// queue, the pending entries of every segment are pushed back in
    /// seq order onto a clock at the frontier, and the overflow meter is
    /// set to the captured count. Allocation-free on a warm queue.
    fn restore(&mut self, snap: &QueueSnapshot<M>) {
        let frontier = snap.frontier.unwrap_or_default();
        let pending = (snap.segments.iter())
            .flat_map(|(_, segment)| segment.iter())
            .filter(|e| (e.0, e.1) >= frontier)
            .cloned();
        match &mut self.queue {
            Queue::Bucket(q) => q.rebuild(frontier.0, pending, snap.overflow_pushes),
            Queue::Heap(q) => q.rebuild(pending),
        }
        self.seq = snap.seq;
    }
}

/// The complete mutable state of a run in flight: the executor-agnostic
/// [`Kernel`] plus the event core it schedules into. Retained across
/// runs inside an [`EvalPool`].
#[derive(Debug)]
struct Machine<P: Process> {
    kernel: Kernel<P>,
    core: EventCore<P::Msg>,
}

impl<P: Process> Machine<P> {
    fn new(kind: CoreKind, g: &WeightedGraph) -> Self {
        Machine {
            kernel: Kernel::new(g),
            core: EventCore::new(kind, g.max_weight().get()),
        }
    }
}

/// Public in a private module: nothing outside this crate can name
/// [`Execution`](sealed::Execution), so nothing there can implement
/// [`Start`] or [`Capture`], whose methods take one.
mod sealed {
    use super::{Checkpoint, SimError};
    use crate::process::Process;
    use csp_graph::{NodeId, WeightedGraph};

    /// One [`Simulator::execute`](super::Simulator::execute) call, as
    /// its [`Start`](super::Start) and [`Capture`](super::Capture) drive
    /// it: first `boot` or `restore`, then `run` or `capture`.
    pub trait Execution<P: Process> {
        /// Rewinds the machine and boots a fresh run from `make`.
        fn boot(&mut self, make: impl FnMut(NodeId, &WeightedGraph) -> P);

        /// Overwrites the machine with `cp`.
        fn restore(&mut self, cp: &Checkpoint<P>)
        where
            P: Clone;

        /// Runs to quiescence.
        fn run(&mut self) -> Result<(), SimError>;

        /// Runs to quiescence, appending a checkpoint to `out` each time
        /// the message count reaches the next mark, `every` past the
        /// last (or past the start).
        fn capture(&mut self, every: u64, out: &mut Vec<Checkpoint<P>>) -> Result<(), SimError>
        where
            P: Clone;
    }
}

use sealed::Execution;

/// Where [`Simulator::execute`] starts a run.
///
/// * A factory `make(v, graph)` boots a fresh run: every vertex's state,
///   then the oracle's fault plan, then every `on_start` at time zero.
/// * A `&`[`Checkpoint`] continues the run it was taken from, on any
///   core kind; see [`Checkpoint`] for when that is bit-identical to
///   the cold run.
/// * An [`Origin`] is either, picked at run time.
///
/// A closure passed directly needs its parameter types written out
/// (`|v: NodeId, g: &WeightedGraph| ...`): nothing here tells the
/// compiler it is a factory.
pub trait Start<P: Process> {
    /// Readies `run`'s machine.
    #[doc(hidden)]
    fn begin(self, run: &mut impl Execution<P>);
}

impl<P: Process, F: FnMut(NodeId, &WeightedGraph) -> P> Start<P> for F {
    fn begin(self, run: &mut impl Execution<P>) {
        run.boot(self);
    }
}

impl<P: Process + Clone> Start<P> for &Checkpoint<P> {
    fn begin(self, run: &mut impl Execution<P>) {
        run.restore(self);
    }
}

/// A [`Start`] picked at run time: a checkpoint when the caller has a
/// usable one, a fresh boot otherwise.
pub enum Origin<'c, P: Process, F> {
    /// Boots a fresh run from this factory.
    Fresh(F),
    /// Continues this checkpoint.
    Checkpoint(&'c Checkpoint<P>),
}

impl<P: Process + Clone, F: FnMut(NodeId, &WeightedGraph) -> P> Start<P> for Origin<'_, P, F> {
    fn begin(self, run: &mut impl Execution<P>) {
        match self {
            Origin::Fresh(make) => run.boot(make),
            Origin::Checkpoint(cp) => run.restore(cp),
        }
    }
}

/// Whether [`Simulator::execute`] snapshots its run: [`NoCapture`] or
/// [`CaptureEvery`]. The choice is a type, so an uncaptured run's loop
/// has no capture in it at all.
pub trait Capture<P: Process> {
    /// Runs `run` to quiescence.
    #[doc(hidden)]
    fn finish(self, run: &mut impl Execution<P>) -> Result<(), SimError>;
}

/// Takes no checkpoints.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoCapture;

impl<P: Process> Capture<P> for NoCapture {
    fn finish(self, run: &mut impl Execution<P>) -> Result<(), SimError> {
        run.run()
    }
}

/// Appends a [`Checkpoint`] to `.1` each time the metered message count
/// reaches the next mark. The first mark is `.0` messages past the
/// start — also checked right after the time-zero starts, which may
/// already reach it — and each capture sets the next `.0` past wherever
/// the count landed, so bursty dispatches never capture twice.
///
/// # Panics
///
/// A run panics if `.0` is zero.
#[derive(Debug)]
pub struct CaptureEvery<'a, P: Process>(pub u64, pub &'a mut Vec<Checkpoint<P>>);

impl<P: Process + Clone> Capture<P> for CaptureEvery<'_, P> {
    fn finish(self, run: &mut impl Execution<P>) -> Result<(), SimError> {
        run.capture(self.0, self.1)
    }
}

/// One [`Simulator::execute`] call: the only code that boots or
/// restores a machine.
struct Call<'r, 'g, P: Process, O: ?Sized, B: ?Sized> {
    sim: &'r Simulator<'g>,
    m: Machine<P>,
    trace: &'r mut Trace,
    oracle: &'r mut O,
    observer: &'r mut B,
    /// The message count the run starts from.
    from: u64,
}

impl<P, O, B> Execution<P> for Call<'_, '_, P, O, B>
where
    P: Process,
    O: LinkOracle + ?Sized,
    B: Observer + ?Sized,
{
    fn boot(&mut self, make: impl FnMut(NodeId, &WeightedGraph) -> P) {
        let (sim, g, m) = (self.sim, self.sim.graph, &mut self.m);
        m.kernel.reset(g);
        m.core.reset(sim.core, g.max_weight().get());
        *self.trace = Trace::new(sim.trace_cap);
        let (oracle, observer) = (&mut *self.oracle, &mut *self.observer);
        (m.kernel).boot(g, sim.comm_limit, oracle, observer, make, &mut m.core);
    }

    fn restore(&mut self, cp: &Checkpoint<P>)
    where
        P: Clone,
    {
        let (g, m) = (self.sim.graph, &mut self.m);
        debug_assert_eq!(cp.kernel.channels(), 2 * g.edge_count(), "wrong graph");
        // Restoring overwrites every field `boot` rewinds, and leaving
        // `states` populated lets `clone_from` reuse each element's own
        // buffers.
        m.core.ensure_queue(self.sim.core, g.max_weight().get());
        m.core.restore(&cp.queue);
        m.kernel.restore(&cp.kernel);
        *self.trace = cp.trace.to_trace();
        self.from = cp.messages();
    }

    fn run(&mut self) -> Result<(), SimError> {
        let (oracle, m, observer) = (&mut *self.oracle, &mut self.m, &mut *self.observer);
        if self.trace.cap == 0 {
            return self.sim.exec(oracle, m, observer);
        }
        let trace = &mut *self.trace;
        self.sim.exec(oracle, m, Recorded { observer, trace })
    }

    fn capture(&mut self, every: u64, out: &mut Vec<Checkpoint<P>>) -> Result<(), SimError>
    where
        P: Clone,
    {
        assert!(every > 0, "checkpoint interval must be non-zero");
        let (observer, trace) = (&mut *self.observer, &mut *self.trace);
        let mut capture = CheckpointCapture {
            every,
            next_at: self.from.saturating_add(every),
            first: out.len(),
            out,
            writes: Writes::new(self.sim.graph),
            inner: Recorded { observer, trace },
        };
        capture.take(&self.m);
        self.sim.exec(&mut *self.oracle, &mut self.m, capture)
    }
}

/// What the run loop reports to, taken by value: an [`Observer`], and —
/// for checkpoint capture only — a look at the whole machine after each
/// event that reached the handler of the vertex in `slot`. A `&mut`
/// observer is a hook that only observes.
trait Hook<P: Process>: Observer {
    #[inline]
    fn after_event(&mut self, _m: &Machine<P>, _slot: usize) {}
}

impl<P: Process, B: Observer + ?Sized> Hook<P> for &mut B {}

/// The caller's observer plus the run's delivery trace.
struct Recorded<'a, B: ?Sized> {
    observer: &'a mut B,
    trace: &'a mut Trace,
}

impl<B: Observer + ?Sized> Observer for Recorded<'_, B> {
    #[inline]
    fn dispatched(&mut self, msg: &MsgInfo, delay: u64, arrival: SimTime) {
        self.observer.dispatched(msg, delay, arrival);
    }

    #[inline]
    fn delivered(&mut self, event: &TraceEvent) {
        self.observer.delivered(event);
        self.trace.delivered(event);
    }
}

impl<P: Process, B: Observer + ?Sized> Hook<P> for Recorded<'_, B> {}

/// [`CaptureEvery`] at work: reports to the caller's observer and the
/// delivery trace, which every checkpoint carries, and between captures
/// marks what each event wrote, so a capture copies only that and shares
/// the rest with the run's previous checkpoint.
struct CheckpointCapture<'a, P: Process + Clone, B: ?Sized> {
    every: u64,
    next_at: u64,
    out: &'a mut Vec<Checkpoint<P>>,
    /// Where this run's checkpoints start in `out`.
    first: usize,
    writes: Writes,
    inner: Recorded<'a, B>,
}

impl<P: Process + Clone, B: Observer + ?Sized> CheckpointCapture<'_, P, B> {
    /// Captures if the message count reached the mark.
    fn take(&mut self, m: &Machine<P>) {
        let messages = m.kernel.ledger.cost.messages;
        if messages < self.next_at {
            return;
        }
        let prev = self.out[self.first..].last();
        let cp = Checkpoint {
            kernel: (m.kernel).snapshot(prev.map(|p| &p.kernel), &mut self.writes),
            queue: m.core.snapshot(prev.map(|p| &p.queue)),
            trace: TraceSnapshot::capture(self.inner.trace, prev.map(|p| &p.trace)),
        };
        self.out.push(cp);
        self.next_at = messages + self.every;
    }
}

impl<P: Process + Clone, B: Observer + ?Sized> Observer for CheckpointCapture<'_, P, B> {
    #[inline]
    fn dispatched(&mut self, msg: &MsgInfo, delay: u64, arrival: SimTime) {
        self.inner.dispatched(msg, delay, arrival);
    }

    #[inline]
    fn delivered(&mut self, event: &TraceEvent) {
        self.inner.delivered(event);
    }
}

impl<P: Process + Clone, B: Observer + ?Sized> Hook<P> for CheckpointCapture<'_, P, B> {
    fn after_event(&mut self, m: &Machine<P>, slot: usize) {
        self.writes.handled(&m.kernel.vertices, slot);
        self.take(m);
    }
}

/// A complete snapshot of a run in progress, taken at an event boundary
/// by [`CaptureEvery`].
///
/// Starting [`Simulator::execute`] from a checkpoint reproduces the
/// original run **bit for bit** provided the resuming oracle agrees with
/// the original on every message index at or above
/// [`Checkpoint::messages`] — decisions below that index are already
/// baked into the snapshot's queue, so the resuming oracle is never
/// asked about them. Index-addressed oracles (like `csp-adversary`'s
/// schedule replay) satisfy this by construction; stateful randomized
/// oracles in general do not. The fault plan and the stashed rejoin
/// states are part of the snapshot: a resume never queries
/// [`LinkOracle::fault_plan`], so the resuming oracle cannot change who
/// churns or how weights move. So is the delivery trace so far: a
/// resumed run continues it.
///
/// Checkpoints are persistent: those of one run share, by reference
/// count, every part that did not change between them — the vertex and
/// edge pages no event wrote, the queue's pushes that are still
/// pending, the fault plan and the trace so far. A run's checkpoints
/// cost what changed between them, not one machine each, and cloning
/// one copies no simulation state.
#[derive(Clone, Debug)]
pub struct Checkpoint<P: Process> {
    kernel: KernelSnapshot<P>,
    queue: QueueSnapshot<P::Msg>,
    /// Empty unless the checkpointing simulator had
    /// [`Simulator::record_trace`] set.
    trace: TraceSnapshot,
}

impl<P: Process> Checkpoint<P> {
    /// Number of messages dispatched (and therefore delay decisions
    /// consumed) before this snapshot — the resume point's position in
    /// schedule-index space.
    pub fn messages(&self) -> u64 {
        self.kernel.cost.messages
    }

    /// Number of events delivered before this snapshot.
    pub fn events(&self) -> u64 {
        self.kernel.events
    }

    /// Completion time of the captured prefix.
    pub fn completion(&self) -> SimTime {
        self.kernel.cost.completion
    }
}

/// Reusable simulation state for high-throughput evaluation: the
/// scheduling queue and its arena, FIFO floors, process-state vector,
/// cost meters, handler buffers and delivery trace all persist between
/// [`Simulator::execute`] calls, so a warm evaluation performs no
/// per-run setup allocation. Keep one pool per worker thread.
pub struct EvalPool<P: Process> {
    machine: Option<Machine<P>>,
    trace: Trace,
}

impl<P: Process> EvalPool<P> {
    /// Creates an empty pool; buffers materialize on first use.
    pub fn new() -> Self {
        EvalPool {
            machine: None,
            trace: Trace::default(),
        }
    }

    /// The final states, metered costs and delivery trace of the pool's
    /// last run.
    ///
    /// # Panics
    ///
    /// Panics if nothing ran in the pool.
    pub fn into_run(self) -> Run<P> {
        let kernel = self.machine.expect("a run leaves its machine").kernel;
        Run {
            states: kernel.vertices.states,
            cost: kernel.ledger.cost,
            truncated: kernel.ledger.truncated,
            trace: self.trace,
        }
    }
}

impl<P: Process> Default for EvalPool<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Process> fmt::Debug for EvalPool<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EvalPool")
            .field("warm", &self.machine.is_some())
            .finish()
    }
}

/// The result of a pooled evaluation: the run's metered aggregates,
/// without the per-vertex states (which stay in the pool).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EvalSummary {
    /// Completion time (time of the last delivered event).
    pub completion: SimTime,
    /// Total messages dispatched — for a resumed run, *including* the
    /// prefix captured by the checkpoint.
    pub messages: u64,
    /// Weighted communication complexity, prefix included.
    pub weighted_comm: Cost,
    /// Whether the run was cut short by [`Simulator::comm_limit`].
    pub truncated: bool,
    /// Events delivered, prefix included for resumed runs.
    pub events: u64,
}

impl EvalSummary {
    fn of<P: Process>(m: &Machine<P>) -> Self {
        let ledger = &m.kernel.ledger;
        EvalSummary {
            completion: ledger.cost.completion,
            messages: ledger.cost.messages,
            weighted_comm: ledger.cost.weighted_comm,
            truncated: ledger.truncated,
            events: ledger.events,
        }
    }
}

/// Configurable asynchronous network simulator (non-consuming builder).
///
/// Executes a [`Process`] per vertex with:
///
/// * per-message delays drawn from the configured [`DelayModel`] (default
///   [`DelayModel::WorstCase`], matching the paper's time bounds),
/// * **per-directed-edge FIFO** delivery (a later send on the same channel
///   never overtakes an earlier one — the standard reliable-link
///   assumption, which protocols like GHS require),
/// * deterministic tie-breaking: simultaneous deliveries happen in send
///   order,
/// * weighted cost metering of every send.
///
/// The run ends at *quiescence* — no messages in flight. Protocols in the
/// paper's model (diffusing computations) always reach it; a configurable
/// event budget converts runaway executions into [`SimError`].
///
/// Every run goes through [`Simulator::execute`]; the other run methods
/// are shorthands for it.
#[derive(Debug)]
pub struct Simulator<'g> {
    graph: &'g WeightedGraph,
    delay: DelayModel,
    seed: u64,
    event_limit: u64,
    comm_limit: Option<u128>,
    trace_cap: usize,
    core: CoreKind,
}

impl<'g> Simulator<'g> {
    /// Creates a simulator for `graph` with worst-case delays, seed 0 and
    /// a 100-million-event budget.
    pub fn new(graph: &'g WeightedGraph) -> Self {
        Simulator {
            graph,
            delay: DelayModel::WorstCase,
            seed: 0,
            event_limit: 100_000_000,
            comm_limit: None,
            trace_cap: 0,
            core: CoreKind::Bucket,
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

    /// Records up to `cap` delivered messages of every freshly started
    /// run into [`Run::trace`].
    pub fn record_trace(&mut self, cap: usize) -> &mut Self {
        self.trace_cap = cap;
        self
    }

    /// Selects the scheduling-queue implementation (default
    /// [`CoreKind::Bucket`]). Both cores produce bit-identical runs; the
    /// heap core exists as the differential reference and for
    /// before/after benchmarking.
    pub fn core(&mut self, kind: CoreKind) -> &mut Self {
        self.core = kind;
        self
    }

    /// Caps the weighted communication: once the metered cost exceeds
    /// `limit`, no further sends are accepted, in-flight messages are
    /// dropped, and the run returns with [`Run::truncated`] set. This
    /// models the root *suspending* a sub-protocol in the hybrid
    /// algorithms (Sections 7.2, 8.2, 9.3): the wasted work of a
    /// suspended attempt is bounded by the budget.
    ///
    /// The budget is checked at dispatch time, before each send is
    /// metered, so the recorded cost exceeds `limit` by at most one
    /// message weight.
    pub fn comm_limit(&mut self, limit: u128) -> &mut Self {
        self.comm_limit = Some(limit);
        self
    }

    /// Runs one simulation to quiescence in `pool`: the entry every
    /// other run method is a shorthand for.
    ///
    /// * `start` — a factory (fresh) or a checkpoint (resumed); see
    ///   [`Start`].
    /// * `pool` — the buffers the run reuses. Its final states, costs and
    ///   delivery trace stay there ([`EvalPool::into_run`]); only the
    ///   metered aggregates come back.
    /// * `oracle` decides every message's fate at dispatch time. Its
    ///   decisions are clamped into `[1, w(e)]` (the paper's adversary
    ///   range, quantized — see the [`crate::delay`] module docs), and
    ///   per-directed-edge FIFO order is enforced afterwards. The
    ///   configured [`DelayModel`] and seed are not used.
    /// * `observer` hears every dispatch and every delivery as it
    ///   happens.
    /// * `capture` — [`NoCapture`], or [`CaptureEvery`] to snapshot the
    ///   run as it goes.
    ///
    /// A fresh run records its delivery trace when
    /// [`Simulator::record_trace`] is set; a resumed one continues its
    /// checkpoint's. The simulator's core kind may differ from the one
    /// that took the checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventLimitExceeded`] if the protocol does not
    /// quiesce within the event budget (delivered events count from the
    /// checkpoint's total, not from zero).
    pub fn execute<P, S, O, B, C>(
        &self,
        start: S,
        pool: &mut EvalPool<P>,
        oracle: &mut O,
        observer: &mut B,
        capture: C,
    ) -> Result<EvalSummary, SimError>
    where
        P: Process,
        S: Start<P>,
        O: LinkOracle + ?Sized,
        B: Observer + ?Sized,
        C: Capture<P>,
    {
        let m = (pool.machine.take()).unwrap_or_else(|| Machine::new(self.core, self.graph));
        let mut call = Call {
            sim: self,
            m,
            trace: &mut pool.trace,
            oracle,
            observer,
            from: 0,
        };
        start.begin(&mut call);
        let res = capture.finish(&mut call);
        let summary = EvalSummary::of(&call.m);
        pool.machine = Some(call.m);
        res.map(|()| summary)
    }

    /// Runs `make(v, graph)`-constructed processes to quiescence under
    /// the configured [`DelayModel`]: [`Simulator::run_with_oracle`]
    /// over a [`ModelOracle`], so model-driven and oracle-driven runs are
    /// bit-identical by construction.
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

    /// A fresh, unobserved [`Simulator::execute`] under `oracle`, in a
    /// pool of its own.
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
        let mut pool = EvalPool::new();
        self.execute(make, &mut pool, oracle, &mut (), NoCapture)?;
        Ok(pool.into_run())
    }

    /// [`Simulator::run_with_oracle`] with [`CaptureEvery`]`(every,
    /// checkpoints)`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventLimitExceeded`] if the protocol does not
    /// quiesce within the event budget.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn run_with_checkpoints<P, F, O>(
        &self,
        oracle: &mut O,
        make: F,
        every: u64,
        checkpoints: &mut Vec<Checkpoint<P>>,
    ) -> Result<Run<P>, SimError>
    where
        P: Process + Clone,
        F: FnMut(NodeId, &WeightedGraph) -> P,
        O: LinkOracle + ?Sized,
    {
        let mut pool = EvalPool::new();
        let capture = CaptureEvery(every, checkpoints);
        self.execute(make, &mut pool, oracle, &mut (), capture)?;
        Ok(pool.into_run())
    }

    /// A fresh, unobserved [`Simulator::execute`] in `pool`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventLimitExceeded`] if the protocol does not
    /// quiesce within the event budget.
    pub fn eval<P, F, O>(
        &self,
        pool: &mut EvalPool<P>,
        oracle: &mut O,
        make: F,
    ) -> Result<EvalSummary, SimError>
    where
        P: Process,
        F: FnMut(NodeId, &WeightedGraph) -> P,
        O: LinkOracle + ?Sized,
    {
        self.execute(make, pool, oracle, &mut (), NoCapture)
    }

    /// An unobserved [`Simulator::execute`] from `cp` in `pool`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventLimitExceeded`] if the protocol does not
    /// quiesce within the event budget (events count from the
    /// checkpoint's total).
    pub fn eval_resume<P, O>(
        &self,
        pool: &mut EvalPool<P>,
        cp: &Checkpoint<P>,
        oracle: &mut O,
    ) -> Result<EvalSummary, SimError>
    where
        P: Process + Clone,
        O: LinkOracle + ?Sized,
    {
        self.execute(cp, pool, oracle, &mut (), NoCapture)
    }

    /// The main loop: pop, fire, meter, send, arm, hook — until
    /// quiescence or truncation.
    fn exec<P, O, H>(&self, oracle: &mut O, m: &mut Machine<P>, mut hook: H) -> Result<(), SimError>
    where
        P: Process,
        O: LinkOracle + ?Sized,
        H: Hook<P>,
    {
        let g = self.graph;
        // Queue stats land on the report at every exit below (normal and
        // error), so consumers can detect overflow-heap fallback without
        // reaching into the queue. The window is a workload property
        // (identical across cores) — only the push counter is per-queue.
        let finalize = |m: &mut Machine<P>| {
            let cost = &mut m.kernel.ledger.cost;
            cost.bucket_window = BucketQueue::capacity_for(g.max_weight().get()) as u64;
            cost.overflow_pushes = m.core.queue.overflow_pushes();
        };
        while !m.kernel.ledger.truncated {
            let Some((now, _seq, event)) = m.core.pop() else {
                break;
            };
            let Kernel {
                vertices,
                ledger,
                faults,
            } = &mut m.kernel;
            ledger.weights.advance(faults, now);
            let slot = event.node().index();
            let live = ledger.weights.table();
            let dead = &mut ledger.cost.dead_events;
            let Some(fired) = vertices.fire(g, faults, live, slot, now, event, dead) else {
                continue;
            };
            if let Err(limit) = ledger.count_event(self.event_limit) {
                finalize(m);
                return Err(limit);
            }
            if let Some(msg) = &fired.msg {
                ledger.delivered(msg, &mut hook);
            }
            let sends = vertices.sends();
            ledger.send(
                g,
                self.comm_limit,
                oracle,
                &mut hook,
                fired.node,
                now,
                sends,
                &mut m.core,
            );
            vertices.arm(slot, fired.node, now, &mut m.core);
            hook.after_event(m, slot);
        }
        finalize(m);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Context;
    use csp_graph::{generators, Cost};

    /// Ping-pong `rounds` times between the endpoints of a single edge.
    #[derive(Clone)]
    struct PingPong {
        rounds: u32,
        received: u32,
    }

    impl Process for PingPong {
        type Msg = u32;

        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            if ctx.self_id() == NodeId::new(0) && self.rounds > 0 {
                ctx.send(NodeId::new(1), 1);
            }
        }

        fn on_message(&mut self, from: NodeId, msg: u32, ctx: &mut Context<'_, u32>) {
            self.received += 1;
            if msg < self.rounds {
                ctx.send(from, msg + 1);
            }
        }
    }

    #[test]
    fn ping_pong_costs_add_up() {
        let g = generators::path(2, |_| 5);
        let run = Simulator::new(&g)
            .run(|_, _| PingPong {
                rounds: 4,
                received: 0,
            })
            .unwrap();
        // 4 messages, each of weight 5, each taking exactly 5 ticks.
        assert_eq!(run.cost.messages, 4);
        assert_eq!(run.cost.weighted_comm, Cost::new(20));
        assert_eq!(run.cost.completion, SimTime::new(20));
        assert_eq!(run.states[0].received + run.states[1].received, 4);
    }

    #[test]
    fn eager_delay_shrinks_time_not_cost() {
        let g = generators::path(2, |_| 5);
        let run = Simulator::new(&g)
            .delay(DelayModel::Eager)
            .run(|_, _| PingPong {
                rounds: 4,
                received: 0,
            })
            .unwrap();
        assert_eq!(run.cost.weighted_comm, Cost::new(20)); // cost unchanged
        assert_eq!(run.cost.completion, SimTime::new(4)); // 4 unit hops
    }

    #[test]
    fn uniform_delays_are_reproducible() {
        let g = generators::cycle(8, |i| 1 + i as u64 % 7);
        let run_with = |seed: u64| {
            Simulator::new(&g)
                .delay(DelayModel::Uniform)
                .seed(seed)
                .run(|_, _| PingPong {
                    rounds: 6,
                    received: 0,
                })
                .unwrap()
                .cost
        };
        assert_eq!(run_with(3), run_with(3));
    }

    #[test]
    fn heap_and_bucket_cores_agree() {
        let g = generators::connected_gnp(14, 0.3, generators::WeightDist::Uniform(1, 20), 11);
        let run_on = |kind: CoreKind, seed: u64| {
            let mut sim = Simulator::new(&g);
            sim.core(kind)
                .delay(DelayModel::Uniform)
                .seed(seed)
                .record_trace(1 << 14);
            sim.run(|_, _| PingPong {
                rounds: 8,
                received: 0,
            })
            .unwrap()
        };
        for seed in 0..4 {
            let b = run_on(CoreKind::Bucket, seed);
            let h = run_on(CoreKind::Heap, seed);
            assert_eq!(b.cost, h.cost, "cost diverged at seed {seed}");
            assert_eq!(b.trace.events(), h.trace.events());
        }
    }

    #[test]
    fn cost_report_surfaces_bucket_window_and_overflow() {
        // In-window workload: every core reports the same auto-sized
        // window and a zero overflow count, so full-report differential
        // equality holds.
        let g = generators::path(3, |_| 5);
        let run_on = |kind: CoreKind| {
            let mut sim = Simulator::new(&g);
            sim.core(kind).delay(DelayModel::WorstCase);
            sim.run(|_, _| PingPong {
                rounds: 3,
                received: 0,
            })
            .unwrap()
        };
        let b = run_on(CoreKind::Bucket);
        let h = run_on(CoreKind::Heap);
        assert_eq!(b.cost, h.cost);
        assert_eq!(b.cost.bucket_window, BucketQueue::capacity_for(5) as u64);
        assert_eq!(b.cost.overflow_pushes, 0);

        // Past-window workload (W > MAX_CAPACITY): the bucket core falls
        // back to its overflow heap and says so; the heap core reports
        // zero. The window itself stays a workload property both agree
        // on, and every metered aggregate still matches.
        let big = generators::path(2, |_| 300_000);
        let run_big = |kind: CoreKind| {
            let mut sim = Simulator::new(&big);
            sim.core(kind).delay(DelayModel::WorstCase);
            sim.run(|_, _| PingPong {
                rounds: 2,
                received: 0,
            })
            .unwrap()
        };
        let bb = run_big(CoreKind::Bucket);
        let hb = run_big(CoreKind::Heap);
        assert_eq!(bb.cost.bucket_window, BucketQueue::MAX_CAPACITY as u64);
        assert_eq!(hb.cost.bucket_window, BucketQueue::MAX_CAPACITY as u64);
        assert!(
            bb.cost.overflow_pushes > 0,
            "W past the window cap must hit the overflow heap"
        );
        assert_eq!(hb.cost.overflow_pushes, 0);
        // Equality excludes the scheduler statistic, so the full-report
        // differential contract survives the overflow regime.
        assert_eq!(bb.cost, hb.cost);
    }

    #[test]
    fn event_limit_catches_infinite_protocols() {
        /// Bounces a message forever.
        #[derive(Debug)]
        struct Forever;
        impl Process for Forever {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                if ctx.self_id() == NodeId::new(0) {
                    ctx.send(NodeId::new(1), ());
                }
            }
            fn on_message(&mut self, from: NodeId, _msg: (), ctx: &mut Context<'_, ()>) {
                ctx.send(from, ());
            }
        }
        let g = generators::path(2, |_| 1);
        let err = Simulator::new(&g)
            .event_limit(1000)
            .run(|_, _| Forever)
            .unwrap_err();
        assert_eq!(err, SimError::EventLimitExceeded { limit: 1000 });
    }

    /// Sends a burst of numbered messages; receiver checks FIFO order.
    struct FifoCheck {
        next_expected: u32,
        violations: u32,
    }

    impl Process for FifoCheck {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            if ctx.self_id() == NodeId::new(0) {
                for i in 0..50 {
                    ctx.send(NodeId::new(1), i);
                }
            }
        }
        fn on_message(&mut self, _from: NodeId, msg: u32, _ctx: &mut Context<'_, u32>) {
            if msg != self.next_expected {
                self.violations += 1;
            }
            self.next_expected = msg + 1;
        }
    }

    #[test]
    fn fifo_order_is_preserved_under_random_delays() {
        let g = generators::path(2, |_| 100);
        for seed in 0..5 {
            let run = Simulator::new(&g)
                .delay(DelayModel::Uniform)
                .seed(seed)
                .run(|_, _| FifoCheck {
                    next_expected: 0,
                    violations: 0,
                })
                .unwrap();
            assert_eq!(run.states[1].violations, 0, "FIFO violated at seed {seed}");
        }
    }

    #[test]
    fn quiescent_protocol_reports_zero() {
        struct Silent;
        impl Process for Silent {
            type Msg = ();
            fn on_start(&mut self, _ctx: &mut Context<'_, ()>) {}
            fn on_message(&mut self, _f: NodeId, _m: (), _ctx: &mut Context<'_, ()>) {}
        }
        let g = generators::cycle(4, |_| 2);
        let run = Simulator::new(&g).run(|_, _| Silent).unwrap();
        assert_eq!(run.cost.messages, 0);
        assert_eq!(run.cost.completion, SimTime::ZERO);
    }

    #[test]
    fn comm_limit_overshoot_is_at_most_one_message() {
        // Every message has weight 7; budget 20 admits sends at metered
        // cost 0, 7, 14 and rejects the one at 21 — so the recorded cost
        // must land in (20, 20 + 7].
        let g = generators::path(2, |_| 7);
        let run = Simulator::new(&g)
            .comm_limit(20)
            .run(|_, _| PingPong {
                rounds: 100,
                received: 0,
            })
            .unwrap();
        assert!(run.truncated);
        let cost = run.cost.weighted_comm.raw();
        assert!(cost > 20, "budget not exhausted: {cost}");
        assert!(cost <= 20 + 7, "overshoot exceeds one message: {cost}");
        // Every metered message was actually delivered: dispatch-time
        // enforcement never pays for a dropped send.
        assert_eq!(
            run.cost.messages,
            u64::from(run.states[0].received + run.states[1].received)
        );
    }

    #[test]
    fn comm_limit_zero_truncates_after_first_message() {
        let g = generators::path(2, |_| 3);
        let run = Simulator::new(&g)
            .comm_limit(0)
            .run(|_, _| PingPong {
                rounds: 100,
                received: 0,
            })
            .unwrap();
        // The first send is metered (cost 0 is not > 0); the reply is
        // rejected at dispatch.
        assert!(run.truncated);
        assert_eq!(run.cost.messages, 1);
        assert_eq!(run.cost.weighted_comm, Cost::new(3));
    }

    #[test]
    fn one_message_in_flight_keeps_bouncing() {
        // A long chain keeps at most one message in flight: every pop
        // drains the queue (and frees its chunk), every send refills it.
        struct Chain;
        impl Process for Chain {
            type Msg = u32;
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                if ctx.self_id() == NodeId::new(0) {
                    ctx.send(NodeId::new(1), 0);
                }
            }
            fn on_message(&mut self, from: NodeId, hops: u32, ctx: &mut Context<'_, u32>) {
                if hops < 1000 {
                    ctx.send(from, hops + 1);
                }
            }
        }
        let g = generators::path(2, |_| 1);
        let run = Simulator::new(&g).run(|_, _| Chain).unwrap();
        assert_eq!(run.cost.messages, 1001);
    }
}

#[cfg(test)]
mod checkpoint_tests {
    use super::*;
    use crate::process::Context;
    use csp_graph::generators;

    /// Ping-pong with a payload so states evolve observably.
    #[derive(Clone, PartialEq, Eq, Debug)]
    struct Counter {
        rounds: u32,
        received: u32,
    }

    impl Process for Counter {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            if ctx.self_id() == NodeId::new(0) && self.rounds > 0 {
                ctx.send(NodeId::new(1), 1);
            }
        }
        fn on_message(&mut self, from: NodeId, msg: u32, ctx: &mut Context<'_, u32>) {
            self.received += 1;
            if msg < self.rounds {
                ctx.send(from, msg + 1);
            }
        }
    }

    fn make(_: NodeId, _: &WeightedGraph) -> Counter {
        Counter {
            rounds: 40,
            received: 0,
        }
    }

    /// Continues `cp` to quiescence under `oracle` in a pool of its own.
    pub(super) fn resumed<P: Process + Clone>(
        sim: &Simulator<'_>,
        cp: &Checkpoint<P>,
        mut oracle: impl LinkOracle,
    ) -> Result<Run<P>, SimError> {
        let mut pool = EvalPool::new();
        sim.execute(cp, &mut pool, &mut oracle, &mut (), NoCapture)?;
        Ok(pool.into_run())
    }

    #[test]
    fn resume_reproduces_the_cold_run_exactly() {
        let g = generators::path(2, |_| 9);
        let mut sim = Simulator::new(&g);
        sim.record_trace(1 << 10);
        let cold = sim.run(make).unwrap();

        let mut cps = Vec::new();
        let checkpointed = sim
            .run_with_checkpoints(
                &mut ModelOracle::new(DelayModel::WorstCase, 0),
                make,
                7,
                &mut cps,
            )
            .unwrap();
        assert_eq!(checkpointed.cost, cold.cost);
        assert!(!cps.is_empty(), "expected checkpoints every 7 messages");

        for cp in &cps {
            let resumed = resumed(&sim, cp, ModelOracle::new(DelayModel::WorstCase, 0)).unwrap();
            assert_eq!(resumed.cost, cold.cost, "at checkpoint {}", cp.messages());
            assert_eq!(resumed.trace.events(), cold.trace.events());
            assert_eq!(resumed.states, cold.states);
        }
    }

    #[test]
    fn resume_works_across_core_kinds() {
        let g = generators::cycle(6, |i| 1 + i as u64);
        let mut cps: Vec<Checkpoint<Counter>> = Vec::new();
        let bucket_sim = Simulator::new(&g);
        bucket_sim
            .run_with_checkpoints(
                &mut ModelOracle::new(DelayModel::WorstCase, 0),
                make,
                5,
                &mut cps,
            )
            .unwrap();
        let cold = Simulator::new(&g).run(make).unwrap();
        let mut heap_sim = Simulator::new(&g);
        heap_sim.core(CoreKind::Heap);
        for cp in &cps {
            let resumed =
                resumed(&heap_sim, cp, ModelOracle::new(DelayModel::WorstCase, 0)).unwrap();
            assert_eq!(resumed.cost, cold.cost);
        }
    }

    #[test]
    fn pooled_eval_matches_owned_runs() {
        let g = generators::connected_gnp(10, 0.4, generators::WeightDist::Uniform(1, 12), 3);
        let mut sim = Simulator::new(&g);
        sim.delay(DelayModel::Uniform);
        let mut pool = EvalPool::new();
        for seed in 0..6 {
            sim.seed(seed);
            let owned = sim.run(make).unwrap();
            let pooled = sim
                .eval(
                    &mut pool,
                    &mut ModelOracle::new(DelayModel::Uniform, seed),
                    make,
                )
                .unwrap();
            assert_eq!(pooled.completion, owned.cost.completion);
            assert_eq!(pooled.messages, owned.cost.messages);
            assert_eq!(pooled.weighted_comm, owned.cost.weighted_comm);
            assert!(!pooled.truncated);
        }
    }

    #[test]
    fn pooled_resume_matches_cold_resume() {
        let g = generators::path(2, |_| 9);
        let sim = Simulator::new(&g);
        let mut cps = Vec::new();
        sim.run_with_checkpoints(
            &mut ModelOracle::new(DelayModel::WorstCase, 0),
            make,
            6,
            &mut cps,
        )
        .unwrap();
        let mut pool = EvalPool::new();
        for cp in &cps {
            let cold = resumed(&sim, cp, ModelOracle::new(DelayModel::WorstCase, 0)).unwrap();
            let pooled = sim
                .eval_resume(
                    &mut pool,
                    cp,
                    &mut ModelOracle::new(DelayModel::WorstCase, 0),
                )
                .unwrap();
            assert_eq!(pooled.completion, cold.cost.completion);
            assert_eq!(pooled.messages, cold.cost.messages);
            assert!(pooled.events >= cp.events());
        }
    }

    #[test]
    fn pool_survives_graph_and_core_changes() {
        let g1 = generators::path(3, |_| 4);
        let g2 = generators::cycle(7, |_| 90);
        let mut pool = EvalPool::new();
        let o = || ModelOracle::new(DelayModel::WorstCase, 0);
        let a = Simulator::new(&g1).eval(&mut pool, &mut o(), make).unwrap();
        let mut sim2 = Simulator::new(&g2);
        sim2.core(CoreKind::Heap);
        let b = sim2.eval(&mut pool, &mut o(), make).unwrap();
        let c = Simulator::new(&g2).eval(&mut pool, &mut o(), make).unwrap();
        assert_eq!(
            a,
            Simulator::new(&g1).eval(&mut pool, &mut o(), make).unwrap()
        );
        assert_eq!(b, c);
    }

    #[test]
    fn pool_resumes_cleanly_across_graph_sizes() {
        // Regression: one pool shared by evaluations over graphs of very
        // different sizes (state count, edge count, bucket window) in
        // every interleaving of `eval` and `eval_resume` — the shape a
        // long-running service's per-worker pools see, as opposed to the
        // fixed-graph reuse inside one adversary search.
        let g_small = generators::path(3, |_| 4); // 2 edges, W = 4
        let g_big = generators::cycle(40, |_| 5000); // 40 edges, W = 5000
        let o = || ModelOracle::new(DelayModel::WorstCase, 0);

        let small_sim = Simulator::new(&g_small);
        let mut big_sim = Simulator::new(&g_big);
        big_sim.record_trace(1 << 10); // trace-recording sim sharing the pool
        let mut cps_small: Vec<Checkpoint<Counter>> = Vec::new();
        let mut cps_big: Vec<Checkpoint<Counter>> = Vec::new();
        let cold_small = small_sim
            .run_with_checkpoints(&mut o(), make, 7, &mut cps_small)
            .unwrap();
        let cold_big = big_sim
            .run_with_checkpoints(&mut o(), make, 11, &mut cps_big)
            .unwrap();
        assert!(!cps_small.is_empty() && !cps_big.is_empty());

        let mut pool = EvalPool::new();
        for round in 0..3 {
            // Alternate directions between rounds so both small-after-big
            // and big-after-small restores happen.
            type Leg<'a, 'g> = (
                &'a Simulator<'g>,
                &'a Vec<Checkpoint<Counter>>,
                &'a Run<Counter>,
            );
            let order: [Leg; 2] = if round % 2 == 0 {
                [
                    (&small_sim, &cps_small, &cold_small),
                    (&big_sim, &cps_big, &cold_big),
                ]
            } else {
                [
                    (&big_sim, &cps_big, &cold_big),
                    (&small_sim, &cps_small, &cold_small),
                ]
            };
            for (sim, cps, cold) in order {
                for cp in cps.iter() {
                    let s = sim.eval_resume(&mut pool, cp, &mut o()).unwrap();
                    assert_eq!(s.completion, cold.cost.completion, "round {round}");
                    assert_eq!(s.messages, cold.cost.messages, "round {round}");
                    assert_eq!(s.weighted_comm, cold.cost.weighted_comm, "round {round}");
                }
                let s = sim.eval(&mut pool, &mut o(), make).unwrap();
                assert_eq!(s.completion, cold.cost.completion, "round {round}");
                assert_eq!(s.messages, cold.cost.messages, "round {round}");
            }
        }

        // Cross-core restores of foreign-size checkpoints, same pool.
        let mut heap_big = Simulator::new(&g_big);
        heap_big.core(CoreKind::Heap);
        let s = heap_big
            .eval_resume(&mut pool, &cps_big[0], &mut o())
            .unwrap();
        assert_eq!(s.completion, cold_big.cost.completion);
        let s = small_sim
            .eval_resume(&mut pool, &cps_small[0], &mut o())
            .unwrap();
        assert_eq!(s.completion, cold_small.cost.completion);
    }

    #[test]
    fn checkpoint_marks_follow_message_count() {
        let g = generators::path(2, |_| 3);
        let sim = Simulator::new(&g);
        let mut cps: Vec<Checkpoint<Counter>> = Vec::new();
        sim.run_with_checkpoints(
            &mut ModelOracle::new(DelayModel::WorstCase, 0),
            make,
            10,
            &mut cps,
        )
        .unwrap();
        // 40 messages at one per event: marks at 10, 20, 30, 40.
        let marks: Vec<u64> = cps.iter().map(|c| c.messages()).collect();
        assert_eq!(marks, vec![10, 20, 30, 40]);
        assert!(cps.windows(2).all(|w| w[0].events() < w[1].events()));
        assert!(cps[0].completion() > SimTime::ZERO);
    }
}

#[cfg(test)]
mod churn_tests {
    use super::checkpoint_tests::resumed;
    use super::*;
    use crate::delay::ChurnOracle;
    use crate::process::{Context, TimerId};
    use csp_graph::{generators, EdgeId, Weight};

    /// Greets the peer once per incarnation: every `on_start` sends one
    /// message to the other endpoint of a 2-path.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Hello {
        received: u32,
    }

    impl Process for Hello {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            let peer = NodeId::new(1 - ctx.self_id().index());
            ctx.send(peer, 1);
        }
        fn on_message(&mut self, _from: NodeId, _msg: u32, _ctx: &mut Context<'_, u32>) {
            self.received += 1;
        }
    }

    fn hello_oracle(plan: Vec<SimTime>) -> ChurnOracle<ModelOracle> {
        ChurnOracle::new(
            ModelOracle::new(DelayModel::WorstCase, 0),
            vec![(NodeId::new(1), plan)],
            Vec::new(),
        )
    }

    #[test]
    fn rejoin_restarts_with_fresh_state() {
        let g = generators::path(2, |_| 5);
        for kind in [CoreKind::Bucket, CoreKind::Heap] {
            // Vertex 1 crashes at 3 and rejoins at 10. Its own greeting
            // (sent at 0) lands at vertex 0; vertex 0's greeting arrives
            // at 5 into the dead window; the rejoined incarnation greets
            // again at 10, landing at 15.
            let mut sim = Simulator::new(&g);
            sim.core(kind);
            let run = sim
                .run_with_oracle(
                    &mut hello_oracle(vec![SimTime::new(3), SimTime::new(10)]),
                    |_, _| Hello { received: 0 },
                )
                .unwrap();
            assert_eq!(run.states[0].received, 2, "original + rejoin greeting");
            assert_eq!(run.states[1].received, 0, "fresh state saw nothing");
            assert_eq!(run.cost.messages, 3);
            assert_eq!(run.cost.weighted_comm, Cost::new(15));
            assert_eq!(run.cost.completion, SimTime::new(15));
            assert_eq!(run.cost.dead_events, 1);
            assert_eq!(run.cost.crashed_nodes, 1);
            assert_eq!(run.cost.recoveries, 1);
            assert_eq!(run.cost.weight_revisions, 0);
        }
    }

    #[test]
    fn crash_rejoin_recrash_sequences_execute() {
        let g = generators::path(2, |_| 5);
        // Crash at 2, rejoin at 6, crash again at 9: the rejoined
        // incarnation still gets its greeting out (arrives at 11), and
        // vertex 0's greeting dies in the first dead window.
        let run = Simulator::new(&g)
            .run_with_oracle(
                &mut hello_oracle(vec![SimTime::new(2), SimTime::new(6), SimTime::new(9)]),
                |_, _| Hello { received: 0 },
            )
            .unwrap();
        assert_eq!(run.states[0].received, 2);
        assert_eq!(run.cost.messages, 3);
        assert_eq!(run.cost.dead_events, 1);
        assert_eq!(run.cost.crashed_nodes, 1);
        assert_eq!(run.cost.recoveries, 1);
        assert_eq!(run.cost.completion, SimTime::new(11));
    }

    /// Arms one long timer per incarnation and counts the fires.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Alarm {
        fired: u32,
    }

    impl Process for Alarm {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
            ctx.set_timer(100);
        }
        fn on_message(&mut self, _f: NodeId, _m: (), _ctx: &mut Context<'_, ()>) {}
        fn on_timer(&mut self, _id: TimerId, _ctx: &mut Context<'_, ()>) {
            self.fired += 1;
        }
    }

    #[test]
    fn stale_timers_die_behind_the_floor() {
        let g = generators::path(2, |_| 1);
        // Vertex 0 crashes at 2 and rejoins at 4: the incarnation-0
        // timer (due at 100) is stale when it fires and must be
        // consumed as a dead event, not delivered to the fresh state.
        let mut oracle = ChurnOracle::new(
            ModelOracle::new(DelayModel::WorstCase, 0),
            vec![(NodeId::new(0), vec![SimTime::new(2), SimTime::new(4)])],
            Vec::new(),
        );
        let run = Simulator::new(&g)
            .run_with_oracle(&mut oracle, |_, _| Alarm { fired: 0 })
            .unwrap();
        assert_eq!(run.states[0].fired, 1, "only the fresh incarnation's timer");
        assert_eq!(run.states[1].fired, 1);
        assert_eq!(run.cost.dead_events, 1, "the stale timer died at the floor");
        // Timer fires never move completion.
        assert_eq!(run.cost.completion, SimTime::ZERO);
    }

    /// Same shape as the main suite's ping-pong (private to its module).
    #[derive(Clone)]
    struct PingPong {
        rounds: u32,
        received: u32,
    }

    impl Process for PingPong {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            if ctx.self_id() == NodeId::new(0) && self.rounds > 0 {
                ctx.send(NodeId::new(1), 1);
            }
        }
        fn on_message(&mut self, from: NodeId, msg: u32, ctx: &mut Context<'_, u32>) {
            self.received += 1;
            if msg < self.rounds {
                ctx.send(from, msg + 1);
            }
        }
    }

    #[test]
    fn drift_moves_metering_and_delays_from_its_instant() {
        let g = generators::path(2, |_| 5);
        let oracle = || {
            ChurnOracle::new(
                ModelOracle::new(DelayModel::WorstCase, 0),
                Vec::new(),
                vec![(EdgeId::new(0), SimTime::new(3), Weight::new(2))],
            )
        };
        for kind in [CoreKind::Bucket, CoreKind::Heap] {
            // Ping-pong of 4 messages: the first is priced and delayed
            // at weight 5 (sent at 0, before the revision); the
            // remaining three are sent at 5, 7 and 9 under weight 2.
            let mut sim = Simulator::new(&g);
            sim.core(kind);
            let run = sim
                .run_with_oracle(&mut oracle(), |_, _| PingPong {
                    rounds: 4,
                    received: 0,
                })
                .unwrap();
            assert_eq!(run.cost.messages, 4);
            assert_eq!(run.cost.weighted_comm, Cost::new(5 + 2 + 2 + 2));
            assert_eq!(run.cost.completion, SimTime::new(11));
            assert_eq!(run.cost.weight_revisions, 1);
            assert_eq!(run.cost.recoveries, 0);
        }
    }

    #[test]
    fn checkpoint_resume_carries_churn_state() {
        let g = generators::path(2, |_| 5);
        let oracle = || {
            ChurnOracle::new(
                ModelOracle::new(DelayModel::WorstCase, 0),
                vec![(NodeId::new(1), vec![SimTime::new(3), SimTime::new(10)])],
                vec![(EdgeId::new(0), SimTime::new(12), Weight::new(2))],
            )
        };
        let sim = Simulator::new(&g);
        let cold = sim
            .run_with_oracle(&mut oracle(), |_, _| Hello { received: 0 })
            .unwrap();
        let mut cps = Vec::new();
        sim.run_with_checkpoints(&mut oracle(), |_, _| Hello { received: 0 }, 1, &mut cps)
            .unwrap();
        assert!(!cps.is_empty());
        for cp in &cps {
            // The resuming oracle is never asked about churn or drift —
            // an oracle with *no* plans must still reproduce the run.
            let resumed = resumed(&sim, cp, ModelOracle::new(DelayModel::WorstCase, 0)).unwrap();
            assert_eq!(resumed.cost, cold.cost, "at checkpoint {}", cp.messages());
            assert_eq!(resumed.states, cold.states);
        }
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::process::{Context, Process};
    use csp_graph::generators;
    use csp_graph::NodeId;

    struct Chain {
        last: bool,
    }

    impl Process for Chain {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            if ctx.self_id() == NodeId::new(0) {
                ctx.send(NodeId::new(1), 0);
            }
        }
        fn on_message(&mut self, _from: NodeId, hops: u32, ctx: &mut Context<'_, u32>) {
            let me = ctx.self_id().index();
            if me + 1 < ctx.node_count() {
                ctx.send(NodeId::new(me + 1), hops + 1);
            } else {
                self.last = true;
            }
        }
    }

    #[test]
    fn trace_records_every_delivery_in_order() {
        let g = generators::path(5, |i| i as u64 + 1);
        let run = Simulator::new(&g)
            .record_trace(64)
            .run(|_, _| Chain { last: false })
            .unwrap();
        assert_eq!(run.trace.len(), 4);
        assert!(run.trace.is_fifo());
        // Latencies equal the edge weights under worst-case delays.
        for (i, e) in run.trace.events().iter().enumerate() {
            assert_eq!(e.latency(), i as u64 + 1);
            assert_eq!(e.from, NodeId::new(i));
            assert_eq!(e.to, NodeId::new(i + 1));
        }
        assert!(run.states[4].last);
    }

    #[test]
    fn trace_cap_is_honored() {
        let g = generators::path(8, |_| 1);
        let run = Simulator::new(&g)
            .record_trace(3)
            .run(|_, _| Chain { last: false })
            .unwrap();
        assert_eq!(run.trace.len(), 3);
        assert_eq!(run.trace.dropped(), 4);
    }

    #[test]
    fn trace_disabled_by_default() {
        let g = generators::path(4, |_| 1);
        let run = Simulator::new(&g)
            .run(|_, _| Chain { last: false })
            .unwrap();
        assert!(run.trace.is_empty());
    }
}

#[cfg(test)]
mod sharing_tests {
    use super::checkpoint_tests::resumed;
    use super::*;
    use crate::delay::ChurnOracle;
    use crate::detect::{Detect, DetectConfig, FaultAware};
    use crate::kernel::{EDGE_PAGE, VERTEX_PAGE};
    use crate::process::{Context, TimerId};
    use csp_graph::generators::{self, WeightDist};

    /// Relays a hop counter: every delivery bumps the receiver's count
    /// and forwards to one neighbour, chosen by that count, until the
    /// counter runs out. Every handler changes its vertex's state and
    /// every send its edge's meter, so a page's rows differ between two
    /// snapshots exactly when an event touched the page. Each delivery
    /// also re-arms a quiet-period alarm, cancelling the one before.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Relay {
        hits: u32,
        hops: u32,
        alarm: Option<TimerId>,
    }

    impl Process for Relay {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            self.hits += 1;
            if ctx.self_id() == NodeId::new(0) {
                ctx.send_all(0);
            }
        }
        fn on_message(&mut self, _from: NodeId, hop: u32, ctx: &mut Context<'_, u32>) {
            self.hits += 1;
            if hop < self.hops {
                let peers: Vec<NodeId> = ctx.neighbors().map(|(v, _, _)| v).collect();
                ctx.send(peers[self.hits as usize % peers.len()], hop + 1);
            }
            if let Some(alarm) = self.alarm.take() {
                ctx.cancel_timer(alarm);
            }
            self.alarm = Some(ctx.set_timer(50));
        }
        fn on_timer(&mut self, _id: TimerId, _ctx: &mut Context<'_, u32>) {
            self.alarm = None;
        }
    }

    impl FaultAware for Relay {}

    fn relay(hops: u32) -> impl Fn(NodeId, &WeightedGraph) -> Relay + Copy {
        move |_, _| Relay {
            hits: 0,
            hops,
            alarm: None,
        }
    }

    fn worst() -> ModelOracle {
        ModelOracle::new(DelayModel::WorstCase, 0)
    }

    /// Pending key of a queue entry.
    fn key<M>(e: &QueueEntry<Event<M>>) -> Key {
        (e.0, e.1)
    }

    #[test]
    fn consecutive_checkpoints_share_untouched_pages_and_pending_segments() {
        let g = generators::connected_gnp(70, 0.08, WeightDist::Uniform(1, 6), 5);
        assert!(g.node_count() > 2 * VERTEX_PAGE && g.edge_count() > 4 * EDGE_PAGE);
        let mut cps = Vec::new();
        Simulator::new(&g)
            .run_with_checkpoints(&mut worst(), relay(40), 6, &mut cps)
            .unwrap();
        assert!(cps.len() > 10);
        let (mut shared, mut copied) = (0, 0);
        for pair in cps.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            let ((va, ea, _), (vb, eb, _)) = (a.kernel.parts(), b.kernel.parts());
            for (pa, pb) in va.iter().zip(vb) {
                let touched = pa.iter().zip(pb.iter()).any(|(x, y)| x.state != y.state);
                assert_eq!(Arc::ptr_eq(pa, pb), !touched, "vertex page");
                (shared, copied) = if touched {
                    (shared, copied + 1)
                } else {
                    (shared + 1, copied)
                };
            }
            for (pa, pb) in ea.iter().zip(eb) {
                let touched = pa
                    .iter()
                    .zip(pb.iter())
                    .any(|(x, y)| x.messages != y.messages);
                assert_eq!(Arc::ptr_eq(pa, pb), !touched, "edge page");
            }
            // The previous checkpoint's segments that still hold a
            // pending entry, shared, then exactly one new segment: the
            // pending pushes since `a`, in seq order.
            let frontier = b.queue.frontier.expect("the relay is in flight");
            let kept: Vec<_> = (a.queue.segments.iter())
                .filter(|(last, _)| *last >= frontier)
                .collect();
            let (new, old) = b.queue.segments.split_last().expect("one new segment");
            assert_eq!(old.len(), kept.len());
            for ((_, x), (_, y)) in old.iter().zip(kept) {
                assert!(Arc::ptr_eq(x, y), "a kept segment is shared");
            }
            let seqs: Vec<u64> = new.1.iter().map(|e| e.1).collect();
            assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seq order");
            assert!(seqs.iter().all(|s| (a.queue.seq..b.queue.seq).contains(s)));
            assert!(
                new.1.iter().all(|e| key(e) >= frontier),
                "only pending pushes"
            );
            assert_eq!(new.0, new.1.iter().map(key).max().unwrap());
            // One fault plan per run.
            assert!(Arc::ptr_eq(a.kernel.faults(), b.kernel.faults()));
        }
        assert!(shared > 0 && copied > 0, "{shared} shared, {copied} copied");
    }

    /// Resumes every checkpoint of `cps` on `sim` — owned and pooled —
    /// and checks each against `cold`: the whole report (the scheduler's
    /// overflow meter included, which `CostReport` equality leaves
    /// out), the trace and the final states.
    fn resumes_like_cold<P: Process + Clone + fmt::Debug>(
        sim: &Simulator<'_>,
        cps: &[Checkpoint<P>],
        cold: &Run<P>,
    ) {
        let mut pool = EvalPool::new();
        for cp in cps {
            let at = cp.messages();
            let resumed = resumed(sim, cp, worst()).unwrap();
            assert_eq!(resumed.cost, cold.cost, "at checkpoint {at}");
            assert_eq!(
                resumed.cost.overflow_pushes, cold.cost.overflow_pushes,
                "overflow meter at checkpoint {at}"
            );
            assert_eq!(resumed.trace.events(), cold.trace.events());
            assert_eq!(
                format!("{:?}", resumed.states),
                format!("{:?}", cold.states)
            );
            let pooled = sim.eval_resume(&mut pool, cp, &mut worst()).unwrap();
            assert_eq!(pooled.completion, cold.cost.completion);
            assert_eq!(pooled.messages, cold.cost.messages);
            assert_eq!(pooled.weighted_comm, cold.cost.weighted_comm);
        }
    }

    /// Checkpoints after every message on both cores, resumes each on
    /// the core that took it, and returns the bucket core's checkpoints.
    fn both_cores<P, F, O>(g: &WeightedGraph, oracle: impl Fn() -> O, make: F) -> Vec<Checkpoint<P>>
    where
        P: Process + Clone + fmt::Debug,
        F: Fn(NodeId, &WeightedGraph) -> P + Copy,
        O: LinkOracle,
    {
        let mut bucket = Vec::new();
        for kind in [CoreKind::Bucket, CoreKind::Heap] {
            let mut sim = Simulator::new(g);
            sim.core(kind).record_trace(1 << 12);
            let cold = sim.run_with_oracle(&mut oracle(), make).unwrap();
            let mut cps = Vec::new();
            let run = sim
                .run_with_checkpoints(&mut oracle(), make, 1, &mut cps)
                .unwrap();
            assert_eq!(run.cost, cold.cost);
            assert_eq!(run.cost.overflow_pushes, cold.cost.overflow_pushes);
            resumes_like_cold(&sim, &cps, &cold);
            if kind == CoreKind::Bucket {
                bucket = cps;
            }
        }
        bucket
    }

    #[test]
    fn rebuilt_queues_resume_like_cold_runs() {
        // Overflow-heap entries: one edge heavier than the bucket
        // window's cap, so its messages wait beyond the window.
        let heavy = BucketQueue::MAX_CAPACITY as u64 + 40_000;
        let g = generators::cycle(6, |i| if i == 0 { heavy } else { 2 + i as u64 });
        let cps = both_cores(&g, worst, relay(12));
        let beyond = |cp: &Checkpoint<Relay>| {
            let f = cp.queue.frontier.map_or(u64::MAX, |f| f.0);
            (cp.queue.segments.iter().flat_map(|(_, s)| s.iter()))
                .any(|e| e.0 >= f && e.0 - f >= BucketQueue::MAX_CAPACITY as u64)
        };
        assert!(
            cps.iter().any(beyond),
            "a checkpoint holds an overflow entry"
        );
        assert!(cps.iter().any(|cp| cp.queue.overflow_pushes > 0));

        // A frontier inside one timestamp: the hub's greetings all land
        // at 3, and a checkpoint after the first delivery there keeps it
        // (popped, below the frontier) beside its pending siblings.
        let g = generators::star(7, |_| 3);
        let cps = both_cores(&g, worst, relay(2));
        let split = |cp: &Checkpoint<Relay>| {
            let Some(f) = cp.queue.frontier else {
                return false;
            };
            (cp.queue.segments.iter().flat_map(|(_, s)| s.iter())).any(|e| e.0 == f.0 && key(e) < f)
        };
        assert!(cps.iter().any(split), "a frontier splits one timestamp");

        // Pending and cancelled timers: the failure detector's heartbeat
        // and watch timers under a crash-and-rejoin, and the hosted
        // relay's alarms, cancelled through the detector.
        let g = generators::connected_gnp(9, 0.4, WeightDist::Uniform(1, 3), 7);
        let churn = || {
            ChurnOracle::new(
                worst(),
                vec![(NodeId::new(2), vec![SimTime::new(4), SimTime::new(30)])],
                Vec::new(),
            )
        };
        let detect =
            |v: NodeId, g: &WeightedGraph| Detect::new(relay(6)(v, g), DetectConfig::new(3, 10, 0));
        let cps = both_cores(&g, churn, detect);
        let timer_pending = |cp: &Checkpoint<_>| {
            let f = cp.queue.frontier.unwrap_or((u64::MAX, 0));
            (cp.queue.segments.iter().flat_map(|(_, s)| s.iter()))
                .any(|e| key(e) >= f && matches!(e.2, Event::Timer { .. }))
        };
        assert!(
            cps.iter()
                .any(|cp| timer_pending(cp) && !cp.kernel.parts().2.is_empty()),
            "a checkpoint holds a pending timer and a cancelled one"
        );
    }
}
