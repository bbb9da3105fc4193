//! Sharded conservative-parallel execution of a *single* run.
//!
//! [`crate::sweep`] parallelises across runs; this module parallelises
//! *within* one. The graph is partitioned into `k` disjoint shards
//! (derived from the paper's sparse-cover coarsening via
//! [`ShardPlan::derive`]), each with its own event core and per-vertex
//! state — and `k` scoped worker threads execute the event calendar
//! **tick-synchronously**. The model itself — what a send costs, when
//! it arrives, what a popped event does — is the crate's dispatch
//! kernel, the same code [`Simulator`] runs; this module only decides
//! *which thread* calls which piece, and *when*:
//!
//! 0. **Time zero, serial** — the kernel's boot pass runs exactly as in
//!    [`Simulator`]; the resulting vertices and calendar are then dealt
//!    out to the shards.
//! 1. **Pick `T`** — every worker posts its queue's earliest scheduled
//!    time; the global minimum `T` is the next tick. All events at `T`
//!    are already enqueued (delays are clamped into `[1, w(e)]` and
//!    timer delays into `[1, ∞)`, so nothing executed at `T` can
//!    schedule anything *at* `T`), which makes the one-tick window safe
//!    for **every** oracle — not just the worst-case model whose
//!    cut-weight lookahead the conservative-PDES literature assumes.
//! 2. **Handlers in parallel** (phase B) — each shard pops its events
//!    with time `T` in `seq` order and fires them through the kernel's
//!    pop routing, keeping what each handler sent and armed. Handlers
//!    only touch their own vertex, and token/timer-id assignment is
//!    per-vertex (see [`crate::MsgToken`]), so no cross-shard state is
//!    needed.
//! 3. **Serial send step** (leader section) — worker 0 merges the
//!    per-shard handler records by global event `seq` and runs the
//!    kernel's send step over them in exactly the sequential order:
//!    event budget, cost meters, FIFO floors and — crucially — the
//!    [`LinkOracle`]'s `decide` and the [`Observer`]'s `delivered` and
//!    `dispatched`, which stateful and index-addressed oracles and every
//!    run record require in global dispatch order. Its sink numbers every surviving push with the next global
//!    `seq` and files it, already timed, in the sending shard's
//!    per-receiver outbox.
//! 4. **Routing in parallel** (phase C + A) — each shard hands its
//!    outboxes to their receivers; after a barrier, every shard merges
//!    its `k` inbox streams by `seq` into its queue.
//!
//! Because ties break on the same global `(time, seq)` key and the
//! oracle sees the same call sequence, a sharded run is **bit
//! identical** to [`Simulator`] — costs, final states, fault meters and
//! the whole observer stream (so the trace too) — under all oracles,
//! including schedule replay, drops, crashes, rejoins, weight drift and
//! timers. `tests/shard_differential.rs` pins this across shard counts
//! {1, 2, 4, 8} and both queue kinds.
//!
//! The one exception is [`Simulator::comm_limit`]: truncation stops the
//! sequential loop *mid-tick*, which a whole-tick parallel phase cannot
//! replicate, so a sharded run with a communication budget delegates to
//! the sequential core (documented on [`ShardedSimulator::comm_limit`]).

use crate::cost::CostClass;
use crate::delay::{DelayModel, LinkOracle, ModelOracle};
use crate::kernel::{Event, Faults, Fired, Kernel, Ledger, Sink, Vertices, Weights};
use crate::process::Process;
use crate::queue::BucketQueue;
use crate::runtime::{CoreKind, EvalPool, EventCore, NoCapture, Run, SimError, Simulator};
use crate::time::SimTime;
use crate::trace::{Observer, Trace};
use csp_graph::{EdgeId, NodeId, WeightedGraph};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

pub use csp_graph::{CutStats, ShardPlan};

/// A spin barrier tuned for the tick loop: four synchronisation points
/// per simulated tick make `std::sync::Barrier`'s mutex+condvar
/// round-trip the dominant cost on small graphs, while a generation
/// counter with busy-wait keeps the gap in the tens of nanoseconds.
/// After a bounded spin the waiter yields to the scheduler, so running
/// more shards than cores (legal — the shard count is a determinism
/// parameter, not a parallelism hint) degrades to cooperative
/// round-robin instead of burning whole time slices.
///
/// `wait` returns `false` once the barrier is poisoned (a worker
/// panicked) so the surviving workers can unwind instead of spinning
/// forever.
struct SpinBarrier {
    arrived: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
    total: usize,
}

impl SpinBarrier {
    fn new(total: usize) -> Self {
        SpinBarrier {
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            total,
        }
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    #[must_use]
    fn wait(&self) -> bool {
        if self.poisoned.load(Ordering::Acquire) {
            return false;
        }
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.arrived.store(0, Ordering::Release);
            self.generation.fetch_add(1, Ordering::Release);
            true
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == generation {
                if self.poisoned.load(Ordering::Acquire) {
                    return false;
                }
                if spins < 64 {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
            !self.poisoned.load(Ordering::Acquire)
        }
    }
}

/// Sets the poison flag if the scope unwinds — stops every other worker
/// from spinning on a barrier whose missing participant is dead.
struct PoisonOnPanic<'a>(&'a SpinBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// What one handler did, in pop order: the next `sends` entries of the
/// shard's send arena and the next `arms` of its timer arena are its.
struct HandlerRec {
    /// The popped event's global sequence number — the merge key of the
    /// leader's serial walk.
    seq: u64,
    fired: Fired,
    sends: usize,
    arms: usize,
}

type InboxItem<M> = (SimTime, u64, Event<M>);

/// Inbox buffers are deques so phase A can pop owned items from the
/// front while the allocation keeps rotating between the sender's
/// out-buffer, the shared cell and the receiver's merge stream.
type InboxBuf<M> = VecDeque<InboxItem<M>>;

/// One shard: its vertices (slot = rank among the shard's vertices),
/// a private event core, its view of the live weights, and the
/// per-tick scratch buffers.
struct Shard<P: Process> {
    vertices: Vertices<P>,
    core: EventCore<P::Msg>,
    /// This shard's copy of the live weight table, advanced to the
    /// current tick at the top of phase B so handlers observe drift
    /// exactly as they would sequentially.
    weights: Weights,
    dead_events: u64,
    // Per-tick arenas: what this shard's handlers produced, consumed in
    // order by the leader.
    recs: Vec<HandlerRec>,
    sends: VecDeque<(NodeId, P::Msg, CostClass, EdgeId)>,
    arms: VecDeque<(SimTime, Event<P::Msg>)>,
    /// What the leader scheduled out of this shard's handlers, one
    /// buffer per receiver shard; swapped into the inbox cells in
    /// phase C.
    outbufs: Vec<InboxBuf<P::Msg>>,
    /// Phase-A merge buffers, one per sender shard; swapped out of the
    /// inbox cells.
    streams: Vec<InboxBuf<P::Msg>>,
}

/// Everything the leader's serial section owns: the oracle, the observer
/// and the ledger, whose calls and updates must happen in sequential
/// dispatch order.
struct Global<'o, O: ?Sized, B: ?Sized> {
    oracle: &'o mut O,
    observer: &'o mut B,
    ledger: Ledger,
    /// Next global push sequence number — continues the boot core's.
    seq: u64,
    err: Option<SimError>,
}

/// The leader's sink: numbers each push with the next global `seq` and
/// files it under the shard of the vertex it happens at.
struct Router<'a, M> {
    outbufs: &'a mut [InboxBuf<M>],
    plan: &'a ShardPlan,
    seq: &'a mut u64,
}

impl<M> Sink<M> for Router<'_, M> {
    #[inline]
    fn push(&mut self, at: SimTime, event: Event<M>) {
        self.outbufs[self.plan.shard_of(event.node())].push_back((at, *self.seq, event));
        *self.seq += 1;
    }
}

/// Drop-in parallel variant of [`Simulator`] executing one run across
/// `k` shard worker threads.
///
/// The builder mirrors [`Simulator`]; [`ShardedSimulator::threads`]
/// picks the shard count. Runs are bit-identical to the sequential
/// core under every oracle — see the [module docs](self) for the
/// synchronisation scheme and its soundness argument.
///
/// ```
/// use csp_sim::{ShardedSimulator, Simulator, Process, Context};
/// use csp_graph::{generators, NodeId};
///
/// #[derive(Clone)]
/// struct Flood(bool);
/// impl Process for Flood {
///     type Msg = ();
///     fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
///         if self.0 { ctx.send_all(()); }
///     }
///     fn on_message(&mut self, _: NodeId, _: (), ctx: &mut Context<'_, ()>) {
///         if !self.0 { self.0 = true; ctx.send_all(()); }
///     }
/// }
///
/// let g = generators::connected_gnp(64, 0.1, generators::WeightDist::Uniform(1, 8), 7);
/// let make = |v: NodeId, _: &_| Flood(v.index() == 0);
/// let seq = Simulator::new(&g).run(make).unwrap();
/// let par = ShardedSimulator::new(&g).threads(4).run(make).unwrap();
/// assert_eq!(seq.cost, par.cost);
/// ```
#[derive(Debug)]
pub struct ShardedSimulator<'g> {
    graph: &'g WeightedGraph,
    delay: DelayModel,
    seed: u64,
    event_limit: u64,
    comm_limit: Option<u128>,
    trace_cap: usize,
    core: CoreKind,
    threads: usize,
    plan: Option<ShardPlan>,
}

impl<'g> ShardedSimulator<'g> {
    /// Creates a sharded simulator with the same defaults as
    /// [`Simulator::new`] and an automatic thread count
    /// ([`crate::sweep::effective_threads`] of 0).
    pub fn new(graph: &'g WeightedGraph) -> Self {
        ShardedSimulator {
            graph,
            delay: DelayModel::WorstCase,
            seed: 0,
            event_limit: 100_000_000,
            comm_limit: None,
            trace_cap: 0,
            core: CoreKind::Bucket,
            threads: 0,
            plan: None,
        }
    }

    /// Sets the delay model (see [`Simulator::delay`]).
    pub fn delay(&mut self, delay: DelayModel) -> &mut Self {
        self.delay = delay;
        self
    }

    /// Sets the seed for randomized delay models.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Sets the event budget (see [`Simulator::event_limit`]).
    pub fn event_limit(&mut self, limit: u64) -> &mut Self {
        self.event_limit = limit;
        self
    }

    /// Records up to `cap` delivered messages into [`Run::trace`].
    pub fn record_trace(&mut self, cap: usize) -> &mut Self {
        self.trace_cap = cap;
        self
    }

    /// Selects the per-shard scheduling-queue implementation.
    pub fn core(&mut self, kind: CoreKind) -> &mut Self {
        self.core = kind;
        self
    }

    /// Caps the weighted communication, exactly as
    /// [`Simulator::comm_limit`].
    ///
    /// Truncation stops the sequential loop *mid-tick* (the send that
    /// crosses the budget silences the rest of the calendar), which a
    /// whole-tick parallel phase cannot replicate bit-for-bit — so a
    /// budgeted run **delegates to the sequential core**. The result is
    /// identical; only the parallelism is lost.
    pub fn comm_limit(&mut self, limit: u128) -> &mut Self {
        self.comm_limit = Some(limit);
        self
    }

    /// Sets the shard/worker count. `0` (the default) uses
    /// [`crate::sweep::effective_threads`]'s auto detection; any other
    /// value is honoured exactly. The shard count is a *partition*
    /// parameter — it selects which deterministic execution is run, so
    /// it is deliberately not capped at the available parallelism
    /// (running more workers than cores is still bit-identical, just
    /// slower).
    pub fn threads(&mut self, threads: usize) -> &mut Self {
        self.threads = threads;
        self
    }

    /// Overrides the vertex partition (default:
    /// [`ShardPlan::derive`] on the run's graph and thread count).
    ///
    /// # Panics
    ///
    /// Panics at run time if the plan's vertex count or shard count
    /// does not match the graph/threads.
    pub fn plan(&mut self, plan: ShardPlan) -> &mut Self {
        self.plan = Some(plan);
        self
    }

    /// Runs `make(v, graph)`-constructed processes to quiescence under
    /// the configured [`DelayModel`], sharded across worker threads.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventLimitExceeded`] if the protocol does
    /// not quiesce within the event budget.
    pub fn run<P, F>(&self, make: F) -> Result<Run<P>, SimError>
    where
        P: Process + Send,
        P::Msg: Send,
        F: FnMut(NodeId, &WeightedGraph) -> P,
    {
        self.run_with_oracle(&mut ModelOracle::new(self.delay, self.seed), make)
    }

    /// Runs with every message's fate decided by `oracle`, sharded
    /// across worker threads. Oracle queries are serialized in global
    /// dispatch order, so stateful and index-addressed oracles (replay,
    /// random drops, crash schedules) behave exactly as under
    /// [`Simulator::run_with_oracle`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventLimitExceeded`] if the protocol does
    /// not quiesce within the event budget.
    pub fn run_with_oracle<P, F, O>(&self, oracle: &mut O, make: F) -> Result<Run<P>, SimError>
    where
        P: Process + Send,
        P::Msg: Send,
        F: FnMut(NodeId, &WeightedGraph) -> P,
        O: LinkOracle + Send + ?Sized,
    {
        if self.trace_cap == 0 {
            return self.run_observed(oracle, &mut (), make);
        }
        let mut trace = Trace::new(self.trace_cap);
        let run = self.run_observed(oracle, &mut trace, make)?;
        Ok(Run { trace, ..run })
    }

    /// [`ShardedSimulator::run_with_oracle`], reporting every dispatch
    /// and every delivery to `observer` — from the leader, in global
    /// dispatch order, so the stream equals [`Simulator::execute`]'s.
    /// [`Run::trace`] stays empty here: the observer is the record.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventLimitExceeded`] if the protocol does
    /// not quiesce within the event budget.
    pub fn run_observed<P, F, O, B>(
        &self,
        oracle: &mut O,
        observer: &mut B,
        make: F,
    ) -> Result<Run<P>, SimError>
    where
        P: Process + Send,
        P::Msg: Send,
        F: FnMut(NodeId, &WeightedGraph) -> P,
        O: LinkOracle + Send + ?Sized,
        B: Observer + Send + ?Sized,
    {
        // Mid-tick truncation semantics require the sequential loop.
        if let Some(limit) = self.comm_limit {
            let mut seq = Simulator::new(self.graph);
            seq.event_limit(self.event_limit)
                .core(self.core)
                .comm_limit(limit);
            let mut pool = EvalPool::new();
            seq.execute(make, &mut pool, oracle, observer, NoCapture)?;
            return Ok(pool.into_run());
        }
        let k = if self.threads == 0 {
            crate::sweep::effective_threads(0)
        } else {
            self.threads
        };
        let plan = match &self.plan {
            Some(p) => {
                assert_eq!(
                    p.assignment().len(),
                    self.graph.node_count(),
                    "shard plan does not cover this graph"
                );
                assert_eq!(p.shards(), k, "shard plan does not match thread count");
                p.clone()
            }
            None => ShardPlan::derive(self.graph, k),
        };
        let plan = &plan;
        let g = self.graph;
        let n = g.node_count();
        let max_delay = g.max_weight().get();

        // ---- Time zero, serial: the sequential boot pass, verbatim. ----
        let mut kernel = Kernel::new(g);
        let mut calendar = EventCore::new(self.core, max_delay);
        kernel.boot(g, None, oracle, observer, make, &mut calendar);
        let Kernel {
            vertices,
            ledger,
            faults,
        } = kernel;

        // ---- Deal vertices and calendar out to the shards. ----
        let mut local_of: Vec<u32> = vec![0; n];
        let mut sizes = vec![0u32; k];
        for v in g.nodes() {
            let size = &mut sizes[plan.shard_of(v)];
            local_of[v.index()] = *size;
            *size += 1;
        }
        let mut shards: Vec<Shard<P>> = vertices
            .scatter(k, |v| plan.shard_of(v))
            .into_iter()
            .map(|vertices| Shard {
                vertices,
                core: EventCore::new(self.core, max_delay),
                weights: ledger.weights.clone(),
                dead_events: 0,
                recs: Vec::new(),
                sends: VecDeque::new(),
                arms: VecDeque::new(),
                outbufs: (0..k).map(|_| VecDeque::new()).collect(),
                streams: (0..k).map(|_| VecDeque::new()).collect(),
            })
            .collect();
        // Popped in `(time, seq)` order, so every shard queue is filled
        // in its own pop order.
        while let Some((at, seq, event)) = calendar.pop() {
            shards[plan.shard_of(event.node())]
                .core
                .push_seq(at, seq, event);
        }
        let global = Global {
            oracle,
            observer,
            ledger,
            seq: calendar.seq,
            err: None,
        };

        // ---- The tick loop, k workers. ----
        let mins: Vec<AtomicU64> = shards
            .iter_mut()
            .map(|s| AtomicU64::new(s.core.queue.next_time().unwrap_or(u64::MAX)))
            .collect();
        let stop = AtomicBool::new(false);
        let barrier = SpinBarrier::new(k);
        let inbox: Vec<Vec<Mutex<InboxBuf<P::Msg>>>> = (0..k)
            .map(|_| (0..k).map(|_| Mutex::new(VecDeque::new())).collect())
            .collect();
        let shards: Vec<Mutex<Shard<P>>> = shards.into_iter().map(Mutex::new).collect();
        let global = Mutex::new(global);
        let event_limit = self.event_limit;

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(k);
            for me in 0..k {
                let shards = &shards;
                let global = &global;
                let mins = &mins;
                let stop = &stop;
                let barrier = &barrier;
                let inbox = &inbox;
                let local_of = &local_of;
                let faults = &faults;
                let builder = std::thread::Builder::new().name(format!("csp-worker-{me}"));
                let handle = builder
                    .spawn_scoped(scope, move || {
                        let _poison = PoisonOnPanic(barrier);
                        loop {
                            // All mins posted (by start or phase A).
                            if !barrier.wait() {
                                return;
                            }
                            let t = mins.iter().map(|m| m.load(Ordering::Acquire)).min();
                            let t = t.unwrap_or(u64::MAX);
                            if t == u64::MAX || stop.load(Ordering::Acquire) {
                                return;
                            }
                            {
                                let mut shard = shards[me].lock().unwrap();
                                phase_b(&mut shard, g, local_of, faults, t);
                            }
                            if !barrier.wait() {
                                return;
                            }
                            if me == 0 {
                                let mut guards: Vec<_> =
                                    shards.iter().map(|s| s.lock().unwrap()).collect();
                                let mut global = global.lock().unwrap();
                                serial_dispatch(
                                    &mut guards,
                                    &mut global,
                                    g,
                                    plan,
                                    faults,
                                    t,
                                    event_limit,
                                );
                                if global.err.is_some() {
                                    stop.store(true, Ordering::Release);
                                }
                            }
                            if !barrier.wait() {
                                return;
                            }
                            if stop.load(Ordering::Acquire) {
                                return;
                            }
                            // Phase C: hand the leader's already-timed
                            // pushes to their receivers.
                            {
                                let mut shard = shards[me].lock().unwrap();
                                for (r, buf) in shard.outbufs.iter_mut().enumerate() {
                                    std::mem::swap(buf, &mut *inbox[r][me].lock().unwrap());
                                }
                            }
                            if !barrier.wait() {
                                return;
                            }
                            {
                                let mut shard = shards[me].lock().unwrap();
                                for (s, stream) in shard.streams.iter_mut().enumerate() {
                                    debug_assert!(stream.is_empty());
                                    std::mem::swap(stream, &mut *inbox[me][s].lock().unwrap());
                                }
                                merge_inboxes(&mut shard);
                                mins[me].store(
                                    shard.core.queue.next_time().unwrap_or(u64::MAX),
                                    Ordering::Release,
                                );
                            }
                        }
                    })
                    .expect("spawn shard worker");
                handles.push(handle);
            }
            for (i, handle) in handles.into_iter().enumerate() {
                if let Err(payload) = handle.join() {
                    eprintln!("csp-worker-{i} panicked; re-raising on the caller");
                    std::panic::resume_unwind(payload);
                }
            }
        });

        // ---- Reassemble the run. ----
        let Global {
            mut ledger, err, ..
        } = global.into_inner().unwrap();
        if let Some(err) = err {
            return Err(err);
        }
        ledger.cost.bucket_window = BucketQueue::capacity_for(max_delay) as u64;
        let mut parts = Vec::with_capacity(k);
        for shard in shards {
            let shard = shard.into_inner().unwrap();
            ledger.cost.dead_events += shard.dead_events;
            ledger.cost.overflow_pushes += shard.core.queue.overflow_pushes();
            parts.push(shard.vertices.states.into_iter());
        }
        Ok(Run {
            states: g
                .nodes()
                .map(|v| {
                    parts[plan.shard_of(v)]
                        .next()
                        .expect("every vertex assigned")
                })
                .collect(),
            cost: ledger.cost,
            truncated: false,
            trace: Trace::default(),
        })
    }
}

/// Phase B: pop every event scheduled at `t` (in `seq` order) and fire
/// it, keeping what each handler sent and armed in the shard's arenas.
/// Only vertex-local state moves here — the ledger waits for the
/// leader.
fn phase_b<P: Process>(
    shard: &mut Shard<P>,
    g: &WeightedGraph,
    local_of: &[u32],
    faults: &Faults,
    t: u64,
) {
    shard.recs.clear();
    let now = SimTime::new(t);
    shard.weights.advance(faults, now);
    while shard.core.queue.next_time() == Some(t) {
        let (_, seq, event) = shard.core.pop().expect("peeked entry exists");
        let slot = local_of[event.node().index()] as usize;
        let (live, dead) = (shard.weights.table(), &mut shard.dead_events);
        let Some(fired) = shard.vertices.fire(g, faults, live, slot, now, event, dead) else {
            continue;
        };
        let (sends, arms) = (shard.sends.len(), shard.arms.len());
        shard.sends.extend(shard.vertices.sends());
        shard.vertices.arm(slot, fired.node, now, &mut shard.arms);
        shard.recs.push(HandlerRec {
            seq,
            fired,
            sends: shard.sends.len() - sends,
            arms: shard.arms.len() - arms,
        });
    }
}

/// The leader's serial section: merge every shard's handler records by
/// event `seq` and meter, send and number them in exactly the
/// sequential order.
fn serial_dispatch<P: Process, O: LinkOracle + ?Sized, B: Observer + ?Sized>(
    shards: &mut [impl std::ops::DerefMut<Target = Shard<P>>],
    global: &mut Global<'_, O, B>,
    g: &WeightedGraph,
    plan: &ShardPlan,
    faults: &Faults,
    t: u64,
    event_limit: u64,
) {
    let now = SimTime::new(t);
    let Global {
        oracle,
        observer,
        ledger,
        seq,
        err,
    } = global;
    ledger.weights.advance(faults, now);
    let mut cursor: Vec<usize> = vec![0; shards.len()];
    loop {
        let mut best: Option<(u64, usize)> = None;
        for (s, shard) in shards.iter().enumerate() {
            if let Some(rec) = shard.recs.get(cursor[s]) {
                if best.is_none_or(|(seq, _)| rec.seq < seq) {
                    best = Some((rec.seq, s));
                }
            }
        }
        let Some((_, s)) = best else { break };
        let Shard {
            recs,
            sends,
            arms,
            outbufs,
            ..
        } = &mut *shards[s];
        let rec = &recs[cursor[s]];
        cursor[s] += 1;
        // The event that crossed the budget sends nothing — the
        // oracle's call count matches the sequential abort.
        if let Err(limit) = ledger.count_event(event_limit) {
            *err = Some(limit);
            return;
        }
        let from = rec.fired.node;
        if let Some(msg) = &rec.fired.msg {
            ledger.delivered(msg, &mut **observer);
        }
        let mut router = Router { outbufs, plan, seq };
        let queued = sends.drain(..rec.sends);
        ledger.send(
            g,
            None,
            &mut **oracle,
            &mut **observer,
            from,
            now,
            queued,
            &mut router,
        );
        for (at, timer) in arms.drain(..rec.arms) {
            router.push(at, timer);
        }
    }
}

/// Phase A: k-way merge the inbox streams by global `seq` into the
/// shard's queue. Each stream is already ascending, so pushes enter
/// every bucket in `seq` order — the append contract `BucketQueue`
/// debug-asserts.
fn merge_inboxes<P: Process>(shard: &mut Shard<P>) {
    let mut streams = std::mem::take(&mut shard.streams);
    loop {
        let mut best: Option<(u64, usize)> = None;
        for (s, stream) in streams.iter().enumerate() {
            if let Some(&(_, seq, _)) = stream.front() {
                if best.is_none_or(|(b, _)| seq < b) {
                    best = Some((seq, s));
                }
            }
        }
        let Some((_, s)) = best else { break };
        let (at, seq, event) = streams[s].pop_front().expect("front peeked");
        shard.core.push_seq(at, seq, event);
    }
    shard.streams = streams;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::{CrashOracle, DropOracle};
    use crate::process::{Context, MsgToken, TimerId};
    use csp_graph::generators::{self, WeightDist};
    use csp_graph::Weight;

    /// Flood + timer chatter: every delivery toggles between arming and
    /// cancelling a timer, and timer fires re-arm a bounded number of
    /// times — exercising sends, arms, cancels and cross-shard traffic
    /// in one protocol. State derives `PartialEq` so differential
    /// checks compare final states exactly (including the per-vertex
    /// `TimerId`s and `MsgToken`s baked into them).
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Pulse {
        root: bool,
        hops: u32,
        pending: Option<TimerId>,
        last_token: Option<MsgToken>,
        fired: u32,
    }

    impl Pulse {
        fn make(root: NodeId) -> impl FnMut(NodeId, &WeightedGraph) -> Pulse {
            move |v, _| Pulse {
                root: v == root,
                hops: 0,
                pending: None,
                last_token: None,
                fired: 0,
            }
        }
    }

    impl Process for Pulse {
        type Msg = u32;

        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            if self.root {
                self.last_token = ctx.send_all(0);
            }
            self.pending = Some(ctx.set_timer(3));
        }

        fn on_message(&mut self, _from: NodeId, msg: u32, ctx: &mut Context<'_, u32>) {
            self.hops = self.hops.max(msg);
            if msg < 3 {
                self.last_token = ctx.send_all(msg + 1);
            }
            match self.pending.take() {
                Some(id) => ctx.cancel_timer(id),
                None => self.pending = Some(ctx.set_timer(2)),
            }
        }

        fn on_timer(&mut self, _id: TimerId, ctx: &mut Context<'_, u32>) {
            self.pending = None;
            self.fired += 1;
            if self.fired < 3 {
                self.pending = Some(ctx.set_timer(1));
            }
        }
    }

    fn test_graph(n: usize, seed: u64) -> WeightedGraph {
        generators::connected_gnp(n, 0.15, WeightDist::Uniform(1, 16), seed)
    }

    fn assert_runs_match(seq: &Run<Pulse>, par: &Run<Pulse>, what: &str) {
        assert_eq!(seq.cost, par.cost, "{what}: cost");
        assert_eq!(seq.states, par.states, "{what}: states");
        assert_eq!(seq.truncated, par.truncated, "{what}: truncated");
        assert_eq!(seq.trace.events(), par.trace.events(), "{what}: trace");
        assert_eq!(
            seq.trace.dropped(),
            par.trace.dropped(),
            "{what}: trace cap"
        );
    }

    #[test]
    fn sharded_matches_sequential_under_model_oracles() {
        for seed in [1u64, 7, 42] {
            let g = test_graph(40, seed);
            for kind in [CoreKind::Bucket, CoreKind::Heap] {
                let seq = Simulator::new(&g)
                    .delay(DelayModel::Uniform)
                    .seed(seed)
                    .core(kind)
                    .record_trace(4096)
                    .run(Pulse::make(NodeId::new(0)))
                    .unwrap();
                for threads in [1usize, 2, 4, 8] {
                    let par = ShardedSimulator::new(&g)
                        .delay(DelayModel::Uniform)
                        .seed(seed)
                        .core(kind)
                        .record_trace(4096)
                        .threads(threads)
                        .run(Pulse::make(NodeId::new(0)))
                        .unwrap();
                    assert_runs_match(&seq, &par, &format!("seed {seed} k {threads}"));
                }
            }
        }
    }

    #[test]
    fn drops_and_crashes_match() {
        let g = test_graph(32, 11);
        let oracle = || {
            CrashOracle::new(
                DropOracle::new(DelayModel::Uniform, 5, 0.2, 2),
                vec![
                    (NodeId::new(3), SimTime::new(9)),
                    (NodeId::new(10), SimTime::ZERO),
                ],
            )
        };
        let seq = Simulator::new(&g)
            .record_trace(4096)
            .run_with_oracle(&mut oracle(), Pulse::make(NodeId::new(0)))
            .unwrap();
        for threads in [2usize, 4, 8] {
            let par = ShardedSimulator::new(&g)
                .record_trace(4096)
                .threads(threads)
                .run_with_oracle(&mut oracle(), Pulse::make(NodeId::new(0)))
                .unwrap();
            assert_runs_match(&seq, &par, &format!("faulty k {threads}"));
        }
        assert!(seq.cost.drops > 0, "drop oracle should have dropped");
        assert_eq!(seq.cost.crashed_nodes, 2);
    }

    #[test]
    fn rejoins_and_drift_match_sequential() {
        use crate::delay::ChurnOracle;
        let g = test_graph(32, 23);
        let oracle = || {
            ChurnOracle::new(
                DropOracle::new(DelayModel::Uniform, 5, 0.1, 2),
                vec![
                    // Crash–rejoin, crash–rejoin–recrash, and plain
                    // crash-stop, spread across shards.
                    (NodeId::new(3), vec![SimTime::new(4), SimTime::new(12)]),
                    (
                        NodeId::new(10),
                        vec![SimTime::new(2), SimTime::new(9), SimTime::new(15)],
                    ),
                    (NodeId::new(17), vec![SimTime::new(7)]),
                ],
                vec![
                    (EdgeId::new(0), SimTime::new(5), Weight::new(3)),
                    (EdgeId::new(1), SimTime::new(11), Weight::new(9)),
                ],
            )
        };
        let seq = Simulator::new(&g)
            .record_trace(4096)
            .run_with_oracle(&mut oracle(), Pulse::make(NodeId::new(0)))
            .unwrap();
        assert_eq!(seq.cost.recoveries, 2);
        assert_eq!(seq.cost.weight_revisions, 2);
        assert_eq!(seq.cost.crashed_nodes, 3);
        for threads in [2usize, 4, 8] {
            for kind in [CoreKind::Bucket, CoreKind::Heap] {
                let par = ShardedSimulator::new(&g)
                    .record_trace(4096)
                    .threads(threads)
                    .core(kind)
                    .run_with_oracle(&mut oracle(), Pulse::make(NodeId::new(0)))
                    .unwrap();
                assert_runs_match(&seq, &par, &format!("churn k {threads} {kind:?}"));
            }
        }
    }

    #[test]
    fn comm_limit_delegates_to_sequential() {
        let g = test_graph(24, 3);
        let seq = Simulator::new(&g)
            .comm_limit(40)
            .run(Pulse::make(NodeId::new(0)))
            .unwrap();
        let par = ShardedSimulator::new(&g)
            .comm_limit(40)
            .threads(4)
            .run(Pulse::make(NodeId::new(0)))
            .unwrap();
        assert!(seq.truncated, "budget should truncate this workload");
        assert_eq!(seq.cost, par.cost);
        assert_eq!(seq.states, par.states);
        assert_eq!(seq.truncated, par.truncated);
    }

    #[test]
    fn more_shards_than_vertices() {
        let g = generators::path(3, |_| 2);
        let seq = Simulator::new(&g).run(Pulse::make(NodeId::new(1))).unwrap();
        let par = ShardedSimulator::new(&g)
            .threads(8)
            .run(Pulse::make(NodeId::new(1)))
            .unwrap();
        assert_runs_match(&seq, &par, "k > n");
    }

    #[test]
    fn event_limit_error_matches() {
        let g = test_graph(24, 19);
        let seq = Simulator::new(&g)
            .event_limit(10)
            .run(Pulse::make(NodeId::new(0)));
        let par = ShardedSimulator::new(&g)
            .event_limit(10)
            .threads(4)
            .run(Pulse::make(NodeId::new(0)));
        assert_eq!(
            seq.unwrap_err(),
            par.unwrap_err(),
            "budget abort must agree"
        );
    }

    #[test]
    fn explicit_plan_is_honored() {
        let g = test_graph(20, 2);
        let plan = ShardPlan::contiguous(20, 3);
        let seq = Simulator::new(&g).run(Pulse::make(NodeId::new(0))).unwrap();
        let par = ShardedSimulator::new(&g)
            .threads(3)
            .plan(plan)
            .run(Pulse::make(NodeId::new(0)))
            .unwrap();
        assert_runs_match(&seq, &par, "contiguous plan");
    }
}
