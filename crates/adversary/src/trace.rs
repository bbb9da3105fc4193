//! Trace-centric view of a run: dispatch decisions with their effective
//! arrival times, a happens-before/dependence relation over them, and a
//! sleep-set/DPOR explorer enumerating one delay schedule per
//! Mazurkiewicz equivalence class of delivery orders.
//!
//! # From schedules to traces
//!
//! A [`Schedule`] is a flat delay vector; many delay
//! vectors commute to the *same delivery order*, and the paper's
//! adversary quantifies over orders, not vectors. A [`Trace`] re-derives
//! the order view from a replay: it is a [`csp_sim::Observer`], and
//! every dispatch the executor reports becomes a [`TraceStep`] carrying
//! the message's identity *and* its effective delay and arrival time —
//! post-clamp, post-FIFO-floor, so the trace sees exactly when each
//! delivery fires on every executor.
//!
//! # The dependence relation
//!
//! Two deliveries are **independent** iff they touch disjoint vertex
//! sets and neither enables the other. [`TraceStep::dependent`] tests
//! vertex-set overlap (`{from, to} ∩ {from, to} ≠ ∅`), which
//! conservatively subsumes enablement: if step `i` enables step `j`,
//! then `j` was sent by the vertex `i` delivered to, so `i.to == j.from`
//! and the sets overlap. Swapping two adjacent independent deliveries
//! changes neither vertex's observation sequence, hence neither the
//! protocol states nor the cost meters — the invariance the
//! permutation proptests in `tests/dpor_suite.rs` pin.
//!
//! Dispatch-time oracles are what make sleep sets sound here: the
//! runtime consults the oracle *at dispatch*, in a deterministic global
//! order, and per-directed-channel FIFO makes "the k-th send on channel
//! c" well defined independently of how unrelated deliveries interleave.
//! A pruned branch therefore cannot smuggle in a delivery order the
//! retained representative does not already realize — the replay keyed
//! by channel occurrence ([`OccurrenceOracle`]) is invariant under
//! exactly the permutations the dependence relation declares harmless.
//!
//! # The explorer and its caveat
//!
//! [`explore_exhaustive`] runs a DFS anchored at the all-worst-case
//! schedule. At each dispatch point it enumerates alternative effective
//! arrivals, groups them by the set of *dependent* deliveries whose
//! order against the branched message would flip (the crossing set),
//! prunes empty-crossing and duplicate-group alternatives (counted in
//! [`SearchOutcome::schedules_pruned`]), and deduplicates whole classes
//! by canonical signature ([`Trace::class_signature`]) so each class is
//! evaluated once ([`SearchOutcome::classes_explored`]).
//!
//! The timed model couples orders and times both ways: shifting one
//! arrival moves every downstream send time, which can open arrival
//! windows a fixed-prefix analysis does not see. The explorer is
//! therefore exhaustive over the classes reachable by its race-driven
//! branching — for monotone protocols (flooding, DFS) the all-worst-case
//! anchor is already the true worst case and the enumeration is a
//! *coverage proof*, cross-checked against full naive enumeration in the
//! DPOR suite — but on timing-dependent protocols a class reachable only
//! through a downstream window shift can be missed. The honest contract:
//! one representative per *discovered* class, never two evaluations of
//! the same class.
//!
//! # Cost per class
//!
//! A class of a `k`-delivery run costs one replay, then its signature,
//! then one branching step per dispatch point from the branch start.
//! The signature sorts the trace into delivery order once (O(k log k)),
//! reads FIFO floors and `(channel, occurrence)` ranks in one pass, and
//! gives every vertex a bitset *row* of the delivery positions touching
//! it. Dependent deliveries are exactly those sharing a row, so a
//! delivery is ready in the least-extension walk once it heads both its
//! rows: O(k·⌈k/64⌉) with a bitset of ready ranks. A branching step ORs
//! the dispatch's two rows, which yields its dependents sorted by
//! `(arrival, index)`. Moving the dispatch's arrival flips exactly the
//! dependents between its old and new position in that order, so a
//! crossing set is the interval between two ranks: "empty" is equal
//! ranks and, with candidates taken in ascending order, "same group as
//! before" is the previous candidate's rank. Prefix keys roll along the
//! trace ([`PrefixHasher`]), and a branch's schedule is allocated only
//! once its key is new.

use crate::oracle::{Recorder, ScheduleOracle};
use crate::schedule::{Decision, Fallback, PrefixHasher, Schedule};
use crate::search::{SearchConfig, SearchOutcome};
use csp_graph::{EdgeId, NodeId, WeightedGraph};
use csp_sim::{
    DelayModel, EvalPool, LinkDecision, LinkOracle, ModelOracle, MsgInfo, NoCapture, Observer,
    Process, Run, SimTime, Simulator,
};
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// Class cap the explorer applies when
/// [`SearchConfig::class_budget`](crate::SearchConfig::class_budget) is
/// left at 0.
pub const DEFAULT_CLASS_BUDGET: usize = 4096;

/// One dispatch decision of a run, with its effective arrival time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceStep {
    /// Global dispatch index — matches [`MsgInfo::index`].
    pub index: u64,
    /// The edge crossed.
    pub edge: EdgeId,
    /// Direction bit, as in [`MsgInfo::dir`].
    pub dir: u8,
    /// Edge weight at dispatch time.
    pub weight: u64,
    /// The effective (clamped) delay the oracle decided.
    pub delay: u64,
    /// Sending vertex.
    pub from: NodeId,
    /// Receiving vertex.
    pub to: NodeId,
    /// When the message was sent.
    pub sent: u64,
    /// When the delivery fires: `max(sent + delay, channel floor)` — the
    /// post-clamp, post-FIFO-floor time the executor reports through
    /// [`Observer::dispatched`].
    pub arrival: u64,
}

impl TraceStep {
    /// The directed channel the message travelled: `2·edge + dir`. FIFO
    /// holds per channel, so "the k-th send on channel c" identifies a
    /// message independently of global interleaving.
    pub fn channel(&self) -> usize {
        2 * self.edge.index() + self.dir as usize
    }

    /// Whether the two deliveries are **dependent**: their vertex sets
    /// `{from, to}` overlap. Disjoint-vertex deliveries are independent
    /// — they cannot enable each other either, since enablement implies
    /// `self.to == other.from` (see the [module docs](self)).
    pub fn dependent(&self, other: &TraceStep) -> bool {
        self.from == other.from
            || self.from == other.to
            || self.to == other.from
            || self.to == other.to
    }

    /// The delivered schedule decision this step realizes.
    fn decision(&self) -> Decision {
        Decision {
            index: self.index,
            edge: self.edge,
            dir: self.dir,
            weight: self.weight,
            delay: self.delay,
            dropped: false,
        }
    }
}

/// A run as its sequence of dispatch decisions with effective arrivals —
/// the representation the dependence relation and the DPOR explorer
/// operate on. Steps are in dispatch order; the realized *delivery*
/// order is recovered by [`Trace::delivery_order`].
///
/// As an [`Observer`], a trace appends one step per reported dispatch:
/// pass one as the observer of [`Simulator::execute`] (or of another
/// executor's `run_observed`) to trace that run. Dropped
/// messages produce no step — they never arrive.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    steps: Vec<TraceStep>,
}

impl Observer for Trace {
    fn dispatched(&mut self, msg: &MsgInfo, delay: u64, arrival: SimTime) {
        self.steps.push(TraceStep {
            index: msg.index,
            edge: msg.edge,
            dir: msg.dir,
            weight: msg.weight.get(),
            delay,
            from: msg.from,
            to: msg.to,
            sent: msg.sent.get(),
            arrival: arrival.get(),
        });
    }
}

impl Trace {
    /// Replays `schedule` while deriving its trace: every delivered
    /// dispatch becomes a [`TraceStep`]. Returns the completed run and
    /// the trace. Decisions past the recorded horizon are served by the
    /// schedule's fallback and traced all the same, so a prefix schedule
    /// yields a full-run trace.
    pub fn record<P, F>(g: &WeightedGraph, make: F, schedule: &Schedule) -> (Run<P>, Trace)
    where
        P: Process,
        F: FnMut(NodeId, &WeightedGraph) -> P,
    {
        let (mut trace, mut pool) = (Trace::default(), EvalPool::new());
        let mut oracle = ScheduleOracle::new(schedule);
        Simulator::new(g)
            .execute(make, &mut pool, &mut oracle, &mut trace, NoCapture)
            .expect("replayed protocol must quiesce");
        (pool.into_run(), trace)
    }

    /// The recorded steps, in dispatch order.
    pub fn steps(&self) -> &[TraceStep] {
        &self.steps
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Positions into [`Trace::steps`] in realized delivery order:
    /// ascending arrival, ties broken by dispatch order — exactly the
    /// pop order of both queue cores (bucket FIFO and `(time, seq)`
    /// heap agree on it).
    pub fn delivery_order(&self) -> Vec<usize> {
        let mut keys = Vec::new();
        self.delivery_keys(&mut keys);
        keys.into_iter().map(|(_, i)| i).collect()
    }

    /// `(arrival, step)` of every step, in delivery order.
    fn delivery_keys(&self, keys: &mut Vec<(u64, usize)>) {
        keys.clear();
        keys.extend(self.steps.iter().enumerate().map(|(i, s)| (s.arrival, i)));
        keys.sort_unstable();
    }

    /// Whether steps `i` and `j` (positions into [`Trace::steps`]) are
    /// dependent — see [`TraceStep::dependent`].
    pub fn dependent(&self, i: usize, j: usize) -> bool {
        self.steps[i].dependent(&self.steps[j])
    }

    /// Rebuilds the delay-only [`Schedule`] this trace realizes. Only
    /// meaningful for drop-free runs (every dispatch delivered), where
    /// step positions coincide with dispatch indices.
    pub fn to_schedule(&self, fallback: Fallback) -> Schedule {
        let decisions: Vec<Decision> = self.steps.iter().map(TraceStep::decision).collect();
        debug_assert!(
            decisions
                .iter()
                .enumerate()
                .all(|(i, d)| d.index == i as u64),
            "to_schedule requires a drop-free trace"
        );
        Schedule {
            decisions,
            fallback,
            ..Schedule::default()
        }
    }

    /// Canonical 64-bit signature of the run's Mazurkiewicz class: the
    /// hash of the lexicographically least linear extension of the
    /// dependence partial order over the realized delivery sequence,
    /// with each delivery named by its `(channel, occurrence)` pair —
    /// stable under exactly the permutations that commute independent
    /// deliveries. Two runs get equal signatures iff they realize the
    /// same class (up to 64-bit-hash collisions).
    pub fn class_signature(&self) -> u64 {
        self.class_signature_with(&mut TraceIndex::default())
    }

    /// [`Trace::class_signature`] computed in `index`, which is left
    /// holding this trace's tables for the explorer's branching step.
    pub(crate) fn class_signature_with(&self, index: &mut TraceIndex) -> u64 {
        index.build(self);
        index.signature(&self.steps)
    }
}

/// The tables one trace's class signature and branching step read,
/// rebuilt in place per trace so the explorer allocates them once per
/// call. Delivery positions index the realized delivery order
/// ([`Trace::delivery_order`]); ranks order the steps by `(channel,
/// occurrence)`.
#[derive(Default)]
pub(crate) struct TraceIndex {
    /// Delivery position → `(arrival, step)`, ascending.
    ord: Vec<(u64, usize)>,
    /// Step → delivery position.
    pos: Vec<usize>,
    /// Step → rank.
    rank: Vec<usize>,
    /// Rank → step.
    by_rank: Vec<usize>,
    /// Step → its channel's FIFO floor right before it dispatched: the
    /// previous arrival on the channel, 0 for the channel's first.
    floor: Vec<u64>,
    /// Per channel: its first rank, and its last arrival while building.
    channels: Vec<(usize, u64)>,
    /// Words per bitset: `⌈k/64⌉` for `k` steps.
    words: usize,
    /// Row `v` (`words` words): the delivery positions whose step
    /// touches vertex `v`. Two steps are dependent iff they share a row.
    touch: Vec<u64>,
    /// Signature walk: per vertex, the first position of its row not
    /// yet emitted.
    heads: Vec<Option<usize>>,
    /// Signature walk: the ranks of the ready deliveries.
    ready: Vec<u64>,
}

impl TraceIndex {
    fn build(&mut self, trace: &Trace) {
        let steps = &trace.steps;
        trace.delivery_keys(&mut self.ord);
        self.pos.resize(steps.len(), 0);
        for (d, &(_, i)) in self.ord.iter().enumerate() {
            self.pos[i] = d;
        }
        // One pass in dispatch order reads every step's FIFO floor and
        // occurrence on its channel, and counts each channel's sends...
        let channels = steps.iter().map(|s| s.channel() + 1).max().unwrap_or(0);
        self.channels.clear();
        self.channels.resize(channels, (0, 0));
        self.rank.clear();
        self.floor.clear();
        for s in steps {
            let (sent, last) = &mut self.channels[s.channel()];
            self.rank.push(*sent);
            self.floor.push(*last);
            *sent += 1;
            *last = s.arrival;
        }
        // ...so channel c's sends rank right after those of every lower
        // channel, in occurrence order.
        let mut first = 0;
        for (start, _) in &mut self.channels {
            first += std::mem::replace(start, first);
        }
        self.by_rank.resize(steps.len(), 0);
        for (i, s) in steps.iter().enumerate() {
            self.rank[i] += self.channels[s.channel()].0;
            self.by_rank[self.rank[i]] = i;
        }
        let vertices = steps
            .iter()
            .map(|s| s.from.index().max(s.to.index()) + 1)
            .max()
            .unwrap_or(0);
        self.words = steps.len().div_ceil(64);
        self.touch.clear();
        self.touch.resize(vertices * self.words, 0);
        for (d, &(_, i)) in self.ord.iter().enumerate() {
            for v in [steps[i].from, steps[i].to] {
                self.touch[v.index() * self.words + d / 64] |= 1 << (d % 64);
            }
        }
        self.heads.resize(vertices, None);
    }

    /// Vertex `v`'s row of `touch`.
    fn row(&self, v: usize) -> &[u64] {
        &self.touch[v * self.words..(v + 1) * self.words]
    }

    /// Greedy least linear extension by `(channel, occurrence)`. A
    /// delivery's predecessors are the earlier positions in its
    /// endpoints' rows, so it is ready once it heads both rows, and only
    /// the emitted delivery's endpoints get new heads.
    fn signature(&mut self, steps: &[TraceStep]) -> u64 {
        for v in 0..self.heads.len() {
            self.heads[v] = first_from(self.row(v), 0);
        }
        self.ready.clear();
        self.ready.resize(self.words, 0);
        for v in 0..self.heads.len() {
            self.mark_if_ready(steps, self.heads[v]);
        }
        let mut h = SIG_OFFSET;
        while let Some(r) = first_from(&self.ready, 0) {
            self.ready[r / 64] &= !(1 << (r % 64));
            let i = self.by_rank[r];
            let (s, channel) = (&steps[i], steps[i].channel());
            h = mix(h, channel as u64);
            h = mix(h, (r - self.channels[channel].0) as u64);
            for v in [s.from.index(), s.to.index()] {
                self.heads[v] = first_from(self.row(v), self.pos[i] + 1);
            }
            for v in [s.from.index(), s.to.index()] {
                self.mark_if_ready(steps, self.heads[v]);
            }
        }
        h
    }

    /// Marks the delivery at position `head` ready if it heads both its
    /// endpoints' rows (marking twice is harmless).
    fn mark_if_ready(&mut self, steps: &[TraceStep], head: Option<usize>) {
        let Some(d) = head else { return };
        let i = self.ord[d].1;
        if self.heads[steps[i].from.index()] == head && self.heads[steps[i].to.index()] == head {
            let r = self.rank[i];
            self.ready[r / 64] |= 1 << (r % 64);
        }
    }

    /// Fills `out` with the `(arrival, step)` of every step dependent on
    /// step `i`, in delivery order, and returns how many of them deliver
    /// before it.
    fn dependents(&self, s: &TraceStep, i: usize, out: &mut Vec<(u64, usize)>) -> usize {
        let d = self.pos[i];
        out.clear();
        for (k, (&a, &b)) in self
            .row(s.from.index())
            .iter()
            .zip(self.row(s.to.index()))
            .enumerate()
        {
            let mut bits = a | b;
            while bits != 0 {
                let p = 64 * k + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if p != d {
                    out.push(self.ord[p]);
                }
            }
        }
        out.partition_point(|&e| e < self.ord[d])
    }
}

/// The least position at or above `p` set in the bitset `bits`.
fn first_from(bits: &[u64], p: usize) -> Option<usize> {
    let mut k = p / 64;
    let mut word = bits.get(k)? & (u64::MAX << (p % 64));
    while word == 0 {
        k += 1;
        word = *bits.get(k)?;
    }
    Some(64 * k + word.trailing_zeros() as usize)
}

const SIG_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn mix(h: u64, word: u64) -> u64 {
    let mut x = (h ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 32;
    x.wrapping_mul(0xff51_afd7_ed55_8ccd)
}

/// [`Hasher`] for keys that are already well-mixed 64-bit hashes (class
/// signatures, prefix keys): hashing them again only costs time.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("PassThrough hashes u64 keys only")
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

type KeySet = HashSet<u64, BuildHasherDefault<PassThrough>>;

/// Replays a delay schedule keyed by **channel occurrence** instead of
/// global dispatch index: the k-th send on directed channel `c` takes
/// the delay the k-th recorded decision on `c` took, wherever that send
/// lands in the global dispatch order.
///
/// Per-directed-channel FIFO makes the key well defined, and the lookup
/// is invariant under any permutation of the decision list that
/// preserves per-channel order — which is precisely why permuting
/// *independent* decisions replays to a bit-identical run (pinned by the
/// DPOR proptest suite). Sends beyond a channel's recorded decisions are
/// delivered at full weight ([`Fallback::WorstCase`] semantics) and
/// counted in [`OccurrenceOracle::unmatched`]; the oracle never drops.
#[derive(Clone, Debug, Default)]
pub struct OccurrenceOracle {
    /// Per channel: the recorded delays, in order.
    delays: Vec<Vec<u64>>,
    /// Per channel: sends seen so far.
    cursor: Vec<usize>,
    /// Sends past their channel's recorded decisions, served at full
    /// weight. A faithful same-run replay keeps this at 0.
    pub unmatched: u64,
}

impl OccurrenceOracle {
    /// Builds the per-channel delay lists from `decisions` in the given
    /// order (delay-only: a dropped decision contributes its recorded
    /// delay — this oracle never drops).
    pub fn new(decisions: &[Decision]) -> Self {
        let channels = decisions.iter().map(|d| d.channel() + 1).max().unwrap_or(0);
        let mut delays = vec![Vec::new(); channels];
        for d in decisions {
            delays[d.channel()].push(d.delay);
        }
        OccurrenceOracle {
            delays,
            cursor: vec![0; channels],
            unmatched: 0,
        }
    }
}

impl LinkOracle for OccurrenceOracle {
    fn decide(&mut self, msg: &MsgInfo) -> LinkDecision {
        let channel = 2 * msg.edge.index() + msg.dir as usize;
        // Channels no decision names have no cursor: every send on them
        // is unmatched.
        let slot = self.cursor.get_mut(channel).and_then(|k| {
            *k += 1;
            self.delays[channel].get(*k - 1).copied()
        });
        match slot {
            Some(delay) => LinkDecision::Deliver { delay },
            None => {
                self.unmatched += 1;
                LinkDecision::Deliver {
                    delay: msg.weight.get(),
                }
            }
        }
    }
}

/// One frontier item of the explorer's DFS: a branch schedule and the
/// dispatch position branching resumes from (sleep-set discipline:
/// positions before it are covered by the parent).
struct Frontier {
    schedule: Schedule,
    branch_start: usize,
}

/// Enumerates one representative delay schedule per Mazurkiewicz class
/// of delivery orders reachable from the all-worst-case anchor,
/// returning the worst representative found. Delay-only: drops and
/// crashes are separate search dimensions the explorer does not touch.
///
/// DFS discipline (see the [module docs](self) for soundness, cost and
/// the timed-model caveat):
///
/// 1. replay the frontier schedule, trace it, and skip it entirely if
///    its class was already evaluated;
/// 2. otherwise count the class, adopt its completion time if worse
///    than the incumbent, and branch: at every dispatch position from
///    the branch start, enumerate alternative effective arrivals,
///    group them by crossing set against *dependent* deliveries, and
///    keep the earliest-arrival representative of each non-empty group
///    whose decision prefix is new (everything else is pruned);
/// 3. stop at the class budget
///    ([`SearchConfig::effective_class_budget`]) or at `8×` that many
///    replays, whichever comes first.
///
/// The outcome's strategy is `"exhaustive"`;
/// [`SearchOutcome::classes_explored`] and
/// [`SearchOutcome::schedules_pruned`] report the reduction achieved.
/// Deterministic: same graph, protocol and config — same outcome.
pub fn explore_exhaustive<P, F>(g: &WeightedGraph, make: F, cfg: &SearchConfig) -> SearchOutcome
where
    P: Process,
    F: Fn(NodeId, &WeightedGraph) -> P,
{
    let sim = Simulator::new(g);
    let mut pool: EvalPool<P> = EvalPool::new();
    let class_budget = cfg.effective_class_budget();
    let eval_budget = class_budget.saturating_mul(8);

    // Anchor: the all-worst-case run, which also defines `worst_case`.
    let mut rec = Recorder::new(ModelOracle::new(DelayModel::WorstCase, cfg.seed));
    let anchor_time = sim
        .eval(&mut pool, &mut rec, |v, g| make(v, g))
        .expect("protocol must quiesce under worst-case delays")
        .completion;
    let anchor = rec.into_schedule(Fallback::WorstCase);

    let mut best = SearchOutcome {
        worst_case: anchor_time,
        best_time: anchor_time,
        schedule: anchor.clone(),
        strategy: "exhaustive",
        evaluations: 1,
        classes_explored: 0,
        schedules_pruned: 0,
    };

    let mut seen_classes = KeySet::default();
    let mut seen_prefixes = KeySet::default();
    let mut stack = vec![Frontier {
        schedule: anchor,
        branch_start: 0,
    }];
    // Branches carry no fault plan, so every prefix key starts here.
    let empty_prefix = PrefixHasher::new(&Schedule::default());
    let (mut trace, mut index) = (Trace::default(), TraceIndex::default());
    let (mut deps, mut candidates) = (Vec::new(), Vec::new());

    while let Some(Frontier {
        schedule,
        branch_start,
    }) = stack.pop()
    {
        if best.classes_explored as usize >= class_budget || best.evaluations >= eval_budget {
            break;
        }
        // Replay + trace the frontier schedule. The replay extends past
        // the recorded prefix under the worst-case fallback, so the
        // trace always covers the whole run.
        let mut oracle = ScheduleOracle::new(&schedule);
        trace.steps.clear();
        let completion = sim
            .execute(&make, &mut pool, &mut oracle, &mut trace, NoCapture)
            .expect("protocol must quiesce under an admissible schedule")
            .completion;
        best.evaluations += 1;

        if !seen_classes.insert(trace.class_signature_with(&mut index)) {
            // A different delay vector, same delivery-order class: the
            // class representative already evaluated covers it.
            best.schedules_pruned += 1;
            continue;
        }
        best.classes_explored += 1;
        if completion > best.best_time {
            best.best_time = completion;
            best.schedule = trace.to_schedule(Fallback::WorstCase);
        }

        // Branch on dependent races at every dispatch point from the
        // sleep-set start, rolling the prefix key along the trace.
        let mut prefix = empty_prefix;
        for (i, step) in trace.steps.iter().enumerate() {
            if i >= branch_start {
                let lo = (step.sent + 1).max(index.floor[i]);
                let hi = (step.sent + step.weight).max(lo);
                // Dependents in ascending (arrival, index) order; `now`
                // of them currently deliver before step i.
                let now = index.dependents(step, i, &mut deps);
                // Candidate arrivals: the extremes plus the boundaries
                // around every dependent delivery inside the feasible
                // window — enough to realize every distinct crossing set.
                // Dependents ascend, so emitting only values above the
                // last one emitted leaves the candidates sorted and
                // distinct.
                candidates.clear();
                let mut emit = |t: u64| {
                    if (lo..=hi).contains(&t) && candidates.last().is_none_or(|&c| c < t) {
                        candidates.push(t);
                    }
                };
                emit(lo);
                for &(a, _) in &deps {
                    [a.saturating_sub(1), a, a + 1]
                        .into_iter()
                        .for_each(&mut emit);
                }
                emit(hi);
                // Crossing set: the dependents whose order against step i
                // flips when its arrival moves from `step.arrival` to
                // `target` (dispatch index breaks arrival ties, matching
                // the queue cores) — those ranked between `now` and
                // `then`. Targets ascend, so `then` does too, and equal
                // crossing sets are neighbours.
                let (mut then, mut last_group) = (0, None);
                for &target in &candidates {
                    if target == step.arrival {
                        continue;
                    }
                    while then < deps.len() && deps[then] < (target, i) {
                        then += 1;
                    }
                    if then == now {
                        // Sleep-set covered: no dependent race flips, so
                        // the branch commutes back into this very class.
                        best.schedules_pruned += 1;
                        continue;
                    }
                    if last_group == Some(then) {
                        // Same crossing set as the previous (earlier-
                        // arrival) candidate: one representative per
                        // race suffices.
                        best.schedules_pruned += 1;
                        continue;
                    }
                    last_group = Some(then);
                    let delay = target.saturating_sub(step.sent).clamp(1, step.weight);
                    let mut key = prefix;
                    key.absorb(&Decision {
                        delay,
                        ..step.decision()
                    });
                    if !seen_prefixes.insert(key.key()) {
                        best.schedules_pruned += 1;
                        continue;
                    }
                    let mut decisions: Vec<Decision> =
                        trace.steps[..=i].iter().map(TraceStep::decision).collect();
                    decisions[i].delay = delay;
                    stack.push(Frontier {
                        schedule: Schedule {
                            decisions,
                            fallback: Fallback::WorstCase,
                            ..Schedule::default()
                        },
                        branch_start: i + 1,
                    });
                }
            }
            prefix.absorb(&step.decision());
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{record, replay};
    use csp_algo::spt::recur::SptRecur;
    use csp_graph::generators::{self, WeightDist};
    use csp_sim::Context;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};

    #[derive(Clone)]
    struct Flood {
        seen: bool,
    }

    impl Process for Flood {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
            if ctx.self_id() == NodeId::new(0) {
                self.seen = true;
                ctx.send_all(());
            }
        }
        fn on_message(&mut self, _from: NodeId, _msg: (), ctx: &mut Context<'_, ()>) {
            if !self.seen {
                self.seen = true;
                ctx.send_all(());
            }
        }
    }

    fn flood() -> impl Fn(NodeId, &WeightedGraph) -> Flood + Sync {
        |_, _| Flood { seen: false }
    }

    fn tiny() -> WeightedGraph {
        generators::connected_gnp(8, 0.35, WeightDist::Uniform(1, 3), 11)
    }

    fn recorded(g: &WeightedGraph, seed: u64) -> Schedule {
        let (_, s) = record(
            g,
            flood(),
            ModelOracle::new(DelayModel::Uniform, seed),
            Fallback::WorstCase,
        );
        s
    }

    #[test]
    fn trace_matches_its_schedule() {
        let g = tiny();
        let s = recorded(&g, 3);
        let (run, trace) = Trace::record::<Flood, _>(&g, flood(), &s);
        assert_eq!(trace.len(), s.decisions.len());
        for (step, d) in trace.steps().iter().zip(&s.decisions) {
            assert_eq!(step.index, d.index);
            assert_eq!(step.edge, d.edge);
            assert_eq!(step.delay, d.delay);
            assert!(step.arrival >= step.sent + step.delay);
        }
        // The trace's completion is the run's: the latest arrival.
        let max_arrival = trace.steps().iter().map(|s| s.arrival).max().unwrap();
        assert_eq!(max_arrival, run.cost.completion.get());
        // Rebuilt schedule round-trips.
        assert_eq!(
            trace.to_schedule(Fallback::WorstCase).decisions,
            s.decisions
        );
    }

    #[test]
    fn arrivals_respect_fifo_floors() {
        let g = tiny();
        let mut index = TraceIndex::default();
        // Flood sends once per channel; `SptRecur` repeats channels, so
        // its floors are not all 0.
        for trace in traces(&g, 5) {
            index.build(&trace);
            for (i, s) in trace.steps().iter().enumerate() {
                // The floor is the previous arrival on the same channel.
                let floor = trace.steps()[..i]
                    .iter()
                    .rev()
                    .find(|p| p.channel() == s.channel())
                    .map_or(0, |p| p.arrival);
                assert_eq!(index.floor[i], floor);
                assert_eq!(s.arrival, (s.sent + s.delay).max(floor));
            }
        }
    }

    /// Reference class signature: an explicit O(k²) dependence DAG over
    /// delivery positions and a heap-driven least linear extension,
    /// which `class_signature` must equal.
    fn naive_class_signature(trace: &Trace) -> u64 {
        let steps = trace.steps();
        let ord = trace.delivery_order();
        let k = ord.len();
        let mut occ = vec![0u64; steps.len()];
        let mut counts: HashMap<usize, u64> = HashMap::new();
        for (pos, s) in steps.iter().enumerate() {
            let c = counts.entry(s.channel()).or_insert(0);
            occ[pos] = *c;
            *c += 1;
        }
        let mut indeg = vec![0usize; k];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); k];
        for p in 0..k {
            for q in (p + 1)..k {
                if steps[ord[p]].dependent(&steps[ord[q]]) {
                    succs[p].push(q);
                    indeg[q] += 1;
                }
            }
        }
        let mut ready: BinaryHeap<Reverse<(usize, u64, usize)>> = (0..k)
            .filter(|&p| indeg[p] == 0)
            .map(|p| Reverse((steps[ord[p]].channel(), occ[ord[p]], p)))
            .collect();
        let mut h = SIG_OFFSET;
        while let Some(Reverse((channel, occurrence, p))) = ready.pop() {
            h = mix(h, channel as u64);
            h = mix(h, occurrence);
            for &q in &succs[p] {
                indeg[q] -= 1;
                if indeg[q] == 0 {
                    ready.push(Reverse((steps[ord[q]].channel(), occ[ord[q]], q)));
                }
            }
        }
        h
    }

    /// Traces one run of flood and one of single-strip `SptRecur` (which
    /// sends several times per channel) under seeded uniform delays.
    fn traces(g: &WeightedGraph, seed: u64) -> [Trace; 2] {
        fn traced<P: Process>(
            g: &WeightedGraph,
            seed: u64,
            make: impl FnMut(NodeId, &WeightedGraph) -> P,
        ) -> Trace {
            let mut trace = Trace::default();
            let mut oracle = ModelOracle::new(DelayModel::Uniform, seed);
            Simulator::new(g)
                .execute(
                    make,
                    &mut EvalPool::new(),
                    &mut oracle,
                    &mut trace,
                    NoCapture,
                )
                .expect("quiesces under any admissible delays");
            trace
        }
        [
            traced(g, seed, flood()),
            traced(g, seed, |v, _| SptRecur::new(v, NodeId::new(0), 1 << 40)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The bitset signature equals the O(k²) reference on flood and
        /// `SptRecur` traces, small ones and — on the n = 16, p = 0.5
        /// graph every case adds — ones longer than 64 deliveries, where
        /// each vertex row spans several words.
        #[test]
        fn class_signature_equals_the_naive_one(
            n in 4usize..=12,
            p in 0.1f64..0.6,
            w_max in 2u64..=4,
            graph_seed in any::<u64>(),
            delay_seed in any::<u64>(),
        ) {
            let small = generators::connected_gnp(n, p, WeightDist::Uniform(1, w_max), graph_seed);
            let large = generators::connected_gnp(16, 0.5, WeightDist::Uniform(1, w_max), graph_seed);
            let mut index = TraceIndex::default();
            for (g, multi_word) in [(&small, false), (&large, true)] {
                for trace in traces(g, delay_seed) {
                    prop_assert!(!multi_word || trace.len() > 64);
                    let want = naive_class_signature(&trace);
                    prop_assert_eq!(trace.class_signature(), want);
                    // A reused index (the explorer's path) agrees too.
                    prop_assert_eq!(trace.class_signature_with(&mut index), want);
                }
            }
        }
    }

    #[test]
    fn class_signature_is_deterministic_and_rushing_changes_the_class() {
        let g = tiny();
        let (_, trace) = Trace::record::<Flood, _>(&g, flood(), &recorded(&g, 7));
        let base_sig = trace.class_signature();
        let ord = trace.delivery_order();
        // The signature is a function of the dependence partial order, so
        // recomputing it is stable. That it is invariant under swaps of
        // independent deliveries is `dpor_suite`'s
        // `independent_swaps_replay_bit_identically`.
        assert_eq!(trace.class_signature(), base_sig, "deterministic");
        // A genuinely different class (rush everything) differs.
        let mut rushed = trace.to_schedule(Fallback::WorstCase);
        for d in &mut rushed.decisions {
            d.delay = 1;
        }
        let (_, rushed_trace) = Trace::record::<Flood, _>(&g, flood(), &rushed);
        // Rushing every delay reorders dependent deliveries on any graph
        // where the worst-case order had slack; tolerate equality only if
        // the delivery order is genuinely unchanged.
        if rushed_trace.delivery_order() != ord
            && rushed_trace
                .delivery_order()
                .iter()
                .zip(&ord)
                .any(|(&a, &b)| rushed_trace.steps()[a].channel() != trace.steps()[b].channel())
        {
            assert_ne!(rushed_trace.class_signature(), base_sig);
        }
    }

    #[test]
    fn occurrence_replay_reproduces_the_run() {
        let g = tiny();
        let s = recorded(&g, 9);
        let direct = replay::<Flood, _>(&g, flood(), &s);
        let mut occ = OccurrenceOracle::new(&s.decisions);
        let via_occurrence = Simulator::new(&g)
            .run_with_oracle(&mut occ, flood())
            .unwrap();
        assert_eq!(occ.unmatched, 0);
        assert_eq!(direct.cost, via_occurrence.cost);
        // `SptRecur` sends several times per channel, so the replay must
        // walk each channel's delays in order.
        let spt = |v, _: &WeightedGraph| SptRecur::new(v, NodeId::new(0), 1 << 40);
        let (direct, s) = record(
            &g,
            spt,
            ModelOracle::new(DelayModel::Uniform, 9),
            Fallback::WorstCase,
        );
        let mut occ = OccurrenceOracle::new(&s.decisions);
        let via_occurrence = Simulator::new(&g).run_with_oracle(&mut occ, spt).unwrap();
        assert_eq!(occ.unmatched, 0);
        assert_eq!(direct.cost, via_occurrence.cost);
        assert!(via_occurrence.cost.messages > 2 * g.edge_count() as u64);
    }

    #[test]
    fn explorer_covers_at_least_the_anchor_and_is_deterministic() {
        let g = tiny();
        let cfg = SearchConfig::builder().exhaustive(256).build().unwrap();
        let a = explore_exhaustive(&g, flood(), &cfg);
        let b = explore_exhaustive(&g, flood(), &cfg);
        assert_eq!(a.strategy, "exhaustive");
        assert!(a.classes_explored >= 1);
        assert!(a.best_time >= a.worst_case);
        assert_eq!(a.best_time, b.best_time);
        assert_eq!(a.classes_explored, b.classes_explored);
        assert_eq!(a.schedules_pruned, b.schedules_pruned);
        assert_eq!(a.schedule, b.schedule);
        // The returned representative replays to exactly the best time.
        let rerun = replay::<Flood, _>(&g, flood(), &a.schedule);
        assert_eq!(rerun.cost.completion, a.best_time);
    }

    #[test]
    fn explorer_respects_the_class_budget() {
        let g = tiny();
        let cfg = SearchConfig::builder().exhaustive(4).build().unwrap();
        let out = explore_exhaustive(&g, flood(), &cfg);
        assert!(out.classes_explored <= 4);
    }
}
