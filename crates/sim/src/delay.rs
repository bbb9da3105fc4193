//! Edge delay models and the dispatch-time link oracle.
//!
//! The paper's time complexity is defined against an adversary that may
//! delay each message on edge `e` by anything in `[0, w(e)]`. The
//! simulator realizes a spectrum of adversaries, from the fixed per-edge
//! policies of [`DelayModel`] up to fully general per-message
//! [`LinkOracle`]s, which additionally decide *whether* a message
//! arrives at all ([`LinkDecision::Drop`]) and hand the runtime a
//! [`FaultPlan`] — which vertices crash and rejoin, and which edge
//! weights drift — before time zero ([`LinkOracle::fault_plan`]). The
//! `csp-adversary` crate builds schedule search, record/replay and
//! counterexample shrinking on top of the oracle hook.
//!
//! **Quantization deviation (stated here, once).** Delays are quantized
//! to at least one tick so that every run has finitely many events per
//! time unit; this shifts the adversary's range from the paper's
//! `[0, w(e)]` to `[1, w(e)]`, which changes no asymptotic statement
//! (all weights are ≥ 1). The runtime enforces the range by clamping
//! every oracle decision into `[1, w(e)]`. This is the one in-code home
//! of the deviation; the corresponding row of DESIGN.md's
//! implementation-deviation table links back here so the two cannot
//! drift.

use crate::time::SimTime;
use csp_graph::{EdgeId, NodeId, Weight};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// How message delays are chosen.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DelayModel {
    /// Every message takes exactly `w(e)` — the worst-case adversary, and
    /// the model under which the paper's time bounds are stated.
    #[default]
    WorstCase,
    /// Uniformly random in `[1, w(e)]`, drawn from the simulator's seeded
    /// generator.
    Uniform,
    /// Every message takes exactly `max(1, w(e)·num/den)` — a "partially
    /// loaded" network.
    Proportional {
        /// Numerator of the load fraction.
        num: u64,
        /// Denominator of the load fraction.
        den: u64,
    },
    /// Every message takes exactly 1 tick regardless of weight — the
    /// most favorable schedule (weights then act only as *costs*).
    Eager,
}

impl DelayModel {
    /// Samples the delay for one message on an edge of weight `w`.
    pub fn sample(self, w: Weight, rng: &mut StdRng) -> u64 {
        match self {
            DelayModel::WorstCase => w.get(),
            DelayModel::Uniform => rng.random_range(1..=w.get()),
            DelayModel::Proportional { num, den } => {
                assert!(den > 0, "proportional delay denominator must be nonzero");
                (w.get().saturating_mul(num) / den).clamp(1, w.get())
            }
            DelayModel::Eager => 1,
        }
    }
}

/// Everything known about one message at the moment its delay is decided
/// (dispatch time), handed to a [`DelayOracle`].
///
/// `index` is the global dispatch index: the i-th metered send of the run
/// has `index == i`. Runs are deterministic given an oracle, so the index
/// names the same message across a record/replay pair — the property the
/// `csp-adversary` schedule format relies on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MsgInfo {
    /// Global dispatch index of this message (0-based send order).
    pub index: u64,
    /// The edge the message crosses.
    pub edge: EdgeId,
    /// Direction bit: `0` when the sender is the edge's `u` endpoint,
    /// `1` otherwise — the same encoding as the runtime's FIFO channels.
    pub dir: u8,
    /// Weight of the edge (the adversary may pick any delay in
    /// `[1, w]`).
    pub weight: Weight,
    /// Sending vertex.
    pub from: NodeId,
    /// Receiving vertex.
    pub to: NodeId,
    /// Simulated time at which the message is sent.
    pub sent: SimTime,
}

/// The delay-only adversary interface: every `DelayOracle` is a
/// [`LinkOracle`] that always delivers and plans no faults, through a
/// blanket impl.
///
/// Oracles are stateful (`&mut self`): recording, replaying and
/// search-strategy oracles all need memory.
pub trait DelayOracle {
    /// Returns the delay, in ticks, of the message described by `msg`.
    ///
    /// Values outside `[1, w(e)]` are clamped by the runtime, so `0`
    /// means "as fast as the model allows" and `u64::MAX` means "as slow
    /// as the adversary may be".
    fn delay(&mut self, msg: &MsgInfo) -> u64;
}

/// A link adversary's verdict on one dispatched message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LinkDecision {
    /// Deliver the message after `delay` ticks. The runtime clamps the
    /// delay into `[1, w(e)]` (see the [module docs](self) for why the
    /// floor is 1).
    Deliver {
        /// Requested delay in ticks, clamped into `[1, w(e)]`.
        delay: u64,
    },
    /// Lose the message. The send is still metered (the sender paid
    /// `w(e)` the moment it transmitted) and still consumes a dispatch
    /// index, but nothing is enqueued and the channel's FIFO floor does
    /// not move.
    Drop,
}

/// What the adversary does to vertices and edge weights, fixed before
/// time zero: plain data, handed over once through
/// [`LinkOracle::fault_plan`].
///
/// * `churn` — sparse per-vertex **toggle chains**: strictly increasing
///   times alternating crash, rejoin, crash, … (even positions crash,
///   odd positions rejoin); a one-entry chain is classic crash-stop.
///   From a crash instant on (inclusive — a crash at 0 even suppresses
///   `on_start`) the vertex is dead: its deliveries and timer fires are
///   consumed silently, and senders still pay for messages sent to it.
///   A rejoin restarts it with **fresh protocol state** (`on_start`
///   runs again at the rejoin instant); timers armed by the previous
///   incarnation die, while in-flight messages arriving at or after the
///   rejoin reach the fresh state.
/// * `drift` — edge-weight revisions `(edge, time, new weight)`. A
///   revision holds for every event processed at or after its time:
///   delays on the edge clamp into the new `[1, w]`, sends meter at the
///   new weight, and protocols observe it through
///   [`Context::weight_of`](crate::Context::weight_of). Same-instant
///   revisions apply in plan order.
///
/// [`FaultPlan::check`] is the one definition of a well-formed plan.
/// The runtime applies it at intake, whichever oracle produced the
/// plan, and panics with the [`PlanError`]; the schedule parser and the
/// scenario service apply the same rules to plans that arrive as text
/// and answer with an error instead.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FaultPlan {
    /// Per-vertex toggle chains, at most one per vertex, in any order.
    pub churn: Vec<(NodeId, Vec<SimTime>)>,
    /// Weight revisions, in plan order.
    pub drift: Vec<(EdgeId, SimTime, Weight)>,
}

/// Why a [`FaultPlan`] cannot be run: the message names the offending
/// vertex or edge.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PlanError(String);

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for PlanError {}

impl FaultPlan {
    /// Whether the plan can run on a graph of `n` vertices and `m`
    /// edges: every chain strictly increasing, at most one non-empty
    /// chain per vertex, every vertex below `n` and every revised edge
    /// below `m`. (A revised weight is at least 1 by [`Weight`]'s own
    /// invariant.)
    ///
    /// # Errors
    ///
    /// The first rule broken, naming the vertex or edge.
    pub fn check(&self, n: usize, m: usize) -> Result<(), PlanError> {
        let mut churned = Vec::with_capacity(self.churn.len());
        for (v, chain) in &self.churn {
            if v.index() >= n {
                return Err(PlanError(format!(
                    "churn chain names {v}, but the graph has {n} vertices"
                )));
            }
            if !chain.windows(2).all(|w| w[0] < w[1]) {
                return Err(PlanError(format!(
                    "churn chain for {v} must be strictly increasing"
                )));
            }
            if !chain.is_empty() {
                churned.push(*v);
            }
        }
        churned.sort_unstable();
        if let Some(w) = churned.windows(2).find(|w| w[0] == w[1]) {
            return Err(PlanError(format!("{} has two churn chains", w[0])));
        }
        match self.drift.iter().find(|(e, _, _)| e.index() >= m) {
            Some((e, _, _)) => Err(PlanError(format!(
                "drift revision names {e}, but the graph has {m} edges"
            ))),
            None => Ok(()),
        }
    }

    /// This plan followed by `other`'s chains and revisions — how a
    /// wrapping oracle composes its own faults with its inner oracle's
    /// (`inner.fault_plan().merge(mine)`). Two chains for one vertex
    /// are not reconciled here; intake rejects them.
    #[must_use]
    pub fn merge(mut self, other: FaultPlan) -> FaultPlan {
        self.churn.extend(other.churn);
        self.drift.extend(other.drift);
        self
    }
}

/// Decides each message's fate at dispatch time — the simulator's
/// adversary interface.
///
/// The oracle sees the full dispatch context ([`MsgInfo`]) and returns a
/// [`LinkDecision`]: deliver after some delay, or drop. Delivered delays
/// are clamped into `[1, w(e)]`, and per-directed-edge FIFO order is
/// still enforced afterwards, so an oracle can never reorder a channel —
/// only stretch, squeeze or puncture it. Vertex churn and weight drift
/// are not per-message decisions: the oracle states them once, as a
/// [`FaultPlan`].
///
/// Every [`DelayOracle`] is a `LinkOracle` through a blanket impl that
/// always delivers, so delay-only adversaries (the common case) need not
/// mention faults at all. The fixed [`DelayModel`] policies are
/// re-expressed as the stateless-per-message [`ModelOracle`].
///
/// An oracle decides; it is not told what its decisions led to. Whoever
/// needs effective arrivals or deliveries passes an
/// [`Observer`](crate::Observer) to [`Simulator::execute`](crate::Simulator::execute)
/// (or to another executor's `run_observed`).
pub trait LinkOracle {
    /// Returns the fate of the message described by `msg`.
    fn decide(&mut self, msg: &MsgInfo) -> LinkDecision;

    /// The adversary's vertex churn and weight drift for this run.
    ///
    /// Queried exactly once when a run starts, after the per-vertex
    /// states are built and before any handler executes; a run resumed
    /// from a [`Checkpoint`](crate::Checkpoint) carries its plan in the
    /// snapshot and never asks. Wrapping oracles forward the inner plan,
    /// [`merge`](FaultPlan::merge)d with their own. The default
    /// adversary plans nothing.
    fn fault_plan(&mut self) -> FaultPlan {
        FaultPlan::default()
    }
}

/// Every delay-only oracle is a link oracle that always delivers.
impl<T: DelayOracle + ?Sized> LinkOracle for T {
    fn decide(&mut self, msg: &MsgInfo) -> LinkDecision {
        LinkDecision::Deliver {
            delay: self.delay(msg),
        }
    }
}

/// A [`DelayModel`] plus its seeded generator, as a [`LinkOracle`] that
/// always delivers.
///
/// [`Simulator::run`](crate::Simulator::run) is defined as
/// `run_with_oracle` over a `ModelOracle`, so a model-driven run and the
/// equivalent oracle-driven run are bit-identical by construction
/// (pinned by the `flat_core_differential` suite).
#[derive(Clone, Debug)]
pub struct ModelOracle {
    model: DelayModel,
    rng: StdRng,
}

impl ModelOracle {
    /// Wraps `model` with a generator seeded from `seed` — the same
    /// construction [`Simulator::run`](crate::Simulator::run) uses.
    pub fn new(model: DelayModel, seed: u64) -> Self {
        ModelOracle {
            model,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl DelayOracle for ModelOracle {
    fn delay(&mut self, msg: &MsgInfo) -> u64 {
        self.model.sample(msg.weight, &mut self.rng)
    }
}

impl<O: DelayOracle + ?Sized> DelayOracle for &mut O {
    fn delay(&mut self, msg: &MsgInfo) -> u64 {
        (**self).delay(msg)
    }
}

/// A [`DelayModel`] plus seeded Bernoulli message loss, as a
/// [`LinkOracle`].
///
/// Each message is dropped with probability `drop_rate`, except that a
/// per-directed-channel *drop budget* bounds consecutive losses: after
/// `budget` drops on a channel, the next message on it is
/// force-delivered (which resets the channel's budget). The budget is
/// what makes retransmission over this oracle *provably* live rather
/// than probabilistically live — a sender whose retry limit exceeds the
/// budget is guaranteed delivery, so tests can assert termination
/// instead of hoping for it.
#[derive(Clone, Debug)]
pub struct DropOracle {
    model: DelayModel,
    rng: StdRng,
    drop_rate: f64,
    budget: u32,
    /// Consecutive drops so far per directed channel `2·edge + dir`.
    streaks: std::collections::HashMap<u64, u32>,
}

impl DropOracle {
    /// A `model`-delayed oracle dropping each message with probability
    /// `drop_rate` (must be in `[0, 1)`), at most `budget` times in a
    /// row per directed channel.
    pub fn new(model: DelayModel, seed: u64, drop_rate: f64, budget: u32) -> Self {
        assert!(
            (0.0..1.0).contains(&drop_rate),
            "drop_rate must be in [0, 1)"
        );
        DropOracle {
            model,
            rng: StdRng::seed_from_u64(seed),
            drop_rate,
            budget,
            streaks: std::collections::HashMap::new(),
        }
    }
}

impl LinkOracle for DropOracle {
    fn decide(&mut self, msg: &MsgInfo) -> LinkDecision {
        let chan = 2 * msg.edge.index() as u64 + u64::from(msg.dir);
        let streak = self.streaks.entry(chan).or_insert(0);
        if *streak < self.budget && self.rng.random_bool(self.drop_rate) {
            *streak += 1;
            return LinkDecision::Drop;
        }
        *streak = 0;
        LinkDecision::Deliver {
            delay: self.model.sample(msg.weight, &mut self.rng),
        }
    }
}

/// An inner [`LinkOracle`] plus crash-stop failures.
///
/// Message fates are delegated to the inner oracle untouched; each
/// `(vertex, time)` pair becomes a one-toggle chain merged onto the
/// inner oracle's own [`FaultPlan`]. This is the composable way to add
/// crashes to any existing adversary — e.g. `CrashOracle` over a
/// [`DropOracle`] exercises the full drop-and-crash fault model the
/// self-healing protocols in `csp-algo` are written against.
#[derive(Clone, Debug)]
pub struct CrashOracle<O> {
    inner: O,
    crashes: Vec<(NodeId, SimTime)>,
}

impl<O: LinkOracle> CrashOracle<O> {
    /// Wraps `inner` with the given `(vertex, crash time)` pairs. The
    /// run rejects a vertex crashed twice (see [`FaultPlan`]).
    pub fn new(inner: O, crashes: Vec<(NodeId, SimTime)>) -> Self {
        CrashOracle { inner, crashes }
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }
}

impl<O: LinkOracle> LinkOracle for CrashOracle<O> {
    fn decide(&mut self, msg: &MsgInfo) -> LinkDecision {
        self.inner.decide(msg)
    }

    fn fault_plan(&mut self) -> FaultPlan {
        self.inner.fault_plan().merge(FaultPlan {
            churn: self.crashes.iter().map(|&(v, t)| (v, vec![t])).collect(),
            drift: Vec::new(),
        })
    }
}

/// An inner [`LinkOracle`] plus a full [`FaultPlan`]: per-vertex
/// crash/rejoin toggle chains and mid-run edge-weight drift, merged
/// onto whatever the inner oracle plans itself. Message fates are
/// delegated to the inner oracle untouched.
#[derive(Clone, Debug)]
pub struct ChurnOracle<O> {
    inner: O,
    plan: FaultPlan,
}

impl<O: LinkOracle> ChurnOracle<O> {
    /// Wraps `inner` with per-vertex toggle chains and weight
    /// revisions; the run validates them (see [`FaultPlan`]).
    pub fn new(
        inner: O,
        churn: Vec<(NodeId, Vec<SimTime>)>,
        drifts: Vec<(EdgeId, SimTime, Weight)>,
    ) -> Self {
        ChurnOracle {
            inner,
            plan: FaultPlan {
                churn,
                drift: drifts,
            },
        }
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }
}

impl<O: LinkOracle> LinkOracle for ChurnOracle<O> {
    fn decide(&mut self, msg: &MsgInfo) -> LinkDecision {
        self.inner.decide(msg)
    }

    fn fault_plan(&mut self) -> FaultPlan {
        self.inner.fault_plan().merge(self.plan.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn worst_case_is_weight() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(DelayModel::WorstCase.sample(Weight::new(7), &mut rng), 7);
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let d = DelayModel::Uniform.sample(Weight::new(9), &mut rng);
            assert!((1..=9).contains(&d));
        }
    }

    #[test]
    fn uniform_is_seeded_deterministic() {
        let sample = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..10)
                .map(|_| DelayModel::Uniform.sample(Weight::new(100), &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(sample(7), sample(7));
    }

    #[test]
    fn proportional_clamps() {
        let mut rng = StdRng::seed_from_u64(0);
        let half = DelayModel::Proportional { num: 1, den: 2 };
        assert_eq!(half.sample(Weight::new(8), &mut rng), 4);
        assert_eq!(half.sample(Weight::new(1), &mut rng), 1); // floor clamp
        let over = DelayModel::Proportional { num: 3, den: 2 };
        assert_eq!(over.sample(Weight::new(8), &mut rng), 8); // ceiling clamp
    }

    #[test]
    fn eager_is_one() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(DelayModel::Eager.sample(Weight::new(50), &mut rng), 1);
    }

    fn info(index: u64, w: u64) -> MsgInfo {
        MsgInfo {
            index,
            edge: EdgeId::new(0),
            dir: 0,
            weight: Weight::new(w),
            from: NodeId::new(0),
            to: NodeId::new(1),
            sent: SimTime::ZERO,
        }
    }

    #[test]
    fn model_oracle_matches_direct_sampling() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut oracle = ModelOracle::new(DelayModel::Uniform, 9);
        for i in 0..50 {
            let w = 1 + i % 13;
            assert_eq!(
                oracle.delay(&info(i, w)),
                DelayModel::Uniform.sample(Weight::new(w), &mut rng)
            );
        }
    }

    #[test]
    fn delay_oracles_are_link_oracles_that_always_deliver() {
        // `ModelOracle` only implements `DelayOracle`, yet answers
        // `decide` with the sampled delay and plans no faults.
        let mut direct = ModelOracle::new(DelayModel::Uniform, 3);
        let mut shimmed = ModelOracle::new(DelayModel::Uniform, 3);
        for i in 0..50 {
            let w = 1 + i % 7;
            assert_eq!(
                shimmed.decide(&info(i, w)),
                LinkDecision::Deliver {
                    delay: direct.delay(&info(i, w))
                }
            );
        }
        assert_eq!(shimmed.fault_plan(), FaultPlan::default());
    }

    #[test]
    fn drop_oracle_respects_its_budget() {
        // At drop_rate ~1 every message the budget allows is dropped, so
        // the pattern per channel is exactly budget drops, one delivery.
        let mut oracle = DropOracle::new(DelayModel::WorstCase, 5, 0.999_999, 2);
        let fates: Vec<bool> = (0..9)
            .map(|i| oracle.decide(&info(i, 4)) == LinkDecision::Drop)
            .collect();
        assert_eq!(
            fates,
            [true, true, false, true, true, false, true, true, false]
        );
    }

    #[test]
    fn drop_oracle_budget_is_per_channel() {
        let mut oracle = DropOracle::new(DelayModel::WorstCase, 5, 0.999_999, 1);
        // Alternate two directed channels: each gets its own streak.
        let chan = |idx: u64, dir: u8| MsgInfo {
            dir,
            ..info(idx, 4)
        };
        assert_eq!(oracle.decide(&chan(0, 0)), LinkDecision::Drop);
        assert_eq!(oracle.decide(&chan(1, 1)), LinkDecision::Drop);
        assert_ne!(oracle.decide(&chan(2, 0)), LinkDecision::Drop);
        assert_ne!(oracle.decide(&chan(3, 1)), LinkDecision::Drop);
    }

    #[test]
    fn drop_oracle_at_rate_zero_never_drops() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut oracle = DropOracle::new(DelayModel::Uniform, 11, 0.0, 8);
        for i in 0..50 {
            let w = 1 + i % 13;
            // Consumes one Bernoulli draw then one delay draw, so the
            // stream differs from ModelOracle's — compare against a
            // lock-step twin instead.
            let _ = rng.random_bool(0.0);
            assert_eq!(
                oracle.decide(&info(i, w)),
                LinkDecision::Deliver {
                    delay: DelayModel::Uniform.sample(Weight::new(w), &mut rng)
                }
            );
        }
    }
}
