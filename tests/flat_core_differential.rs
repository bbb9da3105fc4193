//! Differential property tests for the event cores: the default
//! bucket-queue core in [`Simulator`] must be observationally
//! *identical* both to the retained binary-heap core
//! ([`CoreKind::Heap`]) and to the `HashMap`-based reference
//! implementation ([`BaselineSimulator`](cost_sensitive::sim::BaselineSimulator))
//! — same [`CostReport`], same delivery trace, same final states, same
//! [`Observer`] stream, across graph families, delay models,
//! dispatch-time delay *oracles* and seeds — and every trace passes the
//! per-channel FIFO validator.
//! No communication budget is set here: the flat cores and the baseline
//! intentionally differ in budget enforcement (the baseline keeps the
//! historical late check).
//!
//! The checkpoint-equivalence property pins the other half of the PR:
//! resuming a mutated schedule from a prefix checkpoint of its base run
//! is bit-identical to replaying the mutant cold, for random mutation
//! points and checkpoint intervals — the exact contract the adversary
//! search's incremental candidate evaluation relies on.

use cost_sensitive::algo::mst::ghs::Ghs;
use cost_sensitive::algo::resilient::{Metric, Resilient};
use cost_sensitive::prelude::*;
use cost_sensitive::sim::{BaselineSimulator, ChurnOracle, Observer, Run, TraceEvent};
use proptest::prelude::*;

/// A connected graph drawn from four structurally distinct families.
fn arb_graph() -> impl Strategy<Value = WeightedGraph> {
    (0u8..4, 6usize..=16, 1u64..=32, any::<u64>()).prop_map(
        |(family, n, wmax, seed)| match family {
            0 => generators::connected_gnp(n, 0.3, generators::WeightDist::Uniform(1, wmax), seed),
            1 => generators::sparse_heavy_path(n, wmax.max(2) * 10, seed),
            2 => generators::cluster_graph(3, (n / 3).max(2), wmax.max(2) * 8, seed),
            _ => generators::heavy_chord_cycle(n, wmax * 50),
        },
    )
}

fn arb_delay() -> impl Strategy<Value = DelayModel> {
    (0u8..4).prop_map(|i| match i {
        0 => DelayModel::WorstCase,
        1 => DelayModel::Uniform,
        2 => DelayModel::Proportional { num: 1, den: 2 },
        _ => DelayModel::Eager,
    })
}

/// How to build a [`LinkOracle`] for the oracle-driven differential
/// property: the fixed models re-expressed as oracles, the adversary
/// crate's critical-path greedy, and replay of a mutated recording
/// (which exercises the fallback path on divergence).
#[derive(Clone, Copy, Debug)]
enum OracleSpec {
    Model(DelayModel, u64),
    CriticalPath,
    MutatedReplay { seed: u64, flips: usize },
}

fn arb_oracle() -> impl Strategy<Value = OracleSpec> {
    (0u8..4, arb_delay(), any::<u64>(), 1u64..12).prop_map(|(kind, m, seed, flips)| match kind {
        0 | 1 => OracleSpec::Model(m, seed),
        2 => OracleSpec::CriticalPath,
        _ => OracleSpec::MutatedReplay {
            seed,
            flips: flips as usize,
        },
    })
}

fn oracle_for<'s>(spec: &OracleSpec, mutant: Option<&'s Schedule>) -> Box<dyn LinkOracle + 's> {
    match spec {
        OracleSpec::Model(m, s) => Box::new(ModelOracle::new(*m, *s)),
        OracleSpec::CriticalPath => Box::new(CriticalPathOracle::new()),
        OracleSpec::MutatedReplay { .. } => {
            Box::new(ScheduleOracle::new(mutant.expect("mutant prepared")))
        }
    }
}

/// Both [`Observer`] streams of one run: every dispatch as
/// `(index, delay, arrival)` — the stream `csp-adversary`'s trace layer
/// is built on — and every delivery.
#[derive(Default, Debug, PartialEq)]
struct StreamLog {
    dispatched: Vec<(u64, u64, SimTime)>,
    delivered: Vec<TraceEvent>,
}

impl Observer for StreamLog {
    fn dispatched(&mut self, msg: &MsgInfo, delay: u64, arrival: SimTime) {
        self.dispatched.push((msg.index, delay, arrival));
    }

    fn delivered(&mut self, event: &TraceEvent) {
        self.delivered.push(*event);
    }
}

/// A fresh run of `make` under `oracle` on `sim`, reporting to `observer`.
fn observed<P, F>(
    sim: &Simulator<'_>,
    oracle: &mut dyn LinkOracle,
    observer: &mut StreamLog,
    make: F,
) -> Run<P>
where
    P: Process,
    F: FnMut(NodeId, &WeightedGraph) -> P,
{
    let mut pool = EvalPool::new();
    sim.execute(make, &mut pool, oracle, observer, NoCapture)
        .unwrap();
    pool.into_run()
}

/// `cp` continued to quiescence on `sim` under `oracle`, reporting to
/// `observer`.
fn resumed<P: Process + Clone>(
    sim: &Simulator<'_>,
    cp: &Checkpoint<P>,
    mut oracle: impl LinkOracle,
    observer: &mut StreamLog,
) -> Run<P> {
    let mut pool = EvalPool::new();
    sim.execute(cp, &mut pool, &mut oracle, observer, NoCapture)
        .unwrap();
    pool.into_run()
}

/// Checkpoints a cold run of `make` under `oracle()` every `every`
/// messages on a `kind` core, then resumes every checkpoint with a
/// [`StreamLog`]: its dispatches must be the cold run's from the
/// checkpoint's message index on, and its deliveries the cold run's
/// from there to the end — the trace it continues is the cold run's
/// whole delivery stream. Returns the number of checkpoints.
fn observed_resumes_continue_the_cold_stream<P, F, O>(
    g: &WeightedGraph,
    kind: CoreKind,
    every: u64,
    oracle: impl Fn() -> O,
    make: F,
) -> usize
where
    P: Process + Clone,
    F: Fn(NodeId, &WeightedGraph) -> P + Copy,
    O: LinkOracle,
{
    let mut sim = Simulator::new(g);
    sim.core(kind).record_trace(1 << 16);
    let (mut cold_log, mut cps, mut pool) = (StreamLog::default(), Vec::new(), EvalPool::new());
    let capture = CaptureEvery(every, &mut cps);
    sim.execute(make, &mut pool, &mut oracle(), &mut cold_log, capture)
        .unwrap();
    let cold = pool.into_run();
    // Capture leaves the stream alone.
    let mut plain = StreamLog::default();
    observed(&sim, &mut oracle(), &mut plain, make);
    assert_eq!(plain, cold_log, "{kind:?}: capture changed the stream");
    for cp in &cps {
        let at = cp.messages();
        let mut log = StreamLog::default();
        let run = resumed(&sim, cp, oracle(), &mut log);
        let tail: Vec<_> = (cold_log.dispatched.iter())
            .filter(|d| d.0 >= at)
            .copied()
            .collect();
        assert_eq!(
            log.dispatched, tail,
            "{kind:?}: dispatches from message {at}"
        );
        let before = run.trace.len() - log.delivered.len();
        assert!(before as u64 <= cp.events());
        assert_eq!(
            log.delivered[..],
            cold_log.delivered[before..],
            "{kind:?}: deliveries from message {at}"
        );
        assert_eq!(run.trace.events(), &cold_log.delivered[..]);
        assert_eq!(run.cost, cold.cost, "{kind:?} at message {at}");
    }
    cps.len()
}

#[test]
fn observed_resume_reports_the_cold_runs_suffix() {
    for kind in [CoreKind::Bucket, CoreKind::Heap] {
        // GHS replaying a mutated recording: the resumed oracle answers
        // by message index, so it needs no state from the prefix.
        for seed in 0..6u64 {
            let g =
                generators::connected_gnp(12, 0.3, generators::WeightDist::Uniform(1, 16), seed);
            let mut rec = Recorder::new(ModelOracle::new(DelayModel::Uniform, seed));
            Simulator::new(&g)
                .run_with_oracle(&mut rec, Ghs::new)
                .unwrap();
            let mutant = cost_sensitive::adversary::Mutation::new()
                .delay_flips(4)
                .apply(&rec.into_schedule(Fallback::WorstCase), seed);
            let every = 3 + 7 * seed;
            let oracle = || ScheduleOracle::new(&mutant);
            let n = observed_resumes_continue_the_cold_stream(&g, kind, every, oracle, Ghs::new);
            assert!(n > 2, "{kind:?}, seed {seed}: {n} checkpoints");
        }
        // The self-healing stack under a crash-and-rejoin and a weight
        // revision: heartbeats, watch timers and a stashed rejoin state
        // in the checkpoints, and a resuming oracle with no plan of its
        // own (the checkpoint carries it).
        let g = generators::connected_gnp(12, 0.3, generators::WeightDist::Uniform(1, 16), 42);
        let churn = || {
            ChurnOracle::new(
                ModelOracle::new(DelayModel::WorstCase, 0),
                vec![(NodeId::new(5), vec![SimTime::new(20), SimTime::new(120)])],
                vec![(EdgeId::new(3), SimTime::new(60), Weight::new(2))],
            )
        };
        let make = |v, g: &WeightedGraph| {
            let inner = Resilient::new(v, NodeId::new(0), Metric::Weighted, g);
            Detect::new(inner, DetectConfig::new(4, 60, 0))
        };
        let n = observed_resumes_continue_the_cold_stream(&g, kind, 16, churn, make);
        assert!(n > 20, "{kind:?}: {n} checkpoints");
    }
}

/// A deliberately chatty protocol: floods, then every vertex bounces a
/// shrinking counter to a rotating neighbor — exercises bursts,
/// same-pulse ties and FIFO stacking more than a plain flood does.
#[derive(Debug)]
struct Chatter {
    seen: bool,
    budget: u32,
}

impl Process for Chatter {
    type Msg = u32;

    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        if ctx.self_id() == NodeId::new(0) {
            self.seen = true;
            ctx.send_all(4);
        }
    }

    fn on_message(&mut self, from: NodeId, counter: u32, ctx: &mut Context<'_, u32>) {
        if !self.seen {
            self.seen = true;
            ctx.send_all(counter);
        }
        if counter > 0 && self.budget > 0 {
            self.budget -= 1;
            let degree = ctx.degree();
            let pick = ctx
                .neighbors()
                .nth((counter as usize + self.budget as usize) % degree)
                .map(|(u, _, _)| u)
                .unwrap_or(from);
            ctx.send(pick, counter - 1);
        }
    }
}

/// [`Chatter`] with a message that owns heap memory: every hop forwards
/// the path so far plus its own id, and every vertex keeps what it was
/// handed. The queue stores the event itself, so a payload that was
/// copied stale, delivered twice or lost in a snapshot shows in a final
/// state.
#[derive(Clone, Debug)]
struct Courier {
    seen: bool,
    handed: Vec<Vec<u8>>,
}

impl Courier {
    const HOPS: usize = 5;

    fn new(_: NodeId, _: &WeightedGraph) -> Self {
        Courier {
            seen: false,
            handed: Vec::new(),
        }
    }
}

impl Process for Courier {
    type Msg = Vec<u8>;

    fn on_start(&mut self, ctx: &mut Context<'_, Vec<u8>>) {
        if ctx.self_id() == NodeId::new(0) {
            self.seen = true;
            ctx.send_all(vec![0]);
        }
    }

    fn on_message(&mut self, from: NodeId, path: Vec<u8>, ctx: &mut Context<'_, Vec<u8>>) {
        if !self.seen {
            self.seen = true;
            ctx.send_all(path.clone());
        }
        if path.len() < Self::HOPS {
            let pick = ctx
                .neighbors()
                .nth((path.len() + self.handed.len()) % ctx.degree())
                .map(|(u, _, _)| u)
                .unwrap_or(from);
            let mut longer = path.clone();
            longer.push(ctx.self_id().index() as u8);
            ctx.send(pick, longer);
        }
        self.handed.push(path);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// GHS — the heaviest protocol in the workspace — produces the same
    /// costs, the same message-by-message trace and the same final
    /// states on the bucket core, the heap core and the baseline.
    #[test]
    fn ghs_runs_identically_on_all_three_cores(
        g in arb_graph(),
        delay in arb_delay(),
        seed in any::<u64>(),
    ) {
        let flat = Simulator::new(&g)
            .delay(delay)
            .seed(seed)
            .record_trace(1 << 16)
            .run(Ghs::new)
            .unwrap();
        let heap = Simulator::new(&g)
            .core(CoreKind::Heap)
            .delay(delay)
            .seed(seed)
            .record_trace(1 << 16)
            .run(Ghs::new)
            .unwrap();
        let base = BaselineSimulator::new(&g)
            .delay(delay)
            .seed(seed)
            .record_trace(1 << 16)
            .run(Ghs::new)
            .unwrap();
        prop_assert_eq!(&flat.cost, &heap.cost);
        prop_assert_eq!(flat.trace.events(), heap.trace.events());
        prop_assert_eq!(
            format!("{:?}", flat.states),
            format!("{:?}", heap.states)
        );
        prop_assert_eq!(&flat.cost, &base.cost);
        prop_assert_eq!(flat.trace.events(), base.trace.events());
        prop_assert_eq!(flat.truncated, base.truncated);
        prop_assert_eq!(
            format!("{:?}", flat.states),
            format!("{:?}", base.states)
        );
    }

    /// Burst-heavy traffic with FIFO stacking is also bit-identical on
    /// all three executors.
    #[test]
    fn chatter_runs_identically_on_all_three_cores(
        g in arb_graph(),
        delay in arb_delay(),
        seed in any::<u64>(),
        budget in 0u32..6,
    ) {
        let mk = |_: NodeId, _: &WeightedGraph| Chatter { seen: false, budget };
        let flat = Simulator::new(&g)
            .delay(delay)
            .seed(seed)
            .record_trace(1 << 16)
            .run(mk)
            .unwrap();
        let heap = Simulator::new(&g)
            .core(CoreKind::Heap)
            .delay(delay)
            .seed(seed)
            .record_trace(1 << 16)
            .run(mk)
            .unwrap();
        let base = BaselineSimulator::new(&g)
            .delay(delay)
            .seed(seed)
            .record_trace(1 << 16)
            .run(mk)
            .unwrap();
        prop_assert_eq!(&flat.cost, &heap.cost);
        prop_assert_eq!(flat.trace.events(), heap.trace.events());
        prop_assert_eq!(&flat.cost, &base.cost);
        prop_assert_eq!(flat.trace.events(), base.trace.events());
    }

    /// Arbitrary delay *oracles* — not just the fixed models — keep the
    /// three executors bit-identical down to their observer streams, and
    /// every resulting trace passes the per-channel FIFO validator from
    /// `csp_sim::trace`.
    #[test]
    fn oracle_runs_are_fifo_and_identical_on_both_cores(
        g in arb_graph(),
        spec in arb_oracle(),
    ) {
        let mutant = match spec {
            OracleSpec::MutatedReplay { seed, flips } => {
                let mut rec = Recorder::new(ModelOracle::new(DelayModel::WorstCase, 0));
                Simulator::new(&g).run_with_oracle(&mut rec, Ghs::new).unwrap();
                Some(
                    cost_sensitive::adversary::Mutation::new()
                        .delay_flips(flips)
                        .apply(&rec.into_schedule(Fallback::Rush), seed),
                )
            }
            _ => None,
        };
        let oracle = || oracle_for(&spec, mutant.as_ref());
        let mut flat_log = StreamLog::default();
        let flat = observed(&Simulator::new(&g), oracle().as_mut(), &mut flat_log, Ghs::new);
        let mut heap_log = StreamLog::default();
        let mut heap_sim = Simulator::new(&g);
        heap_sim.core(CoreKind::Heap);
        let heap = observed(&heap_sim, oracle().as_mut(), &mut heap_log, Ghs::new);
        let mut base_log = StreamLog::default();
        let base = BaselineSimulator::new(&g)
            .run_observed(oracle().as_mut(), &mut base_log, Ghs::new)
            .unwrap();
        // `record_trace` is the delivered stream, capped.
        let traced = Simulator::new(&g)
            .record_trace(1 << 16)
            .run_with_oracle(oracle().as_mut(), Ghs::new)
            .unwrap();
        prop_assert!(traced.trace.is_fifo(), "flat core violated channel FIFO");
        prop_assert_eq!(traced.trace.events(), &flat_log.delivered[..]);
        prop_assert_eq!(&flat.cost, &heap.cost);
        prop_assert_eq!(&flat.cost, &base.cost);
        // Every delivered dispatch is observed, with the same delay and
        // arrival, on both flat cores and the independent baseline.
        prop_assert_eq!(flat_log.dispatched.len() as u64, flat.cost.messages - flat.cost.drops);
        prop_assert_eq!(&flat_log, &heap_log);
        prop_assert_eq!(&flat_log, &base_log);
    }

    /// Checkpoint equivalence: for a random mutated schedule, resuming
    /// from the deepest base-run checkpoint at or before the first
    /// mutated decision reproduces the cold replay of the mutant
    /// bit-for-bit — costs, trace and final states. This is exactly the
    /// splice the adversary search performs per hill-climb candidate.
    #[test]
    fn checkpoint_resume_equals_cold_run_for_mutated_schedules(
        g in arb_graph(),
        seed in any::<u64>(),
        flips in 1usize..8,
        every in 1u64..48,
    ) {
        let mut rec = Recorder::new(ModelOracle::new(DelayModel::Uniform, seed));
        Simulator::new(&g).run_with_oracle(&mut rec, Ghs::new).unwrap();
        let incumbent = rec.into_schedule(Fallback::WorstCase);
        let mutant = cost_sensitive::adversary::Mutation::new()
            .delay_flips(flips)
            .apply(&incumbent, seed ^ 0xabc);

        let mut sim = Simulator::new(&g);
        sim.record_trace(1 << 16);
        let mut cps: Vec<Checkpoint<Ghs>> = Vec::new();
        sim.run_with_checkpoints(
            &mut ScheduleOracle::new(&incumbent),
            Ghs::new,
            every,
            &mut cps,
        )
        .unwrap();

        let first_diff = incumbent
            .decisions
            .iter()
            .zip(&mutant.decisions)
            .position(|(a, b)| a.delay != b.delay)
            .unwrap_or(mutant.decisions.len()) as u64;
        if let Some(cp) = cps.iter().rev().find(|cp| cp.messages() <= first_diff) {
            let resumed = resumed(&sim, cp, ScheduleOracle::new(&mutant), &mut StreamLog::default());
            let cold = sim
                .run_with_oracle(&mut ScheduleOracle::new(&mutant), Ghs::new)
                .unwrap();
            prop_assert_eq!(&resumed.cost, &cold.cost);
            prop_assert_eq!(resumed.trace.events(), cold.trace.events());
            prop_assert_eq!(resumed.truncated, cold.truncated);
            prop_assert_eq!(
                format!("{:?}", resumed.states),
                format!("{:?}", cold.states)
            );
        }
    }

    /// The same two contracts for a message that is not `Copy`: all
    /// three executors agree down to the final states, and a checkpoint
    /// taken on either core resumes on the *other* one — the queue is
    /// rebuilt from its sorted entry view, payloads included — into the
    /// cold run.
    #[test]
    fn owned_payloads_survive_every_core_and_cross_kind_resume(
        g in arb_graph(),
        delay in arb_delay(),
        seed in any::<u64>(),
        every in 1u64..32,
    ) {
        let mut rec = Recorder::new(ModelOracle::new(delay, seed));
        let base = BaselineSimulator::new(&g)
            .record_trace(1 << 16)
            .run_with_oracle(&mut rec, Courier::new)
            .unwrap();
        let schedule = rec.into_schedule(Fallback::WorstCase);
        for (takes, resumes) in [
            (CoreKind::Bucket, CoreKind::Heap),
            (CoreKind::Heap, CoreKind::Bucket),
        ] {
            let mut sim = Simulator::new(&g);
            sim.core(takes).record_trace(1 << 16);
            let mut cps: Vec<Checkpoint<Courier>> = Vec::new();
            let cold = sim
                .run_with_checkpoints(
                    &mut ScheduleOracle::new(&schedule),
                    Courier::new,
                    every,
                    &mut cps,
                )
                .unwrap();
            prop_assert_eq!(&cold.cost, &base.cost);
            prop_assert_eq!(cold.trace.events(), base.trace.events());
            prop_assert_eq!(format!("{:?}", cold.states), format!("{:?}", base.states));
            sim.core(resumes);
            for cp in &cps {
                let oracle = ScheduleOracle::new(&schedule);
                let resumed = resumed(&sim, cp, oracle, &mut StreamLog::default());
                prop_assert_eq!(&resumed.cost, &cold.cost);
                prop_assert_eq!(resumed.trace.events(), cold.trace.events());
                prop_assert_eq!(
                    format!("{:?}", resumed.states),
                    format!("{:?}", cold.states)
                );
            }
        }
    }
}
