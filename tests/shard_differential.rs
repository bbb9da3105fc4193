//! Differential property tests for the sharded conservative-parallel
//! core: [`ShardedSimulator`] must be observationally *identical* to the
//! sequential [`Simulator`] — same [`CostReport`] (including the fault
//! meters), same delivery trace, same final states, same truncation
//! flag, same [`Observer`] stream — across graph families, shard counts
//! {1, 2, 4, 8}, both event-queue cores, fixed delay models,
//! dispatch-time delay *oracles* (including replay of mutated
//! recordings), drop/crash/rejoin/drift fault stacks and the timer-heavy
//! [`Reliable`]/[`Detect`] wrappers. Under faults the observer streams are
//! also held against the independent [`BaselineSimulator`], as far as
//! its fault model (drops and crash-stop) reaches.
//!
//! The shard count is a pure partition parameter: every value must
//! select the *same* execution, so all assertions here are exact
//! equalities against the sequential run, never mere invariants.

use cost_sensitive::algo::flood::Flood;
use cost_sensitive::algo::mst::ghs::Ghs;
use cost_sensitive::prelude::*;
use cost_sensitive::sim::{ChurnOracle, Observer, TraceEvent};
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

/// Shard counts under test: 1 pins the degenerate single-worker path,
/// the rest exercise genuine cross-shard traffic.
fn arb_shards() -> impl Strategy<Value = usize> {
    (0u32..4).prop_map(|i| 1usize << i)
}

fn arb_core() -> impl Strategy<Value = CoreKind> {
    any::<bool>().prop_map(|heap| {
        if heap {
            CoreKind::Heap
        } else {
            CoreKind::Bucket
        }
    })
}

/// How to build a [`LinkOracle`] for the oracle-driven property: fixed
/// models re-expressed as oracles, the adversary crate's critical-path
/// greedy, and replay of a mutated recording (which exercises the
/// fallback path on divergence).
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

fn oracle_for<'s>(
    spec: &OracleSpec,
    mutant: Option<&'s Schedule>,
) -> Box<dyn LinkOracle + Send + 's> {
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

/// The observer streams of one run under a fresh `oracle()` on the
/// bucket core, the heap core and `shards` shards — asserted equal —
/// plus the bucket run's cost.
fn kernel_streams<P, F, O>(
    g: &WeightedGraph,
    shards: usize,
    oracle: impl Fn() -> O,
    make: F,
) -> (StreamLog, CostReport)
where
    P: Process + Send,
    P::Msg: Send,
    F: Fn(NodeId, &WeightedGraph) -> P + Copy,
    O: LinkOracle + Send,
{
    let mut bucket = StreamLog::default();
    let mut pool = EvalPool::new();
    Simulator::new(g)
        .execute(make, &mut pool, &mut oracle(), &mut bucket, NoCapture)
        .unwrap();
    let run = pool.into_run();
    let mut heap = StreamLog::default();
    Simulator::new(g)
        .core(CoreKind::Heap)
        .execute(
            make,
            &mut EvalPool::new(),
            &mut oracle(),
            &mut heap,
            NoCapture,
        )
        .unwrap();
    let mut par = StreamLog::default();
    ShardedSimulator::new(g)
        .threads(shards)
        .run_observed(&mut oracle(), &mut par, make)
        .unwrap();
    assert_eq!(bucket, heap, "heap core stream");
    assert_eq!(bucket, par, "sharded stream at {shards} shards");
    // Every delivered dispatch is reported, and the completion time is
    // the last delivery.
    assert_eq!(
        bucket.dispatched.len() as u64,
        run.cost.messages - run.cost.drops
    );
    assert_eq!(
        bucket
            .delivered
            .last()
            .map_or(SimTime::ZERO, |e| e.delivered),
        run.cost.completion
    );
    (bucket, run.cost)
}

/// A deliberately chatty protocol: floods, then every vertex bounces a
/// shrinking counter to a rotating neighbor — exercises bursts,
/// same-tick ties and FIFO stacking more than a plain flood does.
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

/// Asserts the sharded run is bit-identical to the sequential one.
macro_rules! assert_identical {
    ($seq:expr, $par:expr) => {{
        let (seq, par) = (&$seq, &$par);
        prop_assert_eq!(&seq.cost, &par.cost);
        prop_assert_eq!(seq.trace.events(), par.trace.events());
        prop_assert_eq!(seq.trace.dropped(), par.trace.dropped());
        prop_assert_eq!(seq.truncated, par.truncated);
        prop_assert_eq!(format!("{:?}", seq.states), format!("{:?}", par.states));
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Burst-heavy traffic under the fixed delay models is bit-identical
    /// for every shard count on both queue cores.
    #[test]
    fn chatter_is_identical_across_shard_counts(
        g in arb_graph(),
        delay in arb_delay(),
        seed in any::<u64>(),
        budget in 0u32..6,
        shards in arb_shards(),
        core in arb_core(),
    ) {
        let mk = |_: NodeId, _: &WeightedGraph| Chatter { seen: false, budget };
        let seq = Simulator::new(&g)
            .core(core)
            .delay(delay)
            .seed(seed)
            .record_trace(1 << 16)
            .run(mk)
            .unwrap();
        let par = ShardedSimulator::new(&g)
            .core(core)
            .delay(delay)
            .seed(seed)
            .threads(shards)
            .record_trace(1 << 16)
            .run(mk)
            .unwrap();
        assert_identical!(seq, par);
    }

    /// GHS — the heaviest protocol in the workspace — stays bit-identical
    /// under arbitrary dispatch-time oracles, including replay of mutated
    /// schedules (the adversary search's witness format).
    #[test]
    fn ghs_under_oracles_is_identical_across_shard_counts(
        g in arb_graph(),
        spec in arb_oracle(),
        shards in arb_shards(),
    ) {
        let mutant = match spec {
            OracleSpec::MutatedReplay { seed, flips } => {
                let mut rec = Recorder::new(ModelOracle::new(DelayModel::WorstCase, 0));
                Simulator::new(&g).run_with_oracle(&mut rec, Ghs::new).unwrap();
                Some(Mutation::new().delay_flips(flips).apply(&rec.into_schedule(Fallback::Rush), seed))
            }
            _ => None,
        };
        let oracle = || oracle_for(&spec, mutant.as_ref());
        let seq = Simulator::new(&g)
            .record_trace(1 << 16)
            .run_with_oracle(oracle().as_mut(), Ghs::new)
            .unwrap();
        let par = ShardedSimulator::new(&g)
            .threads(shards)
            .record_trace(1 << 16)
            .run_with_oracle(oracle().as_mut(), Ghs::new)
            .unwrap();
        prop_assert!(seq.trace.is_fifo(), "sequential run violated channel FIFO");
        prop_assert!(par.trace.is_fifo(), "sharded run violated channel FIFO");
        assert_identical!(seq, par);
        // Every delivered dispatch is observed, with the same delay and
        // arrival, whichever executor ran it.
        let mut seq_log = StreamLog::default();
        let mut par_log = StreamLog::default();
        Simulator::new(&g)
            .execute(Ghs::new, &mut EvalPool::new(), oracle().as_mut(), &mut seq_log, NoCapture)
            .unwrap();
        ShardedSimulator::new(&g)
            .threads(shards)
            .run_observed(oracle().as_mut(), &mut par_log, Ghs::new)
            .unwrap();
        prop_assert_eq!(seq_log.dispatched.len() as u64, seq.cost.messages - seq.cost.drops);
        prop_assert_eq!(&seq_log.delivered[..], seq.trace.events());
        prop_assert_eq!(&seq_log, &par_log);
    }

    /// The timer-heavy fault stacks — [`Reliable`] retransmission over a
    /// dropping link and [`Detect`] heartbeats over drops *and* crashes —
    /// keep every shard count bit-identical, fault meters included.
    #[test]
    fn fault_stacks_are_identical_across_shard_counts(
        g in arb_graph(),
        seed in any::<u64>(),
        drop_rate in 0.0f64..0.4,
        shards in arb_shards(),
        crash_a in 0usize..6,
        crash_t in 0u64..20,
    ) {
        // Reliable<Flood>: per-channel ack timers, retransmission on
        // timeout, cancellation on ack.
        let mk_rel = |v: NodeId, _: &WeightedGraph| {
            Reliable::new(Flood::new(v == NodeId::new(0)), 3)
        };
        let mut seq_oracle = DropOracle::new(DelayModel::Uniform, seed, drop_rate, 3);
        let seq = Simulator::new(&g)
            .record_trace(1 << 16)
            .run_with_oracle(&mut seq_oracle, mk_rel)
            .unwrap();
        let mut par_oracle = DropOracle::new(DelayModel::Uniform, seed, drop_rate, 3);
        let par = ShardedSimulator::new(&g)
            .threads(shards)
            .record_trace(1 << 16)
            .run_with_oracle(&mut par_oracle, mk_rel)
            .unwrap();
        assert_identical!(seq, par);

        // Detect<Flood>: periodic heartbeat timers at every vertex plus a
        // mid-run crash the detector must flag identically.
        let crashes = vec![(NodeId::new(crash_a % g.node_count()), SimTime::new(crash_t))];
        let cfg = DetectConfig::new(4, 2, 1);
        let mk_det = |v: NodeId, _: &WeightedGraph| {
            Detect::new(Flood::new(v == NodeId::new(0)), cfg)
        };
        let mut seq_oracle = CrashOracle::new(
            DropOracle::new(DelayModel::Uniform, seed ^ 0xD15EA5E, drop_rate, 3),
            crashes.clone(),
        );
        let seq = Simulator::new(&g)
            .record_trace(1 << 16)
            .run_with_oracle(&mut seq_oracle, mk_det)
            .unwrap();
        let mut par_oracle = CrashOracle::new(
            DropOracle::new(DelayModel::Uniform, seed ^ 0xD15EA5E, drop_rate, 3),
            crashes,
        );
        let par = ShardedSimulator::new(&g)
            .threads(shards)
            .record_trace(1 << 16)
            .run_with_oracle(&mut par_oracle, mk_det)
            .unwrap();
        assert_identical!(seq, par);
    }

    /// Both observer streams — dispatches with their arrivals, and
    /// deliveries — under `fault_suite`'s stacks. The full stack (bounded
    /// drops, a crash–rejoin chain, a crash-stop and a weight revision,
    /// under the timer-driven [`Reliable`] wrapper) runs on the bucket
    /// core, the heap core and the sharded core; the drop + crash-stop
    /// stack, which is all the baseline understands, runs on those three
    /// and the baseline.
    #[test]
    fn observer_streams_are_identical_under_fault_stacks(
        g in arb_graph(),
        seed in any::<u64>(),
        drop_rate in 0.0f64..0.4,
        shards in arb_shards(),
        victim_ix in 0usize..16,
        start in 1u64..40,
        chain_len in 1usize..6,
        crash_at in 0u64..40,
        drift_ix in 0usize..64,
        drift_at in 1u64..120,
        drift_w in 1u64..9,
    ) {
        let n = g.node_count();
        let victim = NodeId::new(1 + victim_ix % (n - 1));
        let stopped = NodeId::new(victim.index() % (n - 1) + 1);
        // Gaps of 7 plus under 5: strictly increasing toggles.
        let chain: Vec<SimTime> = (0..chain_len as u64)
            .map(|i| SimTime::new(start + 7 * i + (seed >> i) % 5))
            .collect();
        let drift = (
            EdgeId::new(drift_ix % g.edge_count()),
            SimTime::new(drift_at),
            Weight::new(drift_w),
        );
        let full_stack = || {
            ChurnOracle::new(
                DropOracle::new(DelayModel::Uniform, seed, drop_rate, 3),
                vec![
                    (victim, chain.clone()),
                    (stopped, vec![SimTime::new(crash_at)]),
                ],
                vec![drift],
            )
        };
        let mk_rel = |v: NodeId, _: &WeightedGraph| {
            Reliable::new(Flood::new(v == NodeId::new(0)), 3)
        };
        let (_, cost) = kernel_streams(&g, shards, full_stack, mk_rel);
        prop_assert_eq!(cost.recoveries, (chain.len() / 2) as u64);
        prop_assert_eq!(cost.weight_revisions, 1);

        let crash_stack = || {
            CrashOracle::new(
                DropOracle::new(DelayModel::Uniform, seed ^ 0xD15EA5E, drop_rate, 3),
                vec![(stopped, SimTime::new(crash_at))],
            )
        };
        let mk = |_: NodeId, _: &WeightedGraph| Chatter { seen: false, budget: 3 };
        let (kernel, _) = kernel_streams(&g, shards, crash_stack, mk);
        let mut base = StreamLog::default();
        BaselineSimulator::new(&g)
            .run_observed(&mut crash_stack(), &mut base, mk)
            .unwrap();
        prop_assert_eq!(&kernel, &base);
    }

    /// An explicit, deliberately unbalanced plan (all weight on shard 0)
    /// still reproduces the sequential run: correctness cannot depend on
    /// the partition's quality, only on its totality.
    #[test]
    fn explicit_unbalanced_plans_are_identical(
        g in arb_graph(),
        delay in arb_delay(),
        seed in any::<u64>(),
    ) {
        let n = g.node_count();
        // First n-1 vertices on shard 0, the last vertex alone on shard 1,
        // shard 2 empty.
        let mut assignment = vec![0u32; n];
        assignment[n - 1] = 1;
        let plan = ShardPlan::from_assignment(assignment, 3);
        let mk = |_: NodeId, _: &WeightedGraph| Chatter { seen: false, budget: 3 };
        let seq = Simulator::new(&g)
            .delay(delay)
            .seed(seed)
            .record_trace(1 << 16)
            .run(mk)
            .unwrap();
        let par = ShardedSimulator::new(&g)
            .delay(delay)
            .seed(seed)
            .threads(3)
            .plan(plan)
            .record_trace(1 << 16)
            .run(mk)
            .unwrap();
        assert_identical!(seq, par);
    }
}
