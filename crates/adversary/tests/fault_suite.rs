//! Fault-injection suite: committed drop-schedule witnesses, the
//! retransmission layer's differential guarantee under bounded loss,
//! and deadlock *detection* (rather than a hang) when loss hits an
//! unprotected protocol.
//!
//! The committed schedules under the workspace's `tests/schedules/`
//! were produced by `cargo run --release --example fault_injection`
//! (see that example for the construction); this suite replays them
//! and pins the delay-vs-drop gap, together with the searches that
//! measure it.

use csp_adversary::{
    find_worst_schedule, replay, replay_report, Mutation, Schedule, ScheduleOracle, SearchConfig,
    SearchConfigBuilder, SearchOutcome,
};
use csp_algo::flood::Flood;
use csp_algo::resilient::{contract_violation, Metric, Resilient, ResilientOutcome};
use csp_algo::spt::recur::SptRecur;
use csp_algo::termination::Detector;
use csp_algo::util::tree_from_parents;
use csp_graph::generators::{self, WeightDist};
use csp_graph::{EdgeId, NodeId, Weight, WeightedGraph};
use csp_sim::{
    ChurnOracle, CoreKind, CrashOracle, DelayModel, Detect, DetectConfig, DropOracle, ModelOracle,
    Reliable, Run, ShardedSimulator, SimTime, Simulator,
};
use proptest::prelude::*;
use std::path::PathBuf;

fn schedule_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/schedules")
}

/// The instance both committed witnesses run on.
fn gnp_n12() -> WeightedGraph {
    generators::connected_gnp(12, 0.3, WeightDist::Uniform(1, 16), 42)
}

fn make_reliable_spt(v: NodeId, _: &WeightedGraph) -> Reliable<SptRecur> {
    Reliable::new(SptRecur::new(v, NodeId::new(0), 1 << 40), 3)
}

#[test]
fn committed_drop_witness_beats_the_best_delay_only_schedule() {
    let g = gnp_n12();
    let delay_only =
        Schedule::load(&schedule_dir().join("reliable-spt-recur-gnp-n12.schedule")).unwrap();
    let faulty = Schedule::load(&schedule_dir().join("fault-spt-recur-gnp-n12.schedule")).unwrap();
    assert_eq!(delay_only.dropped_count(), 0);
    assert!(faulty.dropped_count() > 0, "the fault witness must drop");

    let clean: Run<Reliable<SptRecur>> = replay(&g, make_reliable_spt, &delay_only);
    let (lossy, replayed) = replay_report::<Reliable<SptRecur>, _>(&g, make_reliable_spt, &faulty);
    assert!(
        lossy.cost.completion > clean.cost.completion,
        "injected drops must strictly increase weighted completion \
         ({} vs {})",
        lossy.cost.completion,
        clean.cost.completion
    );
    // Both witnesses are faithful recordings: replay never leaves them.
    assert_eq!(replayed.divergences, 0);
    // And the wrapper still delivered everywhere.
    assert!(lossy.states.iter().all(|s| s.inner().dist().is_some()));
}

/// The drop adversary against delay-only search on the same budget `b`:
/// `b` random probes, `b/2` hill rounds of 4 candidates and one polish
/// pass, the fault search adding 2 drop flips and 2 crash probes. A lost
/// message costs a retransmission timeout on top of any delay, so the
/// fault search never ends behind. Every search reports the same whole
/// outcome at 1 and 2 threads.
#[test]
fn fault_search_never_ends_behind_delay_only_search() {
    // (budget, workload, delay search (evaluations, best time),
    //  fault search (evaluations, best time, drops, churn chains))
    let table = [
        (4, "gnp-n12", (80, 89), (75, 90, 1, 0)),
        (4, "heavy-chord-n12", (42, 264), (41, 322, 2, 0)),
        (16, "gnp-n12", (144, 92), (121, 114, 1, 0)),
        (16, "heavy-chord-n12", (78, 264), (83, 580, 5, 0)),
    ];
    let search = |g: &WeightedGraph, cfg: SearchConfigBuilder| -> SearchOutcome {
        let [one, two] = [1, 2].map(|threads| {
            let cfg = cfg.threads(threads).build().unwrap();
            find_worst_schedule(g, make_reliable_spt, &cfg)
        });
        assert_eq!(format!("{one:?}"), format!("{two:?}"), "1 vs 2 threads");
        one
    };
    for (budget, name, delay_row, fault_row) in table {
        let g = match name {
            "gnp-n12" => gnp_n12(),
            _ => generators::heavy_chord_cycle(12, 64),
        };
        let base = SearchConfig::builder()
            .random_probes(budget)
            .hill_rounds(budget / 2)
            .candidates_per_round(4)
            .polish_passes(1);
        let delay = search(&g, base);
        let drops = Mutation::new().delay_flips(4).drop_flips(2);
        let fault = search(&g, base.mutation(drops).crash_probes(2));
        assert!(
            fault.best_time >= delay.best_time,
            "{name} at budget {budget}: fault {} vs delay-only {}",
            fault.best_time,
            delay.best_time
        );
        let got = (
            (delay.evaluations, delay.best_time.get()),
            (
                fault.evaluations,
                fault.best_time.get(),
                fault.schedule.dropped_count(),
                fault.schedule.plan.churn.len(),
            ),
        );
        assert_eq!(got, (delay_row, fault_row), "{name} at budget {budget}");
    }
}

#[test]
fn committed_witnesses_replay_identically_on_bucket_and_heap_cores() {
    let g = gnp_n12();
    for file in [
        "reliable-spt-recur-gnp-n12.schedule",
        "fault-spt-recur-gnp-n12.schedule",
    ] {
        let schedule = Schedule::load(&schedule_dir().join(file)).unwrap();
        let run_on = |kind: CoreKind| {
            let mut oracle = ScheduleOracle::new(&schedule);
            let mut sim = Simulator::new(&g);
            sim.core(kind).record_trace(1 << 14);
            sim.run_with_oracle(&mut oracle, make_reliable_spt).unwrap()
        };
        let b = run_on(CoreKind::Bucket);
        let h = run_on(CoreKind::Heap);
        assert_eq!(b.cost, h.cost, "{file}: cost reports must match");
        assert_eq!(
            b.trace.events(),
            h.trace.events(),
            "{file}: traces must be bit-identical"
        );
        assert_eq!(
            format!("{:?}", b.states),
            format!("{:?}", h.states),
            "{file}: final states must match"
        );
    }
}

#[test]
fn committed_fault_witness_round_trips_under_the_v3_header() {
    let path = schedule_dir().join("fault-spt-recur-gnp-n12.schedule");
    let schedule = Schedule::load(&path).unwrap();
    assert!(schedule.dropped_count() > 0 || !schedule.plan.churn.is_empty());
    let text = schedule.to_text();
    assert!(text.starts_with("csp-adversary-schedule v3\n"));
    assert_eq!(Schedule::from_text(&text).unwrap(), schedule);
    // The delay-only companion is written under the same header.
    let delay_only =
        Schedule::load(&schedule_dir().join("reliable-spt-recur-gnp-n12.schedule")).unwrap();
    assert_eq!(delay_only.dropped_count(), 0);
    assert!(delay_only.plan.churn.is_empty() && delay_only.plan.drift.is_empty());
    assert!(delay_only
        .to_text()
        .starts_with("csp-adversary-schedule v3\n"));
}

/// Delivery is what `SPT_recur`'s ack-counting termination assumes, so
/// under a drop budget below the retry bound the wrapped run keeps the
/// fault-free protocol's exact distances and spanning tree.
#[test]
fn reliable_spt_recur_stays_exact_under_bounded_drops() {
    let g = gnp_n12();
    let s = NodeId::new(0);
    let reference = csp_graph::algo::distances(&g, s);
    let mut oracle = DropOracle::new(DelayModel::Uniform, 23, 0.3, 4);
    let run: Run<Reliable<SptRecur>> = Simulator::new(&g)
        .run_with_oracle(&mut oracle, |v, _| {
            Reliable::new(SptRecur::new(v, s, 1 << 40), 8)
        })
        .unwrap();
    assert!(run.states[s.index()].inner().finished());
    assert!(run.states.iter().all(|st| st.failed_channel_count() == 0));
    for v in g.nodes() {
        assert_eq!(
            run.states[v.index()].inner().dist(),
            Some(reference[v.index()]),
            "{v}"
        );
    }
    let parents: Vec<_> = run.states.iter().map(|st| st.inner().parent()).collect();
    assert!(tree_from_parents(&g, s, &parents).is_spanning());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The retransmission layer's guarantee, differentially: under any
    /// bounded-loss oracle, `Reliable<Flood>` reaches exactly the
    /// vertices bare flooding reaches with no faults at all — everyone.
    #[test]
    fn reliable_flood_under_bounded_drops_matches_fault_free_flood(
        seed in any::<u64>(),
        drop_rate in 0.0f64..0.9,
        n in 6usize..14,
    ) {
        let g = generators::connected_gnp(n, 0.35, WeightDist::Uniform(1, 9), seed);
        let root = NodeId::new(0);

        let mut eager = ModelOracle::new(DelayModel::Eager, 0);
        let bare: Run<Flood> = Simulator::new(&g)
            .run_with_oracle(&mut eager, |v, _| Flood::new(v == root))
            .unwrap();

        // Budget 4 < max_retries 6: delivery is guaranteed, not lucky.
        let mut lossy = DropOracle::new(DelayModel::Uniform, seed ^ 0xD15EA5E, drop_rate, 4);
        let wrapped: Run<Reliable<Flood>> = Simulator::new(&g)
            .run_with_oracle(&mut lossy, |v, _| Reliable::new(Flood::new(v == root), 6))
            .unwrap();

        for v in g.nodes() {
            prop_assert!(
                wrapped.states[v.index()].inner().reached()
                    == bare.states[v.index()].reached(),
                "vertex {} reachability must survive bounded loss", v
            );
        }
        prop_assert!(wrapped.states.iter().all(|s| s.inner().reached()));
    }

    /// The self-healing contract under a *combined* adversary: arbitrary
    /// bounded drops plus a crash of a random victim at a random time
    /// within the detection horizon. Every vertex of the surviving
    /// connected component must terminate with the exact subgraph answer
    /// (hop or weighted distance), everyone cut off must retract to
    /// `None` — and the whole monitored run must be bit-identical on the
    /// bucket and heap event cores.
    #[test]
    fn resilient_protocols_heal_arbitrary_drop_plus_crash_schedules(
        seed in any::<u64>(),
        drop_rate in 0.0f64..0.5,
        n in 6usize..12,
        victim_ix in 0usize..12,
        crash_at in 0u64..180,
        weighted in any::<bool>(),
    ) {
        let g = generators::connected_gnp(n, 0.35, WeightDist::Uniform(1, 9), seed);
        let root = NodeId::new(0);
        let victim = NodeId::new(victim_ix % n);
        let metric = if weighted { Metric::Weighted } else { Metric::Hops };
        // Horizon ≥ (60-1-3)·4 - 8 = 216 > 180: every sampled crash time
        // is inside the guaranteed-detection window, and loss tolerance 3
        // matches the drop oracle's budget so suspicion stays accurate.
        let cfg = DetectConfig::new(4, 60, 3);

        let run_on = |kind: CoreKind| {
            let lossy = DropOracle::new(DelayModel::Uniform, seed ^ 0x5E1F_4EA1, drop_rate, 3);
            let mut oracle = CrashOracle::new(lossy, vec![(victim, SimTime::new(crash_at))]);
            let mut sim = Simulator::new(&g);
            sim.core(kind);
            sim.run_with_oracle(&mut oracle, |v, g| {
                // Generous retry limit: the drop budget bounds
                // *consecutive* losses per channel, but heartbeats
                // interleave on the same channels and can absorb the
                // forced-delivery slots, so a data message's retries are
                // not consecutive channel sends — 8 retries can starve
                // under an unlucky seed and falsely fail a live channel.
                Detect::new(Reliable::new(Resilient::new(v, root, metric, g), 64), cfg)
            })
            .unwrap()
        };
        let bucket: Run<Detect<Reliable<Resilient>>> = run_on(CoreKind::Bucket);
        let heap = run_on(CoreKind::Heap);
        prop_assert_eq!(&bucket.cost, &heap.cost);
        prop_assert_eq!(
            format!("{:?}", bucket.states),
            format!("{:?}", heap.states)
        );
        prop_assert_eq!(bucket.cost.crashed_nodes, 1);

        let out = ResilientOutcome::of(bucket, |s| s.inner().inner());
        let mut dead = vec![false; g.node_count()];
        dead[victim.index()] = true;
        prop_assert_eq!(contract_violation(&g, root, metric, &dead, &out), None);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Churn beyond crash-stop, differentially: a soak-style
    /// crash–rejoin chain of arbitrary length (the vertex may die and
    /// resurrect with fresh state many times over the detector's whole
    /// lifetime) plus a random mid-run weight revision must replay
    /// bit-identically — costs including the churn meters, traces and
    /// final states — across the bucket and heap event cores *and* the
    /// sharded simulator at 2 and 4 shards.
    #[test]
    fn churn_schedules_replay_identically_across_cores_and_shards(
        seed in any::<u64>(),
        n in 6usize..12,
        victim_ix in 0usize..12,
        start in 1u64..40,
        chain_len in 1usize..8,
        gap_seed in any::<u64>(),
        drift_ix in 0usize..64,
        drift_at in 1u64..120,
        drift_w in 1u64..9,
    ) {
        let g = generators::connected_gnp(n, 0.35, WeightDist::Uniform(1, 9), seed);
        let root = NodeId::new(0);
        // Keep the root out of the chain: the source's fresh incarnation
        // would re-seed the whole computation, which is legal but makes
        // the run long without adding coverage here.
        let victim = NodeId::new(1 + victim_ix % (n - 1));
        let mut chain = vec![SimTime::new(start)];
        let mut lcg = gap_seed;
        for _ in 1..chain_len {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let gap = 1 + (lcg >> 33) % 29;
            let last = chain.last().unwrap().get();
            chain.push(SimTime::new(last + gap));
        }
        let drift = (
            EdgeId::new(drift_ix % g.edge_count()),
            SimTime::new(drift_at),
            Weight::new(drift_w),
        );
        let cfg = DetectConfig::new(4, 60, 0);
        let expected_recoveries = (chain.len() / 2) as u64;

        let oracle = || {
            ChurnOracle::new(
                ModelOracle::new(DelayModel::Uniform, seed ^ 0xC0_FFEE),
                vec![(victim, chain.clone())],
                vec![drift],
            )
        };
        let make = |v: NodeId, g: &WeightedGraph| {
            Detect::new(Resilient::new(v, root, Metric::Weighted, g), cfg)
        };
        let run_seq = |kind: CoreKind| {
            let mut sim = Simulator::new(&g);
            sim.core(kind).record_trace(1 << 14);
            sim.run_with_oracle(&mut oracle(), make).unwrap()
        };
        let bucket: Run<Detect<Resilient>> = run_seq(CoreKind::Bucket);
        let heap = run_seq(CoreKind::Heap);
        prop_assert_eq!(&bucket.cost, &heap.cost);
        prop_assert_eq!(bucket.trace.events(), heap.trace.events());
        prop_assert_eq!(
            format!("{:?}", bucket.states),
            format!("{:?}", heap.states)
        );
        prop_assert_eq!(bucket.cost.recoveries, expected_recoveries);
        prop_assert_eq!(bucket.cost.weight_revisions, 1);

        for threads in [2usize, 4] {
            for kind in [CoreKind::Bucket, CoreKind::Heap] {
                let par: Run<Detect<Resilient>> = ShardedSimulator::new(&g)
                    .threads(threads)
                    .core(kind)
                    .record_trace(1 << 14)
                    .run_with_oracle(&mut oracle(), make)
                    .unwrap();
                prop_assert_eq!(&bucket.cost, &par.cost);
                prop_assert_eq!(bucket.trace.events(), par.trace.events());
                prop_assert_eq!(
                    format!("{:?}", bucket.states),
                    format!("{:?}", par.states)
                );
            }
        }
    }

    /// The invariant the incremental-evaluation cache rests on, under
    /// *fault* schedules rather than delay-only ones: resuming a run
    /// from any prefix checkpoint under the same drop+crash schedule is
    /// bit-identical to the cold run — costs including every fault
    /// meter, traces, and final states. Both the full `resume` path and
    /// the pooled `eval_resume` path are pinned, the latter through one
    /// shared pool so buffer reuse across checkpoints is exercised too.
    #[test]
    fn checkpoint_resume_matches_cold_run_under_drop_crash_schedules(
        seed in any::<u64>(),
        drop_rate in 0.05f64..0.6,
        n in 6usize..12,
        victim_ix in 1usize..12,
        crash_at in 0u64..60,
        every in 3u64..9,
    ) {
        let g = generators::connected_gnp(n, 0.35, WeightDist::Uniform(1, 9), seed);
        let victim = NodeId::new(victim_ix % n);

        // Record a faithful fault schedule: bounded drops plus one
        // crash, over the retransmission-wrapped SPT (timers included).
        let lossy = DropOracle::new(DelayModel::Uniform, seed ^ 0xCAFE_F00D, drop_rate, 3);
        let oracle = CrashOracle::new(lossy, vec![(victim, SimTime::new(crash_at))]);
        let (_, schedule) =
            csp_adversary::record(&g, make_reliable_spt, oracle, csp_adversary::Fallback::WorstCase);
        prop_assert!(!schedule.plan.churn.is_empty());

        // Cold reference run, checkpointed, with the trace recorded.
        let mut cps = Vec::new();
        let mut sim = Simulator::new(&g);
        sim.record_trace(1 << 14);
        let cold = sim
            .run_with_checkpoints(
                &mut ScheduleOracle::new(&schedule),
                make_reliable_spt,
                every,
                &mut cps,
            )
            .unwrap();
        prop_assert!(!cps.is_empty(), "workload too small to checkpoint");

        let mut pool = csp_sim::EvalPool::new();
        for cp in &cps {
            let mut owned = csp_sim::EvalPool::new();
            let mut oracle = ScheduleOracle::new(&schedule);
            sim.execute(cp, &mut owned, &mut oracle, &mut (), csp_sim::NoCapture)
                .unwrap();
            let resumed = owned.into_run();
            prop_assert_eq!(&resumed.cost, &cold.cost);
            prop_assert_eq!(resumed.cost.drops, cold.cost.drops);
            prop_assert_eq!(resumed.cost.crashed_nodes, cold.cost.crashed_nodes);
            prop_assert_eq!(resumed.cost.dead_events, cold.cost.dead_events);
            prop_assert_eq!(resumed.trace.events(), cold.trace.events());
            prop_assert_eq!(
                format!("{:?}", resumed.states),
                format!("{:?}", cold.states)
            );

            let summary = sim
                .eval_resume(&mut pool, cp, &mut ScheduleOracle::new(&schedule))
                .unwrap();
            prop_assert_eq!(summary.completion, cold.cost.completion);
            prop_assert_eq!(summary.messages, cold.cost.messages);
            prop_assert_eq!(summary.weighted_comm, cold.cost.weighted_comm);
            prop_assert!(!summary.truncated);
        }
    }
}

#[test]
fn unprotected_flood_under_loss_is_detected_as_deadlocked_not_hung() {
    // Cut the flood's very first token on a path graph: downstream
    // vertices are unreachable, the run quiesces (it does NOT hang), and
    // Dijkstra–Scholten correctly never announces termination.
    struct DropFirst;
    impl csp_sim::LinkOracle for DropFirst {
        fn decide(&mut self, msg: &csp_sim::MsgInfo) -> csp_sim::LinkDecision {
            if msg.index == 0 {
                csp_sim::LinkDecision::Drop
            } else {
                csp_sim::LinkDecision::Deliver { delay: 1 }
            }
        }
    }

    let g = generators::path(4, |_| 3);
    let root = NodeId::new(0);
    let mut oracle = DropFirst;
    let run: Run<Detector<Flood>> = Simulator::new(&g)
        .run_with_oracle(&mut oracle, |v, _| {
            Detector::new(v, root, Flood::new(v == root))
        })
        .unwrap();
    assert_eq!(
        run.states[root.index()].detected_at(),
        None,
        "termination must not be announced after a lost message"
    );
    assert!(
        run.states[1..].iter().all(|s| !s.hosted().reached()),
        "the dropped token never went anywhere"
    );
}
