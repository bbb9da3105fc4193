//! Churn suite: replays the committed crash–rejoin–recrash witness
//! against the `Detect<Resilient>` SPT stack and pins what the
//! `self_healing` example established — churning a vertex (crash,
//! rejoin with fresh state, recrash at the detection-horizon boundary)
//! strictly out-bills the best *single*-crash witness on weighted
//! announcement traffic, the healed run still satisfies the
//! reconvergence contract within the detection horizon of the last
//! churn event, and the replay is bit-identical across the bucket and
//! heap cores and the sharded simulator.
//!
//! The committed schedules under the workspace's `tests/schedules/`
//! were produced by `cargo run --release --example self_healing`.

use csp_adversary::{replay_report, Schedule, ScheduleOracle};
use csp_algo::resilient::{reconvergence_violation, Metric, Resilient, ResilientOutcome};
use csp_graph::generators::{self, WeightDist};
use csp_graph::{NodeId, WeightedGraph};
use csp_sim::{CoreKind, CostClass, Detect, DetectConfig, Run, ShardedSimulator, Simulator};
use std::path::PathBuf;

fn schedule_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/schedules")
}

/// The instance both committed witnesses run on.
fn gnp_n12() -> WeightedGraph {
    generators::connected_gnp(12, 0.3, WeightDist::Uniform(1, 16), 42)
}

/// The stack the witnesses were recorded against (see the example for
/// the detector tuning).
fn detector() -> DetectConfig {
    DetectConfig::new(8, 30, 0)
}

fn make(v: NodeId, g: &WeightedGraph) -> Detect<Resilient> {
    Detect::new(
        Resilient::new(v, NodeId::new(0), Metric::Weighted, g),
        detector(),
    )
}

fn load(name: &str) -> Schedule {
    Schedule::load(&schedule_dir().join(name)).unwrap()
}

#[test]
fn committed_churn_witness_out_bills_the_best_single_crash() {
    let g = gnp_n12();
    let single = load("crash-resilient-spt-gnp-n12.schedule");
    let churn = load("churn-resilient-spt-gnp-n12.schedule");

    // Shape: the chain crashes, rejoins and recrashes the *same* vertex
    // the single-crash witness attacks, and ends dead.
    let [(victim, crash)] = &single.plan.churn[..] else {
        panic!("one crash-stop victim: {:?}", single.plan.churn);
    };
    assert_eq!(crash.len(), 1);
    let [(churned, chain)] = &churn.plan.churn[..] else {
        panic!("one chain, of the witness victim: {:?}", churn.plan.churn);
    };
    assert_eq!(churned, victim);
    assert_eq!(chain.len(), 3, "crash-rejoin-recrash, exactly: {chain:?}");
    let victim = *victim;

    // The recrash honours the detector's guarantee on every channel of
    // the victim, like the clamped single-crash witness does.
    let horizon = g
        .neighbors(victim)
        .map(|(_, _, w)| detector().detection_horizon(w.get()))
        .min()
        .unwrap();
    assert!(
        chain.last().unwrap().get() <= horizon,
        "the recrash must stay inside the guaranteed-detection window"
    );

    // Both witnesses replay faithfully; only the chain churns.
    let (single_run, single_report) = replay_report::<Detect<Resilient>, _>(&g, make, &single);
    let (churn_run, churn_report) = replay_report::<Detect<Resilient>, _>(&g, make, &churn);
    assert_eq!(single_report.divergences, 0, "{single_report:?}");
    assert_eq!(churn_report.divergences, 0, "{churn_report:?}");
    assert!(!single_report.has_churn());
    assert!(churn_report.has_churn());
    assert_eq!(churn_report.recoveries, 1);

    // The inequality the witness exists for: the first heal, the
    // rejoin-era re-synchronisation and the second heal bill strictly
    // more weighted announcement traffic than the best single crash.
    assert!(
        churn_run.cost.comm_of(CostClass::Protocol) > single_run.cost.comm_of(CostClass::Protocol),
        "crash-rejoin-recrash must out-bill the single-crash witness \
         ({} vs {})",
        churn_run.cost.comm_of(CostClass::Protocol),
        single_run.cost.comm_of(CostClass::Protocol)
    );
}

#[test]
fn committed_churn_witness_reconverges_within_the_detection_horizon() {
    let g = gnp_n12();
    let churn = load("churn-resilient-spt-gnp-n12.schedule");
    let (run, report) = replay_report::<Detect<Resilient>, _>(&g, make, &churn);
    assert_eq!(report.divergences, 0, "{report:?}");

    // The chain ends with a crash, so the victim is dead in the final
    // configuration; everyone else must hold exact surviving-component
    // routes, settled within the detection horizon of the *last* churn
    // event.
    let (victim, chain) = &churn.plan.churn[0];
    assert_eq!(chain.len() % 2, 1, "the chain ends dead: {chain:?}");
    let mut dead = vec![false; g.node_count()];
    dead[victim.index()] = true;
    let out = ResilientOutcome {
        dists: run.states.iter().map(|s| s.inner().dist()).collect(),
        parents: run.states.iter().map(|s| s.inner().parent()).collect(),
        suspected_links: run
            .states
            .iter()
            .map(|s| s.inner().dead_neighbor_count())
            .sum(),
        restored_links: run.states.iter().map(|s| s.inner().restored_count()).sum(),
        retransmissions: 0,
        failed_channels: 0,
        cost: run.cost.clone(),
    };
    assert_eq!(
        reconvergence_violation(
            &g,
            NodeId::new(0),
            Metric::Weighted,
            &dead,
            *chain.last().unwrap(),
            detector().detection_horizon(g.max_weight().get()),
            &out
        ),
        None,
        "the churned run must reconverge to exact surviving-component \
         routes within the detection horizon of the last churn event"
    );
}

#[test]
fn committed_churn_witness_replays_identically_on_all_cores_and_shards() {
    let g = gnp_n12();
    let churn = load("churn-resilient-spt-gnp-n12.schedule");
    let run_on = |kind: CoreKind| -> Run<Detect<Resilient>> {
        let mut oracle = ScheduleOracle::new(&churn);
        let mut sim = Simulator::new(&g);
        sim.core(kind).record_trace(1 << 14);
        sim.run_with_oracle(&mut oracle, make).unwrap()
    };
    let b = run_on(CoreKind::Bucket);
    let h = run_on(CoreKind::Heap);
    assert_eq!(b.cost, h.cost, "cost reports must match across cores");
    assert_eq!(b.trace.events(), h.trace.events());
    assert_eq!(format!("{:?}", b.states), format!("{:?}", h.states));

    for threads in [2usize, 4] {
        for kind in [CoreKind::Bucket, CoreKind::Heap] {
            let mut oracle = ScheduleOracle::new(&churn);
            let par: Run<Detect<Resilient>> = ShardedSimulator::new(&g)
                .threads(threads)
                .core(kind)
                .record_trace(1 << 14)
                .run_with_oracle(&mut oracle, make)
                .unwrap();
            assert_eq!(
                b.cost, par.cost,
                "sharded ({threads} threads, {kind:?}): cost must match"
            );
            assert_eq!(b.trace.events(), par.trace.events());
            assert_eq!(format!("{:?}", b.states), format!("{:?}", par.states));
        }
    }
}
