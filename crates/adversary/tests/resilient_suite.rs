//! Self-healing suite: replays the committed crash-time witness against
//! the `Detect<Resilient>` SPT stack and pins the inequalities the
//! `self_healing` example established — a well-timed crash strictly
//! beats both the best delay-only schedule and a time-0 crash of the
//! same victim on weighted completion, and forces measurably more
//! weighted recovery (announcement) traffic.
//!
//! The committed schedules under the workspace's `tests/schedules/`
//! were produced by `cargo run --release --example self_healing`.

use csp_adversary::{replay, replay_report, Fallback, Schedule, ScheduleOracle};
use csp_algo::resilient::{contract_violation, Metric, Resilient, ResilientOutcome};
use csp_graph::generators::{self, WeightDist};
use csp_graph::{NodeId, WeightedGraph};
use csp_sim::{CoreKind, CostClass, Detect, DetectConfig, Run, SimTime, Simulator};
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
fn make(v: NodeId, g: &WeightedGraph) -> Detect<Resilient> {
    Detect::new(
        Resilient::new(v, NodeId::new(0), Metric::Weighted, g),
        DetectConfig::new(8, 30, 0),
    )
}

fn load(name: &str) -> Schedule {
    Schedule::load(&schedule_dir().join(name)).unwrap()
}

#[test]
fn committed_crash_witness_beats_delay_only_and_a_time_zero_crash() {
    let g = gnp_n12();
    let delay_only = load("resilient-spt-gnp-n12.schedule");
    let witness = load("crash-resilient-spt-gnp-n12.schedule");
    assert!(delay_only.plan.churn.is_empty());
    let [(victim, crash)] = &witness.plan.churn[..] else {
        panic!("the witness crashes one vertex: {:?}", witness.plan.churn);
    };
    let victim = *victim;
    assert_ne!(victim, NodeId::new(0), "the witness victim is interior");
    assert!(crash[0] > SimTime::ZERO, "the crash is *timed*, not at 0");

    let clean: Run<Detect<Resilient>> = replay(&g, make, &delay_only);
    let (late, report) = replay_report::<Detect<Resilient>, _>(&g, make, &witness);
    // Faithful recordings: neither replay ever leaves its schedule.
    assert_eq!(report.divergences, 0, "{report:?}");
    assert!(report.has_faults() && report.crashed_nodes == 1);

    // The same transcript with the crash moved to time 0: the victim
    // never participates, so the survivors pay no recovery.
    let mut zeroed = witness.clone();
    zeroed.plan.churn = vec![(victim, vec![SimTime::ZERO])];
    zeroed.fallback = Fallback::WorstCase;
    let mut oracle = ScheduleOracle::new(&zeroed);
    let zero: Run<Detect<Resilient>> = Simulator::new(&g)
        .run_with_oracle(&mut oracle, make)
        .unwrap();

    assert!(
        late.cost.completion > clean.cost.completion,
        "the timed crash must out-delay the best delay-only schedule \
         ({} vs {})",
        late.cost.completion,
        clean.cost.completion
    );
    assert!(
        late.cost.completion > zero.cost.completion,
        "the timed crash must out-delay a time-0 crash of the same \
         victim ({} vs {})",
        late.cost.completion,
        zero.cost.completion
    );
    assert!(
        late.cost.comm_of(CostClass::Protocol) > zero.cost.comm_of(CostClass::Protocol),
        "healing mid-run must cost strictly more weighted announcement \
         traffic than never having met the victim ({} vs {})",
        late.cost.comm_of(CostClass::Protocol),
        zero.cost.comm_of(CostClass::Protocol)
    );
}

#[test]
fn committed_crash_witness_still_satisfies_the_surviving_component_contract() {
    let g = gnp_n12();
    let witness = load("crash-resilient-spt-gnp-n12.schedule");
    let (run, report) = replay_report::<Detect<Resilient>, _>(&g, make, &witness);
    assert_eq!(report.divergences, 0, "{report:?}");

    let mut dead = vec![false; g.node_count()];
    for (victim, _) in &witness.plan.churn {
        dead[victim.index()] = true;
    }
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
        contract_violation(&g, NodeId::new(0), Metric::Weighted, &dead, &out),
        None,
        "even the adversarial witness must leave exact subgraph answers"
    );
}

#[test]
fn committed_resilient_witnesses_replay_identically_on_bucket_and_heap_cores() {
    let g = gnp_n12();
    for file in [
        "resilient-spt-gnp-n12.schedule",
        "crash-resilient-spt-gnp-n12.schedule",
    ] {
        let schedule = load(file);
        let run_on = |kind: CoreKind| {
            let mut oracle = ScheduleOracle::new(&schedule);
            let mut sim = Simulator::new(&g);
            sim.core(kind).record_trace(1 << 14);
            sim.run_with_oracle(&mut oracle, make).unwrap()
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
