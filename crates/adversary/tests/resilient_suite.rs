//! Self-healing suite: replays the committed crash-time witness against
//! the `Detect<Resilient>` SPT stack and pins the inequalities the
//! `self_healing` example established — a well-timed crash strictly
//! beats both the best delay-only schedule and a time-0 crash of the
//! same victim on weighted completion, and forces measurably more
//! weighted recovery (announcement) traffic — and pins the
//! recovery-cost-vs-crash-time curve that generalises it.
//!
//! The committed schedules under the workspace's `tests/schedules/`
//! were produced by `cargo run --release --example self_healing`.

mod common;

use common::{curve_workloads, gnp_n12, horizon, load, make, pick_victim, run_under};
use csp_adversary::{replay, replay_report, Fallback, ScheduleOracle};
use csp_algo::resilient::{contract_violation, Metric, Resilient, ResilientOutcome};
use csp_graph::NodeId;
use csp_sim::{CoreKind, CostClass, Detect, Run, SimTime, Simulator};

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
    let (late, replayed) = replay_report::<Detect<Resilient>, _>(&g, make, &witness);
    // Faithful recordings: neither replay ever leaves its schedule.
    assert_eq!(replayed.divergences, 0);
    assert!(late.cost.has_faults() && late.cost.crashed_nodes == 1);

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
    let (run, replayed) = replay_report::<Detect<Resilient>, _>(&g, make, &witness);
    assert_eq!(replayed.divergences, 0);

    let mut dead = vec![false; g.node_count()];
    for (victim, _) in &witness.plan.churn {
        dead[victim.index()] = true;
    }
    let out = ResilientOutcome::of(run, Detect::inner);
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

/// Recovery cost over crash time: on each curve workload the victim
/// crashes at 9 points spanning its detection horizon (`h·i/8`,
/// `i = 0..=8`). At `t = 0` the survivors solve a smaller instance and
/// pay less than a crash-free run; once the victim carries its subtree,
/// the healing wave pays more.
#[test]
fn recovery_traffic_over_crash_time_matches_its_table() {
    // (workload, victim, horizon, crash-free completion, crash-free
    // `Protocol` comm, comm of a crash at t = 0, largest comm on the grid)
    let table = [
        ("gnp-n12", 7, 226, 248, 502, 464, 593),
        ("gnp-n16", 1, 217, 248, 636, 557, 1138),
        ("heavy-chord-n12", 11, 169, 296, 792, 725, 1448),
    ];
    let protocol = |out: &ResilientOutcome| out.cost.comm_of(CostClass::Protocol).get();
    for ((name, g), row) in curve_workloads().iter().zip(table) {
        let baseline = run_under(g, NodeId::new(0), vec![]);
        let victim = pick_victim(g, &baseline);
        let h = horizon(g, victim);
        let curve: Vec<_> = (0..=8)
            .map(|i| protocol(&run_under(g, victim, vec![SimTime::new(h * i / 8)])))
            .collect();
        let max = *curve.iter().max().unwrap();
        assert!(
            max > protocol(&baseline),
            "{name}: some crash time must cost recovery traffic ({max} vs {})",
            protocol(&baseline)
        );
        let got = (
            *name,
            victim.index(),
            h,
            baseline.cost.completion.get(),
            protocol(&baseline),
            curve[0],
            max,
        );
        assert_eq!(got, row);
    }
}
