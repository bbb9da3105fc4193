//! Churn suite: replays the committed crash–rejoin–recrash witness
//! against the `Detect<Resilient>` SPT stack and pins what the
//! `self_healing` example established — churning a vertex (crash,
//! rejoin with fresh state, recrash at the detection-horizon boundary)
//! strictly out-bills the best *single*-crash witness on weighted
//! announcement traffic, the healed run still satisfies the
//! reconvergence contract within the detection horizon of the last
//! churn event, and the replay is bit-identical across the bucket and
//! heap cores and the sharded simulator — and pins the
//! recovery-traffic-vs-churn-rate curve that generalises the gap.
//!
//! The committed schedules under the workspace's `tests/schedules/`
//! were produced by `cargo run --release --example self_healing`.

mod common;

use common::{curve_workloads, detector, gnp_n12, horizon, load, make, pick_victim, run_under};
use csp_adversary::{replay_report, ScheduleOracle};
use csp_algo::resilient::{reconvergence_violation, Metric, Resilient, ResilientOutcome};
use csp_graph::NodeId;
use csp_sim::{CoreKind, CostClass, Detect, Run, ShardedSimulator, SimTime, Simulator};

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
    assert!(
        chain.last().unwrap().get() <= horizon(&g, victim),
        "the recrash must stay inside the guaranteed-detection window"
    );

    // Both witnesses replay faithfully; only the chain churns.
    let (single_run, single_replay) = replay_report::<Detect<Resilient>, _>(&g, make, &single);
    let (churn_run, churn_replay) = replay_report::<Detect<Resilient>, _>(&g, make, &churn);
    assert_eq!(single_replay.divergences, 0);
    assert_eq!(churn_replay.divergences, 0);
    assert!(!single_run.cost.has_churn());
    assert!(churn_run.cost.has_churn());
    assert_eq!(churn_run.cost.recoveries, 1);

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
    let (run, replayed) = replay_report::<Detect<Resilient>, _>(&g, make, &churn);
    assert_eq!(replayed.divergences, 0);

    // The chain ends with a crash, so the victim is dead in the final
    // configuration; everyone else must hold exact surviving-component
    // routes, settled within the detection horizon of the *last* churn
    // event.
    let (victim, chain) = &churn.plan.churn[0];
    assert_eq!(chain.len() % 2, 1, "the chain ends dead: {chain:?}");
    let mut dead = vec![false; g.node_count()];
    dead[victim.index()] = true;
    let out = ResilientOutcome::of(run, Detect::inner);
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

/// Recovery traffic over churn rate: rate `k` packs `k` crash–rejoin
/// cycles of the victim into its detection window, each rejoin waiting
/// out the victim's slowest channel so every cycle is suspected and
/// healed before the fresh incarnation is re-announced. Rates that do
/// not fit are clamped to the window's `max_cycles`.
#[test]
fn recovery_traffic_over_churn_rate_matches_its_table() {
    // (workload, rejoin gap, max cycles, `Protocol` comm at k = 1..=4)
    let table = [
        ("gnp-n12", 17, 11, [631, 875, 1119, 1363]),
        ("gnp-n16", 26, 7, [972, 2041, 3110, 4179]),
        ("heavy-chord-n12", 74, 1, [1122; 4]),
    ];
    for ((name, g), row) in curve_workloads().iter().zip(table) {
        let baseline = run_under(g, NodeId::new(0), vec![]);
        let base = baseline.cost.comm_of(CostClass::Protocol).get();
        let victim = pick_victim(g, &baseline);
        let h = horizon(g, victim);
        let gap = g
            .neighbors(victim)
            .map(|(_, _, w)| detector().theta(w.get()))
            .max()
            .unwrap()
            + 1;
        let max_cycles = (h.saturating_sub(gap + 1) / (gap + 1)).max(1);

        let mut comm = [0; 4];
        for (k, slot) in (1..=4).zip(&mut comm) {
            let cycles = k.min(max_cycles);
            let stride = (h - gap - 1) / cycles;
            let chain = (0..cycles)
                .flat_map(|i| [1 + i * stride, 1 + i * stride + gap])
                .map(SimTime::new)
                .collect();
            let out = run_under(g, victim, chain);
            // Every rejoin is observed: the meter counts each cycle, and
            // every neighbour of the victim takes a restore upcall per
            // cycle.
            assert_eq!(out.cost.recoveries, cycles, "{name} at k = {k}");
            assert_eq!(
                out.restored_links,
                cycles * g.neighbors(victim).count() as u64,
                "{name} at k = {k}"
            );
            *slot = out.cost.comm_of(CostClass::Protocol).get();
        }
        // Re-syncing each fresh incarnation only adds announcement
        // traffic, and churn costs more than no churn.
        assert!(comm.windows(2).all(|w| w[0] <= w[1]), "{name}: {comm:?}");
        assert!(comm[3] > base, "{name}: {} vs {base}", comm[3]);
        assert_eq!((*name, gap, max_cycles, comm), row);
    }
}
