//! Self-healing SPT versus a crash-*time* adversary.
//!
//! Runs the crash-tolerant distance-vector SPT (`Resilient` under the
//! `Detect` failure-detector transformer) on the `gnp-n12` instance and
//! searches for the most expensive moment to kill a vertex: crash
//! probes place each victim on a small time grid, then a
//! `SearchConfig::mutation` with `Mutation::crash_time_flips` makes the
//! crash instant a hill-climb coordinate. A well-timed crash lets the
//! protocol finish most of its work first, then forces a detection wait
//! plus a re-routing/re-parenting wave — strictly worse on weighted
//! completion than either the best delay-only schedule (no faults) or
//! a time-0 crash (the victim never participates, so nothing needs
//! healing). The winning schedule is shrunk to a 1-minimal witness
//! whose crash time is pushed to the *latest* violating tick, and both
//! schedules are written out:
//!
//! ```text
//! cargo run --release --example self_healing [-- out_dir]
//! ```
//!
//! A churn phase then goes beyond crash-stop: the same victim is
//! crashed, *rejoined* (fresh state — the survivors pay `Auxiliary`
//! re-announcement traffic to pull the blank incarnation back into the
//! Bellman fixpoint), and crashed again, forcing the detection-plus-
//! healing bill twice. The chain grid honours the detector's contract
//! (the rejoin waits out the victim's largest channel `θ(e)`, the
//! recrash stays inside the guaranteed-detection window — anchored at
//! its boundary, exactly where the clamped single-crash witness sits),
//! and the winning chain must strictly out-bill the single-crash
//! witness on weighted protocol traffic: completion alone cannot
//! separate them, because both final crashes heal on the same
//! detection clock.
//!
//! The committed `tests/schedules/resilient-spt-gnp-n12.schedule`
//! (delay-only), `tests/schedules/crash-resilient-spt-gnp-n12.schedule`
//! (crash witness) and
//! `tests/schedules/churn-resilient-spt-gnp-n12.schedule`
//! (crash–rejoin–recrash witness) were produced by this example; the
//! `resilient_suite` and `churn_suite` integration tests replay them
//! and pin the inequalities.

use csp_adversary::{
    find_worst_schedule, record, replay_report, shrink, Fallback, Mutation, Schedule,
    ScheduleOracle, SearchConfig,
};
use csp_algo::resilient::{reconvergence_violation, Metric, Resilient, ResilientOutcome};
use csp_graph::generators::{self, WeightDist};

use csp_graph::{Cost, NodeId, WeightedGraph};
use csp_sim::{CostClass, Detect, DetectConfig, SimTime};
use std::path::PathBuf;

/// Failure-detector tuning: period 8 with 30 beats keeps the detection
/// horizon past tick 200 on this instance (max weight 16), so every
/// crash time the search explores is guaranteed to be noticed.
fn detector() -> DetectConfig {
    DetectConfig::new(8, 30, 0)
}

fn make(v: NodeId, g: &WeightedGraph) -> Detect<Resilient> {
    Detect::new(
        Resilient::new(v, NodeId::new(0), Metric::Weighted, g),
        detector(),
    )
}

/// Replays `base` with its churn replaced by `churn` — per-vertex
/// toggle chains, alternating crash/rejoin times, strictly increasing
/// (worst-case fallback past the recorded horizon) — and re-records the
/// transcript.
fn with_churn(
    g: &WeightedGraph,
    base: &Schedule,
    churn: &[(NodeId, &[u64])],
) -> (SimTime, Cost, Schedule) {
    let mut candidate = base.clone();
    candidate.plan.churn = churn
        .iter()
        .map(|&(v, chain)| (v, chain.iter().map(|&t| SimTime::new(t)).collect()))
        .collect();
    let (run, recorded) = record(
        g,
        make,
        ScheduleOracle::new(&candidate),
        Fallback::WorstCase,
    );
    (
        run.cost.completion,
        run.cost.comm_of(CostClass::Protocol),
        recorded,
    )
}

/// Deterministic fallback for when the randomized search fails to beat
/// the bar on its own: scan every victim over a coarse time grid on top
/// of the delay-only incumbent and keep the worst completion.
fn inject_worst_crash(g: &WeightedGraph, base: &Schedule) -> (SimTime, Schedule) {
    let mut best: Option<(SimTime, Schedule)> = None;
    for v in g.nodes().skip(1) {
        for at in (12..=212).step_by(24) {
            let (t, _, recorded) = with_churn(g, base, &[(v, &[at])]);
            if best.as_ref().is_none_or(|(bt, _)| t > *bt) {
                best = Some((t, recorded));
            }
        }
    }
    best.expect("the grid is non-empty")
}

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .map_or_else(|| PathBuf::from("tests/schedules"), PathBuf::from);
    let g = generators::connected_gnp(12, 0.3, WeightDist::Uniform(1, 16), 42);

    let base = SearchConfig::builder()
        .random_probes(16)
        .hill_rounds(8)
        .candidates_per_round(8)
        .polish_passes(1);
    let cfg = base.build().expect("delay-only config is valid");

    println!("delay-only search over Detect<Resilient> (SPT) on gnp-n12 ...");
    let delay = find_worst_schedule(&g, make, &cfg);
    println!(
        "  worst-case {} -> searched {} (strategy: {}, {} evaluations)",
        delay.worst_case, delay.best_time, delay.strategy, delay.evaluations
    );

    println!("same search with crash probes and crash-time flips ...");
    let crashed = find_worst_schedule(
        &g,
        make,
        &base
            .crash_probes(g.node_count())
            .mutation(Mutation::new().delay_flips(4).crash_time_flips(2))
            .build()
            .expect("crash config is valid"),
    );
    println!(
        "  searched {} with {} crash(es) (strategy: {})",
        crashed.best_time,
        crashed.schedule.plan.churn.len(),
        crashed.strategy
    );

    // The two baselines any crash witness must clear: the best fault-free
    // schedule, and the same victim dying at time 0 (it never joins the
    // computation, so the survivors just run the smaller instance). Keep
    // the witness away from the source: killing it forces a blanket
    // retraction, which hides the re-routing story the resilient stack
    // exists for.
    let interior = (crashed.schedule.plan.churn.first()).is_some_and(|(v, _)| *v != NodeId::new(0));
    let (candidate_time, candidate) = if interior {
        (crashed.best_time, crashed.schedule)
    } else {
        println!("  (search found no interior victim; scanning the victim/time grid)");
        inject_worst_crash(&g, &delay.schedule)
    };
    let victim = candidate.plan.churn[0].0;
    let (zero_time, _, _) = with_churn(&g, &candidate, &[(victim, &[0])]);
    let (crash_free_time, _, _) = with_churn(&g, &candidate, &[]);
    let bar = delay.best_time.max(zero_time).max(crash_free_time);
    let (fault_time, fault_schedule) = if candidate_time > bar {
        (candidate_time, candidate)
    } else {
        println!("  (searched crash did not clear the bar; scanning the grid)");
        inject_worst_crash(&g, &delay.schedule)
    };
    assert!(
        fault_time > bar,
        "a well-timed crash must out-delay both the delay-only \
         schedule and a time-0 crash ({fault_time} vs bar {bar})"
    );

    println!("shrinking the crash witness against t > {bar} ...");
    let (mut shrunk_time, mut shrunk) = shrink(&g, &make, &fault_schedule, |t| t > bar);
    let [(witness_victim, crash)] = &shrunk.plan.churn[..] else {
        panic!("the witness must keep its crash: {:?}", shrunk.plan.churn);
    };
    let (witness_victim, mut crash_at) = (*witness_victim, crash[0].get());
    println!(
        "  minimal witness: completion {shrunk_time} with vertex {witness_victim} crashing at {crash_at}"
    );

    // The shrinker pushes the crash to the *latest* violating tick,
    // which can overshoot the detector's guarantee on the victim's
    // heaviest channel — a crash after the last heartbeat a channel
    // still polices goes unnoticed there, leaving a stale route and
    // breaking the healing contract. Pull it back inside the
    // guaranteed-detection window; the recovery wave it triggers still
    // lands past the bar.
    let horizon = g
        .neighbors(witness_victim)
        .map(|(_, _, w)| detector().detection_horizon(w.get()))
        .min()
        .expect("the victim has neighbors");
    if crash_at > horizon {
        let clamped = with_churn(&g, &shrunk, &[(witness_victim, &[horizon])]);
        assert!(
            clamped.0 > bar,
            "the latest guaranteed-detected crash must still clear the \
             bar ({} vs {bar})",
            clamped.0
        );
        (shrunk_time, shrunk, crash_at) = (clamped.0, clamped.2, horizon);
        println!("  crash clamped to the detection horizon {horizon}: completion {shrunk_time}");
    }

    // The recovery bill, isolated: the same transcript with the crash
    // moved to time 0 heals nothing, so the weighted announcement
    // traffic it saves is exactly what the well-timed crash forces.
    let (late_time, late_protocol, _) = with_churn(&g, &shrunk, &[(witness_victim, &[crash_at])]);
    let (zero_time, zero_protocol, _) = with_churn(&g, &shrunk, &[(witness_victim, &[0])]);
    println!(
        "  weighted recovery traffic: crash at {} costs protocol comm {} \
         (completion {}) vs {} (completion {}) for a time-0 crash",
        crash_at, late_protocol, late_time, zero_protocol, zero_time
    );
    assert!(
        late_protocol > zero_protocol,
        "a well-timed crash must force measurably more recovery traffic"
    );

    // The witness replays faithfully, and the run's cost report surfaces
    // what the adversary actually did to it.
    let (replayed, oracle) = replay_report::<Detect<Resilient>, _>(&g, make, &shrunk);
    assert_eq!(oracle.divergences, 0, "the witness must replay exactly");
    println!(
        "  fault meters: {} drops, {} crashed vertices, {} dead events, \
         {} recoveries, {} weight revisions",
        replayed.cost.drops,
        replayed.cost.crashed_nodes,
        replayed.cost.dead_events,
        replayed.cost.recoveries,
        replayed.cost.weight_revisions
    );

    // Churn beyond crash-stop: crash the victim, rejoin it, crash it
    // again. The rejoin resurrects a *blank* incarnation the survivors
    // must re-sync (Auxiliary traffic), and the recrash forces the
    // whole detection-plus-healing bill a second time — strictly worse
    // than any single crash of the same victim. The chain grid honours
    // the detector's contract: the rejoin waits out the victim's
    // largest channel θ(e) (every neighbor suspects before the
    // resurrection) and the recrash stays inside the
    // guaranteed-detection window.
    let theta_max = g
        .neighbors(witness_victim)
        .map(|(_, _, w)| detector().theta(w.get()))
        .max()
        .expect("the victim has neighbors");
    println!(
        "churn search: crash-rejoin-recrash chains on vertex {} \
         (theta_max {theta_max}, horizon {horizon}) ...",
        witness_victim
    );
    // Both the witness crash and the chain's recrash are capped by the
    // same guaranteed-detection window, so completion alone cannot
    // separate them — the surviving component heals the final crash on
    // the same clock either way. The chain's signature is *cost*: the
    // first heal, the rejoin-era re-synchronisation and the second heal
    // all bill weighted announcement traffic the single crash never
    // pays. Anchor the recrash at the detection horizon (the most
    // expensive admissible instant, exactly like the clamped witness)
    // and pick the chain maximizing weighted protocol comm.
    let mut best_churn: Option<(Cost, SimTime, Schedule)> = None;
    for c2 in [horizon, horizon - 8, horizon - 16] {
        for gap2 in [24, 48, 72] {
            for gap1 in [theta_max + 1, theta_max + 17, theta_max + 33] {
                let Some(rejoin_at) = c2.checked_sub(gap2) else {
                    continue;
                };
                let Some(c1) = rejoin_at.checked_sub(gap1) else {
                    continue;
                };
                if c1 == 0 {
                    continue; // a time-0 crash heals nothing
                }
                let (t, comm, recorded) =
                    with_churn(&g, &shrunk, &[(witness_victim, &[c1, rejoin_at, c2])]);
                if best_churn.as_ref().is_none_or(|(bc, _, _)| comm > *bc) {
                    best_churn = Some((comm, t, recorded));
                }
            }
        }
    }
    let (churn_comm, churn_time, churn_schedule) = best_churn.expect("the churn grid is non-empty");
    let churn_chain: Vec<u64> = (churn_schedule.plan.churn[0].1.iter())
        .map(|t| t.get())
        .collect();
    println!(
        "  best chain {churn_chain:?}: protocol comm {churn_comm} \
         (completion {churn_time}) vs single-crash witness {late_protocol} \
         (completion {shrunk_time})"
    );
    assert!(
        churn_comm > late_protocol,
        "crash-rejoin-recrash must out-bill the best single-crash \
         witness on weighted announcement traffic ({churn_comm} vs \
         {late_protocol})"
    );

    // The churn witness replays faithfully, its meters record the
    // recovery, and the healed run still satisfies the reconvergence
    // contract: exact surviving-component routes, settled within the
    // detector-derived horizon of the *last* churn event.
    let (churn_run, churn_replay) =
        replay_report::<Detect<Resilient>, _>(&g, make, &churn_schedule);
    assert_eq!(
        churn_replay.divergences, 0,
        "the witness must replay exactly"
    );
    let churn_out = ResilientOutcome::of(churn_run, Detect::inner);
    let churn_cost = &churn_out.cost;
    assert!(
        churn_cost.has_churn(),
        "the witness churns beyond crash-stop"
    );
    println!(
        "  churn meters: {} recoveries, {} weight revisions, auxiliary \
         re-announcement comm {}",
        churn_cost.recoveries,
        churn_cost.weight_revisions,
        churn_cost.comm_of(CostClass::Auxiliary)
    );
    let mut dead = vec![false; g.node_count()];
    dead[witness_victim.index()] = true;
    let last_churn = *churn_chain.last().expect("the chain is non-empty");
    let max_w = g.max_weight().get();
    assert_eq!(
        reconvergence_violation(
            &g,
            NodeId::new(0),
            Metric::Weighted,
            &dead,
            SimTime::new(last_churn),
            detector().detection_horizon(max_w),
            &churn_out
        ),
        None,
        "the churned run must reconverge to exact surviving-component \
         routes within the detection horizon of the last churn event"
    );

    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let delay_path = out_dir.join("resilient-spt-gnp-n12.schedule");
    delay
        .schedule
        .save(
            &delay_path,
            &[
                "resilient-spt on gnp-n12 (delay-only adversary)".to_string(),
                format!(
                    "worst-case {} < searched {} (strategy: {})",
                    delay.worst_case, delay.best_time, delay.strategy
                ),
            ],
        )
        .expect("write delay-only schedule");
    let crash_path = out_dir.join("crash-resilient-spt-gnp-n12.schedule");
    shrunk
        .save(
            &crash_path,
            &[
                "resilient-spt on gnp-n12 (crash-time adversary, shrunk)".to_string(),
                format!(
                    "bar {} (delay-only {}, time-0 crash {}) < with crash {}",
                    bar, delay.best_time, zero_time, shrunk_time
                ),
            ],
        )
        .expect("write crash schedule");
    let churn_path = out_dir.join("churn-resilient-spt-gnp-n12.schedule");
    churn_schedule
        .save(
            &churn_path,
            &[
                "resilient-spt on gnp-n12 (crash-rejoin-recrash adversary)".to_string(),
                format!(
                    "single-crash protocol comm {} < with churn chain {:?}: {} \
                     (completion {} vs {})",
                    late_protocol, churn_chain, churn_comm, churn_time, shrunk_time
                ),
                format!(
                    "{} recoveries, auxiliary re-sync comm {}",
                    churn_cost.recoveries,
                    churn_cost.comm_of(CostClass::Auxiliary)
                ),
            ],
        )
        .expect("write churn schedule");
    println!(
        "wrote {}, {} and {}",
        delay_path.display(),
        crash_path.display(),
        churn_path.display()
    );
}
