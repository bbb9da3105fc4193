//! Fault injection: what message loss costs a retransmission layer.
//!
//! Runs `SPT_recur` wrapped in the simulator's `Reliable` ack/timeout
//! layer on the `gnp-n12` instance, then pits two adversaries against
//! it: the delay-only schedule search, and the same search with drop
//! injection enabled (a `SearchConfig::mutation` with
//! `Mutation::drop_flips`). Dropping a message forces the wrapper
//! through a retransmission timeout, so a good drop schedule pushes
//! weighted completion strictly past anything delays alone can do. The
//! winning fault schedule is shrunk to a 1-minimal witness and both
//! schedules are written out:
//!
//! ```text
//! cargo run --release --example fault_injection [-- out_dir]
//! ```
//!
//! The committed `tests/schedules/reliable-spt-recur-gnp-n12.schedule`
//! and `tests/schedules/fault-spt-recur-gnp-n12.schedule` were produced
//! by this example (default out_dir `tests/schedules`); the
//! `fault_suite` integration tests replay them and pin the gap.

use csp_adversary::{
    find_worst_schedule, record, replay_report, shrink, Fallback, Mutation, Schedule,
    ScheduleOracle, SearchConfig,
};
use csp_algo::spt::recur::SptRecur;
use csp_graph::generators::{self, WeightDist};
use csp_graph::{NodeId, WeightedGraph};
use csp_sim::{CostClass, Reliable, SimTime};
use std::path::PathBuf;

/// Retry bound for the wrapper: enough to survive any schedule the
/// search emits (drops are per-dispatch, not per-channel-forever).
const MAX_RETRIES: u32 = 3;

fn make(v: NodeId, _: &WeightedGraph) -> Reliable<SptRecur> {
    Reliable::new(SptRecur::new(v, NodeId::new(0), 1 << 40), MAX_RETRIES)
}

/// Best single-drop injection on top of `base`: replays `base` with each
/// decision in turn marked dropped and keeps the worst completion. A
/// deterministic fallback for when the randomized search fails to beat
/// the delay-only incumbent on its own.
fn inject_worst_drop(g: &WeightedGraph, base: &Schedule) -> (SimTime, Schedule) {
    let mut best: Option<(SimTime, Schedule)> = None;
    for i in 0..base.decisions.len() {
        let mut candidate = base.clone();
        candidate.decisions[i].dropped = true;
        let (run, recorded) = record(
            g,
            make,
            ScheduleOracle::new(&candidate),
            Fallback::WorstCase,
        );
        if best.as_ref().is_none_or(|(t, _)| run.cost.completion > *t) {
            best = Some((run.cost.completion, recorded));
        }
    }
    best.expect("schedule has at least one decision")
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

    println!("delay-only search over Reliable<SPT_recur> on gnp-n12 ...");
    let delay = find_worst_schedule(&g, make, &cfg);
    println!(
        "  worst-case {} -> searched {} (strategy: {}, {} evaluations)",
        delay.worst_case, delay.best_time, delay.strategy, delay.evaluations
    );

    println!("same search with drop injection (drop_flips = 2) ...");
    let drops = Mutation::new().delay_flips(4).drop_flips(2);
    let faulty = find_worst_schedule(
        &g,
        make,
        &base.mutation(drops).build().expect("drop config is valid"),
    );
    println!(
        "  searched {} with {} drops (strategy: {})",
        faulty.best_time,
        faulty.schedule.dropped_count(),
        faulty.strategy
    );

    // The drop search explores a superset of the delay space but walks a
    // different random path; if it failed to clear the delay-only bar,
    // force the issue with the best single injected drop.
    let (fault_time, fault_schedule) = if faulty.best_time > delay.best_time {
        (faulty.best_time, faulty.schedule)
    } else {
        println!("  (search did not clear the bar; injecting the worst single drop)");
        inject_worst_drop(&g, &delay.schedule)
    };
    assert!(
        fault_time > delay.best_time,
        "a dropped retransmission round must out-delay pure delays"
    );

    println!(
        "shrinking the fault witness against t > {} ...",
        delay.best_time
    );
    let (shrunk_time, shrunk) = shrink(&g, &make, &fault_schedule, |t| t > delay.best_time);
    println!(
        "  minimal witness: completion {} with {} drops, {} crashes",
        shrunk_time,
        shrunk.dropped_count(),
        // Drop search plans no rejoins: a chain is one crash.
        shrunk.plan.churn.len()
    );

    // The weighted price of surviving the witness's drops: the same
    // schedule with its drop flags cleared, versus with them active.
    let mut undropped = shrunk.clone();
    for d in &mut undropped.decisions {
        d.dropped = false;
    }
    let (clean, _) = record(
        &g,
        make,
        ScheduleOracle::new(&undropped),
        Fallback::WorstCase,
    );
    let (lossy, _) = replay_report::<Reliable<SptRecur>, _>(&g, make, &shrunk);
    println!(
        "  auxiliary comm {} (same delays, no drops) -> {} (under drops)",
        clean.cost.comm_of(CostClass::Auxiliary),
        lossy.cost.comm_of(CostClass::Auxiliary)
    );
    let retransmissions: u64 = lossy.states.iter().map(|s| s.retransmissions()).sum();
    let failed_channels: usize = lossy.states.iter().map(|s| s.failed_channel_count()).sum();
    println!(
        "  fault meters: {} drops, {} crashed vertices, {} dead events, \
         {} retransmissions, {} abandoned channels, {} recoveries, \
         {} weight revisions",
        lossy.cost.drops,
        lossy.cost.crashed_nodes,
        lossy.cost.dead_events,
        retransmissions,
        failed_channels,
        lossy.cost.recoveries,
        lossy.cost.weight_revisions
    );

    // The reachability contract, asserted explicitly rather than read
    // off completion times: every vertex of the surviving component
    // (the whole graph unless the witness crashes someone) must end up
    // holding a distance. A crash silently truncating output fails
    // loudly here.
    let mut dead = vec![false; g.node_count()];
    for (victim, _) in &shrunk.plan.churn {
        dead[victim.index()] = true;
    }
    let alive = csp_graph::algo::surviving_component(&g, NodeId::new(0), &dead);
    for v in g.nodes() {
        assert_eq!(
            lossy.states[v.index()].inner().dist().is_some(),
            alive[v.index()],
            "vertex {v} must be reached iff it survives connected to the root"
        );
    }
    println!(
        "  reachability contract holds: {} of {} vertices survive and hold distances",
        alive.iter().filter(|&&a| a).count(),
        g.node_count()
    );

    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let delay_path = out_dir.join("reliable-spt-recur-gnp-n12.schedule");
    delay
        .schedule
        .save(
            &delay_path,
            &[
                "reliable-spt-recur on gnp-n12 (delay-only adversary)".to_string(),
                format!(
                    "worst-case {} < searched {} (strategy: {})",
                    delay.worst_case, delay.best_time, delay.strategy
                ),
            ],
        )
        .expect("write delay-only schedule");
    let fault_path = out_dir.join("fault-spt-recur-gnp-n12.schedule");
    shrunk
        .save(
            &fault_path,
            &[
                "reliable-spt-recur on gnp-n12 (drop adversary, shrunk)".to_string(),
                format!(
                    "best delay-only {} < with drops {} ({} drops)",
                    delay.best_time,
                    shrunk_time,
                    shrunk.dropped_count()
                ),
            ],
        )
        .expect("write fault schedule");
    println!(
        "wrote {} and {}",
        delay_path.display(),
        fault_path.display()
    );
}
