//! Fixtures of the two self-healing suites (`resilient_suite`,
//! `churn_suite`): the instance, stack and schedules of the committed
//! witnesses, and the workloads, victim and runs of the recovery
//! curves.

use csp_adversary::Schedule;
use csp_algo::resilient::{run_resilient_spt, Metric, Resilient, ResilientOutcome};
use csp_graph::generators::{self, WeightDist};
use csp_graph::{NodeId, WeightedGraph};
use csp_sim::{ChurnOracle, DelayModel, Detect, DetectConfig, ModelOracle, SimTime};
use std::path::PathBuf;

/// A committed schedule from the workspace's `tests/schedules/`.
pub fn load(name: &str) -> Schedule {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/schedules");
    Schedule::load(&dir.join(name)).unwrap()
}

/// The instance every committed witness runs on, and the first curve
/// workload.
pub fn gnp_n12() -> WeightedGraph {
    generators::connected_gnp(12, 0.3, WeightDist::Uniform(1, 16), 42)
}

/// The detector tuning of the `self_healing` example: period 8 with 30
/// beats keeps the horizon past tick 150 on these instances.
pub fn detector() -> DetectConfig {
    DetectConfig::new(8, 30, 0)
}

/// The stack the witnesses were recorded against: the weighted SPT from
/// vertex 0 under the detector.
pub fn make(v: NodeId, g: &WeightedGraph) -> Detect<Resilient> {
    Detect::new(
        Resilient::new(v, NodeId::new(0), Metric::Weighted, g),
        detector(),
    )
}

/// The instances both recovery curves are drawn on.
pub fn curve_workloads() -> [(&'static str, WeightedGraph); 3] {
    [
        ("gnp-n12", gnp_n12()),
        (
            "gnp-n16",
            generators::connected_gnp(16, 0.25, WeightDist::Uniform(1, 16), 7),
        ),
        ("heavy-chord-n12", generators::heavy_chord_cycle(12, 64)),
    ]
}

/// The non-source vertex carrying the most SPT children in the
/// fault-free run (ties broken by degree): the crash that orphans the
/// largest subtree and forces the widest healing wave.
pub fn pick_victim(g: &WeightedGraph, baseline: &ResilientOutcome) -> NodeId {
    let mut children = vec![0usize; g.node_count()];
    for p in baseline.parents.iter().flatten() {
        children[p.index()] += 1;
    }
    g.nodes()
        .skip(1)
        .max_by_key(|&v| (children[v.index()], g.neighbors(v).count()))
        .expect("instance has more than one vertex")
}

/// The victim's guaranteed-detection horizon: the tightest over its
/// channels.
pub fn horizon(g: &WeightedGraph, victim: NodeId) -> u64 {
    g.neighbors(victim)
        .map(|(_, _, w)| detector().detection_horizon(w.get()))
        .min()
        .expect("victim has neighbors")
}

/// [`make`]'s stack under worst-case delays with `victim` toggled at
/// each time of `chain` (crash, rejoin, crash, …). An empty chain is the
/// fault-free run; a one-element chain is a crash-stop.
pub fn run_under(g: &WeightedGraph, victim: NodeId, chain: Vec<SimTime>) -> ResilientOutcome {
    let delays = ModelOracle::new(DelayModel::WorstCase, 0);
    let mut oracle = ChurnOracle::new(delays, vec![(victim, chain)], vec![]);
    run_resilient_spt(g, NodeId::new(0), &mut oracle, detector()).expect("run quiesces")
}
