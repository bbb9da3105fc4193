//! Acceptance check for the parallel sweep driver: fanning a grid over
//! worker threads must return exactly the per-run [`CostReport`]s that a
//! sequential execution produces, in the same grid order.

use cost_sensitive::prelude::*;

#[test]
fn eight_seed_three_graph_sweep_parallel_equals_sequential() {
    let chord = generators::heavy_chord_cycle(24, 500);
    let gnp = generators::connected_gnp(24, 0.2, generators::WeightDist::Uniform(1, 50), 7);
    let torus = generators::torus(5, 5, generators::WeightDist::Uniform(1, 16), 3);
    let grid = SweepGrid::new()
        .graph("heavy-chord", &chord)
        .graph("gnp-24", &gnp)
        .graph("torus-5x5", &torus)
        .seeds(0..8)
        .delay(DelayModel::Uniform);

    let row = Claim::MstGhs {
        root: NodeId::new(0),
    };
    let ghs = |pt: &SweepPoint<'_>| {
        let oracle = ModelOracle::new(pt.delay, pt.seed);
        row.run(pt.graph, oracle).unwrap().cost
    };
    let par = grid.clone().threads(4).run(ghs);
    let seq = grid.run_sequential(ghs);

    assert_eq!(par.len(), 3 * 8);
    assert_eq!(
        par, seq,
        "parallel sweep must be bit-identical to sequential"
    );
    // Grid order: graphs outermost in declaration order, seeds inside.
    assert_eq!(par[0].graph_label, "heavy-chord");
    assert_eq!(par[8].graph_label, "gnp-24");
    assert_eq!(
        (par[23].graph_label.as_str(), par[23].seed),
        ("torus-5x5", 7)
    );
}

#[test]
fn sweep_summary_aggregates_the_grid() {
    let g = generators::connected_gnp(16, 0.25, generators::WeightDist::Uniform(1, 20), 1);
    let runs = SweepGrid::new()
        .graph("gnp-16", &g)
        .seeds(0..4)
        .delays([DelayModel::WorstCase, DelayModel::Eager])
        .run(|pt| {
            let row = Claim::Flood {
                root: NodeId::new(0),
            };
            row.run(pt.graph, ModelOracle::new(pt.delay, pt.seed))
                .unwrap()
                .cost
        });
    let s = summarize(&runs);
    assert_eq!(s.runs, 8);
    assert_eq!(
        s.total_messages,
        runs.iter().map(|r| r.cost.messages).sum::<u64>()
    );
    assert_eq!(
        s.max_completion,
        runs.iter().map(|r| r.cost.completion).max().unwrap()
    );
}
