//! Moderate-scale runs: the protocols must stay correct (and the
//! simulator efficient) well beyond the unit-test sizes. Independent
//! seeds fan out through `csp_sim::sweep` to use every available core.

use cost_sensitive::prelude::*;

#[test]
fn ghs_at_n_200() {
    let g = generators::connected_gnp(200, 0.03, generators::WeightDist::Uniform(1, 100), 17);
    let reference = cost_sensitive::graph::algo::prim_mst(&g, NodeId::new(0)).weight();
    let sim_seeds: Vec<u64> = vec![3, 11];
    par_map(&sim_seeds, sim_seeds.len(), |&seed| {
        let row = Claim::MstGhs {
            root: NodeId::new(0),
        };
        let out = row
            .run(&g, ModelOracle::new(DelayModel::Uniform, seed))
            .unwrap();
        assert_eq!(out.tree.unwrap().weight(), reference, "sim seed {seed}");
    });
}

#[test]
fn spt_recur_at_n_150() {
    let g = generators::connected_gnp(150, 0.04, generators::WeightDist::Uniform(1, 64), 23);
    let reference = cost_sensitive::graph::algo::distances(&g, NodeId::new(0));
    let row = Claim::SptRecur {
        source: NodeId::new(0),
        delta: 16,
    };
    let out = row
        .run(&g, ModelOracle::new(DelayModel::Uniform, 5))
        .unwrap();
    assert_eq!(out.dists, reference);
}

#[test]
fn flood_on_a_large_torus() {
    let g = generators::torus(16, 16, generators::WeightDist::Uniform(1, 32), 9);
    let runs = SweepGrid::new()
        .graph("torus-16x16", &g)
        .seeds(0..3)
        .delays([DelayModel::WorstCase, DelayModel::Uniform])
        .run(|pt| {
            let row = Claim::Flood {
                root: NodeId::new(0),
            };
            let out = row.run(pt.graph, ModelOracle::new(pt.delay, pt.seed));
            let out = out.unwrap();
            assert!(
                out.tree.unwrap().is_spanning(),
                "seed {} {:?}",
                pt.seed,
                pt.delay
            );
            out.cost
        });
    let s = summarize(&runs);
    assert_eq!(s.runs, 6);
    // Every run independently respects the flood bound: ≤ 2·Ê.
    for r in &runs {
        assert!(r.cost.weighted_comm <= g.total_weight() * 2);
    }
}

#[test]
fn slt_on_a_dense_graph() {
    let g = generators::connected_gnp(300, 0.05, generators::WeightDist::Uniform(1, 128), 31);
    let p = CostParams::of(&g);
    let slt = shallow_light_tree(&g, NodeId::new(0), 2);
    assert!(slt.tree.is_spanning());
    assert!(slt.weight().get() * 2 <= p.mst_weight.get() * 4);
    assert!(slt.height() <= p.weighted_diameter * 3);
}

#[test]
fn global_function_on_a_hypercube_q7() {
    let g = generators::hypercube(7, generators::WeightDist::Uniform(1, 16), 2);
    let inputs: Vec<u64> = (0..128u64).map(|i| i * 37 % 251).collect();
    let tree = TreeKind::Slt { q: 2 }.build(&g, NodeId::new(0));
    let run = Simulator::new(&g)
        .delay(DelayModel::Uniform)
        .run(|v, g| GlobalFunction::new(v, g, Xor, inputs[v.index()], &tree))
        .unwrap();
    let expect = Some(fold_all(&Xor, &inputs));
    assert!(run.states.iter().all(|s| s.result() == expect));
}

#[test]
fn mst_fast_at_n_128() {
    let g = generators::connected_gnp(128, 0.05, generators::WeightDist::Uniform(1, 256), 41);
    let reference = cost_sensitive::graph::algo::prim_mst(&g, NodeId::new(0)).weight();
    let row = Claim::MstFast {
        root: NodeId::new(0),
    };
    let out = row
        .run(&g, ModelOracle::new(DelayModel::Uniform, 1))
        .unwrap();
    assert_eq!(out.tree.unwrap().weight(), reference);
}
