//! Cross-crate integration: every distributed algorithm must agree with
//! its sequential reference, across graph families, delay models and
//! seeds.

use cost_sensitive::prelude::*;

const ROOT: NodeId = NodeId::new(0);

/// `row` on `g` under `delay`.
fn run(row: Claim, g: &WeightedGraph, delay: DelayModel, seed: u64) -> Outcome {
    row.run(g, ModelOracle::new(delay, seed)).unwrap()
}

fn mst_weight(row: Claim, g: &WeightedGraph, delay: DelayModel, seed: u64) -> Cost {
    run(row, g, delay, seed).tree.unwrap().weight()
}

fn families() -> Vec<(&'static str, WeightedGraph)> {
    vec![
        (
            "gnp",
            generators::connected_gnp(18, 0.2, generators::WeightDist::Uniform(1, 30), 42),
        ),
        (
            "grid",
            generators::grid(4, 4, generators::WeightDist::Uniform(1, 10), 7),
        ),
        ("lower-bound", generators::lower_bound_family(14, 5)),
        ("heavy-chords", generators::heavy_chord_cycle(14, 100)),
        ("cluster", generators::cluster_graph(3, 5, 40, 9)),
        ("path", generators::path(12, |i| (i as u64 % 7) + 1)),
        (
            "complete",
            generators::complete(9, |i, j| ((i * j) % 11 + 1) as u64),
        ),
    ]
}

#[test]
fn all_mst_algorithms_agree_with_prim() {
    for (name, g) in families() {
        let reference = cost_sensitive::graph::algo::prim_mst(&g, ROOT).weight();
        for row in [
            Claim::MstGhs { root: ROOT },
            Claim::MstCentr { root: ROOT },
            Claim::MstFast { root: ROOT },
            Claim::MstHybrid { root: ROOT },
        ] {
            let w = mst_weight(row.clone(), &g, DelayModel::WorstCase, 0);
            assert_eq!(w, reference, "{row:?} on {name}");
        }
    }
}

#[test]
fn all_spt_algorithms_agree_with_dijkstra() {
    for (name, g) in families() {
        let reference = cost_sensitive::graph::algo::distances(&g, ROOT);
        let centr = run(
            Claim::SptCentr { source: ROOT },
            &g,
            DelayModel::WorstCase,
            0,
        );
        assert_eq!(centr.dists, reference, "SPT_centr on {name}");
        let recur = Claim::SptRecur {
            source: ROOT,
            delta: 4,
        };
        let recur = run(recur, &g, DelayModel::WorstCase, 0);
        assert_eq!(recur.dists, reference, "SPT_recur on {name}");
        let ideal = run_spt_synch_ideal(&g, ROOT);
        assert_eq!(ideal.dists, reference, "SPT_synch_ideal on {name}");
    }
}

#[test]
fn spt_synch_under_gamma_w_matches_dijkstra_on_every_family() {
    // Smaller instances: γ_w simulates 4·D̂ virtual pulses.
    let cases = vec![
        (
            "gnp",
            generators::connected_gnp(10, 0.25, generators::WeightDist::Uniform(1, 8), 3),
        ),
        ("path", generators::path(8, |i| (i as u64 % 4) + 1)),
        ("cluster", generators::cluster_graph(2, 4, 12, 5)),
    ];
    for (name, g) in cases {
        let reference = cost_sensitive::graph::algo::distances(&g, ROOT);
        for k in [2, 4] {
            let out = run(
                Claim::SptSynch { source: ROOT, k },
                &g,
                DelayModel::Uniform,
                1,
            );
            assert_eq!(out.dists, reference, "SPT_synch k={k} on {name}");
        }
    }
}

#[test]
fn mst_algorithms_are_delay_schedule_independent() {
    // The canonical MST must come out identical under every adversary.
    let g = generators::connected_gnp(16, 0.25, generators::WeightDist::Uniform(1, 40), 17);
    let reference = cost_sensitive::graph::algo::prim_mst(&g, ROOT).weight();
    let ghs = || Claim::MstGhs { root: ROOT };
    for delay in [
        DelayModel::WorstCase,
        DelayModel::Eager,
        DelayModel::Proportional { num: 1, den: 2 },
    ] {
        assert_eq!(mst_weight(ghs(), &g, delay, 0), reference, "{delay:?}");
    }
    for seed in 0..10 {
        let out = mst_weight(ghs(), &g, DelayModel::Uniform, seed);
        assert_eq!(out, reference, "uniform seed {seed}");
        let fast = mst_weight(Claim::MstFast { root: ROOT }, &g, DelayModel::Uniform, seed);
        assert_eq!(fast, reference, "fast uniform seed {seed}");
    }
}

#[test]
fn spanning_structures_span_from_any_root() {
    let g = generators::cluster_graph(3, 4, 25, 2);
    for r in 0..g.node_count() {
        let root = NodeId::new(r);
        for row in [
            Claim::Flood { root },
            Claim::Dfs { root },
            Claim::ConHybrid { root },
        ] {
            let tree = run(row, &g, DelayModel::WorstCase, 0).tree.unwrap();
            assert!(tree.is_spanning() && tree.root() == root);
        }
    }
}

#[test]
fn global_functions_agree_with_sequential_folds_everywhere() {
    for (name, g) in families() {
        let inputs: Vec<u64> = (0..g.node_count() as u64).map(|i| i * 31 % 17).collect();
        let expect = Some(fold_all(&Sum, &inputs));
        for kind in [TreeKind::Slt { q: 2 }, TreeKind::Mst, TreeKind::Spt] {
            let tree = kind.build(&g, ROOT);
            let run = Simulator::new(&g)
                .delay(DelayModel::Uniform)
                .run(|v, g| GlobalFunction::new(v, g, Sum, inputs[v.index()], &tree))
                .unwrap();
            assert!(
                run.states.iter().all(|s| s.result() == expect),
                "{name} {kind:?}"
            );
        }
    }
}

#[test]
fn distributed_slt_matches_sequential_slt() {
    let g = generators::connected_gnp(14, 0.25, generators::WeightDist::Uniform(1, 20), 5);
    let sequential = shallow_light_tree(&g, ROOT, 2);
    let distributed = run(
        Claim::Slt { root: ROOT, q: 2 },
        &g,
        DelayModel::WorstCase,
        0,
    );
    let distributed = distributed.tree.unwrap();
    assert_eq!(distributed.weight(), sequential.weight());
    assert_eq!(distributed.height(), sequential.height());
}
