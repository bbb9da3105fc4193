//! Property-based tests over randomly generated weighted graphs: the
//! paper's structural invariants must hold on *every* connected graph,
//! not just the curated families.

use cost_sensitive::prelude::*;
use proptest::prelude::*;

/// Strategy: a connected weighted graph with `3..=18` vertices.
fn arb_graph() -> impl Strategy<Value = WeightedGraph> {
    (3usize..=18, 0.0f64..0.5, 1u64..=64, any::<u64>()).prop_map(|(n, p, wmax, seed)| {
        generators::connected_gnp(n, p, generators::WeightDist::Uniform(1, wmax), seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lemmas 2.4 & 2.5: the SLT is simultaneously light and shallow.
    #[test]
    fn slt_is_shallow_and_light(g in arb_graph(), q in 1u64..=5) {
        let p = CostParams::of(&g);
        let slt = shallow_light_tree(&g, NodeId::new(0), q);
        prop_assert!(slt.tree.is_spanning());
        // q·w(T) ≤ (q+2)·V̂
        prop_assert!(slt.weight().get() * q as u128 <= p.mst_weight.get() * (q as u128 + 2));
        // height ≤ (q+1)·D̂
        prop_assert!(slt.height() <= p.weighted_diameter * (q as u128 + 1));
    }

    /// Fact 6.3: Diam(MST) ≤ V̂ ≤ (n−1)·D̂.
    #[test]
    fn fact_6_3_mst_diameter_chain(g in arb_graph()) {
        let p = CostParams::of(&g);
        prop_assert!(p.mst_diameter <= p.mst_weight);
        prop_assert!(p.mst_weight <= p.weighted_diameter * (p.n as u128 - 1).max(1));
    }

    /// Fact 6.5: w(SPT) ≤ (n−1)·V̂, from any source.
    #[test]
    fn fact_6_5_spt_weight(g in arb_graph(), src in 0usize..18) {
        let s = NodeId::new(src % g.node_count());
        let p = CostParams::of(&g);
        let spt = cost_sensitive::graph::algo::shortest_path_tree(&g, s);
        prop_assert!(spt.weight() <= p.mst_weight * (p.n as u128 - 1).max(1));
        // And the SPT realizes the distances.
        let dist = cost_sensitive::graph::algo::distances(&g, s);
        for v in g.nodes() {
            prop_assert_eq!(spt.depth(v), dist[v.index()]);
        }
    }

    /// The distributed GHS always produces the canonical MST, even under
    /// randomized delays.
    #[test]
    fn ghs_is_always_the_canonical_mst(g in arb_graph(), seed in any::<u64>()) {
        let reference = cost_sensitive::graph::algo::prim_mst(&g, NodeId::new(0));
        let row = Claim::MstGhs { root: NodeId::new(0) };
        let out = row.run(&g, ModelOracle::new(DelayModel::Uniform, seed)).unwrap();
        prop_assert_eq!(out.tree.unwrap().weight(), reference.weight());
    }

    /// SPT_recur computes exact distances for any strip depth.
    #[test]
    fn spt_recur_is_exact_for_any_strip(g in arb_graph(), delta in 1u64..=64, seed in any::<u64>()) {
        let reference = cost_sensitive::graph::algo::distances(&g, NodeId::new(0));
        let row = Claim::SptRecur { source: NodeId::new(0), delta };
        let out = row.run(&g, ModelOracle::new(DelayModel::Uniform, seed)).unwrap();
        prop_assert_eq!(&out.dists[..], &reference[..]);
    }

    /// d ≤ W always; and the neighbor-path cover's radius is ≤ d.
    #[test]
    fn neighbor_distance_invariants(g in arb_graph()) {
        let p = CostParams::of(&g);
        prop_assert!(p.max_neighbor_distance <= p.max_weight.to_cost());
        let cover = Cover::neighbor_paths(&g);
        prop_assert!(cover.radius(&g) <= p.max_neighbor_distance);
    }

    /// Cover coarsening: subsumption and the radius bound for random k.
    #[test]
    fn coarsening_contract(g in arb_graph(), k in 1usize..=4) {
        let initial = Cover::neighbor_paths(&g);
        let rad_s = initial.radius(&g).max(Cost::new(1));
        let coarse = coarsen(&g, &initial, k);
        prop_assert!(coarse.subsumes(&initial));
        prop_assert!(coarse.radius(&g) <= rad_s * (2 * k as u128 + 1));
    }

    /// Ball partitions are true partitions with bounded tree depth.
    #[test]
    fn ball_partition_contract(g in arb_graph(), k in 2usize..=6) {
        let part = ball_partition(&g, k);
        let n = g.node_count();
        let mut seen = vec![false; n];
        for cl in &part.clusters {
            for &v in cl {
                prop_assert!(!seen[v.index()]);
                seen[v.index()] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        let depth_bound = ((n as f64).log2() / (k as f64).log2()).ceil() as usize + 1;
        prop_assert!(part.max_tree_depth() <= depth_bound);
    }

    /// The flood tree under worst-case delays is a shortest-path tree.
    #[test]
    fn flood_under_worst_case_realizes_distances(g in arb_graph(), src in 0usize..18) {
        let s = NodeId::new(src % g.node_count());
        let out = Claim::Flood { root: s }.run(&g, ModelOracle::new(DelayModel::WorstCase, 0)).unwrap();
        let (tree, dist) = (out.tree.unwrap(), cost_sensitive::graph::algo::distances(&g, s));
        for v in g.nodes() {
            prop_assert_eq!(tree.depth(v), dist[v.index()]);
        }
    }

    /// Global function outputs equal the sequential fold at every vertex.
    #[test]
    fn global_outputs_are_uniform_and_correct(
        g in arb_graph(),
        inputs_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let n = g.node_count();
        let inputs: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(inputs_seed | 1) % 1000).collect();
        let tree = TreeKind::Slt { q: 2 }.build(&g, NodeId::new(0));
        let run = Simulator::new(&g)
            .delay(DelayModel::Uniform)
            .seed(seed)
            .run(|v, g| GlobalFunction::new(v, g, Xor, inputs[v.index()], &tree))
            .unwrap();
        let expect = Some(fold_all(&Xor, &inputs));
        prop_assert!(run.states.iter().all(|s| s.result() == expect));
    }
}

/// A second property block for the protocol transformers and utilities.
mod transformers {
    use super::*;
    use cost_sensitive::algo::cast::{flood_tree, run_echo};
    use cost_sensitive::algo::flood::Flood;
    use cost_sensitive::graph::io::{parse_edge_list, to_edge_list};
    use cost_sensitive::graph::slt::shallow_light_tree_with_rule;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The controller never interferes with a correct execution, for
        /// either grant policy, on any connected graph.
        #[test]
        fn controller_never_cuts_correct_floods(g in arb_graph(), policy_caching in any::<bool>()) {
            let policy = if policy_caching { GrantPolicy::Caching } else { GrantPolicy::Naive };
            let threshold = (g.total_weight() * 2).get() as u64;
            let out = run_controlled(
                &g, NodeId::new(0), threshold, policy, DelayModel::WorstCase, 0,
                |v, _| Flood::new(v == NodeId::new(0)),
            ).unwrap();
            prop_assert!(!out.suspended, "{policy:?} cut a correct flood");
            prop_assert!(out.states.iter().all(Flood::reached));
        }

        /// The verbatim Figure-5 breakpoint rule satisfies Lemma 2.4 (the
        /// weight bound) on every graph.
        #[test]
        fn consecutive_pairs_rule_weight_bound(g in arb_graph(), q in 1u64..=4) {
            let p = CostParams::of(&g);
            let slt = shallow_light_tree_with_rule(
                &g, NodeId::new(0), q, BreakpointRule::ConsecutivePairs,
            );
            prop_assert!(slt.tree.is_spanning());
            prop_assert!(slt.weight().get() * q as u128 <= p.mst_weight.get() * (q as u128 + 2));
        }

        /// Edge-list serialization round-trips every generated graph.
        #[test]
        fn edge_list_round_trip(g in arb_graph()) {
            let back = parse_edge_list(&to_edge_list(&g)).unwrap();
            prop_assert_eq!(back.node_count(), g.node_count());
            prop_assert_eq!(back.total_weight(), g.total_weight());
            for (a, b) in g.edges().zip(back.edges()) {
                prop_assert_eq!(a.endpoints(), b.endpoints());
                prop_assert_eq!(a.weight(), b.weight());
            }
        }

        /// Echo over a flood tree costs exactly two tree weights and
        /// reaches everyone, under any seed.
        #[test]
        fn echo_cost_identity(g in arb_graph(), seed in any::<u64>()) {
            let tree = flood_tree(&g, NodeId::new(0), DelayModel::Uniform, seed).unwrap();
            let out = run_echo(&g, &tree, 5, DelayModel::Uniform, seed).unwrap();
            prop_assert!(out.payloads.iter().all(|&p| p == 5));
            prop_assert_eq!(out.cost.weighted_comm, tree.weight() * 2);
        }

        /// Termination detection: ack count equals message count and the
        /// detection time equals the completion time.
        #[test]
        fn termination_detection_identity(g in arb_graph(), seed in any::<u64>()) {
            let out = run_with_termination_detection(
                &g, NodeId::new(0), DelayModel::Uniform, seed,
                |v, _| Flood::new(v == NodeId::new(0)),
            ).unwrap();
            prop_assert_eq!(
                out.cost.messages_of(CostClass::Protocol),
                out.cost.messages_of(CostClass::Auxiliary)
            );
            prop_assert_eq!(out.detected_at, out.cost.completion);
        }
    }
}

/// Definition 3.1 contracts for the tree edge-cover, at reduced case
/// counts (the construction runs many Dijkstra sweeps).
mod edge_cover {
    use super::*;

    fn small_graph() -> impl Strategy<Value = WeightedGraph> {
        (4usize..=12, 0.1f64..0.4, 1u64..=32, any::<u64>()).prop_map(|(n, p, wmax, seed)| {
            generators::connected_gnp(n, p, generators::WeightDist::Uniform(1, wmax), seed)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn tree_edge_cover_contract(g in small_graph()) {
            let p = CostParams::of(&g);
            let n = g.node_count();
            let cover = tree_edge_cover(&g);
            // (3) every edge's endpoints share a tree.
            for (i, e) in g.edges().enumerate() {
                let t = &cover.trees[cover.home_tree[i]];
                prop_assert!(t.contains(e.u()) && t.contains(e.v()));
            }
            // (2) depth O(d·log n) with slack 6.
            let d = p.max_neighbor_distance.max(Cost::new(1));
            let log_n = (n.max(2) as f64).log2().ceil() as u128;
            prop_assert!(cover.max_depth() <= d * (6 * log_n));
            // (1) vertex degree O(log n) with slack 6.
            prop_assert!(cover.max_vertex_degree() as u128 <= (6 * log_n).max(2));
        }

        #[test]
        fn gamma_star_pulses_on_random_graphs(g in small_graph(), seed in any::<u64>()) {
            let row = Claim::GammaStar { pulses: 3 };
            let out = row.run(&g, ModelOracle::new(DelayModel::Uniform, seed)).unwrap();
            prop_assert_eq!(out.pulses.min_pulses(), 3);
            prop_assert!(out.pulses.is_monotone());
        }
    }
}
