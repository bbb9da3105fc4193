//! Integration tests for the synchronizer family: the three network
//! synchronizers must provide their advertised abstractions on shared
//! workloads, including the Peleg–Ullman hypercube topology.

use cost_sensitive::prelude::*;
use cost_sensitive::sim::sync::{SyncContext, SyncProcess};
use cost_sensitive::sync::net::run_synchronized_beta;

/// Weighted flood for γ_w (records weighted distance) — the hosted
/// protocol used across equivalence tests.
#[derive(Clone, Debug)]
struct WeightedFlood {
    source: NodeId,
    heard_at: Option<u64>,
}

impl SyncProcess for WeightedFlood {
    type Msg = ();
    fn on_pulse(&mut self, pulse: u64, inbox: &[(NodeId, ())], ctx: &mut SyncContext<'_, ()>) {
        let fire = (pulse == 0 && ctx.self_id() == self.source)
            || (!inbox.is_empty() && self.heard_at.is_none());
        if fire {
            self.heard_at = Some(pulse);
            let targets: Vec<NodeId> = ctx.neighbors().map(|(u, _, _)| u).collect();
            for u in targets {
                ctx.send(u, ());
            }
        }
        if pulse == 0 {
            ctx.finish();
        }
    }
}

#[test]
fn gamma_w_is_exact_on_hypercubes() {
    // Power-of-two weights: the natural normalized network of §4.2.
    let g = generators::hypercube(4, generators::WeightDist::PowerOfTwo(3), 9);
    let s = NodeId::new(0);
    let reference = cost_sensitive::graph::algo::distances(&g, s);
    let ecc = reference.iter().map(|d| d.get() as u64).max().unwrap();
    let horizon = ecc + g.max_weight().get() + 1;
    for (k, seed) in [(2usize, 0u64), (4, 1), (8, 2)] {
        let hosted = run_synchronized(
            &g,
            &GammaWConfig::new(k),
            horizon,
            DelayModel::Uniform,
            seed,
            |_v, _| WeightedFlood {
                source: s,
                heard_at: None,
            },
        )
        .unwrap();
        for v in g.nodes() {
            assert_eq!(
                hosted.states[v.index()].heard_at,
                Some(reference[v.index()].get() as u64),
                "k={k} vertex {v}"
            );
        }
    }
}

#[test]
fn alpha_and_beta_hosts_provide_hop_semantics_on_torus() {
    let g = generators::torus(4, 4, generators::WeightDist::Uniform(1, 16), 3);
    let hops = cost_sensitive::graph::algo::hop_distances(&g, NodeId::new(0));
    let horizon = hops.iter().map(|h| h.unwrap() as u64).max().unwrap() + 2;
    let alpha = run_synchronized_alpha(&g, horizon, DelayModel::Uniform, 5, |_, _| WeightedFlood {
        source: NodeId::new(0),
        heard_at: None,
    })
    .unwrap();
    let beta = run_synchronized_beta(
        &g,
        NodeId::new(0),
        horizon,
        DelayModel::Uniform,
        5,
        |_, _| WeightedFlood {
            source: NodeId::new(0),
            heard_at: None,
        },
    )
    .unwrap();
    for v in g.nodes() {
        let h = Some(hops[v.index()].unwrap() as u64);
        assert_eq!(alpha.states[v.index()].heard_at, h, "α_w at {v}");
        assert_eq!(beta.states[v.index()].heard_at, h, "β_w at {v}");
    }
}

#[test]
fn synchronizer_overhead_ordering_matches_the_paper() {
    // On heavy-chord networks: comm(β_w) ≪ comm(α_w) and
    // time(β_w) ≪ time(α_w); γ_w's time is W-independent.
    let g = generators::heavy_chord_cycle(16, 4_000);
    let pulses = 6;
    let cost = |row: Claim| {
        let oracle = ModelOracle::new(DelayModel::WorstCase, 0);
        row.run(&g, oracle).unwrap().cost
    };
    let alpha = cost(Claim::AlphaW { pulses });
    let beta = cost(Claim::BetaW {
        leader: NodeId::new(0),
        pulses,
    });
    assert!(
        beta.comm_of(CostClass::Synchronizer) < alpha.comm_of(CostClass::Synchronizer),
        "β_w comm must undercut α_w"
    );
    assert!(
        beta.completion < alpha.completion,
        "β_w time must undercut α_w on d ≪ W networks"
    );
}

#[test]
fn clock_gamma_star_scales_with_d_not_w() {
    // Grow W by 100× at fixed topology: γ*'s pulse delay must not move.
    let delays: Vec<u64> = [100u64, 10_000]
        .iter()
        .map(|&heavy| {
            let g = generators::heavy_chord_cycle(12, heavy);
            let row = Claim::GammaStar { pulses: 4 };
            let oracle = ModelOracle::new(DelayModel::WorstCase, 0);
            row.run(&g, oracle).unwrap().pulses.max_pulse_delay()
        })
        .collect();
    assert_eq!(delays[0], delays[1], "γ* must be W-independent");
}

#[test]
fn leader_election_and_termination_detection_compose() {
    use cost_sensitive::algo::flood::Flood;
    let g = generators::hypercube(4, generators::WeightDist::Uniform(1, 9), 4);
    let leader = run_leader_election(&g, DelayModel::Uniform, 2)
        .unwrap()
        .leader;
    let detected = run_with_termination_detection(&g, leader, DelayModel::Uniform, 3, |v, _| {
        Flood::new(v == leader)
    })
    .unwrap();
    assert!(detected.states.iter().all(Flood::reached));
    assert_eq!(detected.detected_at, detected.cost.completion);
}
