//! Integration tests for the synchronizer family: the three network
//! synchronizers must provide their advertised abstractions on shared
//! workloads, including the Peleg–Ullman hypercube topology; must call
//! the hosted protocol exactly as the lock-step `SyncRunner` does; and
//! must move the traffic pinned in `tests/golden/hosted_costs.txt`.

use cost_sensitive::prelude::*;
use cost_sensitive::sim::sync::{SyncContext, SyncProcess};
use generators::WeightDist;
use proptest::prelude::*;
use std::fmt::Write;
use std::path::PathBuf;

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

fn flood_from(source: NodeId) -> impl Fn(NodeId, &WeightedGraph) -> WeightedFlood + Sync {
    move |_, _| WeightedFlood {
        source,
        heard_at: None,
    }
}

#[test]
fn gamma_w_is_exact_on_hypercubes() {
    // Power-of-two weights: the natural normalized network of §4.2.
    let g = generators::hypercube(4, WeightDist::PowerOfTwo(3), 9);
    let s = NodeId::new(0);
    let reference = cost_sensitive::graph::algo::distances(&g, s);
    let ecc = reference.iter().map(|d| d.get() as u64).max().unwrap();
    let horizon = ecc + g.max_weight().get() + 1;
    for (k, seed) in [(2usize, 0u64), (4, 1), (8, 2)] {
        let oracle = ModelOracle::new(DelayModel::Uniform, seed);
        let sync = Synchronizer::GammaW { k };
        let hosted = run_synchronized(&g, sync, horizon, oracle, flood_from(s)).unwrap();
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
    let g = generators::torus(4, 4, WeightDist::Uniform(1, 16), 3);
    let s = NodeId::new(0);
    let hops = cost_sensitive::graph::algo::hop_distances(&g, s);
    let horizon = hops.iter().map(|h| h.unwrap() as u64).max().unwrap() + 2;
    let run = |sync| {
        let oracle = ModelOracle::new(DelayModel::Uniform, 5);
        run_synchronized(&g, sync, horizon, oracle, flood_from(s)).unwrap()
    };
    let alpha = run(Synchronizer::AlphaW);
    let beta = run(Synchronizer::BetaW { leader: s });
    for v in g.nodes() {
        let h = Some(hops[v.index()].unwrap() as u64);
        assert_eq!(alpha.states[v.index()].heard_at, h, "α_w at {v}");
        assert_eq!(beta.states[v.index()].heard_at, h, "β_w at {v}");
    }
}

/// `WeightedFlood`'s hosted traffic, one line per host × graph × oracle:
/// α_w and β_w host it for the hop eccentricity + 2 pulses, γ_w for the
/// weighted eccentricity + `W` + 1.
fn hosted_costs() -> String {
    let graphs = [
        (
            "torus(4,4,Uniform(1,16),3)",
            generators::torus(4, 4, WeightDist::Uniform(1, 16), 3),
        ),
        (
            "hypercube(4,PowerOfTwo(3),9)",
            generators::hypercube(4, WeightDist::PowerOfTwo(3), 9),
        ),
        (
            "heavy_chord_cycle(12,200)",
            generators::heavy_chord_cycle(12, 200),
        ),
    ];
    let source = NodeId::new(0);
    let hosts = [
        ("alpha_w", Synchronizer::AlphaW),
        ("beta_w(leader=0)", Synchronizer::BetaW { leader: source }),
        ("gamma_w(k=2)", Synchronizer::GammaW { k: 2 }),
        ("gamma_w(k=4)", Synchronizer::GammaW { k: 4 }),
    ];
    let oracles = [
        ("uniform/0", DelayModel::Uniform, 0),
        ("uniform/1", DelayModel::Uniform, 1),
        ("uniform/2", DelayModel::Uniform, 2),
        ("worst-case", DelayModel::WorstCase, 0),
    ];
    let mut out = String::from(
        "# WeightedFlood from vertex 0, hosted: messages, weighted comm, Protocol comm, Synchronizer comm, completion\n",
    );
    for (host, sync) in hosts {
        for (graph, g) in &graphs {
            let horizon = match sync {
                Synchronizer::GammaW { .. } => {
                    let dists = cost_sensitive::graph::algo::distances(g, source);
                    let ecc = dists.iter().map(|d| d.get() as u64).max().unwrap();
                    ecc + g.max_weight().get() + 1
                }
                _ => {
                    let hops = cost_sensitive::graph::algo::hop_distances(g, source);
                    hops.iter().map(|h| h.unwrap() as u64).max().unwrap() + 2
                }
            };
            for (oracle, delay, seed) in oracles {
                let oracle_run = ModelOracle::new(delay, seed);
                let run = run_synchronized(g, sync, horizon, oracle_run, flood_from(source));
                let c = run.unwrap().cost;
                writeln!(
                    out,
                    "{host} {graph} {oracle}: messages {} comm {} protocol {} synchronizer {} completion {}",
                    c.messages,
                    c.weighted_comm.get(),
                    c.comm_of(CostClass::Protocol).get(),
                    c.comm_of(CostClass::Synchronizer).get(),
                    c.completion.get(),
                )
                .unwrap();
            }
        }
    }
    out
}

/// α_w, β_w and γ_w move exactly the `Hosted` / `Ack` traffic and the
/// synchronizer traffic recorded in `tests/golden/hosted_costs.txt`.
#[test]
fn hosted_costs_match_their_golden_file() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/hosted_costs.txt");
    let golden = std::fs::read_to_string(path).unwrap();
    let now = hosted_costs();
    for (line, (want, got)) in golden.lines().zip(now.lines()).enumerate() {
        assert_eq!(got, want, "line {}", line + 1);
    }
    assert_eq!(now.lines().count(), golden.lines().count());
}

/// Records every call — `(pulse, inbox senders in order)` — and
/// exercises each way a host could call a vertex differently from the
/// lock-step run. Every vertex floods at pulse 0, so inboxes hold ties;
/// its first inbox lands by `w`, the heaviest edge. Even vertices ask
/// for a wake-up at `w + 1` at pulse 0 and, on their first inbox, for a
/// second one at `w + 2` behind it, where they flood again. Odd vertices
/// finish at pulse 0 and ask for a wake-up at `w + 2` anyway, which must
/// not call them; they flood again on their first inbox, so later
/// inboxes mix send pulses.
#[derive(Clone, Debug)]
struct Probe {
    w: u64,
    calls: Calls,
}

/// One vertex's calls: `(pulse, inbox senders in order)`.
type Calls = Vec<(u64, Vec<NodeId>)>;

impl Probe {
    /// The last pulse at which a probe message can arrive.
    fn horizon(w: u64) -> u64 {
        2 * w + 2
    }
}

impl SyncProcess for Probe {
    type Msg = ();

    fn on_pulse(&mut self, pulse: u64, inbox: &[(NodeId, ())], ctx: &mut SyncContext<'_, ()>) {
        self.calls
            .push((pulse, inbox.iter().map(|&(from, ())| from).collect()));
        let even = ctx.self_id().index().is_multiple_of(2);
        let flood = |ctx: &mut SyncContext<'_, ()>| {
            let targets: Vec<NodeId> = ctx.neighbors().map(|(u, _, _)| u).collect();
            for u in targets {
                ctx.send(u, ());
            }
        };
        if pulse == 0 {
            flood(ctx);
            if even {
                ctx.wake_at(self.w + 1);
            } else {
                ctx.finish();
                ctx.wake_at(self.w + 2);
            }
        } else if self.calls.len() == 2 {
            // The first call after pulse 0: an inbox, at pulse ≤ w.
            if even {
                ctx.wake_at(self.w + 2);
            } else {
                flood(ctx);
            }
        } else if even && pulse == self.w + 2 {
            flood(ctx);
        }
    }
}

/// Each vertex's calls under `sync` on `g`, and under the lock-step run
/// on `reference` (`g` itself for γ_w, `g` with unit weights for the
/// unit-delay α_w and β_w).
fn probe_calls(
    g: &WeightedGraph,
    reference: &WeightedGraph,
    sync: Synchronizer,
    seed: u64,
) -> (Vec<Calls>, Vec<Calls>) {
    let w = reference.max_weight().get();
    let make = |_: NodeId, _: &WeightedGraph| Probe { w, calls: vec![] };
    let oracle = ModelOracle::new(DelayModel::Uniform, seed);
    let hosted = run_synchronized(g, sync, Probe::horizon(w), oracle, make).unwrap();
    let ideal = SyncRunner::new(reference).run(make).unwrap();
    let calls = |states: Vec<Probe>| states.into_iter().map(|p| p.calls).collect();
    (calls(hosted.states), calls(ideal.states))
}

fn unit_weights(g: &WeightedGraph) -> WeightedGraph {
    let mut b = GraphBuilder::new(g.node_count());
    b.edges(g.edges().map(|e| {
        let (u, v) = e.endpoints();
        (u.index(), v.index(), 1)
    }));
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// γ_w calls every vertex at the pulses, with the inboxes in the
    /// order, of the lock-step run — and so `SPT_synch` hosted by γ_w
    /// builds the lock-step run's tree, not just its distances.
    #[test]
    fn gamma_w_calls_equal_lock_step_calls(
        n in 6usize..=12,
        graph_seed in 0u64..1_000,
        k in 2usize..=4,
        seed in 0u64..1_000,
    ) {
        let g = generators::connected_gnp(n, 0.4, WeightDist::Uniform(1, 4), graph_seed);
        let (hosted, ideal) = probe_calls(&g, &g, Synchronizer::GammaW { k }, seed);
        for v in g.nodes() {
            let (got, want) = (&hosted[v.index()], &ideal[v.index()]);
            prop_assert!(got == want, "k={k} vertex {v}:\n hosted {got:?}\n  ideal {want:?}");
        }
        let source = NodeId::new(0);
        let row = Claim::SptSynch { source, k };
        let tree = row.run(&g, ModelOracle::new(DelayModel::Uniform, seed)).unwrap().tree;
        let ideal = run_spt_synch_ideal(&g, source).tree;
        let parents = |t: RootedTree| g.nodes().map(|v| t.parent(v).map(|(p, _, _)| p)).collect::<Vec<_>>();
        prop_assert_eq!(parents(tree.unwrap()), parents(ideal.unwrap()));
    }
}

/// Both unit-delay hosts keep a wake-up requested while an earlier one is
/// pending: the even probe vertices' calls.
#[test]
fn alpha_and_beta_w_keep_every_wake_up() {
    unit_delay_calls_match(|v| v.index() % 2 == 0);
}

/// Both unit-delay hosts leave a finished vertex alone at its wake-up:
/// the odd probe vertices' calls.
#[test]
fn alpha_and_beta_w_do_not_wake_a_finished_vertex() {
    unit_delay_calls_match(|v| v.index() % 2 == 1);
}

fn unit_delay_calls_match(check: impl Fn(NodeId) -> bool) {
    for graph_seed in 0..3 {
        let g = generators::connected_gnp(10, 0.4, WeightDist::Uniform(1, 4), graph_seed);
        let unit = unit_weights(&g);
        let leader = NodeId::new(0);
        for sync in [Synchronizer::AlphaW, Synchronizer::BetaW { leader }] {
            let (hosted, ideal) = probe_calls(&g, &unit, sync, graph_seed);
            for v in g.nodes().filter(|&v| check(v)) {
                assert_eq!(hosted[v.index()], ideal[v.index()], "{sync:?} at {v}");
            }
        }
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
