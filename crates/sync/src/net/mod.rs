//! Network synchronizers (Section 4): run synchronous protocols on
//! asynchronous weighted networks.
//!
//! The three hosts share one hosted-pulse step: each decides *when* its
//! vertex may run the next hosted pulse — α_w by `Safe` tokens to every
//! neighbour, β_w by a tree convergecast and a `Next` broadcast, γ_w by
//! per-level cluster sweeps with aligned sends — and the step then calls
//! the hosted protocol exactly as the lock-step
//! [`SyncRunner`](csp_sim::sync::SyncRunner) would, with the same inbox
//! in the same order. γ_w hosts the weighted semantics (a message sent at
//! pulse `q` over `e` arrives at `q + w(e)`); α_w and β_w host the
//! unit-delay one (it arrives at `q + 1`), which is the lock-step run on
//! the same graph with every weight 1.

mod alpha_w;
mod beta_w;
mod gamma_w;
mod hosted;
mod layout;

pub use alpha_w::{AlphaMsg, AlphaWHost};
pub use beta_w::{BetaMsg, BetaWHost};
pub use gamma_w::{GammaWHost, HostMsg};

use csp_graph::{NodeId, WeightedGraph};
use csp_sim::sync::SyncProcess;
use csp_sim::{CostReport, LinkOracle, Process, SimError, Simulator};
use hosted::Hosted;

/// A network synchronizer of Section 4.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Synchronizer {
    /// The naive α_w: `Θ(Ê)` communication and `Θ(W)` time per pulse.
    AlphaW,
    /// The tree synchronizer β_w over the shortest-path tree of `leader`:
    /// `Θ(V̂)` communication and `Θ(D̂)` time per pulse.
    BetaW {
        /// The tree's root.
        leader: NodeId,
    },
    /// γ_w with cluster parameter `k ≥ 2`: `O(k·n·log n)` communication
    /// and `O(log_k n·log n)` time per pulse (Lemma 4.8).
    GammaW {
        /// Cluster partition parameter.
        k: usize,
    },
}

/// The outcome of a synchronized (hosted) run.
#[derive(Debug)]
pub struct HostedRun<P> {
    /// Final hosted protocol states, indexed by vertex.
    pub states: Vec<P>,
    /// Metered costs of the whole run; hosted traffic is
    /// [`CostClass::Protocol`](csp_sim::CostClass::Protocol),
    /// synchronizer traffic (acks and sweeps) is
    /// [`CostClass::Synchronizer`](csp_sim::CostClass::Synchronizer).
    pub cost: CostReport,
    /// Number of original pulses simulated.
    pub pulses: u64,
}

/// Runs a synchronous protocol, `make(v, g)` at each vertex `v`, on the
/// asynchronous network `g` under `sync`, simulating hosted pulses
/// `0..=until_pulse`, with every message's fate decided by `oracle`.
///
/// # Errors
///
/// Propagates [`SimError`] from the simulator.
///
/// # Panics
///
/// Panics if hosted messages remain buffered past the horizon — i.e.
/// `until_pulse` was too small for the hosted protocol to finish — or if
/// `sync`'s own construction does (see each host's `factory`).
pub fn run_synchronized<P, F, O>(
    g: &WeightedGraph,
    sync: Synchronizer,
    until_pulse: u64,
    oracle: O,
    make: F,
) -> Result<HostedRun<P>, SimError>
where
    P: SyncProcess,
    F: Fn(NodeId, &WeightedGraph) -> P + Sync,
    O: LinkOracle,
{
    match sync {
        Synchronizer::AlphaW => host(
            g,
            until_pulse,
            oracle,
            AlphaWHost::factory(until_pulse, make),
            AlphaWHost::into_hosted,
        ),
        Synchronizer::BetaW { leader } => host(
            g,
            until_pulse,
            oracle,
            BetaWHost::factory(g, leader, until_pulse, make),
            BetaWHost::into_hosted,
        ),
        Synchronizer::GammaW { k } => host(
            g,
            until_pulse,
            oracle,
            GammaWHost::factory(g, k, until_pulse, make),
            GammaWHost::into_hosted,
        ),
    }
}

/// One hosted run: `make` builds the hosts, `into_hosted` takes each
/// one's hosted protocol back out after the run.
fn host<H, P, O>(
    g: &WeightedGraph,
    until_pulse: u64,
    mut oracle: O,
    make: impl Fn(NodeId, &WeightedGraph) -> H,
    into_hosted: fn(H) -> Hosted<P>,
) -> Result<HostedRun<P>, SimError>
where
    H: Process,
    P: SyncProcess,
    O: LinkOracle,
{
    let run = Simulator::new(g).run_with_oracle(&mut oracle, make)?;
    let hosted: Vec<Hosted<P>> = run.states.into_iter().map(into_hosted).collect();
    let undelivered: usize = hosted.iter().map(Hosted::undelivered).sum();
    assert_eq!(
        undelivered, 0,
        "until_pulse={until_pulse} too small: {undelivered} hosted messages undelivered"
    );
    Ok(HostedRun {
        states: hosted.into_iter().map(|h| h.state).collect(),
        cost: run.cost,
        pulses: until_pulse,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_graph::{generators, Cost};
    use csp_sim::sync::{SyncContext, SyncRunner};
    use csp_sim::{CostClass, DelayModel, ModelOracle};

    /// Vertex 0 floods at pulse 0, every other vertex on first hearing;
    /// each records that pulse — its hop distance under unit-delay
    /// semantics, its weighted distance under the weighted one.
    #[derive(Clone, Debug)]
    struct Flood {
        heard_at: Option<u64>,
    }

    impl SyncProcess for Flood {
        type Msg = ();

        fn on_pulse(&mut self, pulse: u64, inbox: &[(NodeId, ())], ctx: &mut SyncContext<'_, ()>) {
            let fire = (pulse == 0 && ctx.self_id() == NodeId::new(0))
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

    fn flood(
        g: &WeightedGraph,
        sync: Synchronizer,
        until_pulse: u64,
        delay: DelayModel,
        seed: u64,
    ) -> HostedRun<Flood> {
        let oracle = ModelOracle::new(delay, seed);
        run_synchronized(g, sync, until_pulse, oracle, |_, _| Flood {
            heard_at: None,
        })
        .unwrap()
    }

    fn heard_at(run: &HostedRun<Flood>) -> Vec<Option<u64>> {
        run.states.iter().map(|s| s.heard_at).collect()
    }

    /// α_w and β_w: the first-hearing pulse is the hop distance.
    fn check_unit_delay(g: &WeightedGraph, sync: Synchronizer, seed: u64) {
        let hops: Vec<Option<u64>> = csp_graph::algo::hop_distances(g, NodeId::new(0))
            .into_iter()
            .map(|h| h.map(|h| h as u64))
            .collect();
        let horizon = hops.iter().flatten().max().unwrap() + 2;
        let run = flood(g, sync, horizon, DelayModel::Uniform, seed);
        assert_eq!(heard_at(&run), hops, "{sync:?} seed {seed}");
    }

    /// γ_w: the first-hearing pulse is the lock-step run's.
    fn check_equivalence(g: &WeightedGraph, k: usize, seed: u64) {
        let ideal = SyncRunner::new(g)
            .run(|_, _| Flood { heard_at: None })
            .unwrap();
        let ideal: Vec<Option<u64>> = ideal.states.iter().map(|s| s.heard_at).collect();
        // Last firing pulse plus the heaviest edge covers every echo.
        let horizon = ideal.iter().flatten().max().unwrap_or(&0) + g.max_weight().get() + 1;
        let hosted = flood(
            g,
            Synchronizer::GammaW { k },
            horizon,
            DelayModel::Uniform,
            seed,
        );
        assert_eq!(heard_at(&hosted), ideal, "k={k}, seed={seed}");
    }

    #[test]
    fn alpha_w_realizes_unit_delay_semantics() {
        let g = generators::heavy_chord_cycle(10, 50);
        for seed in 0..3 {
            check_unit_delay(&g, Synchronizer::AlphaW, seed);
        }
    }

    #[test]
    fn beta_w_realizes_unit_delay_semantics() {
        let g = generators::heavy_chord_cycle(10, 70);
        let leader = NodeId::new(0);
        for seed in 0..3 {
            check_unit_delay(&g, Synchronizer::BetaW { leader }, seed);
        }
    }

    #[test]
    fn alpha_and_beta_hosts_agree_on_outputs() {
        let g = generators::grid(3, 4, generators::WeightDist::Uniform(1, 9), 5);
        let leader = NodeId::new(0);
        check_unit_delay(&g, Synchronizer::AlphaW, 3);
        check_unit_delay(&g, Synchronizer::BetaW { leader }, 3);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn alpha_w_detects_insufficient_horizon() {
        let g = generators::path(6, |_| 3);
        flood(&g, Synchronizer::AlphaW, 1, DelayModel::WorstCase, 0);
    }

    #[test]
    fn hosted_outputs_equal_ideal_outputs_on_uniform_weights() {
        let g = generators::cycle(8, |_| 1);
        check_equivalence(&g, 2, 0);
    }

    #[test]
    fn hosted_outputs_equal_ideal_outputs_on_mixed_weights() {
        let mut b = csp_graph::GraphBuilder::new(6);
        b.edge(0, 1, 1)
            .edge(1, 2, 3)
            .edge(2, 3, 1)
            .edge(3, 4, 7)
            .edge(4, 5, 2)
            .edge(5, 0, 5)
            .edge(1, 4, 2);
        let g = b.build().unwrap();
        for seed in 0..3 {
            check_equivalence(&g, 2, seed);
            check_equivalence(&g, 4, seed);
        }
    }

    #[test]
    fn hosted_outputs_on_random_graphs() {
        for seed in 0..3 {
            let g =
                generators::connected_gnp(10, 0.25, generators::WeightDist::Uniform(1, 12), seed);
            check_equivalence(&g, 3, seed);
        }
    }

    #[test]
    fn synchronizer_traffic_is_separately_metered() {
        let g = generators::cycle(6, |_| 2);
        let hosted = flood(
            &g,
            Synchronizer::GammaW { k: 2 },
            10,
            DelayModel::WorstCase,
            0,
        );
        let sync_comm = hosted.cost.comm_of(CostClass::Synchronizer);
        let proto_comm = hosted.cost.comm_of(CostClass::Protocol);
        assert!(sync_comm > Cost::ZERO);
        assert!(proto_comm > Cost::ZERO);
        assert_eq!(
            hosted.cost.weighted_comm,
            sync_comm + proto_comm,
            "classes must partition the total"
        );
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn insufficient_horizon_is_detected() {
        let g = generators::path(4, |_| 8);
        // Distances reach 24 — far beyond 2 pulses.
        flood(
            &g,
            Synchronizer::GammaW { k: 2 },
            2,
            DelayModel::WorstCase,
            0,
        );
    }
}
