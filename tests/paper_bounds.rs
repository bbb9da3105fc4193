//! The paper's stated complexity bounds, checked empirically (with
//! explicit constants) on parameter sweeps — the integration-level
//! counterpart of the per-crate unit tests. The rows and their constants
//! are `csp_algo::catalogue`'s; this file is the catalogue × families
//! sweep, plus what each figure says beyond an upper bound. The sweeps
//! fan out over `csp_sim::sweep` so multi-core machines check all grid
//! points at once.

use cost_sensitive::prelude::*;

/// The family graphs each row is checked on, under worst-case delays.
/// Exhaustive over [`Claim`], so a new row cannot land unchecked; an
/// empty list records a row whose bound no test asserts.
fn families(claim: &Claim) -> Vec<WeightedGraph> {
    let gnp = |ns: &[usize], p: f64, w: u64, seeds: u64| -> Vec<WeightedGraph> {
        ns.iter()
            .flat_map(|&n| {
                (0..seeds).map(move |seed| {
                    generators::connected_gnp(n, p, generators::WeightDist::Uniform(1, w), seed)
                })
            })
            .collect()
    };
    match claim {
        Claim::GlobalSlt { .. } => gnp(&[12, 20, 28], 0.2, 32, 3),
        Claim::Flood { .. } | Claim::Dfs { .. } | Claim::ConHybrid { .. } => {
            gnp(&[20], 0.25, 24, 3)
        }
        Claim::MstGhs { .. } | Claim::MstCentr { .. } | Claim::MstFast { .. } => {
            gnp(&[24], 0.2, 50, 3)
        }
        Claim::SptCentr { .. } | Claim::SptSynch { .. } => gnp(&[14], 0.25, 16, 2),
        Claim::AlphaStar { .. } | Claim::BetaStar { .. } | Claim::GammaStar { .. } => {
            vec![generators::heavy_chord_cycle(16, 1_000)]
        }
        Claim::Controller { .. } => {
            vec![generators::grid(
                3,
                4,
                generators::WeightDist::Uniform(1, 5),
                8,
            )]
        }
        Claim::GlobalMst { .. }
        | Claim::GlobalSpt { .. }
        | Claim::MstHybrid { .. }
        | Claim::SptRecur { .. }
        | Claim::SptHybrid { .. }
        | Claim::Slt { .. }
        | Claim::AlphaW { .. }
        | Claim::BetaW { .. }
        | Claim::GammaW { .. } => Vec::new(),
    }
}

/// Runs `claim` on `g` under worst-case delays and checks the run against
/// the row's bounds.
fn check(claim: &Claim, g: &WeightedGraph) -> (CostParams, Outcome) {
    let p = CostParams::of(g);
    let out = claim
        .run(g, ModelOracle::new(DelayModel::WorstCase, 0))
        .unwrap();
    let (bounds, measured) = (claim.bounds(g, &p), claim.measure(&out));
    assert!(
        bounds.admit(measured),
        "{claim:?} on {p}: (comm, time) {measured:?} outside {bounds:?}"
    );
    (p, out)
}

/// [`check`] on every family of `claim`.
fn sweep(claim: &Claim) -> Vec<(CostParams, Outcome)> {
    let graphs = families(claim);
    assert!(!graphs.is_empty(), "{claim:?} has no families");
    par_map(&graphs, graphs.len(), |g| check(claim, g))
}

const ROOT: NodeId = NodeId::new(0);

/// Figure 1: global function computation — comm Θ(V̂), time Θ(D̂).
#[test]
fn figure_1_global_functions_are_v_and_d_optimal() {
    let slt = |inputs| Claim::GlobalSlt {
        root: ROOT,
        q: 2,
        inputs,
    };
    let graphs = families(&slt(Vec::new()));
    let runs = par_map(&graphs, graphs.len(), |g| {
        check(&slt((0..g.node_count() as u64).collect()), g)
    });
    assert_eq!(runs.len(), 9);
    // Lower bound: no algorithm beats V̂ comm; the measured run must sit
    // above the floor too (sanity).
    for (p, out) in runs {
        assert!(out.cost.weighted_comm >= p.mst_weight);
    }
}

/// Figure 2: connectivity — flood/DFS at O(Ê), hybrid at O(min{Ê, n·V̂}).
#[test]
fn figure_2_connectivity_bounds() {
    for claim in [
        Claim::Flood { root: ROOT },
        Claim::Dfs { root: ROOT },
        Claim::ConHybrid { root: ROOT },
    ] {
        assert_eq!(sweep(&claim).len(), 3);
    }
}

/// Figure 3: MST — GHS at O(Ê + V̂·log n), centr at O(n·V̂), fast at
/// O(Ê·log n·log V̂).
#[test]
fn figure_3_mst_bounds() {
    for claim in [
        Claim::MstGhs { root: ROOT },
        Claim::MstCentr { root: ROOT },
        Claim::MstFast { root: ROOT },
    ] {
        assert_eq!(sweep(&claim).len(), 3);
    }
}

/// Figure 4: SPT — centr at O(n·w(SPT)), synch at O(Ê + D̂·k·n·log n).
#[test]
fn figure_4_spt_bounds() {
    let centr = Claim::SptCentr { source: ROOT };
    assert_eq!(sweep(&centr).len(), 2);
    assert_eq!(sweep(&Claim::SptSynch { source: ROOT, k: 2 }).len(), 2);
    // Fact 6.5 inside the bound: w(SPT) ≤ (n−1)·V̂.
    for g in families(&centr) {
        let p = CostParams::of(&g);
        let spt_w = cost_sensitive::graph::algo::shortest_path_tree(&g, ROOT).weight();
        assert!(spt_w <= p.mst_weight * (p.n as u128 - 1));
    }
}

/// Figure 7: on the lower-bound family every correct algorithm pays
/// Ω(n·V̂); the frugal ones stay near it while flooding pays Ê.
#[test]
fn figure_7_lower_bound_family_cost_shape() {
    let g = generators::lower_bound_family(20, 8);
    // Flooding can't avoid the bypasses: Ω(Ê).
    let (p, flood) = check(&Claim::Flood { root: ROOT }, &g);
    assert!(flood.cost.weighted_comm >= p.total_weight);
    // MST_centr stays within its row's O(n·V̂) — far below Ê.
    let (_, centr) = check(&Claim::MstCentr { root: ROOT }, &g);
    assert!(centr.cost.weighted_comm < flood.cost.weighted_comm);
}

/// Section 3: the clock synchronizer hierarchy α* ≥ γ* ≥ Ω(d) on
/// heavy-chord networks, and β* pinned to the tree round trip.
#[test]
fn section_3_clock_synchronizer_hierarchy() {
    let delay = |claim: Claim| {
        let (p, out) = sweep(&claim).pop().unwrap();
        (p, out.pulses.max_pulse_delay())
    };
    let (p, alpha) = delay(Claim::AlphaStar { pulses: 5 });
    let (_, gamma) = delay(Claim::GammaStar { pulses: 5 });
    // β* ≤ 2·D̂ + slack is its row's bound.
    delay(Claim::BetaStar {
        leader: ROOT,
        pulses: 5,
    });
    // α* is pinned to W: its row's bound, met with equality.
    assert_eq!(alpha, p.max_weight.get());
    // γ* beats α* and respects the Ω(d) floor.
    assert!(gamma < alpha);
    assert!(u128::from(gamma) >= p.max_neighbor_distance.get());
}

/// Section 5: controller overhead O(c·log² c) and cut-off ≤ 2·threshold.
#[test]
fn section_5_controller_bounds() {
    let threshold = 200u64;
    let row = Claim::Controller {
        root: ROOT,
        threshold,
        policy: GrantPolicy::Caching,
    };
    for (_, out) in sweep(&row) {
        assert!(out.suspended);
        assert!(out.cost.comm_of(CostClass::Protocol).get() <= 2 * threshold as u128);
    }
}
