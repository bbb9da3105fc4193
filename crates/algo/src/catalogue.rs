//! The paper's claims as one catalogue.
//!
//! The paper is a table of rows: a protocol, its weighted-communication
//! bound and its weighted-time bound (Figures 1–5, Sections 3–5).
//! [`Claim`] is that table — one variant per row, whose fields are the
//! row's parameters — and each row owns, in one place:
//!
//! * its **run**: the per-vertex processes it builds and the check that
//!   a finished run computed what the row promises (a spanning tree,
//!   exact distances, every pulse at every vertex, …). [`Claim::run`]
//!   executes it under any [`LinkOracle`]; [`Claim::visit`] hands the
//!   same factory and check to generic callers such as `csp-adversary`'s
//!   schedule search;
//! * its **bounds** ([`Claim::bounds`]): for each measure, the paper's
//!   expression over [`CostParams`] — what `report` divides by — and,
//!   where a test asserts one, the same expression with that test's
//!   constants.
//!
//! `report`, `tests/paper_bounds.rs` and the adversary hunt loop over
//! claims instead of restating them.
//!
//! ```
//! use csp_algo::catalogue::Claim;
//! use csp_graph::{generators, params::CostParams, NodeId};
//! use csp_sim::{DelayModel, ModelOracle};
//!
//! let g = generators::lower_bound_family(10, 4);
//! let p = CostParams::of(&g);
//! let row = Claim::MstCentr { root: NodeId::new(0) };
//! let out = row.run(&g, ModelOracle::new(DelayModel::WorstCase, 0))?;
//! // The MST of the family is the light path: (n−1)·x = 9·4.
//! assert_eq!(out.tree.as_ref().unwrap().weight().get(), 36);
//! assert!(row.bounds(&g, &p).comm.unwrap().admits(out.cost.weighted_comm.get()));
//! # Ok::<(), csp_sim::SimError>(())
//! ```

use crate::dfs::Dfs;
use crate::flood::Flood;
use crate::full_info::{self, FullInfoGrowth, GrowthRule, MstRule, SptRule};
use crate::global::{GlobalFunction, Max, TreeKind};
use crate::mst::fast::MstFast;
use crate::mst::ghs::Ghs;
use crate::spt::recur::SptRecur;
use crate::spt::synch;
use crate::util::{tree_from_branches, tree_from_parents};
use crate::{con_hybrid, mst, slt_dist, spt};
use csp_control::{Controller, GrantPolicy};
use csp_graph::algo::shortest_path_tree;
use csp_graph::params::CostParams;
use csp_graph::{Cost, NodeId, RootedTree, WeightedGraph};
use csp_sim::sync::{SyncContext, SyncProcess};
use csp_sim::{
    Context, CostClass, CostReport, LinkOracle, Process, Run, SimError, SimTime, Simulator,
};
use csp_sync::clock::{AlphaStar, BetaStar, GammaStar, PulseStats};
use csp_sync::net::{AlphaWHost, BetaWHost, GammaWHost};

/// One row of the paper's tables.
///
/// Unless a row says otherwise its bounds are on the run's weighted
/// communication and completion time ([`Claim::measure`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Claim {
    /// Figure 1 (Corollary 2.3): the maximum of `inputs`, one per vertex,
    /// output at every vertex by convergecast and broadcast over the
    /// shallow-light tree — comm `O(V̂)`, time `O(D̂)`, both optimal
    /// (Theorem 2.1).
    GlobalSlt {
        /// Where the fold completes.
        root: NodeId,
        /// The SLT's breakpoint parameter (`q ≥ 1`).
        q: u64,
        /// One input per vertex.
        inputs: Vec<u64>,
    },
    /// Figure 1: the same over the minimum spanning tree — light
    /// (comm `2·V̂`) but possibly deep.
    GlobalMst {
        /// Where the fold completes.
        root: NodeId,
        /// One input per vertex.
        inputs: Vec<u64>,
    },
    /// Figure 1: the same over the shortest-path tree — shallow (time
    /// `2·D̂`) but possibly heavy.
    GlobalSpt {
        /// Where the fold completes.
        root: NodeId,
        /// One input per vertex.
        inputs: Vec<u64>,
    },
    /// Figure 2: `CON_flood` (Fact 6.1) — comm `O(Ê)`, time `O(D̂)`.
    Flood {
        /// The initiator, root of the flood tree.
        root: NodeId,
    },
    /// Figure 2: DFS with root estimates (Section 6.2) — comm and time
    /// `O(Ê)`.
    Dfs {
        /// The initiator, root of the DFS tree.
        root: NodeId,
    },
    /// Figure 2: `CON_hybrid` (Section 7.2) — comm `O(min{Ê, n·V̂})`, by
    /// budget-doubling restarts of DFS and `MST_centr`.
    ConHybrid {
        /// The initiator.
        root: NodeId,
    },
    /// Figure 3: Gallager–Humblet–Spira (Section 8.1) — comm
    /// `O(Ê + V̂·log n)`.
    MstGhs {
        /// Where the spontaneously built MST is rooted for reporting.
        root: NodeId,
    },
    /// Figure 3: `MST_centr`, full-information Prim (Corollary 6.4) —
    /// comm `O(n·V̂)`, time `O(n·Diam(MST))`.
    MstCentr {
        /// The initiator.
        root: NodeId,
    },
    /// Figure 3: `MST_fast`, guess doubling (Section 8.3) — comm
    /// `O(Ê·log n·log V̂)`, time `O(Diam(MST)·log V̂·log n)`.
    MstFast {
        /// Where the MST is rooted for reporting.
        root: NodeId,
    },
    /// Figure 3: `MST_hybrid` (Section 8.2) — comm
    /// `O(min{Ê + V̂·log n, n·V̂})`, by budget-doubling restarts of GHS
    /// and `MST_centr`.
    MstHybrid {
        /// The initiator.
        root: NodeId,
    },
    /// Figure 4: `SPT_centr`, full-information Dijkstra (Corollary 6.6) —
    /// comm `O(n·w(SPT))`, time `O(n·D̂)`.
    SptCentr {
        /// The source.
        source: NodeId,
    },
    /// Figure 4: `SPT_synch` (Corollary 9.1) — the synchronous SPT flood
    /// hosted by synchronizer γ_w: comm `O(Ê + D̂·k·n·log n)`, time
    /// `O(D̂·log_k n·log n)`.
    SptSynch {
        /// The source.
        source: NodeId,
        /// γ_w's cluster parameter (`k ≥ 2`).
        k: usize,
    },
    /// Figure 4: `SPT_recur` (Section 9.2) with strip depth `delta`. The
    /// paper's bound is for the full recursion of \[Awe89]; this
    /// reproduction builds its single-level strip method (Figure 9), so
    /// the row states no bound of its own.
    SptRecur {
        /// The source.
        source: NodeId,
        /// Strip depth (`Δ ≥ 1`); `1 << 40` is chaotic Bellman–Ford.
        delta: u64,
    },
    /// Figure 4: `SPT_hybrid` (Section 9.3) — the cheaper of `SPT_recur`
    /// and `SPT_synch` by budget-doubling restarts; with `SPT_recur`
    /// unbounded here, it states no bound either.
    SptHybrid {
        /// The source.
        source: NodeId,
        /// `SPT_recur`'s strip depth.
        delta: u64,
        /// `SPT_synch`'s cluster parameter.
        k: usize,
    },
    /// Figure 5 (Theorem 2.7): the distributed shallow-light tree —
    /// `MST_centr`, local breakpoint splicing, then `SPT_centr` on the
    /// spliced subgraph: comm `O(V̂·n²)`, time `O(D̂·n²)`.
    Slt {
        /// The tree's root.
        root: NodeId,
        /// Breakpoint parameter (`q ≥ 1`).
        q: u64,
    },
    /// Section 3.1: clock synchronizer α\* for `pulses` pulses — pulse
    /// delay `O(W)`. Time is the pulse delay.
    AlphaStar {
        /// Pulses every vertex generates.
        pulses: u64,
    },
    /// Section 3.2: β\* over the SPT rooted at `leader` — pulse delay
    /// `O(D̂)`. Time is the pulse delay.
    BetaStar {
        /// The tree's root.
        leader: NodeId,
        /// Pulses every vertex generates.
        pulses: u64,
    },
    /// Section 3.3: γ\* over a tree edge-cover — pulse delay
    /// `O(d·log² n)` against the `Ω(d)` lower bound. Time is the pulse
    /// delay.
    GammaStar {
        /// Pulses every vertex generates.
        pulses: u64,
    },
    /// Section 4.1: the naive network synchronizer α_w hosting an idle
    /// protocol for `pulses` pulses — `Θ(Ê)` communication and `Θ(W)`
    /// time per pulse. Bounds are per pulse.
    AlphaW {
        /// Pulses simulated.
        pulses: u64,
    },
    /// Section 4.1: the tree synchronizer β_w on the SPT of `leader` —
    /// `Θ(V̂)` communication and `Θ(D̂)` time per pulse. Bounds are per
    /// pulse.
    BetaW {
        /// The tree's root.
        leader: NodeId,
        /// Pulses simulated.
        pulses: u64,
    },
    /// Section 4 (Lemma 4.8): synchronizer γ_w — `C(γ_w) = O(k·n·log n)`
    /// communication and `T(γ_w) = O(log_k n·log n)` time per pulse.
    /// Bounds are per pulse.
    GammaW {
        /// Cluster parameter (`k ≥ 2`).
        k: usize,
        /// Pulses simulated.
        pulses: u64,
    },
    /// Section 5 (Corollary 5.1): the controller with threshold
    /// `c_π = threshold` over a token that never stops — cut off with
    /// protocol consumption `≤ 2·c_π`, total comm `O(c·log² c)` for
    /// `c = 2·c_π`.
    Controller {
        /// The diffusing computation's initiator, holding the counter.
        root: NodeId,
        /// The threshold `c_π`.
        threshold: u64,
        /// How permits are granted.
        policy: GrantPolicy,
    },
}

/// What one run of a row produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metered cost; for the hybrids and [`Claim::Slt`] the sequential
    /// composition of every attempt or pass.
    pub cost: CostReport,
    /// The spanning tree the row builds, rooted at its root; for the
    /// Figure 1 rows, the tree the fold ran over.
    pub tree: Option<RootedTree>,
    /// Exact weighted distances from the source (Figure 4 rows).
    pub dists: Vec<Cost>,
    /// Every vertex's output (Figure 1 rows).
    pub outputs: Vec<u64>,
    /// Every vertex's pulse times (Section 3 rows).
    pub pulses: PulseStats,
    /// The component whose attempt finished (the hybrids).
    pub winner: Option<Claim>,
    /// Whether the root's threshold cut the execution off
    /// ([`Claim::Controller`]).
    pub suspended: bool,
}

impl Outcome {
    /// A spanning-tree row's outcome.
    ///
    /// # Panics
    ///
    /// Panics if `tree` does not span.
    pub(crate) fn spanning(cost: CostReport, tree: RootedTree) -> Self {
        assert!(tree.is_spanning(), "the row's tree must span");
        Outcome {
            tree: Some(tree),
            ..Outcome::of(cost)
        }
    }

    /// A shortest-path row's outcome, from each vertex's parent pointer
    /// and distance.
    ///
    /// # Panics
    ///
    /// Panics if a vertex was not reached.
    pub(crate) fn shortest_paths(
        g: &WeightedGraph,
        source: NodeId,
        cost: CostReport,
        per_vertex: impl Iterator<Item = (Option<NodeId>, Option<Cost>)>,
    ) -> Self {
        let (parents, dists): (Vec<_>, Vec<_>) = per_vertex.unzip();
        let dists = dists
            .into_iter()
            .map(|d| d.expect("every vertex reached"))
            .collect();
        Outcome {
            dists,
            ..Outcome::spanning(cost, tree_from_parents(g, source, &parents))
        }
    }

    fn of(cost: CostReport) -> Self {
        Outcome {
            cost,
            ..Outcome::default()
        }
    }
}

/// One measure's bound on one instance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bound {
    /// The paper's expression evaluated on the instance — what `report`
    /// divides a measurement by.
    pub paper: f64,
    /// The expression with the constants a test asserts, where one does.
    pub checked: Option<f64>,
}

impl Bound {
    /// Whether `measured` is within the checked bound; always true where
    /// nothing is checked.
    pub fn admits(&self, measured: u128) -> bool {
        self.checked.is_none_or(|c| measured as f64 <= c)
    }
}

/// A row's bounds on one instance; `None` where the row states none.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bounds {
    /// On the row's communication measure.
    pub comm: Option<Bound>,
    /// On the row's time measure.
    pub time: Option<Bound>,
}

impl Bounds {
    /// Whether `(communication, time)` — as [`Claim::measure`] reads
    /// them off an outcome — is within every checked bound.
    pub fn admit(&self, (comm, time): (u128, u64)) -> bool {
        self.comm.is_none_or(|b| b.admits(comm)) && self.time.is_none_or(|b| b.admits(time.into()))
    }
}

/// Receives a row's per-vertex processes — how generic callers such as
/// `csp-adversary`'s schedule search run a row under an oracle of their
/// own.
pub trait ProcessVisitor {
    /// What the visit produces.
    type Output;

    /// Called once: `make` builds the row's process at each vertex, and
    /// `check` turns a finished run of them into the row's [`Outcome`],
    /// panicking if the run did not compute what the row promises.
    fn visit<P, F, C>(self, make: F, check: C) -> Self::Output
    where
        P: Process + Clone + Send + Sync,
        P::Msg: Send + Sync,
        F: Fn(NodeId, &WeightedGraph) -> P + Sync,
        C: FnOnce(Run<P>) -> Outcome;
}

/// The visitor behind [`Claim::run`]: one simulation under the oracle.
struct Simulate<'g, O> {
    g: &'g WeightedGraph,
    oracle: O,
}

impl<O: LinkOracle> ProcessVisitor for Simulate<'_, O> {
    type Output = Result<Outcome, SimError>;

    fn visit<P, F, C>(mut self, make: F, check: C) -> Self::Output
    where
        P: Process + Clone + Send + Sync,
        P::Msg: Send + Sync,
        F: Fn(NodeId, &WeightedGraph) -> P + Sync,
        C: FnOnce(Run<P>) -> Outcome,
    {
        Ok(check(
            Simulator::new(self.g).run_with_oracle(&mut self.oracle, make)?,
        ))
    }
}

impl Claim {
    /// Runs the row on `g` with every message's fate decided by `oracle`
    /// — `ModelOracle::new(delay, seed)` for a fixed delay model — and
    /// checks the outcome.
    ///
    /// The hybrids and [`Claim::Slt`] run several simulations in
    /// sequence; each starts from its own copy of `oracle`, as each
    /// attempt of a `(delay, seed)` run starts a fresh generator.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the simulator.
    ///
    /// # Panics
    ///
    /// Panics if `g` is disconnected, a vertex parameter is out of range,
    /// a parameter is outside its row's domain, or the run did not
    /// compute what the row promises.
    pub fn run<O: LinkOracle + Clone>(
        &self,
        g: &WeightedGraph,
        oracle: O,
    ) -> Result<Outcome, SimError> {
        if let Some(v) = self.vertex() {
            g.check_node(v);
        }
        match *self {
            Claim::ConHybrid { root } => con_hybrid::run(g, root, &oracle),
            Claim::MstHybrid { root } => mst::hybrid::run(g, root, &oracle),
            Claim::SptHybrid { source, delta, k } => spt::hybrid::run(g, source, delta, k, &oracle),
            Claim::Slt { root, q } => slt_dist::run(g, root, q, &oracle),
            _ => self
                .visit(g, Simulate { g, oracle })
                .expect("every row but the sequential compositions has one process"),
        }
    }

    /// Hands `visitor` this row's process factory and outcome check for
    /// `g`; `None` for the rows that run several simulations in sequence
    /// (the hybrids and [`Claim::Slt`]).
    ///
    /// # Panics
    ///
    /// Panics if a vertex parameter is out of range or a parameter is
    /// outside its row's domain.
    pub fn visit<V: ProcessVisitor>(&self, g: &WeightedGraph, visitor: V) -> Option<V::Output> {
        if let Some(v) = self.vertex() {
            g.check_node(v);
        }
        Some(match *self {
            Claim::GlobalSlt {
                root,
                q,
                ref inputs,
            } => global(visitor, g, root, inputs, TreeKind::Slt { q }),
            Claim::GlobalMst { root, ref inputs } => {
                global(visitor, g, root, inputs, TreeKind::Mst)
            }
            Claim::GlobalSpt { root, ref inputs } => {
                global(visitor, g, root, inputs, TreeKind::Spt)
            }
            Claim::Flood { root } => visitor.visit(
                move |v, _| Flood::new(v == root),
                |run| {
                    let parents: Vec<_> = run.states.iter().map(Flood::parent).collect();
                    Outcome::spanning(run.cost, tree_from_parents(g, root, &parents))
                },
            ),
            Claim::Dfs { root } => visitor.visit(
                move |v, g| Dfs::new(v, g, root),
                |run| {
                    assert!(
                        run.states[root.index()].final_estimate().is_some(),
                        "the root finished the search"
                    );
                    let parents: Vec<_> = run.states.iter().map(Dfs::parent).collect();
                    Outcome::spanning(run.cost, tree_from_parents(g, root, &parents))
                },
            ),
            Claim::MstGhs { root } => visitor.visit(Ghs::new, |run| {
                assert!(
                    g.node_count() == 1 || run.states.iter().any(Ghs::halted),
                    "GHS must detect termination"
                );
                let tree =
                    tree_from_branches(g, root, |v| run.states[v.index()].branch_neighbors());
                Outcome::spanning(run.cost, tree)
            }),
            Claim::MstFast { root } => visitor.visit(MstFast::new, |run| {
                assert!(
                    g.node_count() == 1 || run.states.iter().any(MstFast::halted),
                    "MST_fast must detect termination"
                );
                let tree =
                    tree_from_branches(g, root, |v| run.states[v.index()].branch_neighbors());
                Outcome::spanning(run.cost, tree)
            }),
            Claim::MstCentr { root } => growth(visitor, g, root, MstRule),
            Claim::SptCentr { source } => growth(visitor, g, source, SptRule),
            Claim::SptRecur { source, delta } => visitor.visit(
                move |v, _| SptRecur::new(v, source, delta),
                |run| {
                    assert!(
                        run.states[source.index()].finished(),
                        "SPT_recur must complete on a connected graph"
                    );
                    let per_vertex = run.states.iter().map(|st| (st.parent(), st.dist()));
                    Outcome::shortest_paths(g, source, run.cost, per_vertex)
                },
            ),
            Claim::SptSynch { source, k } => visitor.visit(synch::hosts(g, source, k), |run| {
                let hosts = &run.states;
                assert_eq!(
                    hosts.iter().map(GammaWHost::undelivered).sum::<usize>(),
                    0,
                    "the SPT_synch horizon covers every hosted message"
                );
                let per_vertex = hosts
                    .iter()
                    .map(|h| (h.hosted().parent(), h.hosted().dist()));
                Outcome::shortest_paths(g, source, run.cost, per_vertex)
            }),
            Claim::AlphaStar { pulses } => visitor.visit(
                move |v, g| AlphaStar::new(v, g, pulses),
                move |run| pulsed(run, pulses, AlphaStar::times),
            ),
            Claim::BetaStar { leader, pulses } => {
                let tree = shortest_path_tree(g, leader);
                assert!(tree.is_spanning(), "β* needs a connected graph");
                visitor.visit(
                    move |v, _| BetaStar::new(v, &tree, pulses),
                    move |run| pulsed(run, pulses, BetaStar::times),
                )
            }
            Claim::GammaStar { pulses } => visitor
                .visit(GammaStar::factory(g, pulses), move |run| {
                    pulsed(run, pulses, GammaStar::times)
                }),
            Claim::AlphaW { pulses } => visitor.visit(
                AlphaWHost::factory(pulses, move |_, _| Idle(pulses)),
                |run| hosted(run, AlphaWHost::undelivered),
            ),
            Claim::BetaW { leader, pulses } => visitor.visit(
                BetaWHost::factory(g, leader, pulses, move |_, _| Idle(pulses)),
                |run| hosted(run, BetaWHost::undelivered),
            ),
            Claim::GammaW { k, pulses } => visitor.visit(
                GammaWHost::factory(g, k, pulses, move |_, _| Idle(pulses)),
                |run| hosted(run, GammaWHost::undelivered),
            ),
            Claim::Controller {
                root,
                threshold,
                policy,
            } => visitor.visit(
                move |v, _| Controller::new(v, root, Patrol(v == root), threshold, policy),
                move |run| Outcome {
                    suspended: run.states[root.index()].suspended(),
                    ..Outcome::of(run.cost)
                },
            ),
            Claim::ConHybrid { .. }
            | Claim::MstHybrid { .. }
            | Claim::SptHybrid { .. }
            | Claim::Slt { .. } => return None,
        })
    }

    /// The row's bounds on `g`, whose parameters are `p`.
    pub fn bounds(&self, g: &WeightedGraph, p: &CostParams) -> Bounds {
        let n = p.n as f64;
        let (e_hat, v_hat, d_hat) = (
            p.total_weight.get() as f64,
            p.mst_weight.get() as f64,
            p.weighted_diameter.get() as f64,
        );
        let w = p.max_weight.get() as f64;
        let diam_mst = p.mst_diameter.get() as f64;
        // ⌈log₂ n⌉ where the checked constants were set with it, the real
        // log₂ n where `report` divides by it.
        let log_n = (p.n.max(2) as f64).log2().ceil();
        let lg = n.log2();
        let paper = |x: f64| {
            Some(Bound {
                paper: x,
                checked: None,
            })
        };
        let checked = |x: f64, c: f64| {
            Some(Bound {
                paper: x,
                checked: Some(c),
            })
        };
        let (comm, time) = match *self {
            Claim::GlobalSlt { q, .. } => {
                let q = q as f64;
                (
                    checked(v_hat, 2.0 * (1.0 + 2.0 / q) * v_hat),
                    checked(d_hat, 2.0 * (q + 1.0) * d_hat),
                )
            }
            Claim::GlobalMst { .. } | Claim::GlobalSpt { .. } => (paper(v_hat), paper(d_hat)),
            Claim::Flood { .. } => (checked(e_hat, 2.0 * e_hat), checked(d_hat, d_hat + w)),
            Claim::Dfs { .. } => (checked(e_hat, 12.0 * e_hat), paper(e_hat)),
            Claim::ConHybrid { .. } => {
                let pivot = p.min_e_nv().get() as f64;
                (checked(pivot, 60.0 * pivot), None)
            }
            Claim::MstGhs { .. } => {
                let b = e_hat + v_hat * log_n;
                (checked(b, 5.0 * b), paper(b))
            }
            Claim::MstCentr { .. } => (checked(n * v_hat, 6.0 * n * v_hat), paper(n * diam_mst)),
            Claim::MstFast { .. } => {
                let log_v = v_hat.max(2.0).log2();
                let b = e_hat * lg * log_v;
                (checked(b, 5.0 * b), paper(diam_mst * log_v * lg))
            }
            Claim::MstHybrid { .. } => (paper((e_hat + v_hat * log_n).min(n * v_hat)), None),
            Claim::SptCentr { source } => {
                let spt = shortest_path_tree(g, source).weight().get() as f64;
                (checked(n * spt, 6.0 * n * spt), paper(n * d_hat))
            }
            Claim::SptSynch { k, .. } => {
                let sync = d_hat * k as f64 * n * log_n;
                (
                    checked(e_hat + sync, 2.0 * e_hat + 40.0 * sync),
                    paper(d_hat * n.log(k as f64) * log_n),
                )
            }
            Claim::SptRecur { .. } | Claim::SptHybrid { .. } => (None, None),
            Claim::Slt { .. } => (
                checked(v_hat * n * n, 8.0 * v_hat * n * n),
                paper(d_hat * n * n),
            ),
            Claim::AlphaStar { .. } => (None, checked(w, w)),
            Claim::BetaStar { .. } => (None, checked(d_hat, 2.0 * d_hat + 2.0)),
            Claim::GammaStar { .. } => {
                let d = p.max_neighbor_distance.get().max(1) as f64;
                (None, checked(d * lg * lg, 12.0 * d * log_n * log_n))
            }
            Claim::AlphaW { .. } => (paper(e_hat), paper(w)),
            Claim::BetaW { .. } => (paper(v_hat), paper(d_hat)),
            Claim::GammaW { k, .. } => (paper(k as f64 * n * lg), paper(n.log(k as f64) * lg)),
            Claim::Controller { threshold, .. } => {
                let c = (2 * threshold) as f64;
                let b = c * c.log2() * c.log2();
                (checked(b, 4.0 * b), None)
            }
        };
        Bounds { comm, time }
    }

    /// What [`Claim::bounds`] bound in one of this row's outcomes:
    /// `(communication, time)`. That is the weighted communication and
    /// the completion time, except that the Section 3 rows' time is the
    /// pulse delay and the Section 4 rows' measures are the
    /// synchronizer's communication and the completion time per
    /// simulated pulse.
    pub fn measure(&self, out: &Outcome) -> (u128, u64) {
        let cost = &out.cost;
        match *self {
            Claim::AlphaStar { .. } | Claim::BetaStar { .. } | Claim::GammaStar { .. } => {
                (cost.weighted_comm.get(), out.pulses.max_pulse_delay())
            }
            Claim::AlphaW { pulses }
            | Claim::BetaW { pulses, .. }
            | Claim::GammaW { pulses, .. } => {
                let pulses = pulses.max(1);
                (
                    cost.comm_of(CostClass::Synchronizer).get() / pulses as u128,
                    cost.completion.get() / pulses,
                )
            }
            _ => (cost.weighted_comm.get(), cost.completion.get()),
        }
    }

    /// The vertex parameter, for rows that have one.
    fn vertex(&self) -> Option<NodeId> {
        match *self {
            Claim::GlobalSlt { root, .. }
            | Claim::GlobalMst { root, .. }
            | Claim::GlobalSpt { root, .. }
            | Claim::Flood { root }
            | Claim::Dfs { root }
            | Claim::ConHybrid { root }
            | Claim::MstGhs { root }
            | Claim::MstCentr { root }
            | Claim::MstFast { root }
            | Claim::MstHybrid { root }
            | Claim::Slt { root, .. }
            | Claim::Controller { root, .. } => Some(root),
            Claim::SptCentr { source }
            | Claim::SptSynch { source, .. }
            | Claim::SptRecur { source, .. }
            | Claim::SptHybrid { source, .. } => Some(source),
            Claim::BetaStar { leader, .. } | Claim::BetaW { leader, .. } => Some(leader),
            Claim::AlphaStar { .. }
            | Claim::GammaStar { .. }
            | Claim::AlphaW { .. }
            | Claim::GammaW { .. } => None,
        }
    }
}

/// The Figure 1 rows: [`Max`] over `kind`'s tree.
fn global<V: ProcessVisitor>(
    visitor: V,
    g: &WeightedGraph,
    root: NodeId,
    inputs: &[u64],
    kind: TreeKind,
) -> V::Output {
    assert_eq!(inputs.len(), g.node_count(), "one input per vertex");
    let tree = kind.build(g, root);
    assert!(tree.is_spanning(), "graph must be connected");
    visitor.visit(
        |v, g| GlobalFunction::new(v, g, Max, inputs[v.index()], &tree),
        |run| Outcome {
            outputs: run
                .states
                .iter()
                .map(|s| s.result().expect("every vertex outputs"))
                .collect(),
            tree: Some(tree.clone()),
            ..Outcome::of(run.cost)
        },
    )
}

/// `MST_centr` and `SPT_centr`: the growth engine under `rule`.
fn growth<V: ProcessVisitor, R: GrowthRule + Send + Sync>(
    visitor: V,
    g: &WeightedGraph,
    root: NodeId,
    rule: R,
) -> V::Output {
    visitor.visit(
        move |v, g| FullInfoGrowth::new(v, g, root, rule.clone()),
        |run| full_info::outcome(g, root, run),
    )
}

/// A clock synchronizer's outcome: every vertex generated every pulse.
fn pulsed<P>(run: Run<P>, pulses: u64, times: impl Fn(&P) -> &[SimTime]) -> Outcome {
    let times: Vec<Vec<SimTime>> = run.states.iter().map(|s| times(s).to_vec()).collect();
    assert!(
        times.iter().all(|ts| ts.len() == pulses as usize),
        "every vertex must generate every pulse"
    );
    Outcome {
        pulses: PulseStats { times },
        ..Outcome::of(run.cost)
    }
}

/// A network synchronizer's outcome: nothing left buffered past the
/// horizon.
fn hosted<P>(run: Run<P>, undelivered: impl Fn(&P) -> usize) -> Outcome {
    let left: usize = run.states.iter().map(undelivered).sum();
    assert_eq!(
        left, 0,
        "{left} hosted messages undelivered past the horizon"
    );
    Outcome::of(run.cost)
}

/// The Section 4 rows' hosted load: a protocol that does nothing but
/// stay alive until pulse `.0`, so every message is the synchronizer's.
#[derive(Clone, Debug)]
struct Idle(u64);

impl SyncProcess for Idle {
    type Msg = ();

    fn on_pulse(&mut self, pulse: u64, _inbox: &[(NodeId, ())], ctx: &mut SyncContext<'_, ()>) {
        if pulse == 0 && self.0 > 0 {
            ctx.wake_at(self.0);
        } else if pulse >= self.0 {
            ctx.finish();
        }
    }
}

/// The Section 5 row's runaway: a token that never stops. The initiator
/// (`.0`) sends it to its first neighbor and every vertex passes it to
/// the neighbor after the one it came from — on a path, a patrol from
/// end to end, so consumption happens at every depth of the execution
/// tree.
#[derive(Clone, Debug)]
struct Patrol(bool);

impl Process for Patrol {
    type Msg = ();

    fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
        let first = ctx.neighbors().next().map(|(u, _, _)| u);
        if let Some(u) = first.filter(|_| self.0) {
            ctx.send(u, ());
        }
    }

    fn on_message(&mut self, from: NodeId, _msg: (), ctx: &mut Context<'_, ()>) {
        let neighbors: Vec<NodeId> = ctx.neighbors().map(|(u, _, _)| u).collect();
        let came = neighbors
            .iter()
            .position(|&u| u == from)
            .expect("from a neighbor");
        ctx.send(neighbors[(came + 1) % neighbors.len()], ());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_graph::generators::{self, WeightDist};
    use csp_sim::{DelayModel, ModelOracle};

    fn run(row: &Claim, g: &WeightedGraph, delay: DelayModel, seed: u64) -> Outcome {
        row.run(g, ModelOracle::new(delay, seed)).unwrap()
    }

    fn worst(row: &Claim, g: &WeightedGraph) -> Outcome {
        run(row, g, DelayModel::WorstCase, 0)
    }

    /// `row`'s measures on `g` against its checked bounds.
    fn admitted(row: &Claim, g: &WeightedGraph, out: &Outcome) -> bool {
        row.bounds(g, &CostParams::of(g)).admit(row.measure(out))
    }

    #[test]
    fn alpha_star_pulse_delay_is_theta_w() {
        let g = generators::heavy_chord_cycle(12, 200);
        let row = Claim::AlphaStar { pulses: 5 };
        let out = worst(&row, &g);
        // Exactly W under worst-case delays: the heavy chord dominates.
        assert_eq!(out.pulses.max_pulse_delay(), g.max_weight().get());
        assert!(out.pulses.is_monotone() && admitted(&row, &g, &out));
        for seed in 0..4 {
            let g = generators::grid(3, 4, WeightDist::Uniform(1, 30), 4);
            let out = run(
                &Claim::AlphaStar { pulses: 4 },
                &g,
                DelayModel::Uniform,
                seed,
            );
            assert!(out.pulses.is_monotone());
        }
    }

    #[test]
    fn clock_synchronizer_message_counts() {
        // α*: each vertex announces pulses 0..=4 (not the last) to 2
        // neighbors; a single pulse needs no messages.
        let cycle = generators::cycle(8, |_| 3);
        assert_eq!(
            worst(&Claim::AlphaStar { pulses: 6 }, &cycle).cost.messages,
            8 * 2 * 5
        );
        let path = generators::path(3, |_| 2);
        assert_eq!(
            worst(&Claim::AlphaStar { pulses: 1 }, &path).cost.messages,
            0
        );
        // β*: per pulse transition, n−1 Done + n−1 Next messages.
        let path = generators::path(6, |_| 4);
        let leader = NodeId::new(0);
        let beta = worst(&Claim::BetaStar { leader, pulses: 5 }, &path);
        assert_eq!(beta.cost.messages, 2 * 5 * 4);
    }

    #[test]
    fn beta_star_delay_is_a_tree_round_trip_not_w() {
        // Heavy chords make W large, but β* never touches them: its delay
        // is bounded by a light-tree round trip.
        let g = generators::heavy_chord_cycle(12, 500);
        let row = Claim::BetaStar {
            leader: NodeId::new(0),
            pulses: 5,
        };
        let out = worst(&row, &g);
        assert!(admitted(&row, &g, &out), "β* delay > 2·D̂ + 2");
        assert!(out.pulses.max_pulse_delay() < g.max_weight().get());
        let g = generators::grid(3, 4, WeightDist::Uniform(1, 10), 2);
        assert!(worst(&row, &g).pulses.is_monotone());
        let g = generators::connected_gnp(14, 0.3, WeightDist::Uniform(1, 20), 3);
        for seed in 0..3 {
            let row = Claim::BetaStar {
                leader: NodeId::new(2),
                pulses: 4,
            };
            run(&row, &g, DelayModel::Uniform, seed);
        }
    }

    #[test]
    fn gamma_star_beats_alpha_star_when_d_is_small() {
        // d ≪ W: γ*'s pulse delay must undercut α*'s Θ(W), within
        // O(d·log² n).
        let g = generators::heavy_chord_cycle(16, 4_000);
        assert!(CostParams::of(&g).max_neighbor_distance.get() < 20);
        let gamma = worst(&Claim::GammaStar { pulses: 4 }, &g)
            .pulses
            .max_pulse_delay();
        let alpha = worst(&Claim::AlphaStar { pulses: 4 }, &g)
            .pulses
            .max_pulse_delay();
        assert!(
            gamma < alpha,
            "γ* delay {gamma} should beat α* delay {alpha}"
        );
        let g = generators::heavy_chord_cycle(20, 10_000);
        let row = Claim::GammaStar { pulses: 4 };
        let out = worst(&row, &g);
        assert!(admitted(&row, &g, &out), "γ* delay > 12·d·log²n");
        let g = generators::heavy_chord_cycle(10, 100);
        assert!(worst(&row, &g).pulses.is_monotone());
        let g = generators::grid(3, 4, WeightDist::Uniform(1, 40), 6);
        for seed in 0..3 {
            run(
                &Claim::GammaStar { pulses: 3 },
                &g,
                DelayModel::Uniform,
                seed,
            );
        }
    }

    #[test]
    fn alpha_w_costs_e_hat_per_pulse_and_w_time() {
        let g = generators::heavy_chord_cycle(12, 400);
        let p = CostParams::of(&g);
        let pulses = 5;
        let cost = worst(&Claim::AlphaW { pulses }, &g).cost;
        // Safe tokens: one per edge direction per pulse, including the
        // final pulse's announcement → 2·Ê·(pulses + 1).
        assert_eq!(
            cost.comm_of(CostClass::Synchronizer),
            p.total_weight * (2 * (pulses as u128 + 1))
        );
        // Time per pulse is pinned to W.
        assert!(
            u128::from(cost.completion.get()) >= p.max_weight.get() as u128 * pulses as u128,
            "α_w must pay Θ(W) per pulse"
        );
    }

    #[test]
    fn beta_w_costs_a_tree_per_pulse_not_e_hat() {
        // β_w's per-pulse communication is two tree sweeps — independent
        // of the heavy chords that dominate Ê — but its per-pulse time is
        // a tree round trip: ≥ D̂ on this family.
        let g = generators::heavy_chord_cycle(16, 5_000);
        let p = CostParams::of(&g);
        let pulses = 6;
        let row = Claim::BetaW {
            leader: NodeId::new(0),
            pulses,
        };
        let cost = worst(&row, &g).cost;
        let per_pulse = cost.comm_of(CostClass::Synchronizer).get() / (pulses as u128 + 1);
        assert!(
            per_pulse < p.total_weight.get() / 4,
            "β_w per-pulse {per_pulse} ≥ Ê/4"
        );
        let per_pulse_time = cost.completion.get() / pulses;
        assert!(Cost::new(per_pulse_time as u128) >= p.weighted_diameter);
    }

    #[test]
    fn the_controller_cuts_the_patrol_off() {
        let g = generators::path(24, |_| 1);
        for policy in [GrantPolicy::Naive, GrantPolicy::Caching] {
            let row = Claim::Controller {
                root: NodeId::new(0),
                threshold: 100,
                policy,
            };
            let out = worst(&row, &g);
            assert!(out.suspended, "{policy:?}");
            assert!(out.cost.comm_of(CostClass::Protocol).get() <= 200);
            assert!(admitted(&row, &g, &out), "{policy:?}: total > 4·c·log²c");
        }
    }

    #[test]
    fn sequential_compositions_offset_every_class_completion() {
        // Each attempt or pass lands after the ones before it, so the
        // class delivering last finished when the whole run did.
        let g = generators::lower_bound_family(12, 8);
        let root = NodeId::new(0);
        for row in [
            Claim::ConHybrid { root },
            Claim::MstHybrid { root },
            Claim::SptHybrid {
                source: root,
                delta: 4,
                k: 2,
            },
            Claim::Slt { root, q: 2 },
        ] {
            let cost = worst(&row, &g).cost;
            let last = CostClass::ALL
                .map(|c| cost.completion_of(c))
                .into_iter()
                .max();
            assert!(
                cost.completion_of(CostClass::Protocol) > SimTime::ZERO,
                "{row:?}"
            );
            assert_eq!(last, Some(cost.completion), "{row:?}");
        }
    }

    #[test]
    fn only_sequential_compositions_lack_a_process() {
        struct Count;
        impl ProcessVisitor for Count {
            type Output = ();
            fn visit<P, F, C>(self, _make: F, _check: C)
            where
                P: Process + Clone + Send + Sync,
                P::Msg: Send + Sync,
                F: Fn(NodeId, &WeightedGraph) -> P + Sync,
                C: FnOnce(Run<P>) -> Outcome,
            {
            }
        }
        let g = generators::cycle(6, |i| i as u64 + 1);
        let root = NodeId::new(0);
        let sequential = [
            Claim::ConHybrid { root },
            Claim::MstHybrid { root },
            Claim::SptHybrid {
                source: root,
                delta: 2,
                k: 2,
            },
            Claim::Slt { root, q: 2 },
        ];
        for row in sequential {
            assert!(row.visit(&g, Count).is_none(), "{row:?}");
        }
        assert!(Claim::GammaW { k: 2, pulses: 3 }.visit(&g, Count).is_some());
    }
}
