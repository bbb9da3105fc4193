//! Self-healing broadcast and shortest paths: crash-tolerant variants
//! of `CON_flood` (Section 6.1) and the SPT protocols (Section 9).
//!
//! The paper's protocols assume a fixed fault-free network. [`Resilient`]
//! is one distance-vector state machine covering both weighted regimes
//! that *survives vertex crashes*: hosted under the simulator's
//! [`Detect`] failure detector (and optionally the
//! [`Reliable`](csp_sim::Reliable) retransmission wrapper), it reacts
//! to `peer_suspected` / `channel_failed` upcalls by routing around
//! dead channels and re-parenting orphaned subtrees.
//!
//! # The protocol
//!
//! Every vertex keeps, per neighbor, the neighbor's last *announced*
//! distance to the source (its **offer**), and computes its own distance
//! as the minimum of `offer(u) + cost(u, v)` over live neighbors — where
//! `cost` is `1` under [`Metric::Hops`] (flood: reach everyone, build a
//! tree) and `w(e)` under [`Metric::Weighted`] (SPT: exact weighted
//! distances). Whenever its own distance changes it announces the new
//! value to all live neighbors; a vertex with no surviving support
//! announces a *retraction* (`None`), which cascades through any subtree
//! the crash orphaned. A count-to-infinity bound (`n - 1` hops, total
//! graph weight respectively) converts loop-supported climbing into
//! retraction in bounded time.
//!
//! Fault upcalls are the only crash input: when the detector suspects a
//! peer (or the reliability layer abandons its channel), the vertex
//! marks the peer dead, discards its offer, ignores any straggler
//! traffic from it, and recomputes.
//!
//! # Churn: rejoins and drift
//!
//! Under a churn adversary a crashed vertex may *rejoin* with fresh
//! protocol state. The detector revokes the suspicion on the rejoined
//! incarnation's first life sign and delivers
//! [`FaultAware::on_peer_restored`]; the vertex clears its dead mark and
//! stale offer and **re-announces its own distance to the restored peer**
//! — metered under [`CostClass::Auxiliary`], the measurable price of
//! state re-synchronisation — so the blank incarnation re-enters the
//! Bellman fixpoint. Routes then reconverge to the exact distances of
//! the final surviving component; [`reconvergence_violation`] checks
//! both the routes and that the protocol's own traffic settled within a
//! detector-derived horizon of the last churn event. The contract
//! requires each crash to be *suspected before the matching rejoin*
//! (rejoin at or after the crash plus the channel's `θ(e)`): an
//! invisible crash–rejoin leaves a blank incarnation nobody re-syncs.
//!
//! Mid-run *weight drift* moves delays, cost metering and the detector's
//! timeouts, but not the routing objective: distances remain defined by
//! the static topology weights. Reacting to revisions would need a drift
//! upcall no vertex receives — deliberately out of scope, and stated
//! here rather than papered over.
//!
//! # Correctness contract
//!
//! Let `C` be the surviving component of the source — the vertices
//! reachable from it in the subgraph induced by non-crashed vertices
//! ([`surviving_component`](csp_graph::algo::surviving_component)).
//! If every crash is detected (it is whenever crashes fall within the
//! detector's [`detection_horizon`](DetectConfig::detection_horizon)),
//! then at quiescence **every vertex of `C` holds exactly its distance
//! from the source in the live-induced subgraph**, with parent pointers
//! forming a tree on `C` rooted at the source; every live vertex outside
//! `C` holds `None`. If the source itself crashes the contract is
//! vacuous (all survivors eventually retract to `None`).
//!
//! The fixpoint argument: once all dead offers are cleared and all
//! announcements delivered, the offer tables satisfy the Bellman
//! equations of the live-induced subgraph, whose unique bounded solution
//! is the true distance vector — any loop-supported value would strictly
//! decrease along its own support chain without reaching the source,
//! and values above the bound are forced to `None`.

use csp_graph::{NodeId, WeightedGraph};
use csp_sim::{
    Context, CostClass, CostReport, Detect, DetectConfig, FaultAware, LinkOracle, Process, Run,
    SimError, Simulator,
};

/// Which cost the distance-vector computation minimizes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Metric {
    /// Every edge costs 1: distances are hop counts and the protocol is
    /// a crash-tolerant flood (reach the surviving component, build a
    /// BFS-style tree over it).
    Hops,
    /// Every edge costs `w(e)`: distances are weighted and the protocol
    /// is a crash-tolerant SPT.
    Weighted,
}

/// Per-vertex state of the self-healing distance-vector protocol. See
/// the [module docs](self) for the algorithm and its contract.
#[derive(Clone, Debug)]
pub struct Resilient {
    me: NodeId,
    source: NodeId,
    metric: Metric,
    /// Count-to-infinity cutoff: candidate distances above this are
    /// treated as unreachable.
    bound: u64,
    dist: Option<u64>,
    parent: Option<NodeId>,
    /// Last announced distance per vertex id (entries for non-neighbors
    /// stay `None` forever).
    offers: Vec<Option<u64>>,
    /// Neighbors marked dead by a fault upcall.
    dead: Vec<bool>,
    /// Restore upcalls consumed (rejoined neighbors re-synced).
    restored: u64,
}

impl Resilient {
    /// Creates the state for vertex `v` computing distances from
    /// `source` under `metric` on `g`.
    ///
    /// The count-to-infinity bound is derived from the graph: `n - 1`
    /// for [`Metric::Hops`], the total edge weight for
    /// [`Metric::Weighted`] — both upper bounds on any real distance, so
    /// the cutoff never truncates a true value.
    pub fn new(v: NodeId, source: NodeId, metric: Metric, g: &WeightedGraph) -> Self {
        g.check_node(v);
        g.check_node(source);
        let bound = match metric {
            Metric::Hops => g.node_count().saturating_sub(1) as u64,
            Metric::Weighted => g.edges().map(|e| e.weight().get()).sum(),
        };
        Resilient {
            me: v,
            source,
            metric,
            bound,
            dist: None,
            parent: None,
            offers: vec![None; g.node_count()],
            dead: vec![false; g.node_count()],
            restored: 0,
        }
    }

    /// The vertex's current distance to the source (`None` = no
    /// surviving support).
    pub fn dist(&self) -> Option<u64> {
        self.dist
    }

    /// The supporting neighbor (`None` at the source and at unreached
    /// vertices).
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// Number of neighbors *currently* marked dead — a restoration
    /// clears the mark again, so at quiescence this counts the
    /// final-down channels.
    pub fn dead_neighbor_count(&self) -> usize {
        self.dead.iter().filter(|&&d| d).count()
    }

    /// Number of restore upcalls consumed: rejoined neighbors this
    /// vertex re-synchronised with an [`CostClass::Auxiliary`]
    /// re-announcement.
    pub fn restored_count(&self) -> u64 {
        self.restored
    }

    fn edge_cost(&self, w: csp_graph::Weight) -> u64 {
        match self.metric {
            Metric::Hops => 1,
            Metric::Weighted => w.get(),
        }
    }

    /// Recomputes `dist`/`parent` from the live offers; announces the
    /// distance to all live neighbors if it changed.
    fn recompute(&mut self, ctx: &mut Context<'_, Option<u64>>) {
        let g = ctx.graph();
        let (new_dist, new_parent) = if self.me == self.source {
            (Some(0), None)
        } else {
            // Deterministic tie-break: first neighbor in adjacency
            // order achieving the minimum.
            let mut best: Option<(u64, NodeId)> = None;
            for (u, _, w) in g.neighbors(self.me) {
                if self.dead[u.index()] {
                    continue;
                }
                if let Some(d) = self.offers[u.index()] {
                    let c = d.saturating_add(self.edge_cost(w));
                    if c <= self.bound && best.is_none_or(|(b, _)| c < b) {
                        best = Some((c, u));
                    }
                }
            }
            match best {
                Some((d, u)) => (Some(d), Some(u)),
                None => (None, None),
            }
        };
        self.parent = new_parent;
        if new_dist != self.dist {
            self.dist = new_dist;
            self.announce(ctx);
        }
    }

    fn announce(&mut self, ctx: &mut Context<'_, Option<u64>>) {
        let g = ctx.graph();
        for (u, _, _) in g.neighbors(self.me) {
            if !self.dead[u.index()] {
                ctx.send_class(u, self.dist, CostClass::Protocol);
            }
        }
    }

    fn mark_dead(&mut self, peer: NodeId, ctx: &mut Context<'_, Option<u64>>) {
        if self.dead[peer.index()] {
            return; // e.g. suspected after the channel already failed
        }
        self.dead[peer.index()] = true;
        self.offers[peer.index()] = None;
        self.recompute(ctx);
    }
}

impl Process for Resilient {
    type Msg = Option<u64>;

    fn on_start(&mut self, ctx: &mut Context<'_, Option<u64>>) {
        if self.me == self.source {
            self.dist = Some(0);
            self.announce(ctx);
        }
    }

    fn on_message(&mut self, from: NodeId, offer: Option<u64>, ctx: &mut Context<'_, Option<u64>>) {
        if self.dead[from.index()] {
            return; // straggler from a suspected peer
        }
        self.offers[from.index()] = offer;
        self.recompute(ctx);
    }
}

impl FaultAware for Resilient {
    fn on_channel_failed(&mut self, peer: NodeId, ctx: &mut Context<'_, Option<u64>>) {
        self.mark_dead(peer, ctx);
    }

    fn on_peer_suspected(&mut self, peer: NodeId, ctx: &mut Context<'_, Option<u64>>) {
        self.mark_dead(peer, ctx);
    }

    fn on_peer_restored(&mut self, peer: NodeId, ctx: &mut Context<'_, Option<u64>>) {
        self.dead[peer.index()] = false;
        self.offers[peer.index()] = None;
        self.restored += 1;
        // State re-synchronisation: the restarted incarnation knows
        // nothing, so hand it our current distance. Metered Auxiliary —
        // recovery overhead, not forward progress — and unconditional:
        // even a `None` tells the rejoined vertex this channel offers no
        // support. Its own recompute-and-announce cascade (Protocol
        // class) folds it back into the Bellman fixpoint.
        ctx.send_class(peer, self.dist, CostClass::Auxiliary);
    }
}

/// Outcome of a self-healing run.
#[derive(Debug, PartialEq)]
pub struct ResilientOutcome {
    /// Per-vertex distance to the source at quiescence (`None` at
    /// crashed, retracted and never-reached vertices).
    pub dists: Vec<Option<u64>>,
    /// Per-vertex supporting neighbor — parent pointers of the recovery
    /// tree over the surviving component.
    pub parents: Vec<Option<NodeId>>,
    /// Channels still marked dead at quiescence, summed over all
    /// vertices (each surviving endpoint of a final-down channel counts
    /// once; a restored channel no longer counts).
    pub suspected_links: usize,
    /// Restore upcalls consumed over all vertices: each one paid an
    /// `Auxiliary` re-announcement toward the rejoined neighbor.
    pub restored_links: u64,
    /// Metered costs: announcements under `Protocol`; heartbeats, acks
    /// and retransmissions under `Auxiliary`. Fault meters (`drops`,
    /// `crashed_nodes`, `dead_events`, `recoveries`,
    /// `weight_revisions`) record what the adversary did.
    pub cost: CostReport,
}

impl ResilientOutcome {
    /// Reads a finished run of any stack hosting [`Resilient`]; `peel`
    /// reaches the protocol inside one vertex's stack (`Detect::inner`
    /// for `Detect<Resilient>`, `|d| d.inner().inner()` for
    /// `Detect<Reliable<Resilient>>`). The run is taken by value, so its
    /// [`CostReport`] moves into the outcome.
    pub fn of<S>(run: Run<S>, peel: impl Fn(&S) -> &Resilient) -> Self {
        let peeled = || run.states.iter().map(&peel);
        ResilientOutcome {
            dists: peeled().map(Resilient::dist).collect(),
            parents: peeled().map(Resilient::parent).collect(),
            suspected_links: peeled().map(Resilient::dead_neighbor_count).sum(),
            restored_links: peeled().map(Resilient::restored_count).sum(),
            cost: run.cost,
        }
    }
}

/// Runs the crash-tolerant SPT ([`Metric::Weighted`]) under `oracle` on
/// the `Detect<Resilient>` stack.
///
/// Any other stack — the hop metric, or [`Reliable`](csp_sim::Reliable)
/// under the detector when the adversary also drops messages — is one
/// [`Simulator`] run read by [`ResilientOutcome::of`].
///
/// # Errors
///
/// Propagates [`SimError`] from the simulator.
///
/// # Panics
///
/// Panics if `s` is out of range.
pub fn run_resilient_spt<O>(
    g: &WeightedGraph,
    s: NodeId,
    oracle: &mut O,
    cfg: DetectConfig,
) -> Result<ResilientOutcome, SimError>
where
    O: LinkOracle + ?Sized,
{
    g.check_node(s);
    let run = Simulator::new(g).run_with_oracle(oracle, |v, _| {
        Detect::new(Resilient::new(v, s, Metric::Weighted, g), cfg)
    })?;
    Ok(ResilientOutcome::of(run, Detect::inner))
}

/// Checks the self-healing contract against the reference subgraph
/// answers: exact distances on the surviving component of `source`,
/// `None` everywhere else, and parent pointers realizing the distances.
///
/// Returns the first violated vertex, or `None` when the contract
/// holds. `dead[v]` must mark exactly the crashed vertices.
///
/// # Panics
///
/// Panics if `dead.len() != n`.
pub fn contract_violation(
    g: &WeightedGraph,
    source: NodeId,
    metric: Metric,
    dead: &[bool],
    out: &ResilientOutcome,
) -> Option<NodeId> {
    let reference: Vec<Option<u64>> = match metric {
        Metric::Hops => csp_graph::algo::surviving_hop_distances(g, source, dead)
            .into_iter()
            .map(|d| d.map(|h| h as u64))
            .collect(),
        Metric::Weighted => csp_graph::algo::surviving_distances(g, source, dead)
            .into_iter()
            .map(|d| d.map(|c| u64::try_from(c.get()).expect("distance fits u64")))
            .collect(),
    };
    for v in g.nodes() {
        if dead[v.index()] {
            continue; // crashed vertices report nothing
        }
        if out.dists[v.index()] != reference[v.index()] {
            return Some(v);
        }
        // A reached non-source vertex's parent must be a live neighbor
        // whose distance accounts for its own.
        if v != source && reference[v.index()].is_some() {
            let Some(p) = out.parents[v.index()] else {
                return Some(v);
            };
            let Some(&(_, _, w)) = g
                .neighbors(v)
                .collect::<Vec<_>>()
                .iter()
                .find(|&&(u, _, _)| u == p)
            else {
                return Some(v);
            };
            let step = match metric {
                Metric::Hops => 1,
                Metric::Weighted => w.get(),
            };
            if dead[p.index()] || reference[p.index()].map(|d| d + step) != reference[v.index()] {
                return Some(v);
            }
        }
    }
    None
}

/// How a post-heal run failed [`reconvergence_violation`]'s checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReconvergenceViolation {
    /// A vertex holds a wrong distance or parent (the
    /// [`contract_violation`] route checks against the final
    /// surviving component).
    Route(NodeId),
    /// Routes are correct but healed too slowly: the last
    /// `Protocol`-class delivery landed after the deadline.
    Late {
        /// When the protocol's own traffic actually settled.
        settled: csp_sim::SimTime,
        /// The deadline it had to settle by: `last_churn + horizon`.
        deadline: csp_sim::SimTime,
    },
}

/// Post-heal route verifier: checks that after the *last* churn event
/// (crash, rejoin, or weight revision at `last_churn`) the protocol
/// reconverged to the exact distances of the final surviving component
/// — `dead[v]` marks the vertices down at the end of the run — and did
/// so promptly: its own (`Protocol`-class) traffic settled within
/// `horizon` ticks of `last_churn`. Pass the detector's
/// [`detection_horizon`](DetectConfig::detection_horizon) at the
/// graph's maximum weight for `horizon` — the completeness window the
/// detector itself promises.
///
/// Returns the first violation found, or `None` when the contract
/// holds.
///
/// # Panics
///
/// Panics if `dead.len() != g.node_count()`.
pub fn reconvergence_violation(
    g: &WeightedGraph,
    source: NodeId,
    metric: Metric,
    dead: &[bool],
    last_churn: csp_sim::SimTime,
    horizon: u64,
    out: &ResilientOutcome,
) -> Option<ReconvergenceViolation> {
    if let Some(v) = contract_violation(g, source, metric, dead, out) {
        return Some(ReconvergenceViolation::Route(v));
    }
    let settled = out.cost.completion_of(CostClass::Protocol);
    let deadline = last_churn + horizon;
    if settled > deadline {
        return Some(ReconvergenceViolation::Late { settled, deadline });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_graph::generators::{self, WeightDist};
    use csp_graph::{EdgeId, Weight};
    use csp_sim::{
        ChurnOracle, CoreKind, CrashOracle, DelayModel, DropOracle, EvalPool, ModelOracle,
        NoCapture, Reliable, SimTime,
    };

    fn gnp() -> WeightedGraph {
        generators::connected_gnp(12, 0.3, WeightDist::Uniform(1, 16), 42)
    }

    /// A detector window generous enough that every crash in these
    /// tests falls inside the detection horizon.
    fn wide_cfg() -> DetectConfig {
        DetectConfig::new(4, 60, 0)
    }

    fn crash_only(crashes: Vec<(NodeId, SimTime)>) -> CrashOracle<ModelOracle> {
        CrashOracle::new(ModelOracle::new(DelayModel::WorstCase, 0), crashes)
    }

    /// The crash-tolerant flood: `Detect<Resilient>` under
    /// [`Metric::Hops`] from vertex 0.
    fn flood(g: &WeightedGraph, oracle: &mut impl LinkOracle) -> ResilientOutcome {
        let run = Simulator::new(g)
            .run_with_oracle(oracle, |v, g| {
                Detect::new(
                    Resilient::new(v, NodeId::new(0), Metric::Hops, g),
                    wide_cfg(),
                )
            })
            .unwrap();
        ResilientOutcome::of(run, Detect::inner)
    }

    fn dead_mask(n: usize, crashes: &[(NodeId, SimTime)]) -> Vec<bool> {
        let mut dead = vec![false; n];
        for &(v, _) in crashes {
            dead[v.index()] = true;
        }
        dead
    }

    #[test]
    fn crash_free_flood_matches_plain_bfs() {
        let g = gnp();
        let out = flood(&g, &mut ModelOracle::new(DelayModel::WorstCase, 0));
        let dead = vec![false; g.node_count()];
        assert_eq!(
            contract_violation(&g, NodeId::new(0), Metric::Hops, &dead, &out),
            None
        );
        assert_eq!(out.suspected_links, 0);
        assert!(!out.cost.has_faults());
    }

    #[test]
    fn crash_free_spt_matches_dijkstra() {
        let g = gnp();
        let reference = csp_graph::algo::distances(&g, NodeId::new(0));
        let mut oracle = ModelOracle::new(DelayModel::Uniform, 7);
        let out = run_resilient_spt(&g, NodeId::new(0), &mut oracle, wide_cfg()).unwrap();
        for v in g.nodes() {
            assert_eq!(
                out.dists[v.index()],
                Some(u64::try_from(reference[v.index()].get()).unwrap()),
                "{v}"
            );
        }
    }

    #[test]
    fn flood_survives_a_mid_run_crash() {
        let g = gnp();
        let crashes = vec![(NodeId::new(5), SimTime::new(20))];
        let out = flood(&g, &mut crash_only(crashes.clone()));
        let dead = dead_mask(g.node_count(), &crashes);
        assert_eq!(
            contract_violation(&g, NodeId::new(0), Metric::Hops, &dead, &out),
            None
        );
        // Every live neighbor of the victim marked it dead.
        let neighbors = g.neighbors(NodeId::new(5)).count();
        assert_eq!(out.suspected_links, neighbors);
        assert_eq!(out.cost.crashed_nodes, 1);
    }

    #[test]
    fn spt_reroutes_and_reparents_after_crashes() {
        let g = gnp();
        for victim in [1usize, 3, 7, 10] {
            for at in [0u64, 5, 30, 80] {
                let crashes = vec![(NodeId::new(victim), SimTime::new(at))];
                let mut oracle = crash_only(crashes.clone());
                let out = run_resilient_spt(&g, NodeId::new(0), &mut oracle, wide_cfg()).unwrap();
                let dead = dead_mask(g.node_count(), &crashes);
                assert_eq!(
                    contract_violation(&g, NodeId::new(0), Metric::Weighted, &dead, &out),
                    None,
                    "victim {victim} at t={at}"
                );
            }
        }
    }

    #[test]
    fn double_crash_that_disconnects_retracts_the_cut_off_side() {
        // Path 0-1-2-3: crashing 1 strands 2 and 3, which must retract
        // to None rather than keep pre-crash distances.
        let g = generators::path(4, |_| 2);
        let crashes = vec![(NodeId::new(1), SimTime::new(15))];
        let mut oracle = crash_only(crashes.clone());
        let out = run_resilient_spt(&g, NodeId::new(0), &mut oracle, wide_cfg()).unwrap();
        let dead = dead_mask(4, &crashes);
        assert_eq!(
            contract_violation(&g, NodeId::new(0), Metric::Weighted, &dead, &out),
            None
        );
        assert_eq!(out.dists[2], None);
        assert_eq!(out.dists[3], None);
        assert_eq!(out.parents[3], None, "orphaned subtree must re-parent away");
    }

    #[test]
    fn source_crash_retracts_everyone() {
        let g = gnp();
        let out = flood(
            &g,
            &mut crash_only(vec![(NodeId::new(0), SimTime::new(25))]),
        );
        for v in g.nodes().filter(|&v| v != NodeId::new(0)) {
            assert_eq!(out.dists[v.index()], None, "{v}");
        }
    }

    #[test]
    fn combined_stack_survives_drops_and_a_crash_together() {
        let g = gnp();
        let crashes = vec![(NodeId::new(4), SimTime::new(12))];
        for seed in 0..3 {
            // Drop budget 3 < max_retries 8; loss_tolerance covers the
            // budget so heartbeats cannot false-suspect.
            let lossy = DropOracle::new(DelayModel::Uniform, seed, 0.3, 3);
            let mut oracle = CrashOracle::new(lossy, crashes.clone());
            let cfg = DetectConfig::new(4, 60, 3);
            let run = Simulator::new(&g)
                .run_with_oracle(&mut oracle, |v, g| {
                    let spt = Resilient::new(v, NodeId::new(0), Metric::Weighted, g);
                    Detect::new(Reliable::new(spt, 8), cfg)
                })
                .unwrap();
            let out = ResilientOutcome::of(run, |d| d.inner().inner());
            let dead = dead_mask(g.node_count(), &crashes);
            assert_eq!(
                contract_violation(&g, NodeId::new(0), Metric::Weighted, &dead, &out),
                None,
                "seed {seed}"
            );
            assert!(out.cost.drops > 0, "adversary must actually drop");
        }
    }

    #[test]
    fn crash_rejoin_heals_back_to_exact_distances() {
        let g = gnp();
        let victim = NodeId::new(5);
        // Crash at 20 (suspected by ~60), rejoin at 120: the restarted
        // incarnation is re-synced and the final routes must equal the
        // crash-free answer exactly.
        let mut oracle = ChurnOracle::new(
            ModelOracle::new(DelayModel::WorstCase, 0),
            vec![(victim, vec![SimTime::new(20), SimTime::new(120)])],
            vec![],
        );
        let out = run_resilient_spt(&g, NodeId::new(0), &mut oracle, wide_cfg()).unwrap();
        let dead = vec![false; g.node_count()];
        let horizon = wide_cfg().detection_horizon(16);
        assert_eq!(
            reconvergence_violation(
                &g,
                NodeId::new(0),
                Metric::Weighted,
                &dead,
                SimTime::new(120),
                horizon,
                &out
            ),
            None
        );
        let neighbors = g.neighbors(victim).count() as u64;
        assert_eq!(out.restored_links, neighbors, "every neighbor re-synced");
        assert_eq!(out.suspected_links, 0, "no channel stays marked dead");
        assert_eq!(out.cost.recoveries, 1);
        assert!(out.cost.has_churn());
    }

    #[test]
    fn checkpoints_resume_like_cold_runs_under_churn() {
        // A crash-and-rejoin plus a weight revision: checkpoints hold
        // pending heartbeat and watch timers, stale timers of the
        // crashed incarnation and the stashed rejoin state. Each one,
        // resumed on the core that took it, must end where the cold run
        // does — the scheduler's overflow meter included, which report
        // equality leaves out.
        let g = gnp();
        let oracle = || {
            ChurnOracle::new(
                ModelOracle::new(DelayModel::WorstCase, 0),
                vec![(NodeId::new(5), vec![SimTime::new(20), SimTime::new(120)])],
                vec![(EdgeId::new(3), SimTime::new(60), Weight::new(2))],
            )
        };
        let make = |v, g: &WeightedGraph| {
            Detect::new(
                Resilient::new(v, NodeId::new(0), Metric::Weighted, g),
                wide_cfg(),
            )
        };
        for kind in [CoreKind::Bucket, CoreKind::Heap] {
            let mut sim = Simulator::new(&g);
            sim.core(kind);
            let cold = ResilientOutcome::of(
                sim.run_with_oracle(&mut oracle(), make).unwrap(),
                Detect::inner,
            );
            let mut cps = Vec::new();
            sim.run_with_checkpoints(&mut oracle(), make, 16, &mut cps)
                .unwrap();
            assert!(cps.len() > 20, "{kind:?}: {} checkpoints", cps.len());
            for cp in &cps {
                let (mut pool, mut worst) =
                    (EvalPool::new(), ModelOracle::new(DelayModel::WorstCase, 0));
                sim.execute(cp, &mut pool, &mut worst, &mut (), NoCapture)
                    .unwrap();
                let resumed = ResilientOutcome::of(pool.into_run(), Detect::inner);
                assert_eq!(resumed, cold, "{kind:?} at checkpoint {}", cp.messages());
                assert_eq!(resumed.cost.overflow_pushes, cold.cost.overflow_pushes);
            }
        }
    }

    #[test]
    fn crash_rejoin_recrash_retracts_again() {
        let g = gnp();
        let victim = NodeId::new(5);
        let mut oracle = ChurnOracle::new(
            ModelOracle::new(DelayModel::WorstCase, 0),
            vec![(
                victim,
                vec![SimTime::new(20), SimTime::new(120), SimTime::new(200)],
            )],
            vec![],
        );
        let out = run_resilient_spt(&g, NodeId::new(0), &mut oracle, wide_cfg()).unwrap();
        // Down at the end: the healed-then-recrashed vertex must be
        // routed around exactly as a plain crash would be.
        let mut dead = vec![false; g.node_count()];
        dead[victim.index()] = true;
        let horizon = wide_cfg().detection_horizon(16);
        assert_eq!(
            reconvergence_violation(
                &g,
                NodeId::new(0),
                Metric::Weighted,
                &dead,
                SimTime::new(200),
                horizon,
                &out
            ),
            None
        );
        let neighbors = g.neighbors(victim).count();
        assert_eq!(out.restored_links, neighbors as u64);
        assert_eq!(
            out.suspected_links, neighbors,
            "recrash re-marked the links"
        );
        assert_eq!(out.cost.recoveries, 1);
    }

    #[test]
    fn drift_moves_cost_but_not_the_routing_objective() {
        // Weight drift changes delays, metering and detector timeouts;
        // the distance-vector objective stays the static weights (the
        // module docs state this honestly). Drift lands exactly on an
        // arrival instant of the revised edge so the detector's live
        // θ(e) absorbs the slowdown without a false suspicion.
        let g = generators::path(4, |_| 2);
        let mut oracle = ChurnOracle::new(
            ModelOracle::new(DelayModel::WorstCase, 0),
            vec![],
            vec![(
                csp_graph::EdgeId::new(1),
                SimTime::new(10),
                csp_graph::Weight::new(6),
            )],
        );
        let out = run_resilient_spt(&g, NodeId::new(0), &mut oracle, wide_cfg()).unwrap();
        let dead = vec![false; 4];
        assert_eq!(
            contract_violation(&g, NodeId::new(0), Metric::Weighted, &dead, &out),
            None
        );
        assert_eq!(out.dists, vec![Some(0), Some(2), Some(4), Some(6)]);
        assert_eq!(out.suspected_links, 0, "drift must not false-suspect");
        assert_eq!(out.cost.weight_revisions, 1);
        assert!(out.cost.has_churn());
    }

    #[test]
    fn late_crash_forces_recovery_traffic() {
        // A crash after convergence makes the protocol redo work: its
        // weighted protocol traffic strictly exceeds the time-0 crash
        // run, where the victim never participated.
        let g = gnp();
        let victim = NodeId::new(5);
        let run_at = |t: u64| {
            let mut oracle = crash_only(vec![(victim, SimTime::new(t))]);
            run_resilient_spt(&g, NodeId::new(0), &mut oracle, wide_cfg()).unwrap()
        };
        let early = run_at(0);
        let late = run_at(60);
        let dead = dead_mask(g.node_count(), &[(victim, SimTime::new(0))]);
        assert_eq!(
            contract_violation(&g, NodeId::new(0), Metric::Weighted, &dead, &early),
            None
        );
        assert_eq!(
            contract_violation(&g, NodeId::new(0), Metric::Weighted, &dead, &late),
            None
        );
        assert!(
            late.cost.comm_of(CostClass::Protocol) > early.cost.comm_of(CostClass::Protocol),
            "late {} vs early {}",
            late.cost.comm_of(CostClass::Protocol),
            early.cost.comm_of(CostClass::Protocol)
        );
    }

    #[test]
    fn the_runner_is_one_run_read_by_of() {
        // Drops, a crash-rejoin chain and a weight revision, so every
        // field of the outcome — the fault and churn meters included —
        // is exercised by the comparison.
        let g = gnp();
        let oracle = || {
            ChurnOracle::new(
                DropOracle::new(DelayModel::Uniform, 3, 0.2, 1),
                vec![(NodeId::new(5), vec![SimTime::new(20), SimTime::new(120)])],
                vec![(
                    csp_graph::EdgeId::new(2),
                    SimTime::new(40),
                    csp_graph::Weight::new(9),
                )],
            )
        };
        let cfg = DetectConfig::new(4, 60, 1);
        let runner = run_resilient_spt(&g, NodeId::new(0), &mut oracle(), cfg).unwrap();
        let run = Simulator::new(&g)
            .run_with_oracle(&mut oracle(), |v, g| {
                Detect::new(Resilient::new(v, NodeId::new(0), Metric::Weighted, g), cfg)
            })
            .unwrap();
        assert_eq!(ResilientOutcome::of(run, Detect::inner), runner);
        assert!(runner.cost.has_faults() && runner.cost.has_churn());
    }
}
