//! The γ_w host: executes a [`SyncProcess`] on an asynchronous network.
//!
//! # How the pieces of Section 4 fit together
//!
//! **Virtual clock.** Every vertex maintains a *virtual pulse* counter
//! `t`. The hosted protocol's original pulse `q` corresponds to `t = 4q`
//! (the ×4 slowdown of Lemma 4.5, Step 1).
//!
//! **Send alignment.** A hosted message sent at original pulse `q` over
//! an edge of original weight `w` and rounded weight `ŵ = power(w) = 2^i`
//! is physically transmitted at virtual pulse `next_ŵ(4q)` (Step 3:
//! sends on class-`i` edges happen only at multiples of `2^i`), and is
//! **buffered at the receiver until virtual pulse `4·(q + w)`** — i.e.
//! the hosted protocol processes it exactly at original pulse `q + w`,
//! so it observes the original synchronous network, message orders,
//! outputs and all. The ×4 slack guarantees the physical transmission
//! completes and is *confirmed* in time:
//! `next_ŵ(4q) + ŵ ≤ 4q + 2ŵ ≤ 4q + 4w ≤ 4(q + w)`.
//!
//! **Safety per weight class.** Every physical transmission is
//! acknowledged. After a vertex passes virtual pulse `c·2^i` (a level-`i`
//! *boundary*), it is **safe** for level-`i` super-pulse `c + 1` once the
//! class-`i` messages it sent at that boundary are all acknowledged
//! (Definition 4.1). Synchronizer γ of \[Awe85a] then confirms the
//! super-pulse on the class-`i` cluster partition: safety convergecasts
//! to each cluster leader, `ClusterSafe` broadcasts back, `NbrSafe`
//! crosses each preferred inter-cluster edge, `NbrUp` relays climb to the
//! leader, and a final `Go` broadcast marks the super-pulse *confirmed*.
//!
//! **Gating.** A vertex may execute virtual pulse `t` only when, for
//! every level `i` with `2^i | t` at which it participates, level-`i`
//! super-pulse `t/2^i` is confirmed. This is exactly the paper's
//! per-pulse condition ("pulse 24 waits for γ₀…γ₃ to carry pulses
//! 24, 12, 6, 3").
//!
//! **Cost.** Per virtual pulse, only the levels dividing it do any work,
//! and a level-`i` sweep costs `O(k)` messages per participating vertex
//! on class-`i` edges: amortized `C(γ_w) = O(k·n·log n)` communication
//! and `T(γ_w) = O(log_k n·log n)` time per pulse (Lemma 4.8).
//!
//! **Termination.** Synchronizers provide pulses; they do not detect the
//! hosted protocol's termination (that is itself a global-function
//! computation, Section 2). The caller supplies the number of original
//! pulses to simulate; the host panics if hosted messages remain
//! buffered past that horizon, so an insufficient horizon cannot pass
//! silently.

use super::layout::{edge_level, next_multiple, LevelLayout};
use csp_graph::{NodeId, WeightedGraph};
use csp_sim::sync::{SyncContext, SyncProcess};
use csp_sim::{Context, CostClass, CostReport, DelayModel, Process, SimError, Simulator};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Configuration of synchronizer γ_w.
#[derive(Clone, Copy, Debug)]
pub struct GammaWConfig {
    /// Cluster partition parameter `k ≥ 2`: bigger `k` means fatter
    /// clusters — fewer inter-cluster confirmations (less time) at more
    /// intra-cluster traffic (more communication).
    pub k: usize,
}

impl GammaWConfig {
    /// Creates a configuration with partition parameter `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 2, "partition parameter k must be at least 2");
        GammaWConfig { k }
    }
}

/// Messages of the γ_w host.
#[derive(Clone, Debug)]
pub enum HostMsg<M> {
    /// A hosted-protocol payload, to be processed at original pulse
    /// `proc`.
    Hosted {
        /// The hosted message.
        msg: M,
        /// Original processing pulse `q + w`.
        proc: u64,
    },
    /// Acknowledgment of a hosted payload on a class-`level` edge.
    Ack {
        /// Weight-class exponent.
        level: u32,
    },
    /// Safety convergecast toward the cluster leader.
    SafeUp {
        /// Weight-class exponent.
        level: u32,
        /// Super-pulse being confirmed.
        round: u64,
    },
    /// Whole-cluster safety, broadcast down the cluster tree.
    ClusterSafe {
        /// Weight-class exponent.
        level: u32,
        /// Super-pulse being confirmed.
        round: u64,
    },
    /// Cross-cluster safety notification over a preferred edge.
    NbrSafe {
        /// Weight-class exponent.
        level: u32,
        /// Super-pulse being confirmed.
        round: u64,
    },
    /// One neighboring cluster's safety, climbing to the leader.
    NbrUp {
        /// Weight-class exponent.
        level: u32,
        /// Super-pulse being confirmed.
        round: u64,
    },
    /// Super-pulse confirmed, broadcast down the cluster tree.
    Go {
        /// Weight-class exponent.
        level: u32,
        /// Super-pulse being confirmed.
        round: u64,
    },
}

/// Per-(level, round) sweep progress at one vertex.
#[derive(Clone, Debug, Default)]
struct Round {
    safe_up: usize,
    cluster_safe_seen: bool,
    nbr_up: usize,
    go: bool,
}

/// Dynamic per-level state at one vertex.
#[derive(Clone, Debug)]
struct LevelState {
    /// Highest confirmed super-pulse.
    confirmed: u64,
    /// Highest boundary super-pulse executed (sends dispatched).
    boundary: u64,
    /// Unacknowledged class sends from the last boundary.
    ack_outstanding: u64,
    /// Sweep progress per round.
    rounds: BTreeMap<u64, Round>,
}

impl LevelState {
    fn new() -> Self {
        LevelState {
            confirmed: 0,
            boundary: 0,
            ack_outstanding: 0,
            rounds: BTreeMap::new(),
        }
    }
}

/// The γ_w host process wrapping one hosted [`SyncProcess`] instance.
#[derive(Clone, Debug)]
pub struct GammaWHost<P: SyncProcess> {
    hosted: P,
    layouts: Arc<Vec<LevelLayout>>,
    /// Virtual-pulse horizon (`4 × until_pulse`).
    until_t: u64,
    /// Current virtual pulse (last executed).
    t: u64,
    /// Hosted messages buffered for future processing pulses.
    buffered: BTreeMap<u64, Vec<(NodeId, P::Msg)>>,
    /// Outbound hosted messages awaiting their aligned transmission
    /// pulse: `t_send -> [(to, msg, proc)]`.
    pending: BTreeMap<u64, Vec<(NodeId, P::Msg, u64)>>,
    /// Hosted wake-up request (original pulses).
    wake_at: Option<u64>,
    /// Hosted protocol declared local termination.
    hosted_finished: bool,
    /// Per-level synchronizer state (parallel to `layouts`).
    levels: Vec<LevelState>,
}

impl<P: SyncProcess> GammaWHost<P> {
    /// Creates a host for one vertex. Most callers should use
    /// [`run_synchronized`]; this is public for custom hosting setups and
    /// diagnostics.
    pub fn new(hosted: P, layouts: Arc<Vec<LevelLayout>>, until_pulse: u64) -> Self {
        let levels: Vec<LevelState> = layouts.iter().map(|_| LevelState::new()).collect();
        GammaWHost {
            hosted,
            layouts,
            until_t: until_pulse.saturating_mul(4),
            t: 0,
            buffered: BTreeMap::new(),
            pending: BTreeMap::new(),
            wake_at: None,
            hosted_finished: false,
            levels,
        }
    }

    /// The hosted protocol state (for extraction after the run).
    pub fn hosted(&self) -> &P {
        &self.hosted
    }

    /// Hosted messages still buffered — must be empty after a run with a
    /// sufficient pulse horizon.
    pub fn undelivered(&self) -> usize {
        self.buffered.values().map(Vec::len).sum()
    }

    /// Whether the hosted protocol declared local termination.
    pub fn hosted_finished(&self) -> bool {
        self.hosted_finished
    }

    /// The last executed virtual pulse (diagnostics).
    pub fn virtual_pulse(&self) -> u64 {
        self.t
    }

    /// Processing pulses of still-buffered hosted messages (diagnostics).
    pub fn buffered_pulses(&self) -> Vec<u64> {
        self.buffered.keys().copied().collect()
    }

    /// Per-level `(exponent, confirmed super-pulse, outstanding acks)`
    /// (diagnostics).
    pub fn level_progress(&self) -> Vec<(u32, u64, u64)> {
        self.layouts
            .iter()
            .zip(self.levels.iter())
            .map(|(l, s)| (l.exp, s.confirmed, s.ack_outstanding))
            .collect()
    }

    fn level_index(&self, exp: u32) -> usize {
        self.layouts
            .iter()
            .position(|l| l.exp == exp)
            .expect("every edge class has a layout")
    }

    /// Runs the hosted protocol at original pulse `q` if it is due, and
    /// queues its sends at their aligned transmission pulses.
    fn host_pulse(&mut self, q: u64, ctx: &mut Context<'_, HostMsg<P::Msg>>) {
        let inbox = self.buffered.remove(&q).unwrap_or_default();
        let woken = self.wake_at == Some(q);
        if q != 0 && inbox.is_empty() && !woken {
            return;
        }
        if woken {
            self.wake_at = None;
        }
        let g = ctx.graph();
        let me = ctx.self_id();
        let mut sctx: SyncContext<'_, P::Msg> = SyncContext::host(me, q, g);
        self.hosted.on_pulse(q, &inbox, &mut sctx);
        let out = sctx.drain();
        assert!(
            out.timers.is_empty() && out.cancels.is_empty(),
            "synchronizer hosts do not forward timers; use wake_at"
        );
        if out.finished {
            self.hosted_finished = true;
        }
        if let Some(w) = out.wake_at {
            self.wake_at = Some(match self.wake_at {
                Some(existing) => existing.min(w),
                None => w,
            });
        }
        for (to, msg) in out.sends {
            let eid = g.edge_between(me, to).expect("hosted sends to neighbors");
            let w = g.weight(eid).get();
            let width = 1u64 << edge_level(w);
            let t_send = next_multiple(4 * q, width);
            let proc = q + w;
            self.pending
                .entry(t_send)
                .or_default()
                .push((to, msg, proc));
        }
    }

    /// Executes virtual pulse `t`: hosted work, aligned transmissions,
    /// and the start of each divisible level's safety round.
    fn execute_pulse(&mut self, t: u64, ctx: &mut Context<'_, HostMsg<P::Msg>>) {
        if t.is_multiple_of(4) {
            self.host_pulse(t / 4, ctx);
        }
        // Physical transmissions aligned at t.
        if let Some(sends) = self.pending.remove(&t) {
            let g = ctx.graph();
            for (to, msg, proc) in sends {
                let eid = g
                    .edge_between(ctx.self_id(), to)
                    .expect("hosted sends to neighbors");
                let exp = edge_level(g.weight(eid).get());
                let li = self.level_index(exp);
                self.levels[li].ack_outstanding += 1;
                ctx.send(to, HostMsg::Hosted { msg, proc });
            }
        }
        // Start the safety round of every level whose boundary this is.
        for li in 0..self.layouts.len() {
            let width = self.layouts[li].width;
            if t.is_multiple_of(width) && self.layouts[li].participates[ctx.self_id().index()] {
                let c = t / width;
                self.levels[li].boundary = self.levels[li].boundary.max(c + 1);
                self.maybe_safe_up(li, c + 1, ctx);
            }
        }
    }

    /// Safety convergecast step for level `li`, round `round`.
    fn maybe_safe_up(&mut self, li: usize, round: u64, ctx: &mut Context<'_, HostMsg<P::Msg>>) {
        let me = ctx.self_id();
        let layout = &self.layouts[li];
        let state = &mut self.levels[li];
        if state.boundary < round || state.ack_outstanding > 0 {
            return;
        }
        let children = layout.children[me.index()].len();
        let round_state = state.rounds.entry(round).or_default();
        if round_state.safe_up != children {
            return;
        }
        let level = layout.exp;
        match layout.parent[me.index()] {
            Some(p) => {
                ctx.send_class(p, HostMsg::SafeUp { level, round }, CostClass::Synchronizer);
            }
            None => self.on_cluster_safe(li, round, ctx),
        }
    }

    /// Whole-cluster safety: broadcast down, notify neighbor clusters,
    /// and re-check the leader's `Go` condition.
    fn on_cluster_safe(&mut self, li: usize, round: u64, ctx: &mut Context<'_, HostMsg<P::Msg>>) {
        let me = ctx.self_id();
        {
            let round_state = self.levels[li].rounds.entry(round).or_default();
            if round_state.cluster_safe_seen {
                return;
            }
            round_state.cluster_safe_seen = true;
        }
        let layout = &self.layouts[li];
        let level = layout.exp;
        for c in layout.children[me.index()].clone() {
            ctx.send_class(
                c,
                HostMsg::ClusterSafe { level, round },
                CostClass::Synchronizer,
            );
        }
        for p in layout.preferred_of[me.index()].clone() {
            ctx.send_class(
                p,
                HostMsg::NbrSafe { level, round },
                CostClass::Synchronizer,
            );
        }
        self.maybe_go(li, round, ctx);
    }

    /// One neighboring cluster is safe: climb toward the leader.
    fn on_nbr_up(&mut self, li: usize, round: u64, ctx: &mut Context<'_, HostMsg<P::Msg>>) {
        let me = ctx.self_id();
        let layout = &self.layouts[li];
        match layout.parent[me.index()] {
            Some(p) => {
                ctx.send_class(
                    p,
                    HostMsg::NbrUp {
                        level: layout.exp,
                        round,
                    },
                    CostClass::Synchronizer,
                );
            }
            None => {
                self.levels[li].rounds.entry(round).or_default().nbr_up += 1;
                self.maybe_go(li, round, ctx);
            }
        }
    }

    /// Leader: cluster safe + all neighboring clusters safe → `Go`.
    fn maybe_go(&mut self, li: usize, round: u64, ctx: &mut Context<'_, HostMsg<P::Msg>>) {
        let me = ctx.self_id();
        let layout = &self.layouts[li];
        if layout.parent[me.index()].is_some() || !layout.is_leader[me.index()] {
            return;
        }
        let needed = layout.nbr_cluster_count[me.index()];
        let ready = {
            let round_state = self.levels[li].rounds.entry(round).or_default();
            round_state.cluster_safe_seen && round_state.nbr_up == needed && !round_state.go
        };
        if ready {
            self.on_go(li, round, ctx);
        }
    }

    /// Confirm the super-pulse, broadcast `Go`, and try to advance.
    fn on_go(&mut self, li: usize, round: u64, ctx: &mut Context<'_, HostMsg<P::Msg>>) {
        let me = ctx.self_id();
        if self.levels[li].confirmed >= round {
            return; // duplicate Go after the round was retired
        }
        {
            let round_state = self.levels[li].rounds.entry(round).or_default();
            if round_state.go {
                return;
            }
            round_state.go = true;
        }
        let layout = &self.layouts[li];
        for c in layout.children[me.index()].clone() {
            ctx.send_class(
                c,
                HostMsg::Go {
                    level: layout.exp,
                    round,
                },
                CostClass::Synchronizer,
            );
        }
        self.levels[li].confirmed = self.levels[li].confirmed.max(round);
        self.levels[li].rounds.remove(&round);
        self.try_advance(ctx);
    }

    /// Advances the virtual clock as far as the gates allow.
    fn try_advance(&mut self, ctx: &mut Context<'_, HostMsg<P::Msg>>) {
        let me = ctx.self_id();
        while self.t < self.until_t {
            let next = self.t + 1;
            let gated = (0..self.layouts.len()).any(|li| {
                let layout = &self.layouts[li];
                layout.participates[me.index()]
                    && next.is_multiple_of(layout.width)
                    && self.levels[li].confirmed < next / layout.width
            });
            if gated {
                return;
            }
            self.t = next;
            self.execute_pulse(next, ctx);
        }
    }
}

impl<P: SyncProcess> Process for GammaWHost<P> {
    type Msg = HostMsg<P::Msg>;

    fn on_start(&mut self, ctx: &mut Context<'_, HostMsg<P::Msg>>) {
        self.execute_pulse(0, ctx);
        self.try_advance(ctx);
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: HostMsg<P::Msg>,
        ctx: &mut Context<'_, HostMsg<P::Msg>>,
    ) {
        match msg {
            HostMsg::Hosted { msg, proc } => {
                let g = ctx.graph();
                let eid = g
                    .edge_between(ctx.self_id(), from)
                    .expect("from a neighbor");
                let level = edge_level(g.weight(eid).get());
                ctx.send_class(from, HostMsg::Ack { level }, CostClass::Synchronizer);
                self.buffered.entry(proc).or_default().push((from, msg));
            }
            HostMsg::Ack { level } => {
                let li = self.level_index(level);
                self.levels[li].ack_outstanding -= 1;
                if self.levels[li].ack_outstanding == 0 {
                    let round = self.levels[li].boundary;
                    self.maybe_safe_up(li, round, ctx);
                }
            }
            HostMsg::SafeUp { level, round } => {
                let li = self.level_index(level);
                self.levels[li].rounds.entry(round).or_default().safe_up += 1;
                self.maybe_safe_up(li, round, ctx);
            }
            HostMsg::ClusterSafe { level, round } => {
                let li = self.level_index(level);
                self.on_cluster_safe(li, round, ctx);
            }
            HostMsg::NbrSafe { level, round } => {
                let li = self.level_index(level);
                self.on_nbr_up(li, round, ctx);
            }
            HostMsg::NbrUp { level, round } => {
                let li = self.level_index(level);
                self.on_nbr_up(li, round, ctx);
            }
            HostMsg::Go { level, round } => {
                let li = self.level_index(level);
                self.on_go(li, round, ctx);
            }
        }
    }
}

/// The shared static structure of a γ_w run on `g`: one
/// [`LevelLayout`] per weight class present in the graph, built with the
/// configuration's partition parameter.
pub fn level_layouts(g: &WeightedGraph, config: &GammaWConfig) -> Arc<Vec<LevelLayout>> {
    let mut exps: Vec<u32> = g.edges().map(|e| edge_level(e.weight().get())).collect();
    exps.sort_unstable();
    exps.dedup();
    Arc::new(
        exps.into_iter()
            .map(|exp| LevelLayout::build(g, exp, config.k))
            .collect(),
    )
}

/// The outcome of a synchronized (hosted) run.
#[derive(Debug)]
pub struct HostedRun<P> {
    /// Final hosted protocol states, indexed by vertex.
    pub states: Vec<P>,
    /// Metered costs of the whole run; hosted traffic is
    /// [`CostClass::Protocol`], synchronizer traffic (acks and sweeps) is
    /// [`CostClass::Synchronizer`].
    pub cost: CostReport,
    /// Number of original pulses simulated.
    pub pulses: u64,
}

/// Runs a synchronous protocol on the asynchronous network `g` under
/// synchronizer γ_w, simulating original pulses `0..=until_pulse`.
///
/// # Errors
///
/// Propagates [`SimError`] from the simulator.
///
/// # Panics
///
/// Panics if hosted messages remain buffered past the horizon — i.e.
/// `until_pulse` was too small for the hosted protocol to finish.
pub fn run_synchronized<P, F>(
    g: &WeightedGraph,
    config: &GammaWConfig,
    until_pulse: u64,
    delay: DelayModel,
    seed: u64,
    mut make: F,
) -> Result<HostedRun<P>, SimError>
where
    P: SyncProcess,
    F: FnMut(NodeId, &WeightedGraph) -> P,
{
    let layouts = level_layouts(g, config);
    let run = Simulator::new(g)
        .delay(delay)
        .seed(seed)
        .run(|v, g| GammaWHost::new(make(v, g), Arc::clone(&layouts), until_pulse))?;
    let undelivered: usize = run.states.iter().map(GammaWHost::undelivered).sum();
    assert_eq!(
        undelivered, 0,
        "until_pulse={until_pulse} too small: {undelivered} hosted messages undelivered"
    );
    let states = run.states.into_iter().map(|h| h.hosted).collect();
    Ok(HostedRun {
        states,
        cost: run.cost,
        pulses: until_pulse,
    })
}

/// Budgeted variant of [`run_synchronized`] for hybrid dovetailing: the
/// run is cut off once its weighted communication exceeds `comm_limit`
/// (the root suspending the attempt). Returns `Ok(None)` — with the cost
/// of the wasted attempt — when the budget did not suffice.
///
/// # Errors
///
/// Propagates [`SimError`] from the simulator.
#[allow(clippy::too_many_arguments)]
pub fn run_synchronized_budgeted<P, F>(
    g: &WeightedGraph,
    config: &GammaWConfig,
    until_pulse: u64,
    comm_limit: u128,
    delay: DelayModel,
    seed: u64,
    mut make: F,
) -> Result<(Option<Vec<P>>, CostReport), SimError>
where
    P: SyncProcess,
    F: FnMut(NodeId, &WeightedGraph) -> P,
{
    let layouts = level_layouts(g, config);
    let run = Simulator::new(g)
        .delay(delay)
        .seed(seed)
        .comm_limit(comm_limit)
        .run(|v, g| GammaWHost::new(make(v, g), Arc::clone(&layouts), until_pulse))?;
    let undelivered: usize = run.states.iter().map(GammaWHost::undelivered).sum();
    if run.truncated || undelivered > 0 {
        return Ok((None, run.cost));
    }
    let states = run.states.into_iter().map(|h| h.hosted).collect();
    Ok((Some(states), run.cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_graph::{generators, Cost};
    use csp_sim::sync::SyncRunner;

    /// The flooding clock from the csp-sim tests: records the pulse at
    /// which each vertex first hears the token. Under exact synchronous
    /// semantics this is the weighted distance from vertex 0.
    #[derive(Clone, Debug)]
    struct SyncFlood {
        heard_at: Option<u64>,
    }

    impl SyncProcess for SyncFlood {
        type Msg = ();

        fn on_pulse(&mut self, pulse: u64, inbox: &[(NodeId, ())], ctx: &mut SyncContext<'_, ()>) {
            let is_source = ctx.self_id() == NodeId::new(0);
            let should_fire =
                (pulse == 0 && is_source) || (!inbox.is_empty() && self.heard_at.is_none());
            if should_fire {
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

    fn check_equivalence(g: &WeightedGraph, k: usize, seed: u64) {
        // Reference: the ideal lock-step synchronous run.
        let ideal = SyncRunner::new(g)
            .run(|_, _| SyncFlood { heard_at: None })
            .unwrap();
        // Last firing pulse plus the heaviest edge covers every echo.
        let horizon = ideal
            .states
            .iter()
            .filter_map(|s| s.heard_at)
            .max()
            .unwrap_or(0)
            + g.max_weight().get()
            + 1;
        // Hosted: the same protocol under γ_w on the asynchronous network.
        let hosted = run_synchronized(
            g,
            &GammaWConfig::new(k),
            horizon,
            DelayModel::Uniform,
            seed,
            |_, _| SyncFlood { heard_at: None },
        )
        .unwrap();
        for v in g.nodes() {
            assert_eq!(
                hosted.states[v.index()].heard_at,
                ideal.states[v.index()].heard_at,
                "output mismatch at {v} (k={k}, seed={seed})"
            );
        }
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
        let hosted = run_synchronized(
            &g,
            &GammaWConfig::new(2),
            10,
            DelayModel::WorstCase,
            0,
            |_, _| SyncFlood { heard_at: None },
        )
        .unwrap();
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
        let _ = run_synchronized(
            &g,
            &GammaWConfig::new(2),
            2, // distances reach 24 — far beyond 2 pulses
            DelayModel::WorstCase,
            0,
            |_, _| SyncFlood { heard_at: None },
        );
    }
}
