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

use super::hosted::Hosted;
use super::layout::{edge_level, next_multiple, LevelLayout};
use csp_graph::{NodeId, WeightedGraph};
use csp_sim::sync::SyncProcess;
use csp_sim::{Context, CostClass, Process};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Messages of the γ_w host.
#[derive(Clone, Debug)]
pub enum HostMsg<M> {
    /// A hosted-protocol payload sent at original pulse `sent`, to be
    /// processed at original pulse `sent + w(e)`.
    Hosted {
        /// The hosted message.
        msg: M,
        /// Sender's original pulse.
        sent: u64,
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
    hosted: Hosted<P>,
    layouts: Arc<Vec<LevelLayout>>,
    /// Virtual-pulse horizon (`4 × until_pulse`).
    until_t: u64,
    /// Current virtual pulse (last executed).
    t: u64,
    /// Outbound hosted messages awaiting their aligned transmission
    /// pulse: `t_send -> [(to, msg, sent)]`.
    pending: BTreeMap<u64, Vec<(NodeId, P::Msg, u64)>>,
    /// Per-level synchronizer state (parallel to `layouts`).
    levels: Vec<LevelState>,
}

impl<P: SyncProcess> GammaWHost<P> {
    /// Builds the level layouts of `g` once — one cluster partition with
    /// parameter `k` per weight class present — and returns the
    /// per-vertex constructor of a run simulating original pulses
    /// `0..=until_pulse`, hosting `make(v, g)` at each vertex `v`.
    ///
    /// Bigger `k` means fatter clusters: fewer inter-cluster
    /// confirmations (less time) at more intra-cluster traffic (more
    /// communication).
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`.
    pub fn factory<F>(
        g: &WeightedGraph,
        k: usize,
        until_pulse: u64,
        make: F,
    ) -> impl Fn(NodeId, &WeightedGraph) -> Self + Sync
    where
        F: Fn(NodeId, &WeightedGraph) -> P + Sync,
    {
        assert!(k >= 2, "partition parameter k must be at least 2");
        let mut exps: Vec<u32> = g.edges().map(|e| edge_level(e.weight().get())).collect();
        exps.sort_unstable();
        exps.dedup();
        let layouts: Arc<Vec<LevelLayout>> = Arc::new(
            exps.into_iter()
                .map(|exp| LevelLayout::build(g, exp, k))
                .collect(),
        );
        move |v, g| GammaWHost {
            hosted: Hosted::new(make(v, g)),
            levels: layouts.iter().map(|_| LevelState::new()).collect(),
            layouts: Arc::clone(&layouts),
            until_t: until_pulse.saturating_mul(4),
            t: 0,
            pending: BTreeMap::new(),
        }
    }

    /// The hosted protocol state (for extraction after the run).
    pub fn hosted(&self) -> &P {
        &self.hosted.state
    }

    /// Hosted messages still buffered — must be empty after a run with a
    /// sufficient pulse horizon.
    pub fn undelivered(&self) -> usize {
        self.hosted.undelivered()
    }

    pub(super) fn into_hosted(self) -> Hosted<P> {
        self.hosted
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
        let g = ctx.graph();
        for (to, msg) in self.hosted.pulse(q, ctx) {
            let eid = g
                .edge_between(ctx.self_id(), to)
                .expect("hosted sends to neighbors");
            let width = 1u64 << edge_level(g.weight(eid).get());
            let t_send = next_multiple(4 * q, width);
            self.pending.entry(t_send).or_default().push((to, msg, q));
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
            for (to, msg, sent) in sends {
                let eid = g
                    .edge_between(ctx.self_id(), to)
                    .expect("hosted sends to neighbors");
                let exp = edge_level(g.weight(eid).get());
                let li = self.level_index(exp);
                self.levels[li].ack_outstanding += 1;
                ctx.send(to, HostMsg::Hosted { msg, sent });
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
            HostMsg::Hosted { msg, sent } => {
                let g = ctx.graph();
                let eid = g
                    .edge_between(ctx.self_id(), from)
                    .expect("from a neighbor");
                let w = g.weight(eid).get();
                let ack = HostMsg::Ack {
                    level: edge_level(w),
                };
                self.hosted.receive(from, msg, sent, sent + w, ack, ctx);
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
