//! The execution-tree resource controller.

use csp_graph::{NodeId, WeightedGraph};
use csp_sim::{Context, CostClass, CostReport, DelayModel, Process, SimError, Simulator};
use std::collections::VecDeque;

/// How permits are granted and propagated.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GrantPolicy {
    /// Every request climbs to the root; grants are exact; nothing is
    /// cached. One control round-trip per batch of sends.
    Naive,
    /// The \[AAPS87] scheme: the root grants *double* the request (up to
    /// the remaining threshold) and interior vertices keep the surplus,
    /// serving later requests locally. Control traffic per tree edge is
    /// `O(log² c)`.
    Caching,
}

/// Wrapper messages: the hosted protocol's traffic plus control traffic.
#[derive(Clone, Debug)]
pub enum CtlMsg<M> {
    /// A hosted (authorized) protocol message.
    App(M),
    /// Resource request climbing the execution tree.
    Request {
        /// Units genuinely required right now.
        need: u64,
        /// Units asked for, including the prefetch (`want ≥ need`).
        want: u64,
    },
    /// Permit descending toward the requester.
    Permit {
        /// Units granted.
        amount: u64,
    },
}

/// The controlled wrapper around one vertex's protocol instance.
#[derive(Clone, Debug)]
pub struct Controller<P: Process> {
    hosted: P,
    policy: GrantPolicy,
    is_root: bool,
    threshold: u64,
    /// Units granted by the root so far (root only).
    granted: u64,
    /// The root refused a grant: execution is being cut off (root only).
    suspended: bool,
    /// Execution-tree parent (first App sender).
    parent: Option<NodeId>,
    /// Locally cached permits.
    credit: u64,
    /// Hosted sends awaiting authorization.
    queued: VecDeque<(NodeId, P::Msg, u64)>,
    /// Own units currently requested upward (need part).
    requested: u64,
    /// Children requests waiting for permits from above (FIFO):
    /// `(child, need, want)`.
    child_requests: VecDeque<(NodeId, u64, u64)>,
    /// Units spent from local credit since the last upward request —
    /// the prefetch allowance (AAPS87: surplus is bounded by past
    /// consumption, so total grants stay ≤ 2× total consumption).
    spent_since_request: u64,
}

impl<P: Process> Controller<P> {
    /// Wraps `hosted` at vertex `v`; `root` is the diffusing
    /// computation's initiator and holds the `threshold` counter.
    pub fn new(v: NodeId, root: NodeId, hosted: P, threshold: u64, policy: GrantPolicy) -> Self {
        Controller {
            hosted,
            policy,
            is_root: v == root,
            threshold,
            granted: 0,
            suspended: false,
            parent: None,
            credit: 0,
            queued: VecDeque::new(),
            requested: 0,
            child_requests: VecDeque::new(),
            spent_since_request: 0,
        }
    }

    /// The hosted protocol state.
    pub fn hosted(&self) -> &P {
        &self.hosted
    }

    /// Root only: whether the threshold cut the execution off.
    pub fn suspended(&self) -> bool {
        self.suspended
    }

    /// Root only: units granted.
    pub fn granted(&self) -> u64 {
        self.granted
    }

    /// Queues the hosted outbox and tries to dispatch.
    fn absorb(
        &mut self,
        sends: Vec<(NodeId, P::Msg, CostClass)>,
        ctx: &mut Context<'_, CtlMsg<P::Msg>>,
    ) {
        let g = ctx.graph();
        let me = ctx.self_id();
        for (to, msg, _class) in sends {
            let eid = g.edge_between(me, to).expect("hosted sends to neighbors");
            let cost = g.weight(eid).get();
            self.queued.push_back((to, msg, cost));
        }
        self.pump(ctx);
    }

    /// Serves children first, then own queued sends; requests more when
    /// short.
    fn pump(&mut self, ctx: &mut Context<'_, CtlMsg<P::Msg>>) {
        // Root self-grant: pull from the threshold counter directly.
        if self.is_root {
            let need = self.deficit();
            if need > 0 {
                let grant = self.root_grant(need, need);
                self.credit += grant;
            }
        }
        // Children FIFO: serve `want` when affordable, else at least
        // `need`, else wait.
        while let Some(&(child, need, want)) = self.child_requests.front() {
            let grant = if self.credit >= want {
                want
            } else if self.credit >= need {
                need
            } else {
                break;
            };
            self.credit -= grant;
            self.spent_since_request += grant;
            self.child_requests.pop_front();
            ctx.send_class(
                child,
                CtlMsg::Permit { amount: grant },
                CostClass::Controller,
            );
        }
        // Own sends.
        while let Some(&(to, _, cost)) = self.queued.front() {
            if self.credit >= cost {
                self.credit -= cost;
                self.spent_since_request += cost;
                let (to_, msg, _) = self.queued.pop_front().expect("front checked");
                debug_assert_eq!(to_, to);
                ctx.send(to, CtlMsg::App(msg));
            } else {
                break;
            }
        }
        // Request the remaining deficit upward, prefetching (caching
        // policy) up to the amount spent since the previous request.
        let deficit = self.deficit();
        if deficit > self.requested && !self.is_root {
            if let Some(p) = self.parent {
                let need = deficit - self.requested;
                let want = match self.policy {
                    GrantPolicy::Naive => need,
                    GrantPolicy::Caching => need.saturating_add(self.spent_since_request),
                };
                self.requested += need;
                self.spent_since_request = 0;
                ctx.send_class(p, CtlMsg::Request { need, want }, CostClass::Controller);
            }
        }
    }

    /// Units needed beyond the current credit to serve everything queued.
    fn deficit(&self) -> u64 {
        let need: u64 = self.child_requests.iter().map(|&(_, n, _)| n).sum::<u64>()
            + self.queued.iter().map(|&(_, _, c)| c).sum::<u64>();
        need.saturating_sub(self.credit)
    }

    /// Root: grants from the threshold counter.
    ///
    /// For the caching policy the counter wall is `2·threshold` because
    /// prefetches are bounded by past consumption (grants ≤ 2×consumed):
    /// a correct execution consuming ≤ `c_π` draws at most `2·c_π` and
    /// is never suspended, while a diverging one is cut off once real
    /// consumption approaches `2·c_π` — the paper's factor-two
    /// guarantee.
    fn root_grant(&mut self, need: u64, want: u64) -> u64 {
        let wall = match self.policy {
            GrantPolicy::Naive => self.threshold,
            GrantPolicy::Caching => self.threshold.saturating_mul(2),
        };
        let remaining = wall.saturating_sub(self.granted);
        let grant = want.min(remaining);
        if grant < need {
            self.suspended = true;
        }
        self.granted += grant;
        grant
    }
}

impl<P: Process> Process for Controller<P> {
    type Msg = CtlMsg<P::Msg>;

    fn on_start(&mut self, ctx: &mut Context<'_, CtlMsg<P::Msg>>) {
        let mut inner = ctx.derive::<P::Msg>();
        self.hosted.on_start(&mut inner);
        let sends = inner.take_outbox();
        self.absorb(sends, ctx);
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: CtlMsg<P::Msg>,
        ctx: &mut Context<'_, CtlMsg<P::Msg>>,
    ) {
        match msg {
            CtlMsg::App(m) => {
                if self.parent.is_none() && !self.is_root {
                    self.parent = Some(from);
                }
                let mut inner = ctx.derive::<P::Msg>();
                self.hosted.on_message(from, m, &mut inner);
                let sends = inner.take_outbox();
                self.absorb(sends, ctx);
            }
            CtlMsg::Request { need, want } => {
                match self.policy {
                    GrantPolicy::Caching if self.credit >= want && !self.is_root => {
                        // Serve entirely from the local cache.
                        self.credit -= want;
                        self.spent_since_request += want;
                        ctx.send_class(
                            from,
                            CtlMsg::Permit { amount: want },
                            CostClass::Controller,
                        );
                    }
                    _ if self.is_root => {
                        let grant = self.root_grant(need, want);
                        if grant > 0 {
                            ctx.send_class(
                                from,
                                CtlMsg::Permit { amount: grant },
                                CostClass::Controller,
                            );
                        }
                    }
                    _ => {
                        self.child_requests.push_back((from, need, want));
                        self.pump(ctx);
                    }
                }
            }
            CtlMsg::Permit { amount } => {
                self.credit += amount;
                self.requested = self.requested.saturating_sub(amount);
                self.pump(ctx);
            }
        }
    }
}

/// Outcome of a controlled run.
#[derive(Debug)]
pub struct ControlledOutcome<P> {
    /// Final hosted protocol states.
    pub states: Vec<P>,
    /// Whether the root's threshold cut the execution off.
    pub suspended: bool,
    /// Units the root granted.
    pub granted: u64,
    /// Metered costs; control traffic is [`CostClass::Controller`].
    pub cost: CostReport,
}

/// Runs `make`-constructed processes under the controller with the given
/// `threshold` (the complexity `c_π` of a correct execution) and grant
/// `policy`.
///
/// # Errors
///
/// Propagates [`SimError`] from the simulator.
///
/// # Panics
///
/// Panics if `root` is out of range.
pub fn run_controlled<P, F>(
    g: &WeightedGraph,
    root: NodeId,
    threshold: u64,
    policy: GrantPolicy,
    delay: DelayModel,
    seed: u64,
    mut make: F,
) -> Result<ControlledOutcome<P>, SimError>
where
    P: Process,
    F: FnMut(NodeId, &WeightedGraph) -> P,
{
    g.check_node(root);
    let run = Simulator::new(g)
        .delay(delay)
        .seed(seed)
        .run(|v, g| Controller::new(v, root, make(v, g), threshold, policy))?;
    let suspended = run.states[root.index()].suspended();
    let granted = run.states[root.index()].granted();
    let states = run.states.into_iter().map(|c| c.hosted).collect();
    Ok(ControlledOutcome {
        states,
        suspended,
        granted,
        cost: run.cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_graph::{generators, Cost};

    /// A well-behaved broadcast: floods once.
    #[derive(Debug)]
    struct Broadcast {
        initiator: bool,
        reached: bool,
    }

    impl Process for Broadcast {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
            if self.initiator {
                self.reached = true;
                ctx.send_all(());
            }
        }
        fn on_message(&mut self, _f: NodeId, _m: (), ctx: &mut Context<'_, ()>) {
            if !self.reached {
                self.reached = true;
                ctx.send_all(());
            }
        }
    }

    /// A runaway protocol: every received message is echoed back forever.
    #[derive(Debug)]
    struct Runaway {
        initiator: bool,
    }

    impl Process for Runaway {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            if self.initiator {
                let targets: Vec<NodeId> = ctx.neighbors().map(|(u, _, _)| u).collect();
                for u in targets {
                    ctx.send(u, 0);
                }
            }
        }
        fn on_message(&mut self, from: NodeId, n: u64, ctx: &mut Context<'_, u64>) {
            ctx.send(from, n + 1); // diverges without a controller
        }
    }

    #[test]
    fn correct_executions_are_not_interfered_with() {
        let g = generators::connected_gnp(15, 0.25, generators::WeightDist::Uniform(1, 9), 3);
        // flooding costs at most 2·Ê
        let threshold = (g.total_weight() * 2).get() as u64;
        for policy in [GrantPolicy::Naive, GrantPolicy::Caching] {
            let out = run_controlled(
                &g,
                NodeId::new(0),
                threshold,
                policy,
                DelayModel::WorstCase,
                0,
                |v, _| Broadcast {
                    initiator: v == NodeId::new(0),
                    reached: false,
                },
            )
            .unwrap();
            assert!(!out.suspended, "{policy:?} must not cut a correct run");
            assert!(out.states.iter().all(|b| b.reached));
        }
    }

    #[test]
    fn runaway_protocols_are_cut_off_near_the_threshold() {
        let g = generators::path(5, |_| 2);
        let threshold = 100u64;
        for policy in [GrantPolicy::Naive, GrantPolicy::Caching] {
            let out = run_controlled(
                &g,
                NodeId::new(0),
                threshold,
                policy,
                DelayModel::WorstCase,
                0,
                |v, _| Runaway {
                    initiator: v == NodeId::new(0),
                },
            )
            .unwrap();
            assert!(out.suspended, "{policy:?} must cut the runaway off");
            // Protocol consumption ≤ granted ≤ 2·threshold.
            let app_comm = out.cost.comm_of(CostClass::Protocol);
            assert!(
                app_comm <= Cost::new(2 * threshold as u128),
                "{policy:?}: consumed {app_comm} > 2·threshold"
            );
        }
    }

    #[test]
    fn caching_policy_needs_fewer_control_messages_on_deep_trees() {
        // A long path: naive requests climb the whole path every time.
        let g = generators::path(24, |_| 1);
        let threshold = 10_000u64;
        let run = |policy| {
            run_controlled(
                &g,
                NodeId::new(0),
                threshold,
                policy,
                DelayModel::WorstCase,
                0,
                |v, _| Broadcast {
                    initiator: v == NodeId::new(0),
                    reached: false,
                },
            )
            .unwrap()
        };
        let naive = run(GrantPolicy::Naive);
        let caching = run(GrantPolicy::Caching);
        assert!(!naive.suspended && !caching.suspended);
        assert!(
            caching.cost.messages_of(CostClass::Controller)
                <= naive.cost.messages_of(CostClass::Controller),
            "caching {} > naive {}",
            caching.cost.messages_of(CostClass::Controller),
            naive.cost.messages_of(CostClass::Controller)
        );
    }

    #[test]
    fn overhead_is_within_log_squared_factor() {
        // Corollary 5.1: c_φ = O(c_π·log² c_π).
        let g = generators::grid(4, 4, generators::WeightDist::Uniform(1, 6), 5);
        let threshold = (g.total_weight() * 2).get() as u64;
        let out = run_controlled(
            &g,
            NodeId::new(0),
            threshold,
            GrantPolicy::Caching,
            DelayModel::WorstCase,
            0,
            |v, _| Broadcast {
                initiator: v == NodeId::new(0),
                reached: false,
            },
        )
        .unwrap();
        let c = out.cost.comm_of(CostClass::Protocol).get().max(2) as f64;
        let total = out.cost.weighted_comm.get() as f64;
        let bound = 4.0 * c * c.log2() * c.log2();
        assert!(total <= bound, "total {total} > 4·c·log²c = {bound}");
    }
}
