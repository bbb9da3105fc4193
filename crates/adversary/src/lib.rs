#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! Adversarial schedule search — delays, drops and crashes — for the
//! cost-sensitive simulator.
//!
//! The paper defines time complexity as the **worst case over all
//! per-message delay assignments** in `[0, w(e)]`. The simulator's fixed
//! [`DelayModel`](csp_sim::DelayModel) policies only realize uniform
//! points of that space — `WorstCase` stretches *every* message, which
//! is the true adversary for monotone protocols (flooding, DFS) but not
//! in general: selectively *fast* messages can force extra phases in
//! timing-dependent protocols like GHS. This crate searches the
//! schedule space through the [`csp_sim::LinkOracle`] dispatch-time
//! hook, which also lets the adversary *lose* a message outright
//! ([`LinkDecision::Drop`](csp_sim::LinkDecision)) or crash a vertex at
//! a chosen time — the fault model retransmission layers like
//! [`csp_sim::Reliable`] are measured against:
//!
//! * [`Schedule`] — a deterministic, serializable transcript of every
//!   link decision (delay or drop) plus the run's
//!   [`FaultPlan`](csp_sim::FaultPlan) (per-vertex crash/rejoin chains
//!   and mid-run weight revisions), with
//!   [`record`] / [`replay`] reproducing a run exactly (plain-text
//!   format, no external dependencies: one grammar, written under the
//!   `v3` header, with the `v1` and `v2` headers of older files still
//!   read);
//! * [`find_worst_schedule`] — seeded random probes, the
//!   [`CriticalPathOracle`] greedy, optional single-crash probes and
//!   hill-climbing by the one [`Mutation`] in [`SearchConfig::mutation`]
//!   (drop flags, crash times and churn searched alongside delays when
//!   its flip budgets say so), fanned out in parallel
//!   through [`csp_sim::sweep::par_map_with`] with a pooled evaluator
//!   per worker; hill-climb candidates resume from
//!   [checkpoints](csp_sim::Checkpoint) of the incumbent's run instead
//!   of replaying from scratch;
//! * [`check_time_bound`] — refutes a claimed time bound on a
//!   protocol × graph grid and [`shrink`]s any violating schedule,
//!   proptest-style, to a 1-minimal replayable counterexample on disk,
//!   reporting how often the replay fell back past the recorded horizon
//!   (the [`ScheduleOracle`] counters [`replay_report`] hands back);
//! * [`trace`] ([`Trace`], [`explore_exhaustive`]) — the run as its
//!   sequence of dispatch decisions with a dependence relation over
//!   deliveries, and a sleep-set/DPOR explorer that evaluates exactly
//!   one delay schedule per Mazurkiewicz class of delivery orders —
//!   the exhaustive refutation mode [`SearchConfig::exhaustive`] routes
//!   [`check_time_bound`] through.
//!
//! Construction goes through builders: [`SearchConfig::builder`]
//! validates budgets before a search runs, and [`Mutation`] is the one
//! perturbation surface the hill-climb, polish and fault dimensions
//! share.
//!
//! # Example: hunt for a bad schedule
//!
//! ```
//! use csp_adversary::{find_worst_schedule, replay, SearchConfig};
//! use csp_graph::generators::{self, WeightDist};
//! use csp_graph::NodeId;
//! use csp_sim::{Context, Process};
//!
//! #[derive(Clone)]
//! struct Flood { seen: bool }
//! impl Process for Flood {
//!     type Msg = ();
//!     fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
//!         if ctx.self_id() == NodeId::new(0) { self.seen = true; ctx.send_all(()); }
//!     }
//!     fn on_message(&mut self, _from: NodeId, _m: (), ctx: &mut Context<'_, ()>) {
//!         if !self.seen { self.seen = true; ctx.send_all(()); }
//!     }
//! }
//!
//! let g = generators::connected_gnp(12, 0.3, WeightDist::Uniform(1, 9), 5);
//! let out = find_worst_schedule(&g, |_, _| Flood { seen: false }, &SearchConfig::default());
//! // The found schedule replays to exactly the reported time.
//! let rerun = replay(&g, |_, _| Flood { seen: false }, &out.schedule);
//! assert_eq!(rerun.cost.completion, out.best_time);
//! assert!(out.gap() >= 1.0);
//! ```

pub mod oracle;
pub mod refute;
pub mod schedule;
pub mod search;
pub mod trace;

pub use oracle::{CriticalPathOracle, Recorder, ScheduleOracle};
pub use refute::{check_time_bound, shrink, GridPoint, Refutation};
pub use schedule::{Decision, Fallback, ParseError, PrefixHasher, Schedule, TextParse};
pub use search::{
    find_worst_schedule, ConfigError, Mutation, SearchConfig, SearchConfigBuilder, SearchOutcome,
};
pub use trace::{explore_exhaustive, OccurrenceOracle, Trace, TraceStep, DEFAULT_CLASS_BUDGET};

use csp_graph::{NodeId, WeightedGraph};
use csp_sim::{LinkOracle, Process, Run, Simulator};

/// Runs the protocol under `oracle` while recording every link decision
/// and the fault plan. Returns the completed run and the [`Schedule`]
/// that [`replay`] will reproduce it from. Any
/// [`DelayOracle`](csp_sim::DelayOracle) works here too, through the
/// blanket [`LinkOracle`] impl.
pub fn record<P, F, O>(
    g: &WeightedGraph,
    make: F,
    oracle: O,
    fallback: Fallback,
) -> (Run<P>, Schedule)
where
    P: Process,
    F: FnMut(NodeId, &WeightedGraph) -> P,
    O: LinkOracle,
{
    let mut rec = Recorder::new(oracle);
    let run = Simulator::new(g)
        .run_with_oracle(&mut rec, make)
        .expect("protocol must quiesce under an admissible schedule");
    (run, rec.into_schedule(fallback))
}

/// Replays a recorded [`Schedule`]: the run is reproduced decision for
/// decision (identical [`CostReport`](csp_sim::CostReport), trace and
/// final states — pinned by the adversary test suite).
pub fn replay<P, F>(g: &WeightedGraph, make: F, schedule: &Schedule) -> Run<P>
where
    P: Process,
    F: FnMut(NodeId, &WeightedGraph) -> P,
{
    replay_report(g, make, schedule).0
}

/// [`replay`], but also hands back the [`ScheduleOracle`] the run was
/// replayed with: its `divergences`, `past_horizon` and `mismatched`
/// counters say how faithfully the run followed the recording (all zero
/// on a clean replay), while the faults it suffered are the fault meters
/// of the run's [`CostReport`](csp_sim::CostReport).
pub fn replay_report<'s, P, F>(
    g: &WeightedGraph,
    make: F,
    schedule: &'s Schedule,
) -> (Run<P>, ScheduleOracle<'s>)
where
    P: Process,
    F: FnMut(NodeId, &WeightedGraph) -> P,
{
    let mut oracle = ScheduleOracle::new(schedule);
    let run = Simulator::new(g)
        .run_with_oracle(&mut oracle, make)
        .expect("replayed protocol must quiesce");
    (run, oracle)
}
