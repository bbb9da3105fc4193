#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! # cost-sensitive — weighted analysis of communication protocols
//!
//! A reproduction of *“Cost-Sensitive Analysis of Communication
//! Protocols”* (Awerbuch, Baratz, Peleg; PODC 1990): distributed
//! protocols on weighted networks, analyzed by **weighted communication**
//! (every message on edge `e` costs `w(e)`) and **weighted time** (edge
//! delays vary up to `w(e)`), executed on a deterministic event-driven
//! simulator.
//!
//! The workspace splits into five crates, re-exported here:
//!
//! * [`graph`] — weighted graphs, generators, sequential algorithms,
//!   sparse covers/partitions, and the shallow-light tree construction;
//! * [`sim`] — the asynchronous network simulator and the lock-step
//!   weighted synchronous executor, with cost metering;
//! * [`sync`] — clock synchronizers α\*/β\*/γ\* and the network
//!   synchronizer γ_w;
//! * [`control`] — execution-tree resource controllers;
//! * [`algo`] — the paper's protocols: flooding, DFS, global functions,
//!   MST (centralized / GHS / fast / hybrid), SPT (centralized /
//!   recursive / synchronous / hybrid), connectivity, distributed SLT —
//!   and [`algo::catalogue`], the paper's rows (each with its run and
//!   bounds) as one closed enum;
//! * [`adversary`] — adversarial schedule search (delays, message
//!   drops, vertex crashes), record/replay and counterexample shrinking
//!   over the simulator's [`LinkOracle`](csp_sim::LinkOracle) hook.
//!
//! # Quickstart
//!
//! ```
//! use cost_sensitive::prelude::*;
//!
//! // A weighted network: a light ring with one heavy chord.
//! let mut b = GraphBuilder::new(6);
//! b.edge(0, 1, 1).edge(1, 2, 1).edge(2, 3, 1)
//!  .edge(3, 4, 1).edge(4, 5, 1).edge(5, 0, 1)
//!  .edge(0, 3, 10);
//! let g = b.build()?;
//!
//! // The paper's parameters: Ê (total weight), V̂ (MST weight),
//! // D̂ (weighted diameter).
//! let params = CostParams::of(&g);
//! assert_eq!(params.total_weight.get(), 16);
//! assert_eq!(params.mst_weight.get(), 5);
//! assert_eq!(params.weighted_diameter.get(), 3);
//!
//! // Compute a global maximum over a shallow-light tree — the Figure 1
//! // row of the catalogue: O(V̂) messages, O(D̂) time (Corollary 2.3).
//! let row = Claim::GlobalSlt { root: NodeId::new(0), q: 2, inputs: vec![3, 1, 4, 1, 5, 9] };
//! let out = row.run(&g, ModelOracle::new(DelayModel::WorstCase, 0))?;
//! assert!(out.outputs.iter().all(|&o| o == 9));
//! assert!(row.bounds(&g, &params).comm.unwrap().admits(out.cost.weighted_comm.get()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use csp_adversary as adversary;
pub use csp_algo as algo;
pub use csp_control as control;
pub use csp_graph as graph;
pub use csp_sim as sim;
pub use csp_sync as sync;

/// The most commonly used items, in one import.
pub mod prelude {
    pub use csp_adversary::{
        check_time_bound, explore_exhaustive, find_worst_schedule, record, replay, replay_report,
        shrink, ConfigError, CriticalPathOracle, Decision, Fallback, GridPoint, Mutation,
        OccurrenceOracle, Recorder, Schedule, ScheduleOracle, SearchConfig, SearchConfigBuilder,
        SearchOutcome, Trace, TraceStep, DEFAULT_CLASS_BUDGET,
    };
    pub use csp_algo::catalogue::{Bound, Bounds, Claim, Outcome, ProcessVisitor};
    pub use csp_algo::global::{
        fold_all, BoolAnd, BoolOr, Count, GlobalFunction, Max, Min, Sum, SymmetricCompact,
        TreeKind, Xor,
    };
    pub use csp_algo::leader::run_leader_election;
    pub use csp_algo::resilient::{
        contract_violation, run_resilient_spt, Metric, Resilient, ResilientOutcome,
    };
    pub use csp_algo::spt::synch::run_spt_synch_ideal;
    pub use csp_algo::termination::run_with_termination_detection;
    pub use csp_control::{run_controlled, GrantPolicy};
    pub use csp_graph::cover::{ball_partition, coarsen, tree_edge_cover, Cluster, Cover};
    pub use csp_graph::generators;
    pub use csp_graph::params::CostParams;
    pub use csp_graph::slt::{shallow_light_tree, BreakpointRule};
    pub use csp_graph::{Cost, EdgeId, GraphBuilder, NodeId, RootedTree, Weight, WeightedGraph};
    pub use csp_sim::shard::{CutStats, ShardPlan};
    pub use csp_sim::sweep::{
        effective_threads, par_map, par_map_with, summarize, SweepGrid, SweepPoint, SweepRun,
        SweepSummary,
    };
    pub use csp_sim::sync::{SyncContext, SyncProcess, SyncRunner};
    pub use csp_sim::{
        BaselineSimulator, CaptureEvery, Checkpoint, Context, CoreKind, CostClass, CostReport,
        CrashOracle, DelayModel, DelayOracle, Detect, DetectConfig, DropOracle, EvalPool,
        EvalSummary, FaultAware, FaultPlan, LinkDecision, LinkOracle, ModelOracle, MsgInfo,
        MsgToken, NoCapture, Process, RelMsg, Reliable, ShardedSimulator, SimTime, Simulator,
        TimerId,
    };
    pub use csp_sync::net::{run_synchronized, Synchronizer};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_compiles_and_reaches_every_crate() {
        let g = generators::cycle(5, |_| 2);
        let p = CostParams::of(&g);
        assert_eq!(p.total_weight, Cost::new(10));
        let flood = Claim::Flood {
            root: NodeId::new(0),
        }
        .run(&g, ModelOracle::new(DelayModel::WorstCase, 0))
        .unwrap();
        assert!(flood.tree.unwrap().is_spanning());
    }
}
