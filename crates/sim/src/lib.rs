#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! Deterministic simulator for weighted asynchronous networks.
//!
//! This crate realizes the execution model of *Cost-Sensitive Analysis of
//! Communication Protocols* (Awerbuch–Baratz–Peleg):
//!
//! * transmitting a message over edge `e` **costs** `w(e)` — summed into
//!   the weighted communication complexity;
//! * the **delay** of edge `e` varies between (effectively) zero and
//!   `w(e)` — chosen by a pluggable [`DelayModel`]; the protocol's time
//!   complexity is the completion time under the worst-case model.
//!
//! Protocols are pure message-driven state machines implementing
//! [`Process`]; [`Simulator`] owns scheduling, delivers messages with
//! per-edge FIFO order, meters every send into a [`CostReport`], and runs
//! until quiescence.
//!
//! A lock-step **weighted synchronous executor** ([`SyncRunner`]) is also
//! provided: a message sent at pulse `p` over edge `e` is delivered at
//! pulse `p + w(e)` exactly. It is both a direct execution platform for
//! synchronous protocols and the reference semantics that the network
//! synchronizer γ_w (in `csp-sync`) must reproduce.
//!
//! # Example
//!
//! ```
//! use csp_graph::{generators, NodeId};
//! use csp_sim::{DelayModel, Process, Context, Simulator};
//!
//! /// Trivial flooding: forward the token the first time you see it.
//! struct Flood { seen: bool }
//!
//! impl Process for Flood {
//!     type Msg = ();
//!     fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
//!         if ctx.self_id() == NodeId::new(0) {
//!             self.seen = true;
//!             ctx.send_all(());
//!         }
//!     }
//!     fn on_message(&mut self, _from: NodeId, _msg: (), ctx: &mut Context<'_, ()>) {
//!         if !self.seen {
//!             self.seen = true;
//!             ctx.send_all(());
//!         }
//!     }
//! }
//!
//! let g = generators::cycle(6, |_| 2);
//! let run = Simulator::new(&g)
//!     .delay(DelayModel::WorstCase)
//!     .run(|_, _| Flood { seen: false })?;
//! assert!(run.states.iter().all(|f| f.seen));
//! // Every edge carried the token in at least one direction.
//! assert!(run.cost.messages >= 6);
//! # Ok::<(), csp_sim::SimError>(())
//! ```

pub mod baseline;
pub mod cost;
pub mod delay;
pub mod detect;
mod kernel;
pub mod process;
pub mod queue;
pub mod reliable;
pub mod runtime;
pub mod shard;
pub mod sweep;
pub mod sync;
pub mod time;
pub mod trace;

pub use baseline::BaselineSimulator;
pub use cost::{CostClass, CostReport};
pub use delay::{
    ChurnOracle, CrashOracle, DelayModel, DelayOracle, DropOracle, FaultPlan, LinkDecision,
    LinkOracle, ModelOracle, MsgInfo, PlanError,
};
pub use detect::{Detect, DetectConfig, DetectMsg, FaultAware};
pub use process::{Context, MsgToken, Process, TimerId};
pub use reliable::{RelMsg, Reliable};
pub use runtime::{
    Capture, CaptureEvery, Checkpoint, CoreKind, EvalPool, EvalSummary, NoCapture, Origin, Run,
    SimError, Simulator, Start,
};
pub use shard::ShardedSimulator;
pub use sweep::{
    effective_threads, par_map, par_map_with, summarize, SweepGrid, SweepPoint, SweepRun,
    SweepSummary,
};
pub use sync::{SyncContext, SyncProcess, SyncRun, SyncRunner};
pub use time::SimTime;
pub use trace::{Observer, Trace, TraceEvent};
