#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! Controllers for diffusing computations (Section 5, after \[AAPS87]).
//!
//! A *controller* transforms a protocol `π` into a protocol `φ` with the
//! same input/output behavior on correct executions, but whose resource
//! consumption is bounded even when faults or corrupt inputs make `π`
//! diverge. Every message transmission on edge `e` consumes `w(e)` units
//! of an abstract resource, and every consumption must be authorized by a
//! permit that originates at the root of the dynamically growing
//! *execution tree* (the paper's diffusing-computation model of
//! \[DS80]).
//!
//! Two grant policies are provided:
//!
//! * [`GrantPolicy::Naive`] — every request climbs all the way to the
//!   root and is granted exactly; simple, with per-unit round-trip
//!   overhead;
//! * [`GrantPolicy::Caching`] — the \[AAPS87] scheme: requests are
//!   batched, permits are granted in doubling blocks and cached at
//!   intermediate vertices, so at most `O(log² c)` control messages
//!   cross any execution-tree edge; total overhead `O(c·log² c)`
//!   (Corollary 5.1).
//!
//! The root stops granting once its (approximate) consumption counter
//! reaches the threshold `c_π`; since the counter undercounts by at most
//! a factor of two, a diverging execution is cut off after at most
//! `2·c_π` consumed units, while correct executions (whose total cost is
//! at most `c_π` by definition) are never interfered with.
//!
//! # Example
//!
//! A correct one-shot broadcast sails through the controller unimpeded:
//!
//! ```
//! use csp_control::{run_controlled, GrantPolicy};
//! use csp_graph::{generators, NodeId};
//! use csp_sim::{Context, DelayModel, Process};
//!
//! #[derive(Debug)]
//! struct Hello { initiator: bool, reached: bool }
//!
//! impl Process for Hello {
//!     type Msg = ();
//!     fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
//!         if self.initiator { self.reached = true; ctx.send_all(()); }
//!     }
//!     fn on_message(&mut self, _f: NodeId, _m: (), ctx: &mut Context<'_, ()>) {
//!         if !self.reached { self.reached = true; ctx.send_all(()); }
//!     }
//! }
//!
//! # fn main() -> Result<(), csp_sim::SimError> {
//! let g = generators::cycle(8, |_| 2);
//! let threshold = (2 * g.total_weight().get()) as u64; // c_π for a flood
//! let out = run_controlled(
//!     &g, NodeId::new(0), threshold, GrantPolicy::Caching,
//!     DelayModel::WorstCase, 0,
//!     |v, _| Hello { initiator: v == NodeId::new(0), reached: false },
//! )?;
//! assert!(!out.suspended);
//! assert!(out.states.iter().all(|h| h.reached));
//! # Ok(())
//! # }
//! ```

pub mod controller;

pub use controller::{run_controlled, ControlledOutcome, Controller, CtlMsg, GrantPolicy};
