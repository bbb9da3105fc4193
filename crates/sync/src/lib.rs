#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! Synchronizers for weighted networks — the core contribution of
//! *Cost-Sensitive Analysis of Communication Protocols*.
//!
//! Two related but distinct problems (Sections 3 and 4 of the paper):
//!
//! * **Clock synchronization** ([`clock`]): generate an unbounded stream
//!   of pulses at every vertex such that pulse `p` is generated only
//!   after all neighbors generated pulse `p − 1`. Quality measure: the
//!   *pulse delay* — the worst time between successive pulses at a
//!   vertex. Three synchronizers are implemented:
//!   α\* (`O(W)` delay), β\* (global-tree, `O(D̂)` delay) and
//!   γ\* (tree edge-cover, `O(d·log² n)` delay).
//!
//! * **Network synchronization** ([`net`]): run an arbitrary *synchronous*
//!   protocol — written against the lock-step weighted semantics of
//!   [`csp_sim::sync`] — on an *asynchronous* network, preserving its
//!   outputs. Synchronizer γ_w combines the protocol normalization of
//!   Lemma 4.5 (×4 slowdown, power-of-two weights, aligned sends) with
//!   per-weight-level cluster synchronizers, at amortized overhead
//!   `C(γ_w) = O(k·n·log n)` and `T(γ_w) = O(log_k n·log n)` per pulse.
//!   The naive α_w (`Θ(Ê)` comm, `Θ(W)` time per pulse) and tree-based
//!   β_w (`Θ(V̂)` comm, `Θ(D̂)` time) baselines are included for
//!   comparison.
//!
//! The paper's rows over these constructions — each with its run,
//! outcome check and bounds — are the §3 and §4 entries of
//! `csp_algo::catalogue`; this crate provides the processes and hosts.
//!
//! # Example
//!
//! Measure the pulse delay of the clock synchronizers on a network where
//! heavy links have light detours (`d ≪ W`):
//!
//! ```
//! use csp_graph::generators;
//! use csp_sim::{SimTime, Simulator};
//! use csp_sync::clock::{AlphaStar, GammaStar, PulseStats};
//!
//! # fn main() -> Result<(), csp_sim::SimError> {
//! let g = generators::heavy_chord_cycle(12, 1_000);
//! let alpha = Simulator::new(&g).run(|v, g| AlphaStar::new(v, g, 4))?;
//! let gamma = Simulator::new(&g).run(GammaStar::factory(&g, 4))?;
//! let delay = |times: Vec<Vec<SimTime>>| PulseStats { times }.max_pulse_delay();
//! // α* pays the heavy chord on every pulse; γ* routes safety through
//! // the tree edge-cover and beats it by orders of magnitude.
//! assert!(
//!     delay(gamma.states.iter().map(|s| s.times().to_vec()).collect())
//!         < delay(alpha.states.iter().map(|s| s.times().to_vec()).collect())
//! );
//! # Ok(())
//! # }
//! ```

pub mod clock;
pub mod net;

pub use clock::PulseStats;
pub use net::{run_synchronized, HostedRun, Synchronizer};
