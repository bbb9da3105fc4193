#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! Weighted-graph substrate for cost-sensitive protocol analysis.
//!
//! This crate provides everything the distributed layer (`csp-sim`,
//! `csp-sync`, `csp-algo`) needs from graph theory:
//!
//! * [`WeightedGraph`] — an undirected weighted communication graph
//!   `G = (V, E, w)` with integer weights, built through [`GraphBuilder`];
//! * [`generators`] — deterministic and seeded workload families, including
//!   the lower-bound family `G_n` of the paper's Figure 7;
//! * [`algo`] — sequential reference algorithms (Dijkstra, Prim, Kruskal,
//!   BFS, connected components, Euler tours);
//! * [`params`] — the paper's weighted complexity parameters
//!   `Ê` (total weight), `V̂` (MST weight), `D̂` (weighted diameter),
//!   `d` (max neighbor distance) and `W` (max weight);
//! * [`cover`] — clusters, covers and the cover-coarsening construction of
//!   Awerbuch–Peleg (Theorem 1.1 of the paper), plus tree edge-covers
//!   (Definition 3.1);
//! * [`slt`] — the shallow-light tree construction of Section 2.2.
//!
//! # Example
//!
//! ```
//! use csp_graph::GraphBuilder;
//! use csp_graph::params::CostParams;
//!
//! let mut b = GraphBuilder::new(4);
//! b.edge(0, 1, 3).edge(1, 2, 1).edge(2, 3, 2).edge(3, 0, 10);
//! let g = b.build().expect("valid graph");
//! let params = CostParams::of(&g);
//! assert_eq!(params.total_weight.get(), 16);   // Ê
//! assert_eq!(params.mst_weight.get(), 6);      // V̂ (drops the 10-edge)
//! ```

pub mod algo;
pub mod cover;
pub mod generators;
pub mod graph;
pub mod ids;
pub mod io;
pub mod params;
pub mod slt;
pub mod tree;
pub mod weight;

pub use cover::{CutStats, ShardPlan};
pub use graph::{Edge, GraphBuilder, GraphError, WeightedGraph};
pub use ids::{EdgeId, NodeId, MAX_INDEX};
pub use tree::RootedTree;
pub use weight::{Cost, Weight};
