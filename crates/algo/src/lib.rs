#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! Cost-sensitive distributed protocols.
//!
//! Every protocol of the paper, implemented as [`csp_sim::Process`] (or
//! [`csp_sim::SyncProcess`](csp_sim::sync::SyncProcess)) state machines and
//! measured with the weighted complexity measures. The paper's rows —
//! each protocol with its run, outcome check and weighted bounds — are
//! one closed catalogue, [`catalogue::Claim`]:
//!
//! | paper section | module | protocol | row |
//! |---|---|---|---|
//! | §2    | [`global`]     | global function computation over an SLT / MST / SPT | `GlobalSlt`, `GlobalMst`, `GlobalSpt` |
//! | §6.1  | [`flood`]      | `CON_flood` broadcast / spanning tree | `Flood` |
//! | §6.2  | [`dfs`]        | distributed DFS with root estimates | `Dfs` |
//! | §6.3  | [`full_info`]  | `MST_centr` full-information Prim | `MstCentr` |
//! | §6.4  | [`full_info`]  | `SPT_centr` full-information Dijkstra | `SptCentr` |
//! | §7.2  | [`con_hybrid`] | `CON_hybrid` | `ConHybrid` |
//! | §8.1  | [`mst`]        | `MST_ghs` (Gallager–Humblet–Spira) | `MstGhs` |
//! | §8.2  | [`mst`]        | `MST_hybrid` | `MstHybrid` |
//! | §8.3  | [`mst`]        | `MST_fast` (guess doubling) | `MstFast` |
//! | §9.1  | [`spt`]        | `SPT_synch` (synchronous SPT + γ_w) | `SptSynch` |
//! | §9.2  | [`spt`]        | `SPT_recur` (layered strips) | `SptRecur` |
//! | §9.3  | [`spt`]        | `SPT_hybrid` | `SptHybrid` |
//! | §2.4  | [`slt_dist`]   | distributed SLT construction | `Slt` |
//! | §3–§5 | `csp-sync`, `csp-control` | clock and network synchronizers, controller | `AlphaStar` … `Controller` |
//! | —     | [`resilient`]  | self-healing flood / SPT (crash-tolerant distance vector) | — |

pub mod cast;
pub mod catalogue;
pub mod con_hybrid;
pub mod dfs;
pub mod flood;
pub mod full_info;
pub mod global;
pub mod leader;
pub mod mst;
pub mod resilient;
pub mod slt_dist;
pub mod spt;
pub mod termination;
pub mod util;
