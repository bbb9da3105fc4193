//! Global function computation (Section 2).
//!
//! Computes a *symmetric compact* function of `n` inputs — one per vertex
//! — with outputs produced at **all** vertices. Theorem 2.1 shows `Ω(V̂)`
//! communication and `Ω(D̂)` time are necessary; Corollary 2.3 shows the
//! bounds are achieved by convergecast + broadcast over a shallow-light
//! tree. The Figure 1 rows of [`crate::catalogue`] run [`Max`] over the
//! SLT, the MST and the SPT; any [`SymmetricCompact`] function runs the
//! same way, with [`GlobalFunction`] as the per-vertex process.

mod convergecast;
mod functions;

pub use convergecast::{GlobalFunction, TreeKind};
pub use functions::{fold_all, BoolAnd, BoolOr, Count, Max, Min, Sum, SymmetricCompact, Xor};
