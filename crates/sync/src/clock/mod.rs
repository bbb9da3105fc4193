//! Clock synchronizers α\*, β\* and γ\* (Section 3).
//!
//! All three generate `pulses` pulses at every vertex under the invariant
//! that pulse `p` is generated only after every neighbor generated pulse
//! `p − 1` (causally). They differ in *pulse delay* — the worst-case time
//! between successive pulses at a vertex:
//!
//! | synchronizer | mechanism | pulse delay |
//! |---|---|---|
//! | α\* ([`AlphaStar`]) | exchange pulse tokens with every neighbor over the direct edge | `O(W)` |
//! | β\* ([`BetaStar`]) | convergecast/broadcast on one global tree | `O(D̂)` (tree diameter) |
//! | γ\* ([`GammaStar`]) | tree edge-cover: β inside each cover tree, α among trees | `O(d·log² n)` |
//!
//! The lower bound is `Ω(d)`, where `d` is the maximum weighted distance
//! between neighbors; γ\* approaches it within `log² n` whenever heavy
//! edges have light detours (`d ≪ W`).

mod alpha;
mod beta;
mod gamma;
mod stats;

pub use alpha::AlphaStar;
pub use beta::BetaStar;
pub use gamma::GammaStar;
pub use stats::PulseStats;
