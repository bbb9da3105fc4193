//! Shortest-path tree protocols (Sections 6.4 and 9); their runs and
//! bounds are the Figure 4 rows of [`crate::catalogue`].
//!
//! | algorithm | row | communication | time |
//! |---|---|---|---|
//! | `SPT_centr` ([`crate::full_info`], Dijkstra's rule) | [`SptCentr`](crate::catalogue::Claim::SptCentr) | `O(n·w(SPT)) = O(n²·V̂)` | `O(n·D̂)` |
//! | [`synch::SptSynch`] under γ_w | [`SptSynch`](crate::catalogue::Claim::SptSynch) | `O(Ê + D̂·k·n·log n)` | `O(D̂·log_k n·log n)` |
//! | [`recur::SptRecur`] | [`SptRecur`](crate::catalogue::Claim::SptRecur) | strip-tunable (Figure 9) | strip-tunable |
//! | [`hybrid`] | [`SptHybrid`](crate::catalogue::Claim::SptHybrid) | min of `synch`/`recur` | — |

pub mod hybrid;
pub mod recur;
pub mod synch;
