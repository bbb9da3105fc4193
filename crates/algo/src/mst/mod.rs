//! Minimum spanning tree protocols (Sections 6.3 and 8); their runs and
//! bounds are the Figure 3 rows of [`crate::catalogue`].
//!
//! | algorithm | row | communication | time |
//! |---|---|---|---|
//! | `MST_centr` ([`crate::full_info`], Prim's rule) | [`MstCentr`](crate::catalogue::Claim::MstCentr) | `O(n·V̂)` | `O(n·Diam(MST))` |
//! | [`ghs::Ghs`] | [`MstGhs`](crate::catalogue::Claim::MstGhs) | `O(Ê + V̂·log n)` | `O(Ê + V̂·log n)` |
//! | [`fast::MstFast`] | [`MstFast`](crate::catalogue::Claim::MstFast) | `O(Ê·log n·log V̂)` | `O(Diam(MST)·log V̂·log n)` |
//! | [`hybrid`] | [`MstHybrid`](crate::catalogue::Claim::MstHybrid) | `O(min{Ê + V̂ log n, n·V̂})` | — |

pub mod fast;
pub mod ghs;
pub mod hybrid;
pub mod wakeup;

pub use wakeup::{run_mst_ghs_staged, WakeUp};
