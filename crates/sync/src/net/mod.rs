//! Network synchronizer γ_w (Section 4): runs synchronous protocols on
//! asynchronous weighted networks.

mod alpha_w;
mod beta_w;
mod gamma_w;
mod layout;

pub use alpha_w::{run_synchronized_alpha, AlphaMsg, AlphaWHost};
pub use beta_w::{run_synchronized_beta, BetaMsg, BetaWHost};
pub use gamma_w::{
    level_layouts, run_synchronized, run_synchronized_budgeted, GammaWConfig, GammaWHost, HostMsg,
    HostedRun,
};
pub use layout::{edge_level, next_multiple, LevelLayout};
