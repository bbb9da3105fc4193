#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! Shared workloads and measurement helpers for the benchmark harness.
//!
//! The paper's evaluation is a set of bounds tables (Figures 1–4), a
//! construction (Figures 5–6), a lower-bound family (Figures 7–8) and
//! the strip method (Figure 9). `src/bin/report.rs` regenerates each of
//! them as measured tables from the rows of `csp_algo::catalogue`;
//! `tests/golden/report.txt` pins its output.

use csp_graph::params::CostParams;
use csp_graph::{generators, WeightedGraph};

/// A named workload graph with precomputed parameters.
pub struct Workload {
    /// Short label for tables.
    pub name: String,
    /// The graph.
    pub graph: WeightedGraph,
    /// Its cost parameters.
    pub params: CostParams,
}

impl Workload {
    /// Wraps a graph with its parameters.
    pub fn new(name: impl Into<String>, graph: WeightedGraph) -> Self {
        let params = CostParams::of(&graph);
        Workload {
            name: name.into(),
            graph,
            params,
        }
    }
}

/// Random connected graphs of increasing size (the generic sweep).
pub fn random_sweep(sizes: &[usize], seed: u64) -> Vec<Workload> {
    sizes
        .iter()
        .map(|&n| {
            Workload::new(
                format!("gnp n={n}"),
                generators::connected_gnp(n, 0.15, generators::WeightDist::Uniform(1, 32), seed),
            )
        })
        .collect()
}

/// Regime A: `Ê ≪ n·V̂` (flood/DFS/GHS territory).
pub fn regime_a(n: usize) -> Workload {
    Workload::new(
        format!("A: sparse-heavy n={n}"),
        generators::sparse_heavy_path(n, 100, 7),
    )
}

/// Regime B: `n·V̂ ≪ Ê` (full-information territory) — the Figure 7
/// family.
pub fn regime_b(n: usize, x: u64) -> Workload {
    Workload::new(
        format!("B: G_n n={n} x={x}"),
        generators::lower_bound_family(n, x),
    )
}

/// Clock-synchronization workload: `d ≪ W`.
pub fn clock_workload(n: usize, heavy: u64) -> Workload {
    Workload::new(
        format!("chords n={n} W={heavy}"),
        generators::heavy_chord_cycle(n, heavy),
    )
}

/// The Figure-3 MST workloads measured by `bench_all`'s `sim_hot`
/// workload.
pub fn fig3_workloads() -> Vec<Workload> {
    vec![
        regime_a(28),
        regime_b(20, 8),
        Workload::new(
            "gnp n=32",
            generators::connected_gnp(32, 0.15, generators::WeightDist::Uniform(1, 32), 5),
        ),
    ]
}

/// Ratio formatted for tables; `∞`-safe.
pub fn ratio(measured: u128, bound: u128) -> f64 {
    if bound == 0 {
        f64::INFINITY
    } else {
        measured as f64 / bound as f64
    }
}

/// Prints a right-aligned table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths.iter())
        .map(|(c, w)| format!("{c:>w$}"))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_build() {
        let w = regime_b(12, 5);
        assert_eq!(w.params.n, 12);
        assert!(w.params.total_weight > w.params.mst_weight);
        let sweep = random_sweep(&[8, 12], 1);
        assert_eq!(sweep.len(), 2);
    }

    #[test]
    fn ratio_handles_zero() {
        assert!(ratio(5, 0).is_infinite());
        assert_eq!(ratio(6, 3), 2.0);
    }
}
