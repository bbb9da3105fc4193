//! Hunt for delay schedules worse than the fixed `WorstCase` model.
//!
//! Sweeps the Figure-2/3/4 rows of the catalogue over small graph
//! families, runs the `csp-adversary` search on each point, prints the
//! searched-vs-`WorstCase` completion-time gap, and checks the searched
//! best against its own row's bounds. Pass a directory to also write
//! every schedule that beat `WorstCase`:
//!
//! ```text
//! cargo run --release --example adversary_hunt [-- out_dir]
//! ```

use csp_adversary::{find_worst_schedule, replay, SearchConfig, SearchOutcome};
use csp_algo::catalogue::{Claim, Outcome, ProcessVisitor};
use csp_graph::generators::{self, WeightDist};
use csp_graph::params::CostParams;
use csp_graph::{NodeId, WeightedGraph};
use csp_sim::{Process, Run};
use std::path::PathBuf;

/// Searches a row's processes and checks the replayed best against the
/// row.
struct Hunt<'a> {
    g: &'a WeightedGraph,
    cfg: &'a SearchConfig,
}

impl ProcessVisitor for Hunt<'_> {
    type Output = (SearchOutcome, Outcome);

    fn visit<P, F, C>(self, make: F, check: C) -> Self::Output
    where
        P: Process + Clone + Send + Sync,
        P::Msg: Send + Sync,
        F: Fn(NodeId, &WeightedGraph) -> P + Sync,
        C: FnOnce(Run<P>) -> Outcome,
    {
        let out = find_worst_schedule(self.g, &make, self.cfg);
        let best = check(replay(self.g, &make, &out.schedule));
        (out, best)
    }
}

fn families() -> Vec<(String, WeightedGraph)> {
    vec![
        (
            "gnp-n12".to_string(),
            generators::connected_gnp(12, 0.3, WeightDist::Uniform(1, 16), 42),
        ),
        (
            "gnp-n16".to_string(),
            generators::connected_gnp(16, 0.25, WeightDist::Uniform(1, 32), 7),
        ),
        (
            "heavy-chord-n12".to_string(),
            generators::heavy_chord_cycle(12, 64),
        ),
        (
            "cluster-3x4".to_string(),
            generators::cluster_graph(3, 4, 50, 11),
        ),
        (
            "sparse-heavy-n14".to_string(),
            generators::sparse_heavy_path(14, 100, 3),
        ),
    ]
}

fn hunt(
    protocol: &str,
    family: &str,
    out: SearchOutcome,
    within_row: bool,
    out_dir: Option<&PathBuf>,
    found: &mut u32,
) {
    let marker = if out.beats_worst_case() {
        "  <-- beats WorstCase"
    } else {
        ""
    };
    let row = if within_row {
        ""
    } else {
        "  <-- exceeds its row's bound"
    };
    println!(
        "{protocol:<12} {family:<18} worst-case {:>6}  searched {:>6}  gap {:>5.3}  via {:<13} ({} evals){marker}{row}",
        out.worst_case.get(),
        out.best_time.get(),
        out.gap(),
        out.strategy,
        out.evaluations,
    );
    if out.beats_worst_case() {
        *found += 1;
        if let Some(dir) = out_dir {
            let path = dir.join(format!("{protocol}-{family}.schedule"));
            out.schedule
                .save(
                    &path,
                    &[
                        format!("{protocol} on {family}"),
                        format!(
                            "worst-case {} < searched {} (strategy: {})",
                            out.worst_case.get(),
                            out.best_time.get(),
                            out.strategy
                        ),
                    ],
                )
                .expect("write schedule");
            println!("             wrote {}", path.display());
        }
    }
}

fn main() {
    let out_dir = std::env::args().nth(1).map(PathBuf::from);
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    let cfg = SearchConfig::default();
    let root = NodeId::new(0);
    let mut found = 0u32;
    let mut exceeded = 0u32;

    for (family, g) in &families() {
        let p = CostParams::of(g);
        for (protocol, claim) in [
            ("flood", Claim::Flood { root }),
            ("dfs", Claim::Dfs { root }),
            ("ghs", Claim::MstGhs { root }),
            ("fullinfo-mst", Claim::MstCentr { root }),
            ("fullinfo-spt", Claim::SptCentr { source: root }),
            // Single-strip SPT_recur degenerates to chaotic Bellman–Ford —
            // the one protocol here whose *message set* depends on delivery
            // order, so selectively fast messages can out-delay WorstCase.
            (
                "spt-recur",
                Claim::SptRecur {
                    source: root,
                    delta: 1 << 40,
                },
            ),
        ] {
            let (out, best) = claim
                .visit(g, Hunt { g, cfg: &cfg })
                .expect("every hunted row has one process");
            let within_row = claim.bounds(g, &p).admit(claim.measure(&best));
            exceeded += u32::from(!within_row);
            hunt(
                protocol,
                family,
                out,
                within_row,
                out_dir.as_ref(),
                &mut found,
            );
        }
    }

    println!("\n{found} protocol x family points where the searched adversary beats WorstCase");
    println!("{exceeded} searched bests outside their row's bounds");
}
