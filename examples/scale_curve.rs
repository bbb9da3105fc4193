//! The scale curve: flood throughput on the default (bucket) core as the
//! graph outgrows the cache — the table EXPERIMENTS.md's "Naming the
//! memory cliff" section is regenerated from.
//!
//! ```text
//! cargo run --release --example scale_curve [-- max_n_exp]
//! ```
//!
//! For `n = 10³ … 10^max_n_exp` (default 6): a connected `G(n, p)` at
//! expected extra degree 8 with `Uniform(1, 64)` weights (the family of
//! `bench_all`'s `sim_large`), one flood from vertex 0 under worst-case
//! delays, best of a few runs so a cold first touch does not set the
//! row. An event is one delivered message. Prints a markdown table.

use cost_sensitive::algo::flood::Flood;
use cost_sensitive::prelude::*;
use std::time::Instant;

fn main() {
    let max_exp: u32 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("max_n_exp must be an integer"))
        .unwrap_or(6)
        .clamp(3, 6);
    println!("| n | edges | flood events | best run | flood ev/s |");
    println!("|---|---|---|---|---|");
    for exp in 3..=max_exp {
        let n = 10usize.pow(exp);
        let g = generators::connected_gnp(
            n,
            (8.0 / n as f64).min(1.0),
            generators::WeightDist::Uniform(1, 64),
            1,
        );
        // Small sizes finish in microseconds: repeat them more.
        let reps = (3_000_000 / n).clamp(3, 300);
        let (mut events, mut best) = (0, f64::INFINITY);
        for _ in 0..reps {
            let start = Instant::now();
            let run = Simulator::new(&g)
                .run(|v, _| Flood::new(v == NodeId::new(0)))
                .expect("flood quiesces");
            best = best.min(start.elapsed().as_secs_f64());
            events = run.cost.messages;
        }
        println!(
            "| 10^{exp} | {} | {events} | {:.4} s | {:.2}M |",
            g.edge_count(),
            best,
            events as f64 / best / 1e6
        );
    }
}
