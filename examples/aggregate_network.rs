//! Sensor-style aggregation: why the tree you convergecast over matters.
//!
//! A "sensor field" is modelled as a grid of cheap local links, plus a
//! few expensive uplinks that shortcut across the field. Computing a
//! global aggregate (say, the maximum reading and the total count)
//! requires one convergecast + broadcast — and Section 2 of the paper
//! shows the whole game is the spanning tree you run it over:
//!
//! * the shortest-path tree is *shallow* (fast) but may lean on the
//!   expensive uplinks (costly);
//! * the minimum spanning tree is *light* (cheap) but may be very deep
//!   (slow);
//! * the shallow-light tree is both, up to small constants.
//!
//! ```text
//! cargo run --example aggregate_network
//! ```

use cost_sensitive::prelude::*;
use cost_sensitive::sim::SimError;

fn sensor_field() -> WeightedGraph {
    // 6×6 grid of weight-1..3 local links…
    let rows = 6;
    let cols = 6;
    let id = |r: usize, c: usize| r * cols + c;
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.edge(id(r, c), id(r, c + 1), 1 + ((r * 7 + c) % 3) as u64);
            }
            if r + 1 < rows {
                b.edge(id(r, c), id(r + 1, c), 1 + ((r + c * 5) % 3) as u64);
            }
        }
    }
    // …plus four heavy diagonal uplinks.
    b.edge(id(0, 0), id(5, 5), 40);
    b.edge(id(0, 5), id(5, 0), 40);
    b.edge(id(0, 2), id(5, 3), 36);
    b.edge(id(2, 0), id(3, 5), 36);
    b.build().expect("valid sensor field")
}

/// `f` over `inputs`, convergecast and broadcast along `tree`: the value
/// every vertex outputs, and the metered cost.
fn convergecast<F: SymmetricCompact>(
    g: &WeightedGraph,
    tree: &RootedTree,
    f: F,
    inputs: &[u64],
) -> Result<(u64, CostReport), SimError> {
    let run = Simulator::new(g)
        .run(|v, g| GlobalFunction::new(v, g, f.clone(), inputs[v.index()], tree))?;
    let value = run.states[tree.root().index()].result();
    Ok((value.expect("the root outputs"), run.cost))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let g = sensor_field();
    let p = CostParams::of(&g);
    println!("sensor field: {p}");
    println!();

    // Synthetic sensor readings.
    let readings: Vec<u64> = (0..g.node_count() as u64)
        .map(|i| (i * 97 + 13) % 256)
        .collect();
    let expected = fold_all(&Max, &readings);
    let base = NodeId::new(0);

    println!(
        "{:<14} {:>10} {:>8} {:>8}   bound",
        "tree", "comm", "msgs", "time"
    );
    for (name, kind) in [
        ("SPT", TreeKind::Spt),
        ("MST", TreeKind::Mst),
        ("BFS (hops)", TreeKind::Bfs),
        ("SLT (q=2)", TreeKind::Slt { q: 2 }),
    ] {
        let tree = kind.build(&g, base);
        let (value, cost) = convergecast(&g, &tree, Max, &readings)?;
        assert_eq!(value, expected);
        // The Figure 1 row states the SLT's bounds with their constants.
        let bound = match kind {
            TreeKind::Slt { q } => {
                let row = Claim::GlobalSlt {
                    root: base,
                    q,
                    inputs: readings.clone(),
                };
                let b = row.bounds(&g, &p);
                let limit = |b: Option<Bound>| b.and_then(|b| b.checked).unwrap_or(f64::INFINITY);
                format!(
                    "comm ≤ 2(1+2/{q})·V̂ = {}, time ≤ 2({q}+1)·D̂ = {}",
                    limit(b.comm),
                    limit(b.time)
                )
            }
            _ => String::new(),
        };
        println!(
            "{:<14} {:>10} {:>8} {:>8}   {}",
            name, cost.weighted_comm, cost.messages, cost.completion, bound
        );
    }

    println!();
    println!("All four trees compute max = {expected}; only the SLT is");
    println!("simultaneously within a constant of the V̂ communication and");
    println!("D̂ time lower bounds (Theorem 2.1 / Corollary 2.3).");

    // The same machinery answers "how many sensors are alive?"
    let slt = TreeKind::Slt { q: 2 }.build(&g, base);
    let (alive, _) = convergecast(&g, &slt, Count, &readings)?;
    println!();
    println!("census over the same SLT: {alive} sensors");
    Ok(())
}
