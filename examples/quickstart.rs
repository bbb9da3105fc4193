//! Quickstart: build a weighted network, read off the paper's cost
//! parameters, and run a few protocols on it.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use cost_sensitive::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 6-vertex network: a light ring (the "backbone") plus one heavy
    // chord (an expensive long-haul link).
    let mut b = GraphBuilder::new(6);
    b.edge(0, 1, 1)
        .edge(1, 2, 1)
        .edge(2, 3, 1)
        .edge(3, 4, 1)
        .edge(4, 5, 1)
        .edge(5, 0, 1)
        .edge(0, 3, 10);
    let g = b.build()?;

    // The paper's weighted parameters.
    let p = CostParams::of(&g);
    println!("network: {g}");
    println!("parameters: {p}");
    println!();

    // Every protocol below is a row of the paper's catalogue: it runs
    // under an oracle — here the fixed worst-case delay model — and knows
    // its own bound.
    let run = |row: &Claim| row.run(&g, ModelOracle::new(DelayModel::WorstCase, 0));
    let root = NodeId::new(0);

    // 1. Flood a token from vertex 0 (CON_flood, §6.1): O(Ê) comm, O(D̂) time.
    let flood = Claim::Flood { root };
    println!("CON_flood:   {}", run(&flood)?.cost);
    println!("             bound {:?}", flood.bounds(&g, &p).comm);

    // 2. Depth-first search with root estimates (§6.2): O(Ê) comm & time.
    println!("DFS:         {}", run(&Claim::Dfs { root })?.cost);

    // 3. Global function over a shallow-light tree (§2): O(V̂) comm, O(D̂) time.
    let inputs = vec![3u64, 1, 4, 1, 5, 9];
    let out = run(&Claim::GlobalSlt { root, q: 2, inputs })?;
    println!(
        "global max:  {}  -> {} at every vertex (tree weight {})",
        out.cost,
        out.outputs[0],
        out.tree.expect("the fold's tree").weight()
    );

    // 4. The minimum spanning tree three ways (§6.3, §8).
    let ghs = run(&Claim::MstGhs { root })?;
    let centr = run(&Claim::MstCentr { root })?;
    let hybrid = run(&Claim::MstHybrid { root })?;
    let mst = ghs.tree.expect("GHS builds the MST");
    println!("MST_ghs:     {}  (w(T) = {})", ghs.cost, mst.weight());
    println!("MST_centr:   {}", centr.cost);
    println!(
        "MST_hybrid:  {}  (winner: {:?})",
        hybrid.cost, hybrid.winner
    );

    // 5. Shortest-path tree from vertex 0 under the strip method (§9.2).
    let spt = run(&Claim::SptRecur {
        source: root,
        delta: 2,
    })?;
    println!("SPT_recur:   {}  (dist(v3) = {})", spt.cost, spt.dists[3]);

    Ok(())
}
