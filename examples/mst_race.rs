//! The MST algorithms race on the two adversarial regimes of Figure 3.
//!
//! * Regime A (`Ê ≪ n·V̂`): a long heavy path with a few light chords —
//!   the edge-frugal GHS wins.
//! * Regime B (`n·V̂ ≪ Ê`): the paper's lower-bound family `G_n`
//!   (Figure 7) — a light path buried under astronomically heavy bypass
//!   edges; the full-information `MST_centr` wins because it never pays
//!   for non-MST edges, and `MST_hybrid` tracks whichever is cheaper.
//!
//! ```text
//! cargo run --example mst_race
//! ```

use cost_sensitive::prelude::*;

fn race(name: &str, g: &WeightedGraph) -> Result<(), Box<dyn std::error::Error>> {
    let p = CostParams::of(g);
    let pivot = p.total_weight.min(p.mst_weight * p.n as u128);
    println!("── {name}");
    println!("   {p}");
    println!(
        "   bounds: Ê = {}, n·V̂ = {}, min = {pivot}",
        p.total_weight,
        p.mst_weight * p.n as u128
    );
    let root = NodeId::new(0);
    println!(
        "   {:<12} {:>12} {:>10} {:>12}",
        "algorithm", "comm", "time", "comm bound"
    );
    let mut weights = Vec::new();
    for (name, row) in [
        ("MST_ghs", Claim::MstGhs { root }),
        ("MST_centr", Claim::MstCentr { root }),
        ("MST_fast", Claim::MstFast { root }),
        ("MST_hybrid", Claim::MstHybrid { root }),
    ] {
        let out = row.run(g, ModelOracle::new(DelayModel::WorstCase, 0))?;
        weights.push(out.tree.expect("an MST").weight());
        let bound = row.bounds(g, &p).comm.map_or(0.0, |b| b.paper);
        let winner = out.winner.map(|w| format!("   winner: {w:?}"));
        println!(
            "   {:<12} {:>12} {:>10} {:>12.0}{}",
            name,
            out.cost.weighted_comm,
            out.cost.completion,
            bound,
            winner.unwrap_or_default()
        );
    }
    assert!(weights.windows(2).all(|w| w[0] == w[1]));
    println!();
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Regime A: heavy path + light chords → Ê small relative to n·V̂.
    let a = generators::sparse_heavy_path(28, 60, 11);
    race("regime A: sparse heavy path (GHS territory)", &a)?;

    // Regime B: the Figure-7 family → n·V̂ tiny relative to Ê.
    let b = generators::lower_bound_family(24, 16);
    race("regime B: lower-bound family G_n (MST_centr territory)", &b)?;

    // Bonus: where MST_fast shines — heavy internal edges that GHS must
    // reject one serial round-trip at a time.
    let c = generators::complete(16, |i, _| if i == 0 { 1 } else { 64 });
    race("regime C: star in a heavy clique (MST_fast time win)", &c)?;
    Ok(())
}
