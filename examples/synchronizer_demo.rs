//! Running a synchronous protocol on an asynchronous network with
//! synchronizer γ_w (Section 4), and watching the clock synchronizers
//! α*/β*/γ* race (Section 3).
//!
//! ```text
//! cargo run --example synchronizer_demo
//! ```

use cost_sensitive::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Part 1 — clock synchronization.
    // A light ring with heavy chords: d (max distance between neighbors)
    // is tiny while W (max edge weight) is huge. α* pays W per pulse; γ*
    // pays O(d·log²n).
    let g = generators::heavy_chord_cycle(16, 2_000);
    let p = CostParams::of(&g);
    println!("clock network: {p}");
    println!();
    println!(
        "{:<6} {:>12} {:>12} {:>12}",
        "sync", "pulse delay", "mean delay", "comm/pulse"
    );
    let pulses = 6;
    let leader = NodeId::new(0);
    for (name, row) in [
        ("α*", Claim::AlphaStar { pulses }),
        ("β*", Claim::BetaStar { leader, pulses }),
        ("γ*", Claim::GammaStar { pulses }),
    ] {
        let outcome = row.run(&g, ModelOracle::new(DelayModel::WorstCase, 0))?;
        println!(
            "{:<6} {:>12} {:>12.1} {:>12}",
            name,
            outcome.pulses.max_pulse_delay(),
            outcome.pulses.mean_pulse_delay(),
            outcome.cost.weighted_comm.get() / pulses as u128,
        );
    }
    println!();
    println!("lower bound Ω(d): d = {}", p.max_neighbor_distance);
    println!();

    // Part 2 — network synchronization.
    // The synchronous SPT protocol (time D̂, comm Ê on a synchronous
    // network) is written once against the lock-step semantics…
    let net = generators::connected_gnp(14, 0.2, generators::WeightDist::Uniform(1, 12), 7);
    let ideal = run_spt_synch_ideal(&net, leader);
    println!("synchronous SPT on the ideal network: {}", ideal.cost);

    // …and then runs unchanged on a fully asynchronous network, hosted by
    // synchronizer γ_w. The hosted protocol sees the synchronous run's
    // inboxes in the synchronous run's order, so it builds the same tree
    // — every parent, not just every distance; the synchronizer's own
    // traffic is metered separately.
    let parents = |out: &Outcome| {
        let tree = out.tree.as_ref().expect("SPT rows build a tree");
        net.nodes()
            .map(|v| tree.parent(v).map(|(p, _, _)| p))
            .collect::<Vec<_>>()
    };
    for k in [2, 4, 8] {
        let row = Claim::SptSynch { source: leader, k };
        let hosted = row.run(&net, ModelOracle::new(DelayModel::Uniform, 1))?;
        assert_eq!(hosted.dists, ideal.dists, "γ_w must preserve distances");
        assert_eq!(
            parents(&hosted),
            parents(&ideal),
            "γ_w must preserve the tree"
        );
        println!(
            "under γ_w (k={k}):  total {}  [protocol {}, synchronizer {}]",
            hosted.cost,
            hosted.cost.comm_of(CostClass::Protocol),
            hosted.cost.comm_of(CostClass::Synchronizer),
        );
    }
    println!();
    println!("Same tree every time — Lemma 4.5's transformation keeps the");
    println!("hosted protocol's view identical to the synchronous run,");
    println!("while k trades synchronizer communication against time.");
    Ok(())
}
