//! Fault-search throughput: what enabling drop/crash search costs the
//! adversary loop, measured on the retransmission-wrapped protocol the
//! fault model exists for.
//!
//! ```text
//! cargo run -p csp-bench --release --bin fault_search_bench \
//!     [-- out.json [budget]]
//! ```
//!
//! Each workload runs `find_worst_schedule` over `Reliable<SPT_recur>`
//! twice with an identical budget: once delay-only (the pre-fault
//! search, `drop_flips = 0`) and once with drop mutation and crash
//! probes enabled. Reported per workload and aggregate: candidate
//! evaluations per second for both modes, their ratio
//! (`relative_throughput` — how much of the delay-only speed the fault
//! search keeps), and the completion-time gain the fault adversary buys
//! (`fault_gain = fault_best / delay_best`). The report lands in
//! `BENCH_fault_search.json` (schema pinned by CI).

use csp_adversary::{find_worst_schedule, SearchConfig, SearchOutcome};
use csp_algo::spt::recur::SptRecur;
use csp_graph::{generators, NodeId, WeightedGraph};
use csp_sim::Reliable;
use std::time::Instant;

/// Strip depth putting `SPT_recur` in its single-strip regime.
const ONE_STRIP: u64 = 1 << 40;

/// Retry bound for the wrapper: enough to out-last any searched drop
/// schedule on these instances.
const MAX_RETRIES: u32 = 3;

fn make(v: NodeId, _: &WeightedGraph) -> Reliable<SptRecur> {
    Reliable::new(SptRecur::new(v, NodeId::new(0), ONE_STRIP), MAX_RETRIES)
}

fn workloads() -> Vec<(&'static str, WeightedGraph)> {
    vec![
        (
            "gnp-n12",
            generators::connected_gnp(12, 0.3, generators::WeightDist::Uniform(1, 16), 42),
        ),
        ("heavy-chord-n12", generators::heavy_chord_cycle(12, 64)),
    ]
}

struct ModeRun {
    outcome: SearchOutcome,
    secs: f64,
}

fn run_mode(g: &WeightedGraph, cfg: &SearchConfig) -> ModeRun {
    let start = Instant::now();
    let outcome = find_worst_schedule(g, make, cfg);
    ModeRun {
        outcome,
        secs: start.elapsed().as_secs_f64(),
    }
}

fn eps(m: &ModeRun) -> f64 {
    m.outcome.evaluations as f64 / m.secs
}

fn main() {
    let mut args = std::env::args().skip(1);
    let out_path = args
        .next()
        .unwrap_or_else(|| "BENCH_fault_search.json".to_string());
    let budget: usize = args
        .next()
        .map(|s| s.parse().expect("budget must be an integer"))
        .unwrap_or(16);

    let base = SearchConfig::builder()
        .random_probes(budget)
        .hill_rounds(budget / 2)
        .candidates_per_round(4)
        .polish_passes(1);
    let delay_cfg = base.build().expect("delay-only config is valid");
    let fault_cfg = base
        .drop_flips(2)
        .crash_probes(2)
        .build()
        .expect("fault config is valid");

    let mut rows = Vec::new();
    let (mut d_evals, mut d_secs) = (0usize, 0.0f64);
    let (mut f_evals, mut f_secs) = (0usize, 0.0f64);
    for (name, g) in workloads() {
        let delay = run_mode(&g, &delay_cfg);
        let fault = run_mode(&g, &fault_cfg);
        let gain = fault.outcome.best_time.get() as f64 / delay.outcome.best_time.get() as f64;
        eprintln!(
            "{:<16} delay {:>7.0} eval/s (best {})  fault {:>7.0} eval/s (best {}, {} drops)  gain {:.3}x",
            name,
            eps(&delay),
            delay.outcome.best_time,
            eps(&fault),
            fault.outcome.best_time,
            fault.outcome.schedule.dropped_count(),
            gain,
        );
        d_evals += delay.outcome.evaluations;
        d_secs += delay.secs;
        f_evals += fault.outcome.evaluations;
        f_secs += fault.secs;
        rows.push(format!(
            concat!(
                "    {{\"workload\": \"{}\", \"delay_evaluations\": {}, ",
                "\"fault_evaluations\": {}, \"delay_eval_per_s\": {:.1}, ",
                "\"fault_eval_per_s\": {:.1}, \"delay_best_time\": {}, ",
                "\"fault_best_time\": {}, \"fault_drops\": {}, ",
                "\"fault_crashes\": {}, \"fault_gain\": {:.3}}}"
            ),
            name,
            delay.outcome.evaluations,
            fault.outcome.evaluations,
            eps(&delay),
            eps(&fault),
            delay.outcome.best_time.get(),
            fault.outcome.best_time.get(),
            fault.outcome.schedule.dropped_count(),
            // Crash-stop search: every chain is one crash.
            fault.outcome.schedule.plan.churn.len(),
            gain,
        ));
    }

    let delay_eps = d_evals as f64 / d_secs;
    let fault_eps = f_evals as f64 / f_secs;
    let relative = fault_eps / delay_eps;
    eprintln!(
        "aggregate: delay {delay_eps:.0} eval/s, fault {fault_eps:.0} eval/s ({relative:.2}x relative throughput)"
    );

    let json = format!(
        "{{\n  \"bench\": \"fault_search_evaluations_per_second\",\n  \
         \"protocol\": \"Reliable<SPT_recur> (single strip)\",\n  \
         \"delay_mode\": \"drop_flips 0, crash_probes 0 (pre-fault search)\",\n  \
         \"fault_mode\": \"drop_flips 2, crash_probes 2\",\n  \
         \"budget\": {budget},\n  \
         \"delay_eval_per_s\": {delay_eps:.1},\n  \
         \"fault_eval_per_s\": {fault_eps:.1},\n  \
         \"relative_throughput\": {relative:.3},\n  \"per_workload\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("write bench JSON");
    eprintln!("wrote {out_path}");
}
