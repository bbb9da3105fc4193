//! The `csp-adversary` acceptance suite: replay determinism, committed
//! beating schedules, and paper-bound compliance under searched
//! adversaries.
//!
//! The committed schedules under `tests/schedules/` were produced by
//! `examples/adversary_hunt.rs` (deterministic search, default
//! [`SearchConfig`]) and are the proof artifacts that a searched
//! adversary strictly beats `DelayModel::WorstCase` on single-strip
//! `SPT_recur` — the chaotic-Bellman–Ford regime, whose *message set*
//! depends on delivery order. Regenerate them with
//! `cargo run --release --example adversary_hunt -- tests/schedules`.

use cost_sensitive::algo::mst::ghs::Ghs;
use cost_sensitive::algo::spt::recur::SptRecur;
use cost_sensitive::prelude::*;
use std::path::PathBuf;

/// Strip depth putting `SPT_recur` in its single-strip (plain
/// Bellman–Ford) regime on every test instance.
const ONE_STRIP: u64 = 1 << 40;

fn schedule_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/schedules")
}

/// The committed beating points: family label, instance, and the
/// completion time the committed schedule must replay to. The
/// `WorstCase` baseline is recomputed fresh, so the "beats" assertion
/// can never drift out of sync with the simulator.
fn committed_points() -> Vec<(&'static str, WeightedGraph, u64)> {
    vec![
        (
            "gnp-n12",
            generators::connected_gnp(12, 0.3, generators::WeightDist::Uniform(1, 16), 42),
            92,
        ),
        (
            "gnp-n16",
            generators::connected_gnp(16, 0.25, generators::WeightDist::Uniform(1, 32), 7),
            170,
        ),
        (
            "heavy-chord-n12",
            generators::heavy_chord_cycle(12, 64),
            200,
        ),
        ("cluster-3x4", generators::cluster_graph(3, 4, 50, 11), 250),
        (
            "sparse-heavy-n14",
            generators::sparse_heavy_path(14, 100, 3),
            1101,
        ),
    ]
}

fn make_recur(v: NodeId, _: &WeightedGraph) -> SptRecur {
    SptRecur::new(v, NodeId::new(0), ONE_STRIP)
}

#[test]
fn committed_schedules_beat_worst_case() {
    for (label, g, expected) in committed_points() {
        let worst = Simulator::new(&g)
            .delay(DelayModel::WorstCase)
            .run(make_recur)
            .unwrap();
        let schedule =
            Schedule::load(&schedule_dir().join(format!("spt-recur-{label}.schedule"))).unwrap();

        // Replay through an inspectable oracle: a committed schedule
        // must reproduce its run without a single fallback decision.
        let mut oracle = ScheduleOracle::new(&schedule);
        let replayed = Simulator::new(&g)
            .run_with_oracle(&mut oracle, make_recur)
            .unwrap();
        assert_eq!(oracle.divergences, 0, "{label}: replay diverged");
        assert_eq!(
            replayed.cost.completion.get(),
            expected,
            "{label}: committed schedule no longer replays to its recorded time"
        );
        assert!(
            replayed.cost.completion > worst.cost.completion,
            "{label}: searched schedule ({}) must beat WorstCase ({})",
            replayed.cost.completion,
            worst.cost.completion,
        );
    }
}

#[test]
fn committed_schedules_respect_their_row_or_the_bellman_ford_envelope() {
    // Each witness must respect what the SPT_recur row states. Where the
    // row states no bound — it does not, for the single-level strip
    // method — a chaotic Bellman–Ford envelope stands in, which is NOT a
    // theorem of the paper: at most n sequential relaxation waves, each
    // reaching depth D̂ and possibly relaxing one non-shortest-path edge
    // of delay up to W; and O(n·Ê) weighted communication (every vertex
    // improves its distance at most n times, each improvement relaxing
    // each incident edge once, plus the Start/Ack overhead).
    let row = Claim::SptRecur {
        source: NodeId::new(0),
        delta: ONE_STRIP,
    };
    for (label, g, _) in committed_points() {
        let p = CostParams::of(&g);
        let bounds = row.bounds(&g, &p);
        let schedule =
            Schedule::load(&schedule_dir().join(format!("spt-recur-{label}.schedule"))).unwrap();
        let run = replay(&g, make_recur, &schedule);
        let time = u128::from(run.cost.completion.get());
        let comm = run.cost.weighted_comm.get();
        match bounds.time {
            Some(b) => assert!(b.admits(time), "{label}: searched time {time} > {b:?}"),
            None => {
                let envelope =
                    (p.weighted_diameter.get() + p.max_weight.get() as u128) * p.n as u128;
                assert!(
                    time <= envelope,
                    "{label}: searched time {time} exceeds n·(D̂ + W) = {envelope}"
                );
            }
        }
        match bounds.comm {
            Some(b) => assert!(b.admits(comm), "{label}: searched comm {comm} > {b:?}"),
            None => {
                let envelope = p.total_weight.get() * 4 * p.n as u128;
                assert!(
                    comm <= envelope,
                    "{label}: searched comm {comm} exceeds 4·n·Ê = {envelope}"
                );
            }
        }
    }
}

#[test]
fn searched_ghs_schedule_keeps_figure_3_comm_bound() {
    // The searched adversary may stretch GHS's completion time, but its
    // weighted communication must stay inside the Figure 3 GHS row's
    // O(Ê + V̂·log n) bound, with the constant `tests/paper_bounds.rs`
    // checks it at.
    let g = generators::connected_gnp(12, 0.3, generators::WeightDist::Uniform(1, 16), 42);
    let cfg = SearchConfig::builder()
        .random_probes(8)
        .hill_rounds(2)
        .candidates_per_round(4)
        .build()
        .expect("suite search config is statically valid");
    let out = find_worst_schedule(&g, Ghs::new, &cfg);
    let run = replay(&g, Ghs::new, &out.schedule);
    assert_eq!(run.cost.completion, out.best_time);
    let row = Claim::MstGhs {
        root: NodeId::new(0),
    };
    let bound = row.bounds(&g, &CostParams::of(&g)).comm.unwrap();
    assert!(
        bound.admits(run.cost.weighted_comm.get()),
        "searched GHS comm {} exceeds {bound:?}",
        run.cost.weighted_comm,
    );
}

#[test]
fn record_then_replay_reproduces_the_run_exactly() {
    let g = generators::connected_gnp(14, 0.3, generators::WeightDist::Uniform(1, 24), 9);
    let mut recorder = Recorder::new(ModelOracle::new(DelayModel::Uniform, 5));
    let recorded = Simulator::new(&g)
        .record_trace(1 << 16)
        .run_with_oracle(&mut recorder, Ghs::new)
        .unwrap();
    let schedule = recorder.into_schedule(Fallback::WorstCase);

    let mut oracle = ScheduleOracle::new(&schedule);
    let replayed = Simulator::new(&g)
        .record_trace(1 << 16)
        .run_with_oracle(&mut oracle, Ghs::new)
        .unwrap();

    assert_eq!(oracle.divergences, 0);
    assert_eq!(recorded.cost, replayed.cost);
    assert_eq!(recorded.trace.events(), replayed.trace.events());
    assert_eq!(recorded.truncated, replayed.truncated);
    // Final per-vertex states, compared structurally via Debug (protocol
    // states are not PartialEq).
    assert_eq!(
        format!("{:?}", recorded.states),
        format!("{:?}", replayed.states)
    );
}

/// Every committed witness, with the instance and stack it was recorded
/// against.
#[test]
fn committed_schedule_files_round_trip_textually() {
    fn check<P: Process>(
        file: &str,
        g: &WeightedGraph,
        make: impl Fn(NodeId, &WeightedGraph) -> P,
    ) {
        let text = std::fs::read_to_string(schedule_dir().join(file)).unwrap();
        let schedule = Schedule::from_text(&text).unwrap();
        assert!(!schedule.is_empty(), "{file}");
        // The file is its `#` header followed by exactly what the
        // emitter writes for the parsed schedule...
        let body = &text[text.find("csp-adversary-schedule").unwrap()..];
        assert!(text[..text.len() - body.len()]
            .lines()
            .all(|l| l.starts_with("# ")));
        assert_eq!(schedule.to_text(), body, "{file} re-emits");
        // ...and by what a recorder transcribes when it is replayed.
        let (_, recorded) = record(g, &make, ScheduleOracle::new(&schedule), schedule.fallback);
        assert_eq!(recorded, schedule, "{file} re-records");
        assert_eq!(recorded.to_text(), body, "{file} re-records to its bytes");
    }
    let mut checked = 0;
    for (label, g, _) in committed_points() {
        check(&format!("spt-recur-{label}.schedule"), &g, make_recur);
        checked += 1;
    }
    let (_, gnp_n12, _) = committed_points().swap_remove(0);
    for file in [
        "reliable-spt-recur-gnp-n12.schedule",
        "fault-spt-recur-gnp-n12.schedule",
    ] {
        check(file, &gnp_n12, |v, g| Reliable::new(make_recur(v, g), 3));
        checked += 1;
    }
    for file in [
        "resilient-spt-gnp-n12.schedule",
        "crash-resilient-spt-gnp-n12.schedule",
        "churn-resilient-spt-gnp-n12.schedule",
    ] {
        check(file, &gnp_n12, |v, g| {
            let inner = Resilient::new(v, NodeId::new(0), Metric::Weighted, g);
            Detect::new(inner, DetectConfig::new(8, 30, 0))
        });
        checked += 1;
    }
    let committed = std::fs::read_dir(schedule_dir()).unwrap().count();
    assert_eq!(checked, committed, "a committed schedule is not covered");
}

/// `Mutation::apply` against the table in `tests/golden/`: same base,
/// dimensions and seed — same mutant, byte for byte, and the same cache
/// keys, as before `Schedule` carried its faults as one `FaultPlan`.
#[test]
fn mutation_apply_matches_its_golden_table() {
    let cases = [
        ("delay", Mutation::new().delay_flips(4), 1),
        ("drop", Mutation::new().drop_flips(3), 2),
        ("crash-time", Mutation::new().crash_time_flips(3), 3),
        ("crash-time-b", Mutation::new().crash_time_flips(4), 11),
        ("rejoin", Mutation::new().rejoin_flips(3), 4),
        ("rejoin-b", Mutation::new().rejoin_flips(5), 12),
        ("drift", Mutation::new().drift_flips(3), 5),
        (
            "all",
            Mutation::new()
                .delay_flips(2)
                .drop_flips(1)
                .crash_time_flips(2)
                .rejoin_flips(2)
                .drift_flips(2),
            6,
        ),
        (
            "all-horizon",
            Mutation::new()
                .delay_flips(2)
                .drop_flips(1)
                .crash_time_flips(2)
                .rejoin_flips(4)
                .drift_flips(2)
                .crash_horizon(70),
            7,
        ),
    ];
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/mutation_apply.txt");
    let table = std::fs::read_to_string(path).unwrap();
    let mut blocks = (table.split("=== ").skip(1)).map(|block| block.split_once('\n').unwrap());
    let (title, base) = blocks.next().unwrap();
    assert_eq!(title, "base");
    let base = Schedule::from_text(base).unwrap();
    assert_eq!(base.plan.churn.len(), 3, "a multi-victim base");
    for (name, mutation, seed) in cases {
        let (title, want) = blocks.next().expect("a block per case");
        let mutant = mutation.apply(&base, seed);
        let keys = (mutant.crash_key(), mutant.prefix_key(mutant.len()));
        let got = format!(
            "{name} seed {seed} crash_key {:016x} prefix_key {:016x}",
            keys.0, keys.1
        );
        assert_eq!(got, title, "{name}");
        assert_eq!(mutant.to_text(), want, "{name}");
    }
    assert!(blocks.next().is_none(), "a block without a case");
}

/// Every pinned search outcome at `threads` workers, one line per cell:
/// the label, configuration and seed, then `evaluations best_time
/// strategy` and the prefix key of the returned schedule. The cells are
/// single-strip `SptRecur` on the four witness graphs the `adv_search`
/// benchmark searches plus a gnp-n24, under the default budgets, a
/// search with no hill rounds (so that polish adopts on its own), and
/// short and long hill phases.
fn search_outcomes(threads: usize) -> String {
    let configs = [
        ("default", SearchConfig::builder()),
        (
            "h0p4",
            SearchConfig::builder().hill_rounds(0).random_probes(4),
        ),
        (
            "h2x3",
            SearchConfig::builder()
                .hill_rounds(2)
                .candidates_per_round(3),
        ),
        (
            "h6x16",
            SearchConfig::builder()
                .hill_rounds(6)
                .candidates_per_round(16),
        ),
    ];
    let mut graphs: Vec<(&str, WeightedGraph)> = committed_points()
        .into_iter()
        .filter(|(label, _, _)| *label != "cluster-3x4")
        .map(|(label, g, _)| (label, g))
        .collect();
    graphs.push((
        "gnp-n24",
        generators::connected_gnp(24, 0.2, generators::WeightDist::Uniform(1, 32), 5),
    ));
    let mut text =
        String::from("# label config seed: evaluations best_time strategy prefix_key(schedule)\n");
    for (label, g) in &graphs {
        for (name, builder) in configs {
            for seed in [1, 2, 3] {
                let cfg = builder.seed(seed).threads(threads).build().unwrap();
                let out = find_worst_schedule(g, make_recur, &cfg);
                text += &format!(
                    "{label} {name} {seed}: {} {} {} {:016x}\n",
                    out.evaluations,
                    out.best_time.get(),
                    out.strategy,
                    out.schedule.prefix_key(out.schedule.len())
                );
            }
        }
    }
    text
}

/// `find_worst_schedule`'s outcomes — evaluations, best time, strategy
/// and schedule — are those in `tests/golden/search_outcomes.txt`, at
/// one worker and at two: how the search spreads its candidates over
/// threads must leave every one of them where it was.
#[test]
fn search_outcomes_match_their_golden_file() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/search_outcomes.txt");
    let golden = std::fs::read_to_string(path).unwrap();
    for strategy in ["hill-climb", "polish"] {
        assert!(
            golden.lines().any(|l| l.contains(&format!(" {strategy} "))),
            "no cell adopts through {strategy}"
        );
    }
    for threads in [1, 2] {
        let now = search_outcomes(threads);
        for (want, got) in golden.lines().zip(now.lines()) {
            let label = want.split(':').next().unwrap_or(want);
            assert_eq!(
                got, want,
                "threads {threads}, first differing cell: {label}"
            );
        }
        assert_eq!(now.lines().count(), golden.lines().count());
    }
}
