//! DPOR suite: the dependence relation and the sleep-set explorer,
//! checked against the two ground truths the reduction is allowed to
//! exist by.
//!
//! * **Equivalence**: permuting *independent* (vertex-disjoint)
//!   adjacent decisions of a recorded schedule and replaying it by
//!   per-channel occurrence produces a bit-identical run — the
//!   Mazurkiewicz classes the explorer enumerates really are
//!   equivalence classes of runs.
//! * **Coverage**: on an exhaustively enumerable instance the explorer's
//!   worst completion equals the worst over *every* delay assignment,
//!   and on a larger instance it dominates a 10k-sample random sweep.
//!
//! Beside them, `tests/golden/explorer_outcomes.txt` pins what the
//! explorer reports — counters, worst case and witness — so a change to
//! its bookkeeping cannot move them unnoticed.

use cost_sensitive::algo::flood::Flood;
use cost_sensitive::prelude::*;
use proptest::prelude::*;

fn flood() -> impl Fn(NodeId, &WeightedGraph) -> Flood + Copy {
    |v, _| Flood::new(v == NodeId::new(0))
}

/// Strategy: a small connected weighted graph where every decision has
/// at least one alternative order to permute into.
fn arb_graph() -> impl Strategy<Value = WeightedGraph> {
    (4usize..=10, 0.1f64..0.5, 2u64..=4, any::<u64>()).prop_map(|(n, p, wmax, seed)| {
        generators::connected_gnp(n, p, generators::WeightDist::Uniform(1, wmax), seed)
    })
}

/// Replays `decisions` keyed by per-channel occurrence and returns the
/// run, asserting the transcript covered every dispatch.
fn replay_by_occurrence(g: &WeightedGraph, decisions: &[Decision]) -> CostReport {
    let mut oracle = OccurrenceOracle::new(decisions);
    let run = Simulator::new(g)
        .run_with_oracle(&mut oracle, flood())
        .expect("flood quiesces under any admissible schedule");
    assert_eq!(oracle.unmatched, 0, "replay must stay on the transcript");
    run.cost
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Swapping adjacent *independent* decisions — disjoint vertex sets,
    /// so unordered by the dependence relation — is invisible to the
    /// run: the occurrence-keyed replay is bit-identical, and the trace
    /// keeps its class signature.
    #[test]
    fn independent_swaps_replay_bit_identically(
        g in arb_graph(),
        seed in any::<u64>(),
        picks in any::<u64>(),
    ) {
        let (_, schedule) = record(
            &g,
            flood(),
            ModelOracle::new(DelayModel::Uniform, seed),
            Fallback::WorstCase,
        );
        let (_, trace) = Trace::record::<Flood, _>(&g, flood(), &schedule);
        let baseline = replay_by_occurrence(&g, &schedule.decisions);
        let signature = trace.class_signature();

        // Permute: each byte of `picks` selects an adjacent pair; swap
        // it only if the two dispatches touch disjoint vertices. With
        // zero swaps the assertions below hold trivially.
        let steps = trace.steps();
        let mut decisions = schedule.decisions.clone();
        let mut order: Vec<usize> = (0..steps.len()).collect();
        for k in 0..8 {
            let i = ((picks >> (8 * k)) as usize & 0xff) % (steps.len() - 1);
            if !steps[order[i]].dependent(&steps[order[i + 1]]) {
                order.swap(i, i + 1);
                decisions.swap(i, i + 1);
            }
        }

        // Bit-identical run through the occurrence replay...
        let permuted = replay_by_occurrence(&g, &decisions);
        prop_assert_eq!(baseline, permuted);
        // ...and the permuted transcript is the same Mazurkiewicz class.
        let mut rec = Recorder::new(OccurrenceOracle::new(&decisions));
        Simulator::new(&g)
            .run_with_oracle(&mut rec, flood())
            .expect("flood quiesces");
        let resched = rec.into_schedule(Fallback::WorstCase);
        let (_, retrace) = Trace::record::<Flood, _>(&g, flood(), &resched);
        prop_assert_eq!(retrace.class_signature(), signature);
    }

    /// Swapping a *dependent* adjacent pair is a different class (or an
    /// impossible transcript): the dependence relation is not vacuous.
    #[test]
    fn dependent_pairs_exist_and_are_ordered(g in arb_graph(), seed in any::<u64>()) {
        let (_, schedule) = record(
            &g,
            flood(),
            ModelOracle::new(DelayModel::Uniform, seed),
            Fallback::WorstCase,
        );
        let (_, trace) = Trace::record::<Flood, _>(&g, flood(), &schedule);
        let steps = trace.steps();
        // Flooding always chains sends off deliveries, so some pair of
        // dispatches must share a vertex.
        let any_dependent = (0..steps.len())
            .flat_map(|i| (i + 1..steps.len()).map(move |j| (i, j)))
            .any(|(i, j)| steps[i].dependent(&steps[j]));
        prop_assert!(any_dependent);
    }
}

/// Fixed-prefix enumeration oracle: plays recorded choices, extends
/// fresh dispatches with the fastest admissible delay.
struct EnumOracle<'a> {
    path: &'a mut Vec<(u64, u64)>,
    cursor: usize,
}

impl DelayOracle for EnumOracle<'_> {
    fn delay(&mut self, msg: &MsgInfo) -> u64 {
        if self.cursor < self.path.len() {
            let choice = self.path[self.cursor].0;
            self.cursor += 1;
            choice
        } else {
            self.path.push((1, msg.weight.get()));
            self.cursor += 1;
            1
        }
    }
}

/// Worst completion over every delay assignment, by backtracking DFS.
fn enumerate_worst(g: &WeightedGraph, cap: u64) -> (u64, u64) {
    let mut path: Vec<(u64, u64)> = Vec::new();
    let (mut leaves, mut worst) = (0u64, 0u64);
    loop {
        let mut oracle = EnumOracle {
            path: &mut path,
            cursor: 0,
        };
        let run = Simulator::new(g)
            .run_with_oracle(&mut oracle, flood())
            .expect("flood quiesces");
        leaves += 1;
        worst = worst.max(run.cost.completion.get());
        assert!(leaves <= cap, "instance too large to enumerate");
        while let Some(last) = path.last_mut() {
            if last.0 < last.1 {
                last.0 += 1;
                break;
            }
            path.pop();
        }
        if path.is_empty() {
            return (leaves, worst);
        }
    }
}

/// On a fully enumerable instance, the explorer's worst equals the
/// naive enumeration's worst — with far fewer evaluations.
#[test]
fn explorer_matches_full_enumeration_on_a_small_instance() {
    let g = generators::connected_gnp(6, 0.3, generators::WeightDist::Uniform(1, 2), 21);
    let (leaves, naive_worst) = enumerate_worst(&g, 1 << 16);
    let cfg = SearchConfig::builder().exhaustive(0).build().unwrap();
    let out = explore_exhaustive(&g, flood(), &cfg);
    assert_eq!(out.strategy, "exhaustive");
    assert_eq!(out.best_time.get(), naive_worst);
    assert!(
        (out.evaluations as u64) < leaves,
        "explorer must not out-enumerate the cube ({} vs {leaves})",
        out.evaluations
    );
    // The witness replays to exactly the reported worst.
    let rerun = replay(&g, flood(), &out.schedule);
    assert_eq!(rerun.cost.completion, out.best_time);
}

/// On the benchmark's n=8 instance, the explorer dominates a 10k-sample
/// random schedule sweep.
#[test]
fn explorer_dominates_ten_thousand_random_schedules() {
    let g = generators::connected_gnp(8, 0.25, generators::WeightDist::Uniform(1, 2), 8);
    let cfg = SearchConfig::builder().exhaustive(0).build().unwrap();
    let out = explore_exhaustive(&g, flood(), &cfg);
    let mut sampled_worst = 0;
    for seed in 0..10_000u64 {
        let run = Simulator::new(&g)
            .run_with_oracle(&mut ModelOracle::new(DelayModel::Uniform, seed), flood())
            .expect("flood quiesces");
        sampled_worst = sampled_worst.max(run.cost.completion.get());
    }
    assert!(
        out.best_time.get() >= sampled_worst,
        "explorer worst {} lost to a random sample's {sampled_worst}",
        out.best_time
    );
}

/// Every pinned explorer outcome, one line per cell: the label, then
/// `evaluations classes_explored schedules_pruned worst_case best_time`
/// and the prefix key of the returned schedule.
fn explorer_outcomes() -> String {
    use cost_sensitive::algo::spt::recur::SptRecur;
    use generators::WeightDist::Uniform;
    fn line<P: Process, F: Fn(NodeId, &WeightedGraph) -> P>(
        label: &str,
        g: &WeightedGraph,
        make: F,
        budget: usize,
    ) -> String {
        let cfg = SearchConfig::builder().exhaustive(budget).build().unwrap();
        let out = explore_exhaustive(g, make, &cfg);
        format!(
            "{label} b{budget}: {} {} {} {} {} {:016x}\n",
            out.evaluations,
            out.classes_explored,
            out.schedules_pruned,
            out.worst_case.get(),
            out.best_time.get(),
            out.schedule.prefix_key(out.schedule.len())
        )
    }
    let mut text = String::from(
        "# label budget: evaluations classes_explored schedules_pruned worst_case best_time prefix_key(schedule)\n",
    );
    for (n, p, w_max) in [(6, 0.3, 2), (6, 0.5, 3), (8, 0.3, 3), (10, 0.25, 2)] {
        for seed in [1, 2] {
            let label = format!("gnp({n},{p},U(1,{w_max}),{seed})");
            let g = generators::connected_gnp(n, p, Uniform(1, w_max), seed);
            for budget in [16, 256, 4096] {
                text += &line(&format!("flood {label}"), &g, flood(), budget);
                // One strip: Δ beyond any distance, as csp-serve's `delta: 0`.
                let spt = |v, _: &WeightedGraph| SptRecur::new(v, NodeId::new(0), 1 << 40);
                text += &line(&format!("spt_recur {label}"), &g, spt, budget);
            }
        }
    }
    // The benchmark's instance, capped and complete.
    let g = generators::connected_gnp(8, 0.25, Uniform(1, 2), 8);
    for budget in [4096, 65_536] {
        text += &line("flood gnp(8,0.25,U(1,2),8)", &g, flood(), budget);
    }
    // Every `spt_recur` cell of the grid above ends with best_time ==
    // worst_case, so none of them shows the explorer beating WorstCase.
    // This timing-dependent one does: a delivery order that finishes
    // at 10 where WorstCase finishes at 8.
    let g = generators::connected_gnp(6, 0.5, Uniform(1, 2), 3);
    let spt = |v, _: &WeightedGraph| SptRecur::new(v, NodeId::new(0), 1 << 40);
    text += &line("spt_recur gnp(6,0.5,U(1,2),3)", &g, spt, 4096);
    text
}

/// The explorer's counters, worst case and witness on a grid of flood
/// and single-strip `SptRecur` instances are those recorded in
/// `tests/golden/explorer_outcomes.txt`: a change to the explorer's
/// bookkeeping must leave every one of them where it was.
#[test]
fn explorer_outcomes_match_their_golden_file() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/explorer_outcomes.txt");
    let golden = std::fs::read_to_string(path).unwrap();
    let now = explorer_outcomes();
    for (want, got) in golden.lines().zip(now.lines()) {
        let label = want.split(':').next().unwrap_or(want);
        assert_eq!(got, want, "first differing cell: {label}");
    }
    assert_eq!(now.lines().count(), golden.lines().count());
}
