//! Bound refutation: search a protocol × graph-family grid for schedules
//! violating a stated time bound, and shrink any violation to a minimal
//! replayable counterexample.
//!
//! The shrinker is proptest-style: a violation witnessed by a searched
//! schedule usually rushes many messages, most of them irrelevant.
//! [`shrink`] first discards churn the violation does not need — whole
//! crash/rejoin chains per vertex, then trailing toggles of surviving
//! chains (a crash–rejoin–recrash that only needs its first crash
//! shrinks back to plain crash-stop), then weight-drift revisions one
//! at a time — then pushes each surviving crash's *time* as late as the
//! violation permits (a later crash leaves a longer fault-free prefix,
//! so later is simpler — and a crash after quiescence is the removal
//! already rejected; on a churn chain the push stays strictly below the
//! next toggle), then reverts interesting decisions — rushed
//! (`delay < weight`) or dropped — toward fault-free
//! [`DelayModel::WorstCase`](csp_sim::DelayModel::WorstCase) in
//! halving-size chunks while the violation persists, down to a
//! 1-minimal schedule: reverting any single remaining interesting
//! decision, removing any remaining chain, truncating it by one toggle,
//! dropping any remaining drift, or delaying any remaining crash by one
//! more tick makes the violation disappear. The minimal schedule is
//! re-recorded after every accepted step, so the file written to disk
//! replays to exactly the reported completion time.

use crate::oracle::ScheduleOracle;
use crate::schedule::{crash_positions, Fallback, Schedule};
use crate::search::{find_worst_schedule, SearchConfig, SearchOutcome};
use csp_graph::{NodeId, WeightedGraph};
use csp_sim::{Process, SimTime};
use std::path::{Path, PathBuf};

/// One instance of the grid [`check_time_bound`] sweeps.
#[derive(Clone, Debug)]
pub struct GridPoint {
    /// Human-readable instance name, e.g. `"gnp-n24"` — also the stem of
    /// the counterexample file if the bound falls here.
    pub label: String,
    /// The instance itself.
    pub graph: WeightedGraph,
}

/// A refuted bound on one grid point: a minimal schedule whose replay
/// completes later than the claimed bound.
#[derive(Clone, Debug)]
pub struct Refutation {
    /// Which grid point the bound fell on.
    pub label: String,
    /// The claimed bound, evaluated on that instance.
    pub bound: u64,
    /// Completion time of the (shrunk) counterexample schedule.
    pub observed: SimTime,
    /// The 1-minimal counterexample; replaying it reproduces
    /// [`Refutation::observed`].
    pub schedule: Schedule,
    /// Where the counterexample was written, if an output directory was
    /// given.
    pub path: Option<PathBuf>,
    /// Decisions the final replay requested beyond the recorded horizon
    /// (served by the schedule's [`Fallback`]). Non-zero means the
    /// witness relies on the fallback policy, not only on recorded
    /// decisions — worth knowing before trusting it across simulator
    /// versions.
    pub past_horizon: u64,
}

/// Shrinks `schedule` to a 1-minimal violation of `violates`.
///
/// Churn is tried for removal first: each vertex's whole crash/rejoin
/// chain (a chain stands or falls together — removing an inner toggle
/// would break the alternation discipline), then trailing toggles of
/// surviving chains one at a time, then drift revisions one at a time,
/// until every remaining churn event is load-bearing. Each surviving
/// crash's time is then pushed to the latest tick still violating (so
/// the final witness says: *this* vertex must die, and no later than
/// *this* moment; on a chain the push stays strictly below the next
/// toggle). Then interesting decisions — rushed (`delay < weight`) or
/// dropped — are reverted to fault-free full edge weight in chunks,
/// halving the chunk size whenever no chunk at the current size can be
/// reverted, until no single interesting decision can be reverted
/// without losing the violation. The returned schedule is a fresh
/// recording of its own replay, so it is internally consistent even
/// when reverting steered the protocol down a different path.
///
/// Returns the input re-recorded (unshrunk) if its replay does not
/// satisfy `violates` in the first place.
pub fn shrink<P, F>(
    g: &WeightedGraph,
    make: &F,
    schedule: &Schedule,
    violates: impl Fn(SimTime) -> bool,
) -> (SimTime, Schedule)
where
    P: Process,
    F: Fn(NodeId, &WeightedGraph) -> P,
{
    // Replays a candidate and re-records what was actually taken.
    let rerecord = |s: &Schedule| {
        let (run, recorded) = crate::record(g, make, ScheduleOracle::new(s), Fallback::WorstCase);
        (run.cost.completion, recorded)
    };
    let (mut time, mut current) = rerecord(schedule);
    if !violates(time) {
        return (time, current);
    }

    // Churn removal first: a crash silences a vertex for the rest of the
    // run (and a rejoin resurrects it), warping the whole transcript, so
    // deciding what churn is needed before touching per-message
    // decisions keeps the decision phase shrinking a stable run.
    // `current` is a recording throughout, so its chains are listed by
    // vertex and each phase walks them by position.

    // Whole-chain removal, one vertex at a time.
    let mut v = 0;
    while v < current.plan.churn.len() {
        let mut candidate = current.clone();
        candidate.plan.churn.remove(v);
        let (t, recorded) = rerecord(&candidate);
        if violates(t) {
            time = t;
            current = recorded;
        } else {
            v += 1;
        }
    }

    // Chain truncation: drop the last toggle of each surviving chain
    // while the violation persists — a crash–rejoin–recrash that only
    // needs its opening crash shrinks back to plain crash-stop.
    let mut v = 0;
    while v < current.plan.churn.len() {
        if current.plan.churn[v].1.len() <= 1 {
            v += 1;
            continue;
        }
        let mut candidate = current.clone();
        candidate.plan.churn[v].1.pop();
        let (t, recorded) = rerecord(&candidate);
        if violates(t) {
            time = t;
            current = recorded; // same vertex again: keep truncating
        } else {
            v += 1;
        }
    }

    // Drift removal: weight revisions are independent events; each is
    // tried alone until every survivor is load-bearing.
    let mut d = 0;
    while d < current.plan.drift.len() {
        let mut candidate = current.clone();
        candidate.plan.drift.remove(d);
        let (t, recorded) = rerecord(&candidate);
        if violates(t) {
            time = t;
            current = recorded;
        } else {
            d += 1;
        }
    }

    // Crash-time reverts: push every load-bearing crash as late as the
    // violation allows. "Later" is the simpler direction — the run is
    // fault-free for longer, and a crash after quiescence is exactly the
    // removal the previous phase rejected. Pushed once here so the
    // decision phase shrinks the simplest transcript, and once more
    // after it, because reverting a decision can slow the run down and
    // re-loosen a crash's deadline — only the final pass's times are
    // 1-minimal against the witness actually returned.
    let push_crash_times = |time: &mut SimTime, current: &mut Schedule| {
        // Re-recording keeps every chain's place and length, so the
        // (chain, position) pairs stay put while the times move.
        for (v, pos) in crash_positions(&current.plan) {
            let replay_at = |at: u64, from: &Schedule| {
                let mut candidate = from.clone();
                candidate.plan.churn[v].1[pos] = SimTime::new(at);
                rerecord(&candidate)
            };
            // Boundary search keeping `lo` violating and `hi` not; `hi`
            // climbs exponentially first because a well-timed crash can
            // violate *more* strongly than an earlier one (recovery
            // traffic lands later). The invariant makes the final time
            // 1-minimal regardless of monotonicity: `lo + 1` is a tested
            // non-violation whenever the search moved at all. On a churn
            // chain the crash must stay strictly below the vertex's next
            // toggle, so the climb is capped there.
            let chain = &current.plan.churn[v].1;
            let placed = chain[pos].get();
            let mut lo = placed;
            let cap = chain.get(pos + 1).map_or(u64::MAX, |t| t.get() - 1);
            let mut hi = time.get().max(lo).saturating_add(1).min(cap);
            if hi <= lo {
                continue; // the next toggle leaves no room to push
            }
            loop {
                let (t, _) = replay_at(hi, current);
                if !violates(t) {
                    break;
                }
                lo = hi;
                if hi == cap {
                    break; // violating at the cap: can push no later
                }
                hi = hi.saturating_mul(2).min(cap);
            }
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                let (t, _) = replay_at(mid, current);
                if violates(t) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            if lo != placed {
                let (t, recorded) = replay_at(lo, current);
                debug_assert!(violates(t), "boundary search kept `lo` violating");
                *time = t;
                *current = recorded;
            }
        }
    };
    push_crash_times(&mut time, &mut current);

    let interesting_positions = |s: &Schedule| -> Vec<usize> {
        (0..s.decisions.len())
            .filter(|&i| s.decisions[i].delay < s.decisions[i].weight || s.decisions[i].dropped)
            .collect()
    };

    let mut chunk = interesting_positions(&current).len().div_ceil(2).max(1);
    loop {
        let interesting = interesting_positions(&current);
        if interesting.is_empty() {
            break;
        }
        chunk = chunk.min(interesting.len());
        let mut reverted = false;
        for block in interesting.chunks(chunk) {
            let mut candidate = current.clone();
            for &i in block {
                candidate.decisions[i].delay = candidate.decisions[i].weight;
                candidate.decisions[i].dropped = false;
            }
            let (t, recorded) = rerecord(&candidate);
            if violates(t) {
                time = t;
                current = recorded;
                reverted = true;
                break;
            }
        }
        if !reverted {
            if chunk == 1 {
                break;
            }
            chunk = (chunk / 2).max(1);
        }
    }
    push_crash_times(&mut time, &mut current);
    (time, current)
}

/// Searches every grid point for a schedule whose completion time
/// exceeds `bound`, shrinking each violation to a minimal replayable
/// counterexample.
///
/// `bound` evaluates the claimed time bound on an instance (typically
/// the same formula `tests/paper_bounds.rs` asserts). Counterexamples
/// are written to `out_dir` (when given) as
/// `<label>.schedule`, with the claim and observation in the header.
/// An empty return vector means the search could not refute the bound
/// anywhere on the grid.
///
/// With [`SearchConfig::exhaustive`] set, each grid point runs the
/// sleep-set/DPOR explorer ([`crate::explore_exhaustive`]) instead of
/// the heuristic pipeline: a clean result then means *no reachable
/// delivery-order class* violates the bound (up to the class budget),
/// turning the heuristic hunt into a correctness tool on small
/// instances.
pub fn check_time_bound<P, F, B>(
    grid: &[GridPoint],
    make: F,
    bound: B,
    cfg: &SearchConfig,
    out_dir: Option<&Path>,
) -> Vec<Refutation>
where
    P: Process + Clone + Send + Sync,
    P::Msg: Clone + Send + Sync,
    F: Fn(NodeId, &WeightedGraph) -> P + Sync,
    B: Fn(&GridPoint) -> u64,
{
    let mut refutations = Vec::new();
    for point in grid {
        let claimed = bound(point);
        let outcome: SearchOutcome = if cfg.exhaustive {
            crate::trace::explore_exhaustive(&point.graph, &make, cfg)
        } else {
            find_worst_schedule(&point.graph, &make, cfg)
        };
        if outcome.best_time.get() <= claimed {
            continue;
        }
        let (observed, minimal) = shrink(&point.graph, &make, &outcome.schedule, |t| {
            t.get() > claimed
        });
        let (run, oracle) = crate::replay_report(&point.graph, &make, &minimal);
        let past_horizon = oracle.past_horizon;
        let path = out_dir.map(|dir| {
            let file = dir.join(format!("{}.schedule", sanitize(&point.label)));
            minimal
                .save(
                    &file,
                    &[
                        format!("refuted time bound on {}", point.label),
                        format!("claimed <= {claimed}, observed {observed}"),
                        format!(
                            "found by {} after {} evaluations{}",
                            outcome.strategy,
                            outcome.evaluations,
                            if outcome.strategy == "exhaustive" {
                                format!(
                                    " ({} classes explored, {} schedules pruned)",
                                    outcome.classes_explored, outcome.schedules_pruned
                                )
                            } else {
                                String::new()
                            }
                        ),
                        format!(
                            "replay: {} drops, {} crashes, {} rejoins, {} drifts, \
                             {} past-horizon fallbacks",
                            minimal.dropped_count(),
                            crash_positions(&minimal.plan).len(),
                            run.cost.recoveries,
                            run.cost.weight_revisions,
                            past_horizon
                        ),
                    ],
                )
                .expect("write counterexample schedule");
            file
        });
        refutations.push(Refutation {
            label: point.label.clone(),
            bound: claimed,
            observed,
            schedule: minimal,
            path,
            past_horizon,
        });
    }
    refutations
}

/// Keeps labels filesystem-safe.
fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::tests::chain;
    use csp_graph::generators;
    use csp_sim::{Context, DelayModel, ModelOracle};

    /// The eager six-ring recording every faulty start is built on.
    fn eager_ring(g: &WeightedGraph) -> (SimTime, Schedule) {
        let make = |_: NodeId, _: &WeightedGraph| Ring { done: false };
        let eager = ModelOracle::new(DelayModel::Eager, 0);
        let (run, recorded) = crate::record(g, make, eager, Fallback::WorstCase);
        (run.cost.completion, recorded)
    }

    /// Token ring: node 0 sends a token once around the cycle.
    #[derive(Clone)]
    struct Ring {
        done: bool,
    }

    impl Process for Ring {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            if ctx.self_id() == NodeId::new(0) {
                let next = NodeId::new(1);
                ctx.send(next, 0);
            }
        }
        fn on_message(&mut self, _from: NodeId, hops: u32, ctx: &mut Context<'_, u32>) {
            let me = ctx.self_id().index();
            let n = ctx.node_count();
            if me != 0 {
                self.done = true;
                ctx.send(NodeId::new((me + 1) % n), hops + 1);
            }
        }
    }

    #[test]
    fn shrink_is_one_minimal() {
        // On a ring, completion is the sum of the token's six delays.
        // Record the all-rushed schedule (completion 6), then shrink
        // against the property "completes within 27 ticks": that needs
        // at least one rushed hop (all-worst-case completes at 30, one
        // rush gives 26), so the minimal schedule has exactly one.
        let g = generators::cycle(6, |_| 5);
        let make = |_: NodeId, _: &WeightedGraph| Ring { done: false };
        let (completion, all_rushed) = eager_ring(&g);
        assert_eq!(completion, SimTime::new(6));
        assert_eq!(all_rushed.rushed(), 6);
        let (t, minimal) = shrink(&g, &make, &all_rushed, |t| t.get() <= 27);
        assert_eq!(minimal.rushed(), 1);
        assert_eq!(t, SimTime::new(26));
    }

    #[test]
    fn shrink_discards_needless_faults_and_keeps_the_load_bearing_drop() {
        // Fault-free, the six-hop ring always completes at >= 6 ticks;
        // finishing earlier requires losing the token. Start from a
        // maximally faulty schedule — every hop rushed AND dropped, plus
        // a crash — and shrink against "completes before tick 6". The
        // crash and all but one drop are noise: 1-minimal keeps a single
        // dropped decision and nothing else interesting.
        let g = generators::cycle(6, |_| 5);
        let make = |_: NodeId, _: &WeightedGraph| Ring { done: false };
        let (_, mut faulty) = eager_ring(&g);
        for d in &mut faulty.decisions {
            d.dropped = true;
        }
        faulty.plan.churn.push(chain(3, &[2]));
        let (t, minimal) = shrink(&g, &make, &faulty, |t| t.get() < 6);
        assert!(t.get() < 6);
        assert_eq!(minimal.dropped_count(), 1);
        assert_eq!(minimal.rushed(), 0);
        assert!(
            minimal.plan.churn.is_empty(),
            "the crash was not load-bearing"
        );
    }

    #[test]
    fn shrink_pushes_the_crash_time_to_the_latest_violating_tick() {
        // An eager six-ring completes at tick 6; beheading the token at
        // vertex 3 is the only way to finish earlier, and only works
        // while the token has not passed. In the *final* shrunk witness
        // the first two hops stay rushed (completion must stay under 6)
        // but the third hop is reverted to its full weight 5, so the
        // token reaches the victim at t = 1+1+5 = 7 — and a crash at the
        // instant of delivery still consumes it. Shrinking a crash
        // planted at t=1 must therefore land on exactly t=7, 1-minimal
        // in the time coordinate against the witness's own transcript.
        let g = generators::cycle(6, |_| 5);
        let make = |_: NodeId, _: &WeightedGraph| Ring { done: false };
        let (_, mut faulty) = eager_ring(&g);
        faulty.plan.churn.push(chain(3, &[1]));
        let (t, minimal) = shrink(&g, &make, &faulty, |t| t.get() < 6);
        assert!(t.get() < 6);
        assert_eq!(minimal.rushed(), 2, "only the completion-critical hops");
        assert_eq!(
            minimal.plan.churn,
            [chain(3, &[7])],
            "the crash is load-bearing, at the latest violating tick"
        );
        // 1-minimality beyond what shrink itself claims: one more tick
        // (or removal) lets the token slip past and the refutation dies.
        let mut later = minimal.clone();
        later.plan.churn = vec![chain(3, &[8])];
        let run = crate::replay(&g, make, &later);
        assert!(run.cost.completion.get() >= 6, "t=8 must not violate");
        let mut removed = minimal.clone();
        removed.plan.churn.clear();
        let run = crate::replay(&g, make, &removed);
        assert!(run.cost.completion.get() >= 6, "removal must not violate");
    }

    #[test]
    fn shrink_truncates_churn_chains_and_discards_needless_drift() {
        // Beheading the token at vertex 3 (crash at t=2, before the
        // eager token arrives at t=3) is load-bearing for "completes
        // before tick 6". The rejoin at 50, the recrash at 60 and the
        // drift all land after quiescence — pure noise the shrinker
        // must strip, truncating the crash–rejoin–recrash chain back to
        // the plain crash.
        let g = generators::cycle(6, |_| 5);
        let make = |_: NodeId, _: &WeightedGraph| Ring { done: false };
        let (_, mut faulty) = eager_ring(&g);
        faulty.plan.churn.push(chain(3, &[2, 50, 60]));
        let revised = (
            faulty.decisions[0].edge,
            SimTime::new(40),
            csp_graph::Weight::new(2),
        );
        faulty.plan.drift.push(revised);
        let (t, minimal) = shrink(&g, &make, &faulty, |t| t.get() < 6);
        assert!(t.get() < 6);
        assert_eq!(minimal.plan.churn.len(), 1, "the victim still crashes");
        assert_eq!(
            minimal.plan.churn[0].1.len(),
            1,
            "the rejoin and the recrash were noise"
        );
        assert!(minimal.plan.drift.is_empty(), "the drift was noise");
    }

    #[test]
    fn shrink_keeps_a_load_bearing_rejoin_and_pushes_the_crash_below_it() {
        // A rejoin restarts the vertex with fresh state, so `on_start`
        // runs again — and on the token ring only vertex 0 launches a
        // token from `on_start`. Crash vertex 0 at t=1 (its first token
        // is already in flight) and rejoin it at t=10: the restarted
        // incarnation launches a *second* lap, whose hops replay past
        // the recorded horizon at worst-case weight 5, completing around
        // t = 10 + 6·5 = 40. The violation "still running at t >= 35" is
        // achievable only through the rejoin: six hops at full weight
        // complete by t = 30, so no delay stretching reaches 35 without
        // the second lap. The crash time is then pushed as late as its chain
        // allows — any t in [1, 9] leaves the restart intact, so the
        // 1-minimal witness crashes at 9, strictly below the rejoin.
        let g = generators::cycle(6, |_| 5);
        let make = |_: NodeId, _: &WeightedGraph| Ring { done: false };
        let (_, mut faulty) = eager_ring(&g);
        faulty.plan.churn.push(chain(0, &[1, 10]));
        let (t, minimal) = shrink(&g, &make, &faulty, |t| t.get() >= 35);
        assert!(t.get() >= 35);
        assert_eq!(
            minimal.plan.churn,
            [chain(0, &[9, 10])],
            "crash and rejoin both survive; the crash sits just below \
             the rejoin"
        );
        // Dropping the rejoin (the truncation the shrinker rejected)
        // kills the second lap and with it the violation.
        let mut truncated = minimal.clone();
        truncated.plan.churn[0].1.truncate(1);
        let run = crate::replay(&g, make, &truncated);
        assert!(run.cost.completion.get() < 35);
    }

    #[test]
    fn shrink_returns_input_when_not_violating() {
        let g = generators::cycle(4, |_| 3);
        let make = |_: NodeId, _: &WeightedGraph| Ring { done: false };
        let cfg = SearchConfig::builder()
            .random_probes(2)
            .hill_rounds(0)
            .candidates_per_round(1)
            .build()
            .unwrap();
        let outcome = find_worst_schedule(&g, make, &cfg);
        let (t, s) = shrink(&g, &make, &outcome.schedule, |t| t.get() > 10_000);
        assert!(t.get() <= 10_000);
        assert_eq!(s.decisions.len(), outcome.schedule.decisions.len());
    }

    #[test]
    fn check_time_bound_refutes_and_writes_counterexample() {
        let dir = std::env::temp_dir().join("csp-adversary-refute-test");
        std::fs::create_dir_all(&dir).unwrap();
        let grid = vec![GridPoint {
            label: "cycle n=5 w=4".to_string(),
            graph: generators::cycle(5, |_| 4),
        }];
        // The true worst case is 5·4 = 20; claiming 10 must be refuted.
        let refs = check_time_bound(
            &grid,
            |_: NodeId, _: &WeightedGraph| Ring { done: false },
            |_| 10,
            &SearchConfig::builder()
                .random_probes(2)
                .hill_rounds(0)
                .candidates_per_round(1)
                .build()
                .unwrap(),
            Some(&dir),
        );
        assert_eq!(refs.len(), 1);
        let r = &refs[0];
        assert!(r.observed.get() > 10);
        let path = r.path.as_ref().unwrap();
        assert_eq!(path.file_name().unwrap(), "cycle-n-5-w-4.schedule");
        let loaded = Schedule::load(path).unwrap();
        assert_eq!(loaded, r.schedule);
        // And an unrefutable bound stays unrefuted.
        let none = check_time_bound(
            &grid,
            |_: NodeId, _: &WeightedGraph| Ring { done: false },
            |_| 1_000_000,
            &SearchConfig::default(),
            None,
        );
        assert!(none.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn exhaustive_mode_refutes_through_the_explorer() {
        // On a cycle the token's path is a single dependent chain — every
        // delay vector realizes the same delivery-order class, so the
        // explorer evaluates exactly one class and its worst case is the
        // true worst case (5·4 = 20).
        let grid = vec![GridPoint {
            label: "cycle-n5-exhaustive".to_string(),
            graph: generators::cycle(5, |_| 4),
        }];
        let cfg = SearchConfig::builder().exhaustive(64).build().unwrap();
        let refs = check_time_bound(
            &grid,
            |_: NodeId, _: &WeightedGraph| Ring { done: false },
            |_| 10,
            &cfg,
            None,
        );
        assert_eq!(refs.len(), 1);
        assert_eq!(refs[0].observed, SimTime::new(20), "true worst case");
        // The same explorer run cannot refute the true bound.
        let none = check_time_bound(
            &grid,
            |_: NodeId, _: &WeightedGraph| Ring { done: false },
            |_| 20,
            &cfg,
            None,
        );
        assert!(none.is_empty());
    }
}
