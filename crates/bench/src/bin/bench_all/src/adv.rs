//! The two adversary workloads: `adv_search` (whole
//! `find_worst_schedule` calls) and `adv_exhaustive` (whole
//! `explore_exhaustive` calls). An operation is one full call — probes,
//! checkpoint builds, re-records and dedup included — and its work is
//! the evaluations the call reports.

use crate::bench::{
    seed_block, time_reps, vm_hwm_mb, Checks, Measured, Metrics, Op, Pass, Workload, THREADS,
};
use crate::span::Tracer;
use crate::stats::median;
use csp_adversary::{
    explore_exhaustive, find_worst_schedule, record, replay, shrink, Fallback, Recorder, Schedule,
    ScheduleOracle, SearchConfig, SearchOutcome, Trace,
};
use csp_algo::flood::Flood;
use csp_algo::spt::recur::SptRecur;
use csp_graph::generators::{self, WeightDist};
use csp_graph::{NodeId, WeightedGraph};
use csp_sim::{
    Checkpoint, DelayModel, DelayOracle, EvalPool, LinkOracle, ModelOracle, MsgInfo, SimTime,
    Simulator,
};
use std::hint::black_box;
use std::time::Instant;

/// Strip depth putting `SPT_recur` in its single-strip regime — the
/// chaotic Bellman–Ford mode the committed witnesses exercise.
const ONE_STRIP: u64 = 1 << 40;

fn make_recur(v: NodeId, _: &WeightedGraph) -> SptRecur {
    SptRecur::new(v, NodeId::new(0), ONE_STRIP)
}

fn make_flood(v: NodeId, _: &WeightedGraph) -> Flood {
    Flood::new(v == NodeId::new(0))
}

/// What must repeat exactly when a search is repeated.
fn outcome_key(o: &SearchOutcome) -> (usize, u64, u64, u64) {
    (
        o.evaluations,
        o.best_time.get(),
        o.classes_explored,
        o.schedules_pruned,
    )
}

/// Ratio of medians `numer ÷ denom` over alternating single calls, so
/// machine drift hits both sides.
fn ratio(mut numer: impl FnMut(), mut denom: impl FnMut()) -> Measured {
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for _ in 0..15 {
        a.extend(time_reps(1, &mut numer));
        b.extend(time_reps(1, &mut denom));
    }
    Measured::derived(median(&a) / median(&b), a.len())
}

/// Per-call sums since the last `counts()`.
#[derive(Default)]
struct Tally {
    calls: u64,
    evaluations: u64,
    best_time: u64,
    classes: u64,
    pruned: u64,
}

impl Tally {
    fn add(&mut self, o: &SearchOutcome) {
        self.calls += 1;
        self.evaluations += o.evaluations as u64;
        self.best_time += o.best_time.get();
        self.classes += o.classes_explored;
        self.pruned += o.schedules_pruned;
    }

    fn per_call(&self, total: u64) -> Measured {
        Measured::exact(total as f64 / self.calls.max(1) as f64)
    }
}

// ------------------------------------------------------------- adv_search

struct Instance {
    name: &'static str,
    g: WeightedGraph,
}

/// Searches per instance in one batch.
const INSTANCES: u64 = 5;

pub struct AdvSearch {
    instances: Vec<Instance>,
    /// First search seed of this round.
    seed_base: u64,
    /// Batches run so far: every batch searches under fresh seeds,
    /// because how long a search runs depends on where its seed leads it
    /// — a run's medians are taken over some eighty seeds so that they
    /// do not depend on which `--seed` it was given.
    sweep: u64,
    /// Outcomes of the warm-up batch, whose seeds never change.
    warmup: Tally,
}

fn search_cfg(seed: u64, threads: usize) -> SearchConfig {
    SearchConfig::builder()
        .seed(seed)
        .threads(threads)
        .build()
        .expect("the default search budgets are valid")
}

impl AdvSearch {
    fn instance(&self, name: &str) -> &Instance {
        self.instances
            .iter()
            .find(|i| i.name == name)
            .expect("instance names are fixed")
    }

    /// The search seed of instance `k` in batch `sweep` of a pass.
    fn cfg(&self, sweep: u64, k: usize) -> SearchConfig {
        search_cfg(self.seed_base + sweep * INSTANCES + k as u64, THREADS)
    }

    /// Host seconds of one batch of searches at `threads` workers.
    fn batch_secs(&self, threads: usize) -> f64 {
        self.instances
            .iter()
            .enumerate()
            .map(|(k, i)| {
                let cfg = SearchConfig {
                    threads,
                    ..self.cfg(0, k)
                };
                let t = Instant::now();
                black_box(find_worst_schedule(&i.g, make_recur, &cfg));
                t.elapsed().as_secs_f64()
            })
            .sum()
    }
}

impl Workload for AdvSearch {
    fn batch(&mut self, tracer: &mut Tracer, ops: &mut Vec<Op>) {
        for (k, i) in self.instances.iter().enumerate() {
            tracer.next_op();
            let cfg = self.cfg(self.sweep, k);
            let (out, secs) = tracer.timed("adversary.search", || {
                find_worst_schedule(&i.g, make_recur, &cfg)
            });
            // The found schedule must replay to exactly the reported
            // time, and may not lose to the worst-case anchor it starts
            // from.
            let rerun = tracer.span("adversary.replay", |_| {
                replay(&i.g, make_recur, &out.schedule)
            });
            ops.push(Op {
                secs,
                work: out.evaluations as u64,
                failed: rerun.cost.completion != out.best_time || out.best_time < out.worst_case,
            });
        }
        self.sweep += 1;
    }

    fn verify(&mut self, checks: &mut Checks) {
        // The same seed must find the same schedule in the same number
        // of evaluations.
        for (k, i) in self.instances.iter().enumerate() {
            let cfg = self.cfg(0, k);
            let (a, b) = (
                find_worst_schedule(&i.g, make_recur, &cfg),
                find_worst_schedule(&i.g, make_recur, &cfg),
            );
            checks.gate(
                outcome_key(&a) == outcome_key(&b) && a.schedule == b.schedule,
                || format!("{}: the search does not repeat itself", i.name),
            );
        }
    }

    fn counts(&mut self) -> Metrics {
        let t = &self.warmup;
        let mut m = Metrics::new();
        m.insert("adversary.search.evals_per_call", t.per_call(t.evaluations));
        m.insert("adversary.search.best_time", t.per_call(t.best_time));
        m
    }

    fn layers(&mut self, tracer: &mut Tracer, _untraced: &Pass, out: &mut Metrics) {
        // Two workers against one: below 0.8 the slowest worker, not the
        // mean evaluation, sets the call time.
        let (mut one, mut two) = (Vec::new(), Vec::new());
        tracer.span("sim.sweep", |_| {
            for _ in 0..3 {
                one.push(self.batch_secs(1));
                two.push(self.batch_secs(THREADS));
            }
        });
        out.insert(
            "sim.sweep.par_efficiency",
            Measured::derived(median(&one) / (THREADS as f64 * median(&two)), one.len()),
        );

        let big = self.instance("gnp-n64");
        let small = self.instance("gnp-n16");
        let sim_big = Simulator::new(&big.g);
        let us = |secs: Vec<f64>, per: usize| Measured::scaled(&secs, 1e6 / per as f64);

        // The incumbent a search phase refines: a recorded uniform run.
        let seed = self.seed_base;
        let uniform_run = |i: &Instance| -> Schedule {
            let oracle = ModelOracle::new(DelayModel::Uniform, seed);
            record(&i.g, make_recur, oracle, Fallback::WorstCase).1
        };
        let incumbent_big = uniform_run(big);
        let incumbent = uniform_run(small);

        let mutation = self.cfg(0, 0).mutation();
        out.insert(
            "adversary.search.mutate_us",
            tracer.span("adversary.search.mutate", |_| {
                us(
                    time_reps(9, || {
                        for s in 0..200 {
                            black_box(mutation.apply(&incumbent_big, s));
                        }
                    }),
                    200,
                )
            }),
        );

        // Cold against resumed scoring of the polish stream: single
        // rush/stretch toggles swept from the tail of the incumbent.
        let sim = Simulator::new(&small.g);
        let mut pool: EvalPool<SptRecur> = EvalPool::new();
        let mut cps: Vec<Checkpoint<SptRecur>> = Vec::new();
        let every = (incumbent.len() as u64 / 32).max(8);
        sim.run_with_checkpoints(
            &mut ScheduleOracle::new(&incumbent),
            make_recur,
            every,
            &mut cps,
        )
        .expect("incumbent quiesces");
        let len = incumbent.len();
        let stream: Vec<(u64, Schedule)> = (len - (len / 4).max(1)..len)
            .rev()
            .flat_map(|k| {
                let d = incumbent.decisions[k];
                [d.weight, 1]
                    .into_iter()
                    .filter(move |&t| t != d.delay)
                    .map(move |t| (k, t))
            })
            .map(|(k, target)| {
                let mut m = incumbent.clone();
                m.decisions[k].delay = target;
                (k as u64, m)
            })
            .collect();
        let (mut cold_times, mut warm_times) = (Vec::new(), Vec::new());
        let cold = tracer.span("adversary.search.cold_eval", |_| {
            time_reps(9, || {
                cold_times = stream
                    .iter()
                    .map(|(_, m)| {
                        sim.eval(&mut pool, &mut ScheduleOracle::new(m), make_recur)
                            .expect("candidate quiesces")
                            .completion
                    })
                    .collect();
            })
        });
        let warm = tracer.span("adversary.search.resumed_eval", |_| {
            time_reps(9, || {
                warm_times = stream
                    .iter()
                    .map(|(first_diff, m)| {
                        let cp = cps
                            .iter()
                            .rev()
                            .find(|cp| cp.messages() <= *first_diff)
                            .expect("the store starts at or before every toggle");
                        sim.eval_resume(&mut pool, cp, &mut ScheduleOracle::new(m))
                            .expect("candidate quiesces")
                            .completion
                    })
                    .collect();
            })
        });
        assert_eq!(
            cold_times, warm_times,
            "resumed scoring diverged from cold scoring"
        );
        out.insert("adversary.search.cold_eval_us", us(cold, stream.len()));
        out.insert("adversary.search.resumed_eval_us", us(warm, stream.len()));

        // Restore alone: resume from a snapshot taken after the last
        // dispatch, so nothing is left to decide.
        let mut every_msg: Vec<Checkpoint<SptRecur>> = Vec::new();
        sim.run_with_checkpoints(
            &mut ScheduleOracle::new(&incumbent),
            make_recur,
            1,
            &mut every_msg,
        )
        .expect("incumbent quiesces");
        let last = every_msg.last().expect("a run dispatches messages");
        out.insert(
            "sim.runtime.restore_us",
            tracer.span("sim.runtime.restore", |_| {
                us(
                    time_reps(9, || {
                        for _ in 0..200 {
                            black_box(
                                sim.eval_resume(
                                    &mut pool,
                                    last,
                                    &mut ScheduleOracle::new(&incumbent),
                                )
                                .expect("resume quiesces"),
                            );
                        }
                    }),
                    200,
                )
            }),
        );

        // Replay oracle alone, over the messages it recorded.
        let infos: Vec<MsgInfo> = incumbent_big
            .decisions
            .iter()
            .map(|d| {
                let e = big.g.edge(d.edge);
                let (from, to) = if d.dir == 0 {
                    (e.u(), e.v())
                } else {
                    (e.v(), e.u())
                };
                MsgInfo {
                    index: d.index,
                    edge: d.edge,
                    dir: d.dir,
                    weight: e.weight(),
                    from,
                    to,
                    sent: SimTime::ZERO,
                }
            })
            .collect();
        let decide = tracer.span("sim.delay", |_| {
            time_reps(9, || {
                for _ in 0..50 {
                    let mut oracle = ScheduleOracle::new(&incumbent_big);
                    for info in &infos {
                        black_box(oracle.decide(info));
                    }
                }
            })
        });
        out.insert(
            "sim.delay.schedule_ns",
            Measured::scaled(&decide, 1e9 / (50 * infos.len()) as f64),
        );

        // What recording and checkpointing add to a plain run.
        let bare = || {
            black_box(
                sim_big
                    .run_with_oracle(&mut ModelOracle::new(DelayModel::Uniform, seed), make_recur)
                    .expect("run quiesces"),
            );
        };
        out.insert(
            "sim.delay.recorder_ratio",
            tracer.span("sim.delay.recorder", |_| {
                ratio(
                    || {
                        let mut rec = Recorder::new(ModelOracle::new(DelayModel::Uniform, seed));
                        black_box(
                            sim_big
                                .run_with_oracle(&mut rec, make_recur)
                                .expect("run quiesces"),
                        );
                        black_box(rec.into_schedule(Fallback::WorstCase));
                    },
                    bare,
                )
            }),
        );
        out.insert(
            "sim.runtime.checkpoint_ratio",
            tracer.span("sim.runtime.checkpoint", |_| {
                ratio(
                    || {
                        let mut cps = Vec::new();
                        black_box(
                            sim_big
                                .run_with_checkpoints(
                                    &mut ModelOracle::new(DelayModel::Uniform, seed),
                                    make_recur,
                                    256,
                                    &mut cps,
                                )
                                .expect("run quiesces"),
                        );
                    },
                    bare,
                )
            }),
        );

        // Shrinking the gnp-n16 winner to a 1-minimal schedule that
        // still reaches its completion time.
        let winner = find_worst_schedule(&small.g, make_recur, &self.cfg(0, 1));
        let shrink_secs = tracer.span("adversary.refute", |_| {
            time_reps(5, || {
                black_box(shrink(&small.g, &make_recur, &winner.schedule, |t| {
                    t >= winner.best_time
                }));
            })
        });
        out.insert(
            "adversary.refute.shrink_ms",
            Measured::scaled(&shrink_secs, 1e3),
        );
    }

    fn peak_rss_mb(&self) -> f64 {
        vm_hwm_mb(std::process::id())
    }
}

/// The four committed `SPT_recur` witness instances of
/// `tests/adversary_suite.rs` — fixed identities — plus a gnp-n64 whose
/// ~1.7k-decision schedules make replay length, not per-call overhead,
/// dominate. `--seed` (and the round) drive the search seeds of every
/// batch.
pub fn adv_search(seed: u64, round: u64) -> AdvSearch {
    let graphs = vec![
        (
            "gnp-n12",
            generators::connected_gnp(12, 0.3, WeightDist::Uniform(1, 16), 42),
        ),
        (
            "gnp-n16",
            generators::connected_gnp(16, 0.25, WeightDist::Uniform(1, 32), 7),
        ),
        ("heavy-chord-n12", generators::heavy_chord_cycle(12, 64)),
        (
            "sparse-heavy-n14",
            generators::sparse_heavy_path(14, 100, 3),
        ),
        (
            "gnp-n64",
            generators::connected_gnp(64, 0.08, WeightDist::Uniform(1, 32), 64),
        ),
    ];
    let instances: Vec<Instance> = graphs
        .into_iter()
        .map(|(name, g)| Instance { name, g })
        .collect();
    // Warm up on one batch under seeds no pass uses and no `--seed`
    // changes, so set-up is the same work whatever the seed — and its
    // outcomes are the counts that must repeat exactly.
    let mut warmup = Tally::default();
    for (k, i) in instances.iter().enumerate() {
        warmup.add(&find_worst_schedule(
            &i.g,
            make_recur,
            &search_cfg(k as u64, THREADS),
        ));
    }
    AdvSearch {
        instances,
        seed_base: seed_block(seed, round),
        sweep: 0,
        warmup,
    }
}

// --------------------------------------------------------- adv_exhaustive

/// Class budgets of one batch: two capped explorations to one that
/// covers every class, so the median call is a capped one and the tail
/// a complete one.
const BUDGETS: [usize; 3] = [4096, 4096, 65_536];

pub struct AdvExhaustive {
    g: WeightedGraph,
    /// Leaves and worst completion of the whole delay cube, enumerated
    /// in set-up.
    naive_leaves: u64,
    naive_worst: u64,
    reference: Vec<(usize, u64, u64, u64)>,
    tally: Tally,
}

fn exhaustive_cfg(class_budget: usize) -> SearchConfig {
    SearchConfig::builder()
        .exhaustive(class_budget)
        .build()
        .expect("exhaustive config is valid")
}

/// Replays a fixed prefix of per-dispatch delay choices and extends the
/// path with the fastest admissible delay at every fresh dispatch — one
/// leaf of the adaptive enumeration tree per run.
struct EnumOracle<'a> {
    /// `(choice, weight)` per dispatch index, in dispatch order.
    path: &'a mut Vec<(u64, u64)>,
    cursor: usize,
}

impl DelayOracle for EnumOracle<'_> {
    fn delay(&mut self, msg: &MsgInfo) -> u64 {
        if self.cursor == self.path.len() {
            self.path.push((1, msg.weight.get()));
        }
        self.cursor += 1;
        self.path[self.cursor - 1].0
    }
}

/// Walks every delay assignment by backtracking: run, bump the deepest
/// non-maximal choice, truncate everything after it, repeat. Returns
/// `(leaves, worst completion)`.
fn enumerate_naive(g: &WeightedGraph) -> (u64, u64) {
    let mut path: Vec<(u64, u64)> = Vec::new();
    let mut pool: EvalPool<Flood> = EvalPool::new();
    let sim = Simulator::new(g);
    let (mut leaves, mut worst) = (0, 0);
    loop {
        let mut oracle = EnumOracle {
            path: &mut path,
            cursor: 0,
        };
        let run = sim
            .eval(&mut pool, &mut oracle, make_flood)
            .expect("flood quiesces under every admissible schedule");
        leaves += 1;
        worst = worst.max(run.completion.get());
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

impl Workload for AdvExhaustive {
    fn batch(&mut self, tracer: &mut Tracer, ops: &mut Vec<Op>) {
        for (k, &budget) in BUDGETS.iter().enumerate() {
            tracer.next_op();
            let cfg = exhaustive_cfg(budget);
            let (out, secs) = tracer.timed("adversary.trace.explore", || {
                explore_exhaustive(&self.g, make_flood, &cfg)
            });
            // A complete exploration must find the cube's true worst; a
            // capped one may not exceed it; both must repeat themselves.
            let worst_ok = if budget == 65_536 {
                out.best_time.get() == self.naive_worst
            } else {
                out.best_time.get() <= self.naive_worst
            };
            self.tally.add(&out);
            ops.push(Op {
                secs,
                work: out.evaluations as u64,
                failed: !worst_ok || outcome_key(&out) != self.reference[k],
            });
        }
    }

    fn verify(&mut self, checks: &mut Checks) {
        // Under flooding every directed edge carries one message with
        // w(e) admissible delays: the cube holds Π w(e)² assignments.
        let cube: u64 = self.g.edges().map(|e| e.weight().get().pow(2)).product();
        checks.gate(self.naive_leaves == cube && cube == 65_536, || {
            format!(
                "enumerated {} leaves of a {cube}-assignment cube",
                self.naive_leaves
            )
        });
    }

    fn counts(&mut self) -> Metrics {
        let t = std::mem::take(&mut self.tally);
        let mut m = Metrics::new();
        m.insert("adversary.trace.classes", t.per_call(t.classes));
        m.insert("adversary.trace.pruned", t.per_call(t.pruned));
        m.insert(
            "adversary.trace.useful_ratio",
            Measured::exact(t.classes as f64 / t.evaluations.max(1) as f64),
        );
        m
    }

    fn layers(&mut self, tracer: &mut Tracer, _untraced: &Pass, out: &mut Metrics) {
        // The all-worst-case anchor schedule every exploration starts from.
        let (_, anchor) = record(
            &self.g,
            make_flood,
            ModelOracle::new(DelayModel::WorstCase, 0),
            Fallback::WorstCase,
        );
        let us = |secs: Vec<f64>| Measured::scaled(&secs, 1e6 / 500.0);
        let record = tracer.span("adversary.trace.record", |_| {
            time_reps(9, || {
                for _ in 0..500 {
                    black_box(Trace::record(&self.g, make_flood, &anchor));
                }
            })
        });
        out.insert("adversary.trace.record_us", us(record));
        let (_, trace) = Trace::record(&self.g, make_flood, &anchor);
        let signature = tracer.span("adversary.trace.signature", |_| {
            time_reps(9, || {
                for _ in 0..500 {
                    black_box(trace.class_signature());
                }
            })
        });
        out.insert("adversary.trace.signature_us", us(signature));
    }

    fn peak_rss_mb(&self) -> f64 {
        vm_hwm_mb(std::process::id())
    }
}

/// `explore_exhaustive` on flood over the gnp-n8 `Uniform(1, 2)`
/// instance of the legacy DPOR bench (a fixed identity; the explorer
/// takes no seed).
pub fn adv_exhaustive() -> AdvExhaustive {
    let g = generators::connected_gnp(8, 0.25, WeightDist::Uniform(1, 2), 8);
    let (naive_leaves, naive_worst) = enumerate_naive(&g);
    let reference = BUDGETS
        .iter()
        .map(|&b| outcome_key(&explore_exhaustive(&g, make_flood, &exhaustive_cfg(b))))
        .collect();
    AdvExhaustive {
        g,
        naive_leaves,
        naive_worst,
        reference,
        tally: Tally::default(),
    }
}
