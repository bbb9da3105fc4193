//! Schedule-space search: seeded random probes, the critical-path
//! greedy, hill-climbing mutation and a tail polish, each scored on a
//! pooled evaluator per worker thread.
//!
//! Every strategy records the schedule it actually ran (via
//! [`Recorder`]), so [`SearchOutcome::schedule`] always replays to
//! exactly [`SearchOutcome::best_time`]. The whole search is
//! deterministic: fixed seeds, results taken in candidate order, and
//! strict-improvement adoption, so two searches with the same config
//! find the same schedule in the same number of evaluations regardless
//! of thread count.
//!
//! # Fan-out
//!
//! Random probes go through [`csp_sim::sweep::par_map_with`]. Hill-climb
//! and polish candidates are one stream per incumbent instead: workers
//! claim candidates in order from a shared cursor, and stop claiming
//! after the first *group* holding a strict improvement — a group is one
//! hill round, or a single polish toggle. Only then does the search
//! adopt, and open a new stream against the new incumbent. So there is
//! no barrier per hill round, only one per adoption. A worker may have
//! scored candidates past the hit group by the time it stops; those
//! speculative scores are discarded and not counted in
//! [`SearchOutcome::evaluations`], which counts exactly what a
//! sequential scan scores.
//!
//! # Incremental candidate evaluation
//!
//! Hill-climb and polish candidates are mutations of the incumbent
//! schedule: they agree with it on every decision before the first
//! mutated index. The search therefore
//! [checkpoints](csp_sim::Checkpoint) the incumbent's run at regular
//! message intervals and evaluates each candidate by *resuming* from the
//! last checkpoint at or before its first mutated decision, replaying
//! only the suffix. Resumption is bit-identical to a cold run (pinned by
//! the checkpoint-equivalence proptests in
//! `tests/flat_core_differential.rs`), so this is purely a performance
//! change. Candidates are *scored* time-only (no recording); only an
//! adopted winner is re-evaluated through a [`Recorder`], and its
//! schedule is assembled as the shared prefix plus the resumed
//! recording, exactly what a cold recorder would have transcribed.
//!
//! # Tail polish
//!
//! After hill climbing, `polish_passes` rounds of coordinate descent
//! toggle one decision at a time to its extremes (rush = `1`,
//! stretch = `weight`), sweeping the final quarter of the schedule from
//! the tail backwards. The tail is where a toggle is cheapest to
//! evaluate (suffix-only replay from a deep checkpoint) *and* most
//! likely to move the completion time — it is the arrival time of a
//! late message; global moves stay the hill phase's job, whose
//! mutations already re-randomize arbitrary positions. Allocating the
//! single-toggle budget to the cheap, high-leverage region is the
//! cost-sensitive spending the checkpoint machinery exists for.
//! Re-sweeping matters because each adoption rewrites the suffix behind
//! it, exposing new profitable toggles. Adopting a toggle at position
//! `k` keeps every checkpoint with `messages() <= k` valid (the prefix
//! is unchanged), so a descending sweep never rebuilds the store
//! mid-pass; it is truncated on adoption and rebuilt once at the end of
//! an improving pass.

use crate::oracle::{CriticalPathOracle, Recorder, ScheduleOracle};
use crate::schedule::{crash_positions, Fallback, Schedule};
use csp_graph::{NodeId, Weight, WeightedGraph};
use csp_sim::sweep::{effective_threads, par_map_with};
use csp_sim::{
    Checkpoint, DelayModel, EvalPool, FaultPlan, LinkOracle, ModelOracle, NoCapture, Origin,
    Process, SimTime, Simulator,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Search budget and seeding; the defaults complete in seconds on
/// Figure-2/3/4-sized instances.
#[derive(Clone, Copy, Debug)]
pub struct SearchConfig {
    /// Uniform-delay random probes.
    pub random_probes: usize,
    /// Hill-climbing rounds mutating the incumbent schedule.
    pub hill_rounds: usize,
    /// Mutated candidates evaluated per round.
    pub candidates_per_round: usize,
    /// How the hill and polish phases perturb the incumbent: every flip
    /// budget and the crash horizon (see [`Mutation`]). The default
    /// re-randomizes four delays and nothing else — the delay-only
    /// search the committed delay witnesses were found with.
    pub mutation: Mutation,
    /// Master seed; every probe and mutation seed derives from it.
    pub seed: u64,
    /// Worker threads for the parallel fan-out: `0` means one per core,
    /// and explicit requests are capped at the machine's available
    /// parallelism (via [`effective_threads`], the same rule the sweep
    /// driver uses). The outcome does not depend on it: every thread
    /// count returns the same [`SearchOutcome`].
    pub threads: usize,
    /// Coordinate-descent polish passes after hill climbing, each
    /// sweeping the final quarter of the schedule from the tail (see the
    /// [module docs](self)).
    pub polish_passes: usize,
    /// Crash candidates probed between the random and hill phases: the
    /// first `crash_probes` vertices are each tried as the incumbent
    /// schedule plus that vertex crashing at each point of a small
    /// crash-*time* grid (quarter, half and three-quarters of the
    /// incumbent's completion time, capped at the mutation's
    /// [crash horizon](Mutation::crash_horizon)) — a victim's damage
    /// depends on *when* it dies, not just on who dies. `0` (the
    /// default) disables crash search.
    pub crash_probes: usize,
    /// Routes [`check_time_bound`](crate::check_time_bound) through the
    /// DPOR explorer ([`explore_exhaustive`](crate::explore_exhaustive))
    /// instead of the heuristic pipeline: every Mazurkiewicz class of
    /// delivery orders reachable by branching on dependent races gets
    /// exactly one representative schedule. Only tractable on small
    /// instances; `false` (the default) keeps the heuristic search.
    pub exhaustive: bool,
    /// Cap on equivalence classes the exhaustive explorer evaluates.
    /// `0` (the default) means the explorer's built-in cap
    /// ([`DEFAULT_CLASS_BUDGET`](crate::trace::DEFAULT_CLASS_BUDGET)).
    pub class_budget: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            random_probes: 64,
            hill_rounds: 24,
            candidates_per_round: 16,
            mutation: Mutation::new().delay_flips(4),
            seed: 0,
            threads: 0,
            polish_passes: 4,
            crash_probes: 0,
            exhaustive: false,
            class_budget: 0,
        }
    }
}

impl SearchConfig {
    /// Starts a validated builder from the defaults — the construction
    /// path every consumer (search bins, the service, tests) goes
    /// through, so misconfigured budgets fail loudly at build time
    /// instead of silently searching nothing.
    pub fn builder() -> SearchConfigBuilder {
        SearchConfigBuilder {
            cfg: SearchConfig::default(),
        }
    }

    /// The [`Mutation`] the hill and polish phases apply: the
    /// `mutation` field.
    pub fn mutation(&self) -> Mutation {
        self.mutation
    }

    /// The explorer's effective class cap (`class_budget`, or the
    /// built-in default when it is 0).
    pub fn effective_class_budget(&self) -> usize {
        if self.class_budget > 0 {
            self.class_budget
        } else {
            crate::trace::DEFAULT_CLASS_BUDGET
        }
    }

    fn worker_threads(&self) -> usize {
        effective_threads(self.threads)
    }
}

/// Builds a [`SearchConfig`] with validation — see
/// [`SearchConfig::builder`]. Every setter overrides one field of the
/// defaults; [`SearchConfigBuilder::build`] rejects configurations that
/// would search nothing or emit unobservable crashes.
#[derive(Clone, Copy, Debug)]
pub struct SearchConfigBuilder {
    cfg: SearchConfig,
}

impl SearchConfigBuilder {
    /// Sets [`SearchConfig::random_probes`].
    pub fn random_probes(mut self, n: usize) -> Self {
        self.cfg.random_probes = n;
        self
    }

    /// Sets [`SearchConfig::hill_rounds`].
    pub fn hill_rounds(mut self, n: usize) -> Self {
        self.cfg.hill_rounds = n;
        self
    }

    /// Sets [`SearchConfig::candidates_per_round`].
    pub fn candidates_per_round(mut self, n: usize) -> Self {
        self.cfg.candidates_per_round = n;
        self
    }

    /// Sets [`SearchConfig::mutation`].
    pub fn mutation(mut self, m: Mutation) -> Self {
        self.cfg.mutation = m;
        self
    }

    /// Sets [`SearchConfig::seed`].
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Sets [`SearchConfig::threads`].
    pub fn threads(mut self, n: usize) -> Self {
        self.cfg.threads = n;
        self
    }

    /// Sets [`SearchConfig::polish_passes`].
    pub fn polish_passes(mut self, n: usize) -> Self {
        self.cfg.polish_passes = n;
        self
    }

    /// Sets [`SearchConfig::crash_probes`].
    pub fn crash_probes(mut self, n: usize) -> Self {
        self.cfg.crash_probes = n;
        self
    }

    /// Selects the exhaustive DPOR mode ([`SearchConfig::exhaustive`])
    /// with the given class cap (`0` keeps the built-in default).
    pub fn exhaustive(mut self, class_budget: usize) -> Self {
        self.cfg.exhaustive = true;
        self.cfg.class_budget = class_budget;
        self
    }

    /// Validates and returns the config.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroBudget`] when no phase has any budget (nothing
    /// beyond the two fixed baselines would run);
    /// [`ConfigError::NoCandidates`] when hill rounds are requested with
    /// zero candidates per round; [`ConfigError::FrozenMutation`] when
    /// hill rounds are requested but every mutation dimension is zero
    /// (each round would re-score the incumbent verbatim);
    /// [`ConfigError::UnusedCrashHorizon`] when a crash horizon is set
    /// but no phase can emit a crash — the knob silently capping nothing
    /// is the "crash past the horizon" misconfiguration this builder
    /// exists to reject.
    pub fn build(self) -> Result<SearchConfig, ConfigError> {
        let c = &self.cfg;
        if !c.exhaustive
            && c.random_probes == 0
            && c.hill_rounds == 0
            && c.polish_passes == 0
            && c.crash_probes == 0
        {
            return Err(ConfigError::ZeroBudget);
        }
        if c.hill_rounds > 0 && c.candidates_per_round == 0 {
            return Err(ConfigError::NoCandidates);
        }
        let m = &c.mutation;
        let churn_flips = m.crash_time_flips + m.rejoin_flips + m.drift_flips;
        if c.hill_rounds > 0 && m.delay_flips + m.drop_flips + churn_flips == 0 {
            return Err(ConfigError::FrozenMutation);
        }
        if m.horizon.is_some() && c.crash_probes == 0 && churn_flips == 0 {
            return Err(ConfigError::UnusedCrashHorizon);
        }
        Ok(self.cfg)
    }
}

/// A [`SearchConfigBuilder`] rejection — see
/// [`SearchConfigBuilder::build`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConfigError {
    /// Every search phase has zero budget.
    ZeroBudget,
    /// Hill rounds requested with zero candidates per round.
    NoCandidates,
    /// Hill rounds requested with every mutation dimension zero.
    FrozenMutation,
    /// A crash horizon is set but no phase emits crashes.
    UnusedCrashHorizon,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroBudget => write!(f, "every search phase has zero budget"),
            ConfigError::NoCandidates => {
                write!(f, "hill rounds require candidates_per_round >= 1")
            }
            ConfigError::FrozenMutation => write!(
                f,
                "hill rounds require at least one nonzero mutation dimension \
                 (delay_flips, drop_flips, crash_time_flips, rejoin_flips or drift_flips)"
            ),
            ConfigError::UnusedCrashHorizon => write!(
                f,
                "the mutation's crash_horizon is set but no phase (crash_probes, \
                 crash_time_flips, rejoin_flips, drift_flips) can emit a churn time for it to cap"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// The result of a schedule search on one protocol × graph instance.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// Completion time under [`DelayModel::WorstCase`] — the baseline the
    /// paper's time bounds are stated against.
    pub worst_case: SimTime,
    /// The latest completion time any searched schedule achieved
    /// (`>= worst_case` only if the search found a genuinely worse
    /// adversary; equal when uniform-delay stretching is already optimal,
    /// as it is for monotone protocols like flooding).
    pub best_time: SimTime,
    /// The recorded schedule achieving [`SearchOutcome::best_time`];
    /// replaying it reproduces that time exactly.
    pub schedule: Schedule,
    /// Which strategy found the best schedule: `"worst-case"`,
    /// `"critical-path"`, `"random"`, `"crash"`, `"hill-climb"`,
    /// `"polish"` or `"exhaustive"`.
    pub strategy: &'static str,
    /// Total simulator runs spent (checkpoint-resumed candidate
    /// evaluations count as one run each, like the cold runs they
    /// replace).
    pub evaluations: usize,
    /// Mazurkiewicz classes the exhaustive explorer evaluated — one
    /// representative schedule each. `0` on heuristic searches, which do
    /// not track equivalence.
    pub classes_explored: u64,
    /// Branches the explorer discarded without evaluation: sleep-set
    /// covered alternatives (no dependent delivery crossed), duplicate
    /// crossing-set representatives, and already-visited prefixes. `0`
    /// on heuristic searches.
    pub schedules_pruned: u64,
}

impl SearchOutcome {
    /// Whether the search beat the fixed worst-case delay model.
    pub fn beats_worst_case(&self) -> bool {
        self.best_time > self.worst_case
    }

    /// `best_time / worst_case` — how much the searched adversary
    /// out-delays the fixed model (`1.0` = no gap).
    pub fn gap(&self) -> f64 {
        if self.worst_case == SimTime::ZERO {
            1.0
        } else {
            self.best_time.get() as f64 / self.worst_case.get() as f64
        }
    }
}

/// [`record`](crate::record) through a pooled evaluator: the completion
/// time and the recording, with the simulator state (queue, states, cost
/// meters) recycled from `pool`.
fn eval_recorded<P, F, O>(
    sim: &Simulator<'_>,
    pool: &mut EvalPool<P>,
    make: &F,
    oracle: O,
) -> (SimTime, Schedule)
where
    P: Process,
    F: Fn(NodeId, &WeightedGraph) -> P,
    O: LinkOracle,
{
    let mut rec = Recorder::new(oracle);
    let summary = sim
        .eval(pool, &mut rec, |v, g| make(v, g))
        .expect("protocol must quiesce under an admissible schedule");
    (summary.completion, rec.into_schedule(Fallback::WorstCase))
}

/// Message interval between incumbent checkpoints for an incumbent of
/// `schedule_len` decisions: one checkpoint per ~1/32 of its decisions,
/// but never more often than every 8 messages.
fn checkpoint_interval(schedule_len: usize) -> u64 {
    (schedule_len as u64 / 32).max(8)
}

/// Replays `schedule` (the incumbent: a faithful recording, so the
/// replay never diverges) while snapshotting checkpoints every
/// `interval` messages into `out`.
fn rebuild_checkpoints<P, F>(
    sim: &Simulator<'_>,
    make: &F,
    schedule: &Schedule,
    interval: u64,
    out: &mut Vec<Checkpoint<P>>,
) where
    P: Process + Clone,
    F: Fn(NodeId, &WeightedGraph) -> P,
{
    out.clear();
    let mut oracle = ScheduleOracle::new(schedule);
    sim.run_with_checkpoints(&mut oracle, |v, g| make(v, g), interval, out)
        .expect("incumbent schedule must replay to quiescence");
    debug_assert_eq!(oracle.divergences, 0, "incumbent replay diverged");
}

/// First index at which `mutant`'s link decisions depart from the
/// incumbent's — the first message where the candidate's run can
/// diverge; everything before it is shared prefix. Mutation only
/// rewrites delays and drop flags, so comparing those suffices — except
/// the fault plan, which is handed over at time zero: a candidate with
/// a different plan shares no prefix at all.
fn first_diff(incumbent: &Schedule, mutant: &Schedule) -> u64 {
    if incumbent.plan != mutant.plan {
        return 0;
    }
    incumbent
        .decisions
        .iter()
        .zip(&mutant.decisions)
        .position(|(a, b)| (a.delay, a.dropped) != (b.delay, b.dropped))
        .unwrap_or(mutant.decisions.len()) as u64
}

/// Scores one mutated candidate — completion time only, no recording —
/// resuming from the deepest incumbent checkpoint at or before
/// `first_diff` (cold-running only when the mutation lands before the
/// first checkpoint). [`ScheduleOracle`] answers by message index, so it
/// needs no positional state to resume mid-run.
fn score_candidate_from<P, F>(
    sim: &Simulator<'_>,
    pool: &mut EvalPool<P>,
    make: &F,
    checkpoints: &[Checkpoint<P>],
    mutant: &Schedule,
    first_diff: u64,
) -> SimTime
where
    P: Process + Clone,
    F: Fn(NodeId, &WeightedGraph) -> P,
{
    let start = origin(checkpoints, first_diff, make);
    sim.execute(
        start,
        pool,
        &mut ScheduleOracle::new(mutant),
        &mut (),
        NoCapture,
    )
    .expect("protocol must quiesce under an admissible schedule")
    .completion
}

/// The deepest incumbent checkpoint at or before `first_diff`, or a
/// fresh boot from `make` when the mutation lands before the first.
fn origin<'c, P: Process, F>(
    checkpoints: &'c [Checkpoint<P>],
    first_diff: u64,
    make: F,
) -> Origin<'c, P, F> {
    match checkpoints
        .iter()
        .rev()
        .find(|cp| cp.messages() <= first_diff)
    {
        Some(cp) => Origin::Checkpoint(cp),
        None => Origin::Fresh(make),
    }
}

/// Like [`score_candidate_from`], but records the candidate's run: the
/// returned schedule is the shared prefix plus the resumed recording —
/// the faithful transcript a cold [`Recorder`] would have produced.
/// Only adopted winners pay for this.
fn evaluate_candidate_from<P, F>(
    sim: &Simulator<'_>,
    pool: &mut EvalPool<P>,
    make: &F,
    checkpoints: &[Checkpoint<P>],
    mutant: &Schedule,
    first_diff: u64,
) -> (SimTime, Schedule)
where
    P: Process + Clone,
    P::Msg: Clone,
    F: Fn(NodeId, &WeightedGraph) -> P,
{
    let start = origin(checkpoints, first_diff, make);
    let at = match &start {
        Origin::Checkpoint(cp) => cp.messages(),
        Origin::Fresh(_) => 0,
    };
    let mut rec = Recorder::with_offset(ScheduleOracle::new(mutant), at);
    let completion = sim
        .execute(start, pool, &mut rec, &mut (), NoCapture)
        .expect("protocol must quiesce under an admissible schedule")
        .completion;
    if at == 0 {
        return (completion, rec.into_schedule(Fallback::WorstCase));
    }
    let mut decisions = mutant.decisions[..at as usize].to_vec();
    decisions.extend(rec.into_decisions());
    (
        completion,
        Schedule {
            decisions,
            fallback: Fallback::WorstCase,
            // Resumed runs restore the fault plan from the checkpoint
            // instead of re-querying the oracle, so the recorder saw
            // none of it; splice the mutant's own (identical to the
            // checkpoint's — `first_diff` is 0, and no checkpoint
            // covers it, whenever they differ).
            plan: mutant.plan.clone(),
        },
    )
}

/// Scores items `0..len` with `f` on up to `threads` workers and returns
/// the scores of every *group* — `group` consecutive items — up to and
/// including the first group holding a score above `bar`, in item order;
/// all `len` scores when no group does.
///
/// Workers claim items in index order from one cursor, each threading
/// its own `init` state through the items it claims, and stop claiming
/// once some group has a hit. A worker may by then have scored items
/// past that group; those speculative scores are dropped, so the result
/// is exactly what a sequential scan that stops at the end of the first
/// hit group would return, whatever `threads` is. A panic in `f`
/// propagates to the caller once every worker has stopped.
fn scores_until<T, S, I, F>(
    len: usize,
    group: usize,
    threads: usize,
    bar: T,
    init: I,
    f: F,
) -> Vec<T>
where
    T: PartialOrd + Send + Sync,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    assert!(
        group > 0 || len == 0,
        "items come in groups of at least one"
    );
    // Both atomics order nothing but themselves: scores reach the caller
    // through `join`, which synchronizes, so `Relaxed` suffices.
    let cursor = AtomicUsize::new(0);
    // The first group with a hit so far; it only ever decreases, so a
    // worker that reads it at or above an item's group may score it.
    let hit_group = AtomicUsize::new(usize::MAX);
    let work = |state: &mut S| {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= len || i / group > hit_group.load(Ordering::Relaxed) {
                return done;
            }
            let t = f(state, i);
            if t > bar {
                hit_group.fetch_min(i / group, Ordering::Relaxed);
            }
            done.push((i, t));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads.min(len))
            .map(|_| scope.spawn(|| work(&mut init())))
            .collect();
        let mut done = work(&mut init());
        for h in helpers {
            match h.join() {
                Ok(d) => done.extend(d),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        done
    });
    let end = match hit_group.into_inner() {
        usize::MAX => len,
        g => ((g + 1) * group).min(len),
    };
    done.retain(|&(i, _)| i < end);
    done.sort_unstable_by_key(|&(i, _)| i);
    debug_assert!(done.iter().enumerate().all(|(k, &(i, _))| k == i));
    done.into_iter().map(|(_, t)| t).collect()
}

/// One seeded schedule perturbation across every adversarial dimension —
/// the single mutation surface the hill-climb, polish and churn-search
/// phases share; a search carries its one in [`SearchConfig::mutation`].
///
/// [`Mutation::apply`] draws, in order: `delay_flips` delay
/// re-randomizations (each picked decision set to rushed `1`, stretched
/// `weight`, or a uniform point between), `drop_flips` drop-flag
/// toggles, then — only on crash-bearing schedules —
/// `crash_time_flips` crash-time redraws (halved, doubled, or uniform
/// around the current value), `rejoin_flips` churn-chain extensions
/// (each picked victim's crash/rejoin chain grows by one toggle: a
/// rejoin if the victim is down at the end of its chain, a *recrash* if
/// it is back up — the crash–rejoin–recrash ladders the churn witness
/// needs), and finally `drift_flips` weight revisions (a picked
/// decision's edge gets its weight redrawn in `[1, 2·weight]` at a
/// drawn time). The draw order is a compatibility contract: a dimension
/// with zero flips consumes no RNG, so enabling a later dimension never
/// perturbs the mutants of an earlier one, and committed delay-only and
/// single-crash witnesses regenerate byte-identically.
///
/// An optional [`Mutation::crash_horizon`] clamps redrawn crash, rejoin
/// and drift times *after* the draw (consuming no extra RNG, so an
/// unbounded mutation stays byte-identical), keeping every emitted
/// churn event observable within the run's horizon.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Mutation {
    delay_flips: usize,
    drop_flips: usize,
    crash_time_flips: usize,
    rejoin_flips: usize,
    drift_flips: usize,
    horizon: Option<u64>,
}

impl Mutation {
    /// A mutation with every dimension zero — [`Mutation::apply`] is the
    /// identity until a flip budget is set.
    pub fn new() -> Self {
        Mutation::default()
    }

    /// Sets how many decisions get their delay re-randomized.
    pub fn delay_flips(mut self, n: usize) -> Self {
        self.delay_flips = n;
        self
    }

    /// Sets how many decisions get their drop flag toggled.
    pub fn drop_flips(mut self, n: usize) -> Self {
        self.drop_flips = n;
        self
    }

    /// Sets how many crash times get redrawn (no-op on crash-free
    /// schedules — the draws are skipped entirely).
    pub fn crash_time_flips(mut self, n: usize) -> Self {
        self.crash_time_flips = n;
        self
    }

    /// Sets how many churn-chain extensions get drawn: each flip picks a
    /// crashed vertex and appends one toggle to its crash/rejoin chain —
    /// a rejoin when the chain ends down, a recrash when it ends up
    /// (no-op on crash-free schedules — the draws are skipped entirely).
    pub fn rejoin_flips(mut self, n: usize) -> Self {
        self.rejoin_flips = n;
        self
    }

    /// Sets how many weight revisions get drawn: each flip picks a
    /// decision and revises its edge's weight at a drawn time (no-op on
    /// empty schedules).
    pub fn drift_flips(mut self, n: usize) -> Self {
        self.drift_flips = n;
        self
    }

    /// Clamps every redrawn crash, rejoin and drift time to
    /// `at <= horizon` (post-draw, so the RNG stream is unchanged).
    pub fn crash_horizon(mut self, horizon: u64) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// Applies the mutation to `base` under `seed`, returning the mutant.
    /// Deterministic: same base, seed and dimensions — same mutant.
    pub fn apply(&self, base: &Schedule, seed: u64) -> Schedule {
        let mut out = Schedule::default();
        self.apply_into(base, seed, &mut out);
        out
    }

    /// [`Mutation::apply`] into `out`, reusing its buffers: `out` is
    /// overwritten field by field with `base`, then mutated. (A derived
    /// `clone_from` on [`Schedule`] would allocate a fresh copy.)
    pub(crate) fn apply_into(&self, base: &Schedule, seed: u64, out: &mut Schedule) {
        let Schedule {
            decisions,
            fallback,
            plan: FaultPlan { churn, drift },
        } = out;
        decisions.clone_from(&base.decisions);
        *fallback = base.fallback;
        churn.clone_from(&base.plan.churn);
        drift.clone_from(&base.plan.drift);
        if out.decisions.is_empty() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..self.delay_flips {
            let i = rng.random_range(0..out.decisions.len() as u64) as usize;
            let d = &mut out.decisions[i];
            d.delay = match rng.random_range(0..3u64) {
                0 => 1,
                1 => d.weight,
                _ => rng.random_range(1..=d.weight),
            };
        }
        for _ in 0..self.drop_flips {
            let i = rng.random_range(0..out.decisions.len() as u64) as usize;
            let d = &mut out.decisions[i];
            d.dropped = !d.dropped;
        }
        // The list a crash-time or rejoin draw picks its victim from. A
        // recrash appended below joins its end, so an index means the
        // same toggle throughout.
        let mut crashes = crash_positions(&out.plan);
        if !crashes.is_empty() {
            for _ in 0..self.crash_time_flips {
                let (c, pos) = crashes[rng.random_range(0..crashes.len() as u64) as usize];
                let chain = &mut out.plan.churn[c].1;
                let at = chain[pos].get();
                let mut drawn = match rng.random_range(0..3u64) {
                    0 => (at / 2).max(1),
                    1 => at.saturating_mul(2).max(1),
                    _ => rng.random_range(1..=at.saturating_mul(2).max(1)),
                };
                if let Some(h) = self.horizon {
                    drawn = drawn.min(h).max(1);
                }
                // The redraw must stay strictly between its neighbouring
                // toggles or the chain stops increasing; clamp post-draw
                // (no RNG consumed — on a single-crash chain the slot is
                // (0, ∞) and this is the identity).
                let lo = if pos > 0 { chain[pos - 1].get() + 1 } else { 1 };
                let hi = chain
                    .get(pos + 1)
                    .map_or(u64::MAX, |t| t.get().saturating_sub(1));
                if lo > hi {
                    continue; // zero-width slot: keep the original time
                }
                chain[pos] = SimTime::new(drawn.clamp(lo, hi));
            }
            for _ in 0..self.rejoin_flips {
                let (c, _) = crashes[rng.random_range(0..crashes.len() as u64) as usize];
                let chain = &mut out.plan.churn[c].1;
                let last = chain.last().expect("victim has at least its crash").get();
                let mut at = last + rng.random_range(1..=last.max(1));
                if let Some(h) = self.horizon {
                    at = at.min(h);
                }
                if at <= last {
                    // The horizon leaves no room for another toggle on
                    // this chain; skip rather than emit invalid churn.
                    continue;
                }
                if chain.len().is_multiple_of(2) {
                    crashes.push((c, chain.len())); // up again: a recrash
                }
                chain.push(SimTime::new(at));
            }
        }
        for _ in 0..self.drift_flips {
            let i = rng.random_range(0..out.decisions.len() as u64) as usize;
            let d = out.decisions[i];
            let weight = Weight::new(rng.random_range(1..=d.weight.saturating_mul(2).max(1)));
            // Drift times are drawn against a message-count proxy for
            // the run's duration (the hill phase refines them like any
            // other coordinate), then clamped post-draw so a horizon
            // never perturbs the RNG stream.
            let cap = (out.decisions.len() as u64).saturating_mul(2).max(1);
            let mut at = rng.random_range(1..=cap);
            if let Some(h) = self.horizon {
                at = at.min(h).max(1);
            }
            let at = SimTime::new(at);
            // Two revisions of one edge at one instant would race, and
            // the parser refuses them; replace instead of duplicating.
            match (out.plan.drift.iter_mut()).find(|(e, t, _)| (*e, *t) == (d.edge, at)) {
                Some(existing) => existing.2 = weight,
                None => out.plan.drift.push((d.edge, at, weight)),
            }
        }
    }
}

/// Searches for the schedule maximizing completion time of the protocol
/// built by `make` on `g`.
///
/// Strategy pipeline: (1) the [`DelayModel::WorstCase`] baseline, which
/// also defines [`SearchOutcome::worst_case`]; (2) the
/// [`CriticalPathOracle`] greedy; (3) `random_probes` uniform-delay
/// probes in parallel; (3½) `crash_probes` single-crash candidates
/// spliced onto the incumbent; (4) `hill_rounds` rounds of parallel
/// [`Mutation`]-and-replay hill climbing from the incumbent, each
/// candidate resumed from the incumbent's checkpoint store (see the
/// [module docs](self)); (5) `polish_passes` of tail coordinate descent
/// over single decisions, scored on every worker. Strict improvement is
/// required to adopt a candidate, and ties prefer the earlier strategy
/// and candidate, so the outcome is deterministic and the same at every
/// thread count.
pub fn find_worst_schedule<P, F>(g: &WeightedGraph, make: F, cfg: &SearchConfig) -> SearchOutcome
where
    P: Process + Clone + Send + Sync,
    P::Msg: Clone + Send + Sync,
    F: Fn(NodeId, &WeightedGraph) -> P + Sync,
{
    let threads = cfg.worker_threads();
    let sim = Simulator::new(g);
    let mut evaluations = 0usize;

    let worst = ModelOracle::new(DelayModel::WorstCase, cfg.seed);
    let (run, worst_schedule) = crate::record(g, &make, worst, Fallback::WorstCase);
    let worst_case = run.cost.completion;
    evaluations += 1;
    let mut best = SearchOutcome {
        worst_case,
        best_time: worst_case,
        schedule: worst_schedule,
        strategy: "worst-case",
        evaluations: 0,
        classes_explored: 0,
        schedules_pruned: 0,
    };

    let (run, s) = crate::record(g, &make, CriticalPathOracle::new(), Fallback::WorstCase);
    let t = run.cost.completion;
    evaluations += 1;
    if t > best.best_time {
        (best.best_time, best.schedule, best.strategy) = (t, s, "critical-path");
    }

    let probe_seeds: Vec<u64> = (0..cfg.random_probes as u64)
        .map(|i| cfg.seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let probes = par_map_with(&probe_seeds, threads, EvalPool::new, |pool, &s| {
        eval_recorded(&sim, pool, &make, ModelOracle::new(DelayModel::Uniform, s))
    });
    evaluations += probes.len();
    for (t, s) in probes {
        if t > best.best_time {
            (best.best_time, best.schedule, best.strategy) = (t, s, "random");
        }
    }

    // Crash probes: try each of the first `crash_probes` vertices as the
    // incumbent plus that vertex crashing at each point of a small
    // crash-time grid. An early crash removes a participant before it
    // contributes; a late one forces recovery of state already built —
    // which of the two stalls a protocol longer is exactly what the grid
    // discovers (and the mutation's `crash_time_flips` then refines).
    // Crashes take effect from time zero (`first_diff` is 0 against any
    // crash-free checkpoint), so every probe is a cold recorded run.
    if cfg.crash_probes > 0 {
        let horizon = best.best_time.get();
        // The mutation's crash horizon caps the grid: a crash past it
        // would be recorded but never observed within the run.
        let cap = cfg.mutation.horizon.unwrap_or(u64::MAX).max(1);
        let mut grid: Vec<u64> = [horizon / 4, horizon / 2, (3 * horizon) / 4]
            .iter()
            .map(|&at| at.clamp(1, cap))
            .collect();
        grid.dedup();
        let mut pool = EvalPool::new();
        for v in g.nodes().take(cfg.crash_probes) {
            for &at in &grid {
                let mut candidate = best.schedule.clone();
                // Replace, don't duplicate, when an earlier grid point
                // for this vertex was already adopted.
                candidate.plan.churn.retain(|(c, _)| *c != v);
                candidate.plan.churn.push((v, vec![SimTime::new(at)]));
                let (t, s) = eval_recorded(&sim, &mut pool, &make, ScheduleOracle::new(&candidate));
                evaluations += 1;
                if t > best.best_time {
                    (best.best_time, best.schedule, best.strategy) = (t, s, "crash");
                }
            }
        }
    }

    let mut checkpoints: Vec<Checkpoint<P>> = Vec::new();
    let mut main_pool = EvalPool::new();
    if cfg.hill_rounds > 0 || cfg.polish_passes > 0 {
        let interval = checkpoint_interval(best.schedule.len());
        rebuild_checkpoints(&sim, &make, &best.schedule, interval, &mut checkpoints);
        evaluations += 1;
    }
    // Hill climbing. One epoch per incumbent: every remaining round is
    // one stream of candidates, a round per group, scored until the
    // first round with a strict improvement. That round's best (earliest
    // on ties, matching a sequential `>` scan) is adopted, and only then
    // recorded; the next epoch starts at the round after it.
    let mutation = cfg.mutation;
    let per_round = cfg.candidates_per_round;
    let mut round = 0;
    while per_round > 0 && round < cfg.hill_rounds {
        let seed_of = |i: usize| {
            let (r, c) = ((round + i / per_round) as u64, (i % per_round) as u64);
            cfg.seed.wrapping_mul(0x100_0001b3) ^ (r << 32 | c)
        };
        let incumbent = &best.schedule;
        let store = &checkpoints;
        let scores = scores_until(
            (cfg.hill_rounds - round).saturating_mul(per_round),
            per_round,
            threads,
            best.best_time,
            || (EvalPool::new(), Schedule::default()),
            |(pool, mutant), i| {
                mutation.apply_into(incumbent, seed_of(i), mutant);
                let fd = first_diff(incumbent, mutant);
                score_candidate_from(&sim, pool, &make, store, mutant, fd)
            },
        );
        evaluations += scores.len();
        let last_round = scores.len().saturating_sub(per_round);
        let mut winner: Option<(usize, SimTime)> = None;
        for (i, &t) in scores.iter().enumerate().skip(last_round) {
            if t > winner.map_or(best.best_time, |(_, wt)| wt) {
                winner = Some((i, t));
            }
        }
        let Some((i, t)) = winner else {
            break; // no round improved: the stream ran them all
        };
        let mutant = mutation.apply(&best.schedule, seed_of(i));
        let fd = first_diff(&best.schedule, &mutant);
        let (rt, rs) =
            evaluate_candidate_from(&sim, &mut main_pool, &make, &checkpoints, &mutant, fd);
        evaluations += 1;
        debug_assert_eq!(rt, t, "recorded winner must replay to its score");
        (best.best_time, best.schedule, best.strategy) = (rt, rs, "hill-climb");
        let interval = checkpoint_interval(best.schedule.len());
        rebuild_checkpoints(&sim, &make, &best.schedule, interval, &mut checkpoints);
        evaluations += 1;
        round += i / per_round + 1;
    }

    // Tail polish: coordinate descent over single decisions, each
    // candidate resumed from the deepest prefix checkpoint (see the
    // module docs). A pass's toggles are one stream in sweep order,
    // scored until the first strict improvement; after adopting it the
    // stream restarts one position further down against the new
    // incumbent. Deterministic by construction — fixed sweep order,
    // first-improvement adoption, no randomness.
    for _pass in 0..cfg.polish_passes {
        let len = best.schedule.decisions.len();
        if len == 0 {
            break;
        }
        let lo = len.saturating_sub((len / 4).max(1));
        let mut improved = false;
        // The stream sweeps positions `(lo..end).rev()`.
        let mut end = len;
        loop {
            let toggles: Vec<(usize, u64)> = (lo..end)
                .rev()
                .flat_map(|k| {
                    let d = best.schedule.decisions[k];
                    [d.weight, 1]
                        .into_iter()
                        .filter(move |&target| target != d.delay)
                        .map(move |target| (k, target))
                })
                .collect();
            let incumbent = &best.schedule;
            let store = &checkpoints;
            // Each worker toggles its own copy of the incumbent in place
            // and restores it after scoring.
            let scores = scores_until(
                toggles.len(),
                1,
                threads,
                best.best_time,
                || (EvalPool::new(), incumbent.clone()),
                |(pool, mutant), i| {
                    let (k, target) = toggles[i];
                    let delay = std::mem::replace(&mut mutant.decisions[k].delay, target);
                    let t = score_candidate_from(&sim, pool, &make, store, mutant, k as u64);
                    mutant.decisions[k].delay = delay;
                    t
                },
            );
            evaluations += scores.len();
            let t = match scores.last() {
                Some(&t) if t > best.best_time => t,
                _ => break, // swept down to `lo` without an improvement
            };
            let (k, target) = toggles[scores.len() - 1];
            let mut mutant = best.schedule.clone();
            mutant.decisions[k].delay = target;
            let (rt, rs) = evaluate_candidate_from(
                &sim,
                &mut main_pool,
                &make,
                &checkpoints,
                &mutant,
                k as u64,
            );
            evaluations += 1;
            debug_assert_eq!(rt, t, "recorded winner must replay to its score");
            (best.best_time, best.schedule, best.strategy) = (rt, rs, "polish");
            improved = true;
            // The adopted run departs from the old incumbent at message
            // k, so checkpoints at or before k captured identical state
            // and stay valid; the rest are stale.
            checkpoints.retain(|cp| cp.messages() <= k as u64);
            // Adoption may change the schedule's length; keep the sweep
            // inside the new incumbent.
            end = k.min(best.schedule.decisions.len());
        }
        if !improved {
            // Converged: re-sweeping an unchanged incumbent re-scores
            // identical candidates.
            break;
        }
        let interval = checkpoint_interval(best.schedule.len());
        rebuild_checkpoints(&sim, &make, &best.schedule, interval, &mut checkpoints);
        evaluations += 1;
    }

    best.evaluations = evaluations;
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::tests::chain;
    use csp_graph::generators::{self, WeightDist};
    use csp_sim::Context;
    use std::sync::atomic::AtomicBool;

    /// Minimal flooding protocol for search smoke tests.
    #[derive(Clone)]
    struct Flood {
        seen: bool,
    }

    impl Process for Flood {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
            if ctx.self_id() == NodeId::new(0) {
                self.seen = true;
                ctx.send_all(());
            }
        }
        fn on_message(&mut self, _from: NodeId, _msg: (), ctx: &mut Context<'_, ()>) {
            if !self.seen {
                self.seen = true;
                ctx.send_all(());
            }
        }
    }

    fn small_graph() -> WeightedGraph {
        generators::connected_gnp(10, 0.35, WeightDist::Uniform(1, 12), 7)
    }

    /// A uniform-delay flood recording on `g`: the base the mutation
    /// tests perturb.
    fn uniform_base(g: &WeightedGraph) -> Schedule {
        let uniform = ModelOracle::new(DelayModel::Uniform, 3);
        crate::record(
            g,
            |_, _| Flood { seen: false },
            uniform,
            Fallback::WorstCase,
        )
        .1
    }

    #[test]
    fn search_never_loses_to_its_own_baseline() {
        let g = small_graph();
        let cfg = SearchConfig::builder()
            .random_probes(8)
            .hill_rounds(3)
            .candidates_per_round(4)
            .build()
            .unwrap();
        let out = find_worst_schedule(&g, |_, _| Flood { seen: false }, &cfg);
        assert!(out.best_time >= out.worst_case);
        assert!(out.gap() >= 1.0);
        assert!(out.evaluations >= 1 + 1 + 8);
        assert_eq!(
            out.classes_explored, 0,
            "heuristic search tracks no classes"
        );
        assert_eq!(out.schedules_pruned, 0);
    }

    /// Everything a search reports, for whole-outcome comparisons.
    fn outcome_key(o: &SearchOutcome) -> (u64, u64, &'static str, usize, u64, u64, &Schedule) {
        (
            o.worst_case.get(),
            o.best_time.get(),
            o.strategy,
            o.evaluations,
            o.classes_explored,
            o.schedules_pruned,
            &o.schedule,
        )
    }

    #[test]
    fn search_is_deterministic_across_thread_counts() {
        // Single-strip SptRecur is chaotic Bellman–Ford: its message set
        // depends on delivery order, so on this instance the hill phase
        // adopts (the polish-free search ends on a hill climb) and so
        // does the polish that follows it.
        let g = generators::connected_gnp(16, 0.25, WeightDist::Uniform(1, 32), 7);
        let recur =
            |v, _: &WeightedGraph| csp_algo::spt::recur::SptRecur::new(v, NodeId::new(0), 1 << 40);
        let base = SearchConfig::builder()
            .hill_rounds(2)
            .candidates_per_round(3)
            .seed(2);
        let run = |builder: SearchConfigBuilder, threads| {
            find_worst_schedule(&g, recur, &builder.threads(threads).build().unwrap())
        };
        let hill_only = base.polish_passes(0);
        let (a, b) = (run(hill_only, 1), run(hill_only, 2));
        assert_eq!(a.strategy, "hill-climb");
        assert_eq!(outcome_key(&a), outcome_key(&b));
        let (a, b) = (run(base, 1), run(base, 2));
        assert_eq!(a.strategy, "polish");
        assert_eq!(outcome_key(&a), outcome_key(&b));
    }

    #[test]
    fn zero_candidates_per_round_skips_the_hill_phase() {
        // The builder rejects this config; a direct construction must
        // still search, with the hill phase a no-op.
        let g = small_graph();
        let flood = |_, _: &WeightedGraph| Flood { seen: false };
        let no_candidates = SearchConfig {
            candidates_per_round: 0,
            ..SearchConfig::default()
        };
        let no_rounds = SearchConfig {
            hill_rounds: 0,
            ..SearchConfig::default()
        };
        assert_eq!(
            outcome_key(&find_worst_schedule(&g, flood, &no_candidates)),
            outcome_key(&find_worst_schedule(&g, flood, &no_rounds))
        );
    }

    /// A score per item that hits `bar = 90` at items 18, 27 and 45.
    fn score(i: usize) -> u64 {
        match i {
            18 | 27 | 45 => 95,
            _ => (i as u64 * 37) % 90,
        }
    }

    #[test]
    fn scores_until_is_the_same_at_every_thread_count() {
        for group in [1, 4, 7, 64] {
            let want = scores_until(60, group, 1, 90, || (), |(), i| score(i));
            for threads in [2, 3] {
                let got = scores_until(60, group, threads, 90, || (), |(), i| score(i));
                assert_eq!(got, want, "group {group}, threads {threads}");
            }
        }
    }

    #[test]
    fn scores_until_stops_after_the_first_hit_group() {
        // Item 18 hits: its group of 4 is items 16..20.
        let got = scores_until(60, 4, 2, 90, || (), |(), i| score(i));
        assert_eq!(got, (0..20).map(score).collect::<Vec<_>>());
        // Groups of one stop at the hit itself.
        assert_eq!(
            scores_until(60, 1, 2, 90, || (), |(), i| score(i)).len(),
            19
        );
        // A hit in the last group, cut short by `len`, ends the scores
        // there.
        let late = |(): &mut (), i| if i < 42 { 0 } else { score(i) };
        assert_eq!(scores_until(46, 7, 2, 90, || (), late).len(), 46);
    }

    #[test]
    fn scores_until_scores_an_unbounded_stream_lazily() {
        // A stream as long as a huge `hill_rounds` budget asks for:
        // nothing is reserved up front, and the scan still ends at the
        // first hit group.
        let got = scores_until(usize::MAX, 4, 1, 90, || (), |(), i| score(i));
        assert_eq!(got, (0..20).map(score).collect::<Vec<_>>());
    }

    #[test]
    fn scores_until_drops_what_it_scored_past_the_hit_group() {
        // The hit at item 18 is held back until the other worker has
        // scored an item of a later group.
        let ran_ahead = AtomicBool::new(false);
        let got = scores_until(
            60,
            4,
            2,
            90,
            || (),
            |(), i| {
                if i == 18 {
                    while !ran_ahead.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                }
                if i >= 20 {
                    ran_ahead.store(true, Ordering::Release);
                }
                score(i)
            },
        );
        assert_eq!(got, (0..20).map(score).collect::<Vec<_>>());
    }

    #[test]
    fn scores_until_without_a_hit_scores_everything() {
        let got = scores_until(60, 4, 2, 95, || (), |(), i| score(i));
        assert_eq!(got, (0..60).map(score).collect::<Vec<_>>());
        assert!(scores_until(0, 4, 2, 0, || (), |(), i| score(i)).is_empty());
        // No items: not even a group size is needed.
        assert!(scores_until(0, 0, 2, 0, || (), |(), i| score(i)).is_empty());
    }

    #[test]
    #[should_panic(expected = "item 5 exploded")]
    fn scores_until_propagates_a_panic_in_a_worker() {
        scores_until(
            40,
            1,
            2,
            u64::MAX,
            || (),
            |(), i| {
                assert!(i != 5, "item 5 exploded");
                i as u64
            },
        );
    }

    #[test]
    fn apply_into_a_used_buffer_matches_apply() {
        // The hill phase mutates into one scratch schedule per worker;
        // whatever that buffer held before, the mutant must be exactly
        // `apply`'s.
        let g = small_graph();
        let mut base = uniform_base(&g);
        base.plan.churn.push(chain(2, &[9, 20]));
        base.plan
            .drift
            .push((base.decisions[0].edge, SimTime::new(4), Weight::new(3)));
        let all = Mutation::new()
            .delay_flips(3)
            .drop_flips(1)
            .crash_time_flips(1)
            .rejoin_flips(2)
            .drift_flips(2);
        let mut out = Schedule::default();
        for seed in 0..16 {
            for (m, b) in [(all, &base), (Mutation::new().delay_flips(4), &base)] {
                m.apply_into(b, seed, &mut out);
                assert_eq!(out, m.apply(b, seed), "seed {seed}");
            }
        }
        // An empty base empties the buffer too.
        all.apply_into(&Schedule::default(), 1, &mut out);
        assert_eq!(out, Schedule::default());
    }

    #[test]
    fn checkpointed_search_matches_cold_candidate_evaluation() {
        // Resumed candidate evaluation is bit-identical to cold at any
        // checkpoint interval: dense, too sparse to capture at all, and
        // the search's own rule. Scoring and recording both.
        let g = small_graph();
        let make = |_: NodeId, _: &WeightedGraph| Flood { seen: false };
        let sim = Simulator::new(&g);
        let incumbent = uniform_base(&g);
        let mutation = Mutation::new().delay_flips(4);
        let (mut pool, mut cold_pool) = (EvalPool::new(), EvalPool::new());
        for interval in [1, 10_000, checkpoint_interval(incumbent.len())] {
            let mut checkpoints = Vec::new();
            rebuild_checkpoints(&sim, &make, &incumbent, interval, &mut checkpoints);
            let mut resumed = 0;
            for seed in 0..32 {
                let mutant = mutation.apply(&incumbent, seed);
                let fd = first_diff(&incumbent, &mutant);
                resumed += usize::from(checkpoints.iter().any(|cp| cp.messages() <= fd));
                let cold = eval_recorded(&sim, &mut cold_pool, &make, ScheduleOracle::new(&mutant));
                let scored =
                    score_candidate_from(&sim, &mut pool, &make, &checkpoints, &mutant, fd);
                assert_eq!(scored, cold.0, "interval {interval}, seed {seed}");
                let recorded =
                    evaluate_candidate_from(&sim, &mut pool, &make, &checkpoints, &mutant, fd);
                assert_eq!(recorded, cold, "interval {interval}, seed {seed}");
            }
            assert_eq!(resumed > 0, interval != 10_000, "interval {interval}");
        }
    }

    #[test]
    fn mutate_keeps_delays_admissible() {
        let g = small_graph();
        let base = uniform_base(&g);
        let mutant = Mutation::new().delay_flips(16).apply(&base, 99);
        assert_eq!(mutant.decisions.len(), base.decisions.len());
        for d in &mutant.decisions {
            assert!(d.delay >= 1 && d.delay <= d.weight);
        }
    }

    #[test]
    fn zero_drop_flips_matches_the_delay_only_mutator() {
        // A zero-flip dimension must draw no RNG at all, so enabling
        // fault search can never perturb delay-only results (committed
        // witnesses regenerate unchanged).
        let g = small_graph();
        let base = uniform_base(&g);
        for seed in [0, 7, 99] {
            assert_eq!(
                Mutation::new().delay_flips(6).apply(&base, seed),
                Mutation::new()
                    .delay_flips(6)
                    .drop_flips(0)
                    .apply(&base, seed)
            );
        }
    }

    #[test]
    fn drop_flips_toggle_only_drop_flags() {
        let g = small_graph();
        let base = uniform_base(&g);
        let mutant = Mutation::new().drop_flips(5).apply(&base, 42);
        assert!(mutant.dropped_count() > 0, "some flag must flip");
        for (a, b) in base.decisions.iter().zip(&mutant.decisions) {
            assert_eq!(a.delay, b.delay, "delays must be untouched");
        }
    }

    #[test]
    fn fault_search_with_drops_never_loses_to_delay_only() {
        // Drops can only stall a flood further (retransmission-free flood
        // still quiesces — undelivered copies just vanish), so the
        // drop-enabled search must dominate its own delay-only baseline.
        let g = small_graph();
        let base = SearchConfig::builder()
            .random_probes(4)
            .hill_rounds(3)
            .candidates_per_round(4)
            .polish_passes(0);
        let delay_only =
            find_worst_schedule(&g, |_, _| Flood { seen: false }, &base.build().unwrap());
        let faulty = find_worst_schedule(
            &g,
            |_, _| Flood { seen: false },
            &base
                .mutation(Mutation::new().delay_flips(4).drop_flips(2))
                .build()
                .unwrap(),
        );
        assert!(faulty.best_time >= delay_only.worst_case);
        assert!(faulty.evaluations >= delay_only.evaluations);
    }

    #[test]
    fn crash_probes_are_evaluated_and_recorded() {
        let g = small_graph();
        let cfg = SearchConfig::builder()
            .random_probes(2)
            .hill_rounds(0)
            .polish_passes(0)
            .crash_probes(3)
            .build()
            .unwrap();
        let out = find_worst_schedule(&g, |_, _| Flood { seen: false }, &cfg);
        // 1 worst-case + 1 critical-path + 2 random + 3 vertices × the
        // 3-point crash-time grid.
        assert_eq!(out.evaluations, 13);
        if out.strategy == "crash" {
            assert_eq!(out.schedule.plan.churn.len(), 1);
        }
        // The mutation's horizon caps the grid: at 1 it collapses to
        // one point per vertex.
        let capped = SearchConfig {
            mutation: cfg.mutation.crash_horizon(1),
            ..cfg
        };
        let out = find_worst_schedule(&g, |_, _| Flood { seen: false }, &capped);
        assert_eq!(out.evaluations, 7);
        for (_, chain) in &out.schedule.plan.churn {
            assert_eq!(chain, &[SimTime::new(1)]);
        }
    }

    #[test]
    fn zero_crash_time_flips_matches_the_drop_mutator() {
        // The crash-time draws are appended after the drop draws, so
        // disabling them must reproduce the drop-only mutant exactly even
        // on crash-bearing schedules.
        let g = small_graph();
        let mut base = uniform_base(&g);
        base.plan.churn.push(chain(2, &[9]));
        let drops = Mutation::new().delay_flips(6).drop_flips(2);
        for seed in [0, 7, 99] {
            assert_eq!(
                drops.apply(&base, seed),
                drops.crash_time_flips(0).apply(&base, seed)
            );
        }
    }

    #[test]
    fn crash_time_flips_move_only_crash_times() {
        let g = small_graph();
        let mut base = uniform_base(&g);
        base.plan.churn.push(chain(4, &[16]));
        let crash_only = Mutation::new().crash_time_flips(3);
        let mut moved = false;
        for seed in 0..8 {
            let mutant = crash_only.apply(&base, seed);
            assert_eq!(mutant.decisions, base.decisions, "decisions untouched");
            let [(victim, times)] = &mutant.plan.churn[..] else {
                panic!("one chain in, one chain out: {:?}", mutant.plan.churn);
            };
            assert_eq!(*victim, NodeId::new(4), "victim untouched");
            assert!(times.len() == 1 && times[0].get() >= 1);
            moved |= times[0].get() != 16;
        }
        assert!(moved, "some seed must actually move the crash time");
        // Crash-free schedules pass through the phase unchanged.
        base.plan.churn.clear();
        assert_eq!(crash_only.apply(&base, 5), base);
    }

    #[test]
    fn crash_horizon_clamps_without_consuming_rng() {
        // Clamping happens after the draw, so a horizon wide enough to be
        // inert leaves the mutant byte-identical, and a tight one caps
        // every redrawn time without perturbing the decision stream.
        let mut base = Schedule::default();
        base.decisions.push(crate::schedule::Decision {
            index: 0,
            edge: csp_graph::EdgeId::new(0),
            dir: 0,
            weight: 5,
            delay: 5,
            dropped: false,
        });
        base.plan.churn.push(chain(0, &[40]));
        let free = Mutation::new().crash_time_flips(2);
        for seed in 0..16 {
            let unbounded = free.apply(&base, seed);
            let wide = free.crash_horizon(u64::MAX).apply(&base, seed);
            assert_eq!(unbounded, wide, "inert horizon must not change draws");
            let tight = free.crash_horizon(10).apply(&base, seed);
            let at = tight.plan.churn[0].1[0].get();
            assert!((1..=10).contains(&at));
            assert_eq!(tight.decisions, unbounded.decisions);
        }
    }

    #[test]
    fn zero_churn_flips_match_the_fault_mutator() {
        // Rejoin and drift draws are appended after the crash-time
        // draws, so disabling them must reproduce the fault mutant
        // exactly — committed single-crash witnesses regenerate
        // byte-identically with churn search compiled in.
        let g = small_graph();
        let mut base = uniform_base(&g);
        base.plan.churn.push(chain(2, &[9]));
        let faults = Mutation::new()
            .delay_flips(6)
            .drop_flips(2)
            .crash_time_flips(1);
        for seed in [0, 7, 99] {
            assert_eq!(
                faults.apply(&base, seed),
                faults.rejoin_flips(0).drift_flips(0).apply(&base, seed)
            );
        }
    }

    #[test]
    fn rejoin_flips_grow_alternating_churn_chains() {
        let g = small_graph();
        let mut base = uniform_base(&g);
        base.plan.churn.push(chain(4, &[16]));
        let churn = Mutation::new().rejoin_flips(3);
        let mut extended = false;
        for seed in 0..8 {
            let mutant = churn.apply(&base, seed);
            assert_eq!(mutant.decisions, base.decisions, "decisions untouched");
            assert_eq!(mutant.plan.check(g.node_count(), g.edge_count()), Ok(()));
            extended |= mutant.plan.churn[0].1.len() > 1;
            // The mutant must survive the parser's rules too.
            let text = mutant.to_text();
            assert_eq!(Schedule::from_text(&text).unwrap(), mutant);
        }
        assert!(extended, "some seed must extend the chain");
        // Crash-free schedules pass through unchanged.
        base.plan.churn.clear();
        assert_eq!(churn.apply(&base, 5), base);
    }

    #[test]
    fn drift_flips_draw_valid_weight_revisions() {
        let g = small_graph();
        let base = uniform_base(&g);
        let drift = Mutation::new().drift_flips(4);
        let mut revised = false;
        for seed in 0..8 {
            let mutant = drift.apply(&base, seed);
            assert_eq!(mutant.decisions, base.decisions, "decisions untouched");
            revised |= !mutant.plan.drift.is_empty();
            assert!(mutant.plan.drift.iter().all(|(_, at, _)| at.get() >= 1));
            // No duplicate (edge, at) pairs — they would race.
            let text = mutant.to_text();
            assert_eq!(Schedule::from_text(&text).unwrap(), mutant);
        }
        assert!(revised, "some seed must draw a revision");
    }

    #[test]
    fn churn_mutants_share_no_prefix_with_the_incumbent() {
        let g = small_graph();
        let mut base = uniform_base(&g);
        base.plan.churn.push(chain(1, &[12]));
        let mut rejoined = base.clone();
        rejoined.plan.churn[0].1.push(SimTime::new(30));
        assert_eq!(first_diff(&base, &rejoined), 0);
        let mut drifted = base.clone();
        let revised = (base.decisions[0].edge, SimTime::new(5), Weight::new(3));
        drifted.plan.drift.push(revised);
        assert_eq!(first_diff(&base, &drifted), 0);
        assert_eq!(
            first_diff(&base, &base.clone()),
            base.decisions.len() as u64
        );
    }

    #[test]
    fn builder_validates_budgets_and_horizons() {
        assert!(SearchConfig::builder().build().is_ok(), "defaults are sane");
        assert_eq!(
            SearchConfig::builder()
                .random_probes(0)
                .hill_rounds(0)
                .polish_passes(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroBudget
        );
        // The exhaustive mode is a budget of its own.
        let exhaustive = SearchConfig::builder()
            .random_probes(0)
            .hill_rounds(0)
            .polish_passes(0)
            .exhaustive(128)
            .build()
            .unwrap();
        assert!(exhaustive.exhaustive);
        assert_eq!(exhaustive.class_budget, 128);
        assert_eq!(
            SearchConfig::builder()
                .candidates_per_round(0)
                .build()
                .unwrap_err(),
            ConfigError::NoCandidates
        );
        let frozen = Mutation::new();
        assert_eq!(
            SearchConfig::builder()
                .mutation(frozen)
                .build()
                .unwrap_err(),
            ConfigError::FrozenMutation
        );
        assert!(SearchConfig::builder()
            .mutation(frozen)
            .hill_rounds(0)
            .build()
            .is_ok());
        assert!(SearchConfig::builder()
            .mutation(frozen.drop_flips(1))
            .build()
            .is_ok());
        let capped = SearchConfig::default().mutation.crash_horizon(50);
        assert_eq!(
            SearchConfig::builder()
                .mutation(capped)
                .build()
                .unwrap_err(),
            ConfigError::UnusedCrashHorizon
        );
        assert!(SearchConfig::builder()
            .crash_probes(2)
            .mutation(capped)
            .build()
            .is_ok());
        assert!(SearchConfig::builder()
            .mutation(capped.rejoin_flips(1))
            .build()
            .is_ok());
        assert_eq!(
            SearchConfig::builder().build().unwrap().mutation(),
            Mutation::new().delay_flips(4),
            "the default search is delay-only"
        );
        for e in [
            ConfigError::ZeroBudget,
            ConfigError::NoCandidates,
            ConfigError::FrozenMutation,
            ConfigError::UnusedCrashHorizon,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn worker_threads_are_capped_at_the_machine() {
        let cfg = SearchConfig::builder().threads(usize::MAX).build().unwrap();
        let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(cfg.worker_threads(), avail);
        let auto = SearchConfig::default();
        assert_eq!(auto.worker_threads(), avail);
    }
}
