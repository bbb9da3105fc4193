//! The service engine: request handling, batch scheduling, cache
//! integration.
//!
//! Requests flow **queue → scheduler → cache → workers**:
//!
//! 1. A batch of parsed [`Scenario`]s is partitioned by protocol stack
//!    (the cache is typed per stack).
//! 2. On the service thread, each scenario probes its
//!    [`StackCache`]: FULL hits are answered immediately, INCREMENTAL
//!    hits hand the deepest matching checkpoint (an [`Arc`]) to the
//!    job, misses stay cold.
//! 3. Remaining jobs fan out over [`csp_sim::sweep::par_map_with`] —
//!    the same order-preserving worker pool the sweep driver uses — and
//!    run replay / resume / model / search work. An evaluation that
//!    panics is that job's error, nobody else's. Still on the worker, a
//!    cold run's checkpoints are keyed for the cache: one hashing pass
//!    over the schedule that describes the run gives every prefix key
//!    and the schedule's exact hash.
//! 4. Back on the service thread, the keyed checkpoints are moved into
//!    the cache — not copied — next to the results, metrics are folded
//!    in, and responses are emitted in submission order.
//!
//! The cache layer never crosses a thread: workers only see shared,
//! immutable checkpoints and hand back owned, keyed ones, which keeps
//! the engine lock-free.
//!
//! A request reaches the engine as a line of bytes
//! ([`Service::handle_line`], what the binary calls) or as a parsed tree
//! ([`Service::handle`]). The line entry keeps a `submit`'s
//! `run.schedule` string out of the tree and reads it against the text
//! the cache retains for the scenario key ([`StackCache::ingest`]), so a
//! resubmitted schedule pays for the bytes that changed; a string using
//! escapes that walk does not read is decoded in full and takes the tree
//! entry. Both feed the same pipeline above.

use crate::cache::{fnv1a, CacheCaps, IngestError, Keyed, Probe, StackCache, StoredResult};
use crate::json::{Json, JsonError};
use crate::metrics::{CacheOutcome, ServeMetrics};
use crate::scenario::{Bound, GraphSpec, RunMode, Scenario, SpecError, StackSpec};
use csp_adversary::{Fallback, Recorder, Schedule, ScheduleOracle, SearchConfig, SearchOutcome};
use csp_algo::flood::Flood;
use csp_algo::spt::recur::SptRecur;
use csp_graph::{NodeId, WeightedGraph};
use csp_sim::sweep::{effective_threads, par_map_with};
use csp_sim::{
    CaptureEvery, Checkpoint, CostReport, EvalPool, LinkOracle, ModelOracle, NoCapture, Origin,
    Process, Run, ShardedSimulator, Simulator, Trace,
};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Service construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads (`0` = one per core, capped at the machine).
    pub threads: usize,
    /// Message interval between stored checkpoints on cold runs.
    pub checkpoint_every: u64,
    /// Whether the prefix-sharing cache is active. Off, every scenario
    /// runs cold.
    pub cache: bool,
    /// Cache capacity limits.
    pub caps: CacheCaps,
    /// Trace events recorded per run (`0` records nothing). Traces are
    /// digested into responses, so differential consumers can pin
    /// cold ≡ incremental trace identity through the protocol.
    pub trace_cap: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            threads: 0,
            checkpoint_every: 16,
            cache: true,
            caps: CacheCaps::default(),
            trace_cap: 0,
        }
    }
}

/// A protocol stack the service can host: constructible per vertex from
/// its [`StackSpec`], and shippable to worker threads.
pub trait ServeStack: Process + Clone + Send + Sync + std::hash::Hash
where
    Self::Msg: Clone + Send + Sync,
{
    /// Builds the per-vertex process for `spec`.
    fn make(spec: StackSpec, v: NodeId, g: &WeightedGraph) -> Self;
}

impl ServeStack for Flood {
    fn make(spec: StackSpec, v: NodeId, _: &WeightedGraph) -> Flood {
        Flood::new(v == spec.root())
    }
}

impl ServeStack for SptRecur {
    fn make(spec: StackSpec, v: NodeId, _: &WeightedGraph) -> SptRecur {
        let delta = match spec {
            StackSpec::SptRecur { delta, .. } if delta > 0 => delta,
            // 0 = "one strip": effectively unbounded Δ.
            _ => 1 << 40,
        };
        SptRecur::new(v, spec.root(), delta)
    }
}

/// The long-running scenario-evaluation service.
pub struct Service {
    cfg: ServiceConfig,
    threads: usize,
    graphs: HashMap<String, WeightedGraph>,
    flood_cache: StackCache<Flood>,
    spt_cache: StackCache<SptRecur>,
    /// Aggregated counters, exported by `stats` and the metrics stream.
    pub metrics: ServeMetrics,
}

/// How a scenario got from its request to a probed job: the `ingest_*`
/// fields of its response.
#[derive(Clone, Copy)]
struct Ingest {
    /// When the request carrying the scenario arrived.
    started: Instant,
    /// Leading decisions copied from the scenario key's retained text.
    reused: usize,
    /// Decisions parsed from the request's bytes.
    parsed: usize,
}

/// The rendered `ingest_us`, `ingest_reused`, `ingest_parsed`.
type IngestFields = [(&'static str, Json); 3];

/// Parsed scenarios on their way to evaluation, each with the slot its
/// response takes in the batch.
type Slotted = Vec<(usize, Ingest, Scenario)>;

impl Ingest {
    /// A scenario of a request that arrived at `started`, with no
    /// schedule text read for it.
    fn at(started: Instant) -> Ingest {
        Ingest {
            started,
            reused: 0,
            parsed: 0,
        }
    }

    /// A scenario of a request that arrived at `started`, parsed whole.
    fn whole(started: Instant, scenario: &Scenario) -> Ingest {
        let parsed = match &scenario.run {
            RunMode::Schedule(schedule) => schedule.len(),
            _ => 0,
        };
        Ingest {
            parsed,
            ..Ingest::at(started)
        }
    }

    /// Ends the span — call once the cache has been probed — metering
    /// it and rendering the response fields.
    fn finish(self, metrics: &mut ServeMetrics) -> IngestFields {
        let elapsed = self.started.elapsed();
        metrics.ingest += elapsed;
        metrics.ingest_reused += self.reused as u64;
        metrics.ingest_parsed += self.parsed as u64;
        [
            ("ingest_us", Json::num(elapsed.as_micros() as f64)),
            ("ingest_reused", Json::num(self.reused as f64)),
            ("ingest_parsed", Json::num(self.parsed as f64)),
        ]
    }
}

/// Why a `submit` with a held schedule string yielded no scenario.
enum HeldError {
    Spec(SpecError),
    /// The string must be decoded in full.
    Escaped,
}

impl From<SpecError> for HeldError {
    fn from(e: SpecError) -> Self {
        HeldError::Spec(e)
    }
}

fn scenario_key(graph: &GraphSpec, stack: &StackSpec) -> String {
    format!("{}/{}", graph.key(), stack.key())
}

/// One scenario from its cache probe to its response: what the response
/// echoes, what a worker runs, and where the result is stored.
struct Job<'g, P: Process> {
    /// Position of the response within the batch.
    slot: usize,
    id: String,
    bound: Bound,
    /// Scenario key: the cache entry this job reads and writes.
    key: String,
    ingest: IngestFields,
    /// Hash the result is stored under: the mode key's, or the one the
    /// schedule's probe computed (`None` with the cache off — nothing
    /// will be stored).
    exact: Option<u64>,
    graph: &'g WeightedGraph,
    spec: StackSpec,
    /// Shard count for the conservative-parallel core (`0` =
    /// sequential), honoured by model runs. Not part of `exact` — the
    /// cores are bit-identical, so results are interchangeable.
    shards: usize,
    run: RunMode,
    /// The checkpoint a schedule replay resumes from, and its depth.
    resume: Option<(Arc<Checkpoint<P>>, u64)>,
}

/// How a scenario was answered, and what that took.
struct Served {
    outcome: CacheOutcome,
    depth: u64,
    exec: Duration,
    queue_wait: Duration,
}

/// What an evaluation hands back to the service thread.
struct RunOut<P: Process> {
    /// The record a FULL hit on this scenario will be answered from.
    stored: StoredResult,
    trace_digest: u64,
    /// Checkpoints produced by a cold run, until [`RunOut::key`] moves
    /// them into `keyed`.
    checkpoints: Vec<Checkpoint<P>>,
    /// The schedule that deterministically describes the run where it
    /// is not the submitted one (recorded for model runs, found for
    /// searches).
    cache_schedule: Option<Schedule>,
    /// The checkpoints keyed for the cache, with the exact hash of the
    /// schedule that keyed them.
    keyed: Option<Keyed<P>>,
}

impl<P: Process + std::hash::Hash> RunOut<P> {
    /// The record of a finished `run` that left `checkpoints`.
    fn of(run: Run<P>, checkpoints: Vec<Checkpoint<P>>) -> RunOut<P> {
        RunOut {
            stored: StoredResult {
                states_digest: digest_states(&run.states),
                report: run.cost,
                schedule_text: None,
                worst_case: None,
                reduction: None,
            },
            trace_digest: digest_trace(&run.trace),
            checkpoints,
            cache_schedule: None,
            keyed: None,
        }
    }

    /// Keys what the service thread will store, on the worker that ran
    /// `job`. Cold replays key checkpoints by the submitted schedule;
    /// model and search runs key checkpoints and their result by the
    /// schedule they recorded or found.
    fn key(&mut self, job: &Job<'_, P>) {
        let keyed_by = match (&self.cache_schedule, &job.run) {
            (Some(schedule), _) => Some(schedule),
            (None, RunMode::Schedule(schedule)) if !self.checkpoints.is_empty() => Some(schedule),
            _ => None,
        };
        self.keyed = keyed_by.map(|s| Keyed::new(s, std::mem::take(&mut self.checkpoints)));
    }
}

impl Service {
    /// Creates a service with the given configuration.
    pub fn new(cfg: ServiceConfig) -> Service {
        let threads = effective_threads(cfg.threads);
        Service {
            cfg,
            threads,
            graphs: HashMap::new(),
            flood_cache: StackCache::new(cfg.caps),
            spt_cache: StackCache::new(cfg.caps),
            metrics: ServeMetrics::new(threads),
        }
    }

    /// Worker threads the pool runs with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Handles one request line as read from the transport (surrounding
    /// whitespace and the line terminator allowed), returning the
    /// responses to write — none for a blank line — or `None` when the
    /// line asks for `shutdown`.
    ///
    /// Answers exactly what [`Service::handle`] answers for the parsed
    /// line, but a `submit`'s `run.schedule` string is never decoded
    /// whole: [`StackCache::ingest`] reads it against the text retained
    /// for its scenario key.
    pub fn handle_line(&mut self, line: &[u8]) -> Option<Vec<Json>> {
        let started = Instant::now();
        let Ok(line) = std::str::from_utf8(line) else {
            return Some(self.reject("", "request is not valid UTF-8"));
        };
        let line = line.trim();
        if line.is_empty() {
            return Some(Vec::new());
        }
        let (request, held) = match Json::parse_holding(line, &["run", "schedule"]) {
            Ok(framed) => framed,
            Err(e) => return Some(self.reject("", &bad_json(&e))),
        };
        Some(match (request.get("type").and_then(Json::as_str), held) {
            (Some("shutdown"), _) => return None,
            (Some("submit"), Some(held)) => {
                match self.submit_held(&request, &line[held], started) {
                    Some(responses) => responses,
                    // The escape fallback: the tree entry, string decoded.
                    None => match Json::parse(line) {
                        Ok(request) => self.handle_since(&request, started),
                        Err(e) => self.reject("", &bad_json(&e)),
                    },
                }
            }
            // No other request type reads `run.schedule`.
            _ => self.handle_since(&request, started),
        })
    }

    /// A `submit` whose `run.schedule` string `raw` was held back from
    /// the tree. `None` when the string needs decoding in full.
    fn submit_held(&mut self, request: &Json, raw: &str, started: Instant) -> Option<Vec<Json>> {
        let mut ingest = Ingest::at(started);
        let (flood_cache, spt_cache) = (&mut self.flood_cache, &mut self.spt_cache);
        let scenario = Scenario::from_json_with(request, |graph, stack, run| {
            if run.get("mode").and_then(Json::as_str) != Some("schedule") {
                return Ok(RunMode::from_json(run)?);
            }
            let key = scenario_key(graph, stack);
            let ingested = match stack {
                StackSpec::Flood { .. } => flood_cache.ingest(&key, raw),
                StackSpec::SptRecur { .. } => spt_cache.ingest(&key, raw),
            };
            match ingested {
                Ok(ingested) => {
                    (ingest.reused, ingest.parsed) = (ingested.reused, ingested.parsed);
                    Ok(RunMode::Schedule(ingested.schedule))
                }
                Err(IngestError::Parse(e)) => {
                    Err(SpecError::new(&format!("bad schedule: {e}")).into())
                }
                Err(IngestError::Escaped) => Err(HeldError::Escaped),
            }
        });
        match scenario {
            Ok(scenario) => Some(self.process(vec![(0, ingest, scenario)], Vec::new())),
            Err(HeldError::Spec(e)) => Some(self.reject(request_id(request), &e.msg)),
            Err(HeldError::Escaped) => None,
        }
    }

    /// Handles one JSON-lines request, returning the responses to
    /// write (one per line). `shutdown` is the caller's concern — the
    /// engine is transport-agnostic.
    pub fn handle(&mut self, request: &Json) -> Vec<Json> {
        self.handle_since(request, Instant::now())
    }

    /// [`Service::handle`] for a request that arrived at `started`.
    fn handle_since(&mut self, request: &Json, started: Instant) -> Vec<Json> {
        match request.get("type").and_then(Json::as_str) {
            Some("submit") => match Scenario::from_json(request) {
                Ok(s) => self.process(vec![(0, Ingest::whole(started, &s), s)], Vec::new()),
                Err(e) => self.reject(request_id(request), &e.msg),
            },
            Some("batch") => {
                let Some(items) = request.get("scenarios").and_then(Json::as_arr) else {
                    return self.reject("", "batch needs a \"scenarios\" array");
                };
                let (mut scenarios, mut refused) = (Vec::new(), Vec::new());
                for (slot, item) in items.iter().enumerate() {
                    match Scenario::from_json(item) {
                        Ok(s) => scenarios.push((slot, Ingest::whole(started, &s), s)),
                        Err(e) => {
                            self.metrics.rejected += 1;
                            refused.push((slot, error_response(request_id(item), &e.msg)));
                        }
                    }
                }
                self.process(scenarios, refused)
            }
            Some("stats") => {
                vec![Json::obj(vec![
                    ("type", Json::str("stats")),
                    ("id", Json::str(request_id(request))),
                    ("stats", self.metrics.to_json()),
                ])]
            }
            Some(other) => self.reject(
                "",
                &format!("unknown request type {other:?} (submit, batch, stats, shutdown)"),
            ),
            None => self.reject("", "request needs a string \"type\""),
        }
    }

    /// Counts and answers a request that is refused before evaluation.
    fn reject(&mut self, id: &str, msg: &str) -> Vec<Json> {
        self.metrics.rejected += 1;
        vec![error_response(id, msg)]
    }

    /// Evaluates a batch of parsed scenarios, returning one response
    /// per scenario in submission order.
    pub fn process_batch(&mut self, scenarios: Vec<Scenario>) -> Vec<Json> {
        let ingest = Ingest::at(Instant::now());
        let slotted = scenarios.into_iter().enumerate();
        self.process(
            slotted.map(|(slot, s)| (slot, ingest, s)).collect(),
            Vec::new(),
        )
    }

    /// Evaluates `scenarios`, each tagged with its slot in the batch,
    /// and returns their responses in slot order together with the ones
    /// `answered` before evaluation.
    fn process(&mut self, scenarios: Slotted, mut answered: Vec<(usize, Json)>) -> Vec<Json> {
        self.metrics.batches += 1;
        self.metrics.submitted += scenarios.len() as u64;
        let queued = Instant::now();

        // Materialize every referenced graph first, so jobs can borrow
        // the store immutably for the whole parallel phase.
        for (_, _, s) in &scenarios {
            self.graphs
                .entry(s.graph.key())
                .or_insert_with(|| s.graph.build());
        }

        // Partition by stack type; each partition runs through the
        // typed pipeline, and the slots restore submission order.
        let (flood_jobs, spt_jobs): (Slotted, Slotted) = scenarios
            .into_iter()
            .partition(|(_, _, s)| matches!(s.stack, StackSpec::Flood { .. }));

        // The typed pipelines need simultaneous access to the graph
        // store (shared) and one cache (exclusive) — split the borrows
        // field by field.
        let Service {
            cfg,
            threads,
            graphs,
            flood_cache,
            spt_cache,
            metrics,
        } = self;
        answered.extend(run_stack_jobs(
            *cfg,
            *threads,
            graphs,
            flood_cache,
            metrics,
            flood_jobs,
            queued,
        ));
        answered.extend(run_stack_jobs(
            *cfg, *threads, graphs, spt_cache, metrics, spt_jobs, queued,
        ));

        let (fc, fr) = self.flood_cache.len();
        let (sc, sr) = self.spt_cache.len();
        self.metrics.checkpoints_stored = (fc + sc) as u64;
        self.metrics.results_stored = (fr + sr) as u64;
        self.metrics.evictions = self.flood_cache.evictions() + self.spt_cache.evictions();

        answered.sort_by_key(|&(slot, _)| slot);
        answered.into_iter().map(|(_, r)| r).collect()
    }
}

/// Probes the cache, fans misses/resumes out to the worker pool, folds
/// results back into cache + metrics, and returns each scenario's
/// response with its slot.
fn run_stack_jobs<P: ServeStack>(
    cfg: ServiceConfig,
    threads: usize,
    graphs: &HashMap<String, WeightedGraph>,
    cache: &mut StackCache<P>,
    metrics: &mut ServeMetrics,
    scenarios: Slotted,
    queued: Instant,
) -> Vec<(usize, Json)>
where
    P::Msg: Clone + Send + Sync,
{
    let mut responses = Vec::with_capacity(scenarios.len());
    let mut jobs: Vec<Job<'_, P>> = Vec::new();

    for (slot, ingest, s) in scenarios {
        let graph = graphs.get(&s.graph.key()).expect("graph materialized");
        let key = scenario_key(&s.graph, &s.stack);
        // Every mode looks for a stored result first; a schedule's probe
        // may also find a checkpoint to resume from.
        let (exact, probe) = match &s.run {
            RunMode::Schedule(schedule) => {
                // The kernel's intake panics on a plan that does not fit
                // the graph; a submission gets the same verdict as an
                // error. Here, not at parse time: the graph is known here.
                if let Err(e) = schedule.plan.check(graph.node_count(), graph.edge_count()) {
                    metrics.rejected += 1;
                    let msg = format!("bad schedule: {e}");
                    responses.push((slot, error_response(&s.id, &msg)));
                    continue;
                }
                // The probe's single O(len) pass also yields the exact
                // hash reused at result-insertion time.
                if cfg.cache {
                    let (exact, probe) = cache.probe_shared(&key, schedule, ingest.reused);
                    (Some(exact), probe)
                } else {
                    (None, Probe::Miss)
                }
            }
            mode => {
                let suffix = mode.exact_key().expect("only a schedule has no mode key");
                let exact = fnv1a(&format!("{key}#{suffix}"));
                let stored = cache.get_exact(&key, exact);
                let probe = stored.map_or(Probe::Miss, |r| Probe::Full(Box::new(r)));
                (Some(exact), probe)
            }
        };
        let mut job = Job {
            slot,
            id: s.id,
            bound: s.bound,
            key,
            ingest: ingest.finish(metrics),
            exact,
            graph,
            spec: s.stack,
            shards: s.shards,
            run: s.run,
            resume: None,
        };
        match probe {
            Probe::Full(stored) => {
                metrics.cache_full_hits += 1;
                let served = Served {
                    outcome: CacheOutcome::Full,
                    depth: 0,
                    exec: Duration::ZERO,
                    queue_wait: queued.elapsed(),
                };
                responses.push((slot, result_response(&job, &served, &stored, None)));
                continue;
            }
            Probe::Incremental { checkpoint, depth } => job.resume = Some((checkpoint, depth)),
            Probe::Miss => {}
        }
        jobs.push(job);
    }

    // Fan out. Worker slots self-assign ids off an atomic so per-worker
    // meters survive the pool (par_map_with's state is per thread).
    let next_worker = AtomicUsize::new(0);
    let outs = par_map_with(
        &jobs,
        threads,
        || next_worker.fetch_add(1, Ordering::Relaxed),
        |worker, job| (*worker, run_job(cfg, queued, job)),
    );

    // Fold back, job by job (the pool preserves order): cache inserts,
    // metrics, responses.
    for (job, (worker, (served, result))) in jobs.into_iter().zip(outs) {
        let response = match result {
            Err(msg) => {
                metrics.rejected += 1;
                error_response(&job.id, &msg)
            }
            Ok(run) => {
                metrics.record_scenario(
                    served.outcome,
                    served.depth,
                    &run.stored.report,
                    served.exec,
                    served.queue_wait,
                    worker,
                );
                let response = result_response(&job, &served, &run.stored, Some(run.trace_digest));
                if cfg.cache {
                    if let Some(keyed) = run.keyed {
                        let result = run.cache_schedule.is_some().then(|| run.stored.clone());
                        cache.store(&job.key, keyed, result);
                    }
                    if let Some(exact) = job.exact {
                        cache.insert_exact(&job.key, exact, run.stored);
                    }
                }
                response
            }
        };
        responses.push((job.slot, response));
    }
    responses
}

/// One run of `job`'s stack from `start` under `oracle`, with the
/// checkpoints it left — every arm of [`evaluate`] ends in one, whatever
/// it ran first to get its oracle. Only a fresh run with the cache on
/// captures: with the cache off nobody would store the checkpoints, and
/// a resumed run's prefix is already stored.
fn run_from<P, F, O>(
    cfg: ServiceConfig,
    job: &Job<'_, P>,
    start: Origin<'_, P, F>,
    oracle: &mut O,
) -> Result<RunOut<P>, String>
where
    P: ServeStack,
    P::Msg: Clone + Send + Sync,
    F: FnMut(NodeId, &WeightedGraph) -> P,
    O: LinkOracle,
{
    let mut sim = Simulator::new(job.graph);
    sim.record_trace(cfg.trace_cap);
    let (mut pool, mut cps) = (EvalPool::new(), Vec::new());
    match start {
        Origin::Fresh(make) if cfg.cache => {
            let every = CaptureEvery(cfg.checkpoint_every, &mut cps);
            sim.execute(make, &mut pool, oracle, &mut (), every)
        }
        start => sim.execute(start, &mut pool, oracle, &mut (), NoCapture),
    }
    .map(|_| RunOut::of(pool.into_run(), cps))
    .map_err(|e| e.to_string())
}

/// Runs one job on a worker thread. A panic anywhere in the evaluation
/// — the kernel's checked arithmetic, an assert in a protocol — is that
/// job's `Err`, not the process's end: the job owns everything the
/// evaluation can have left half-done.
fn run_job<P: ServeStack>(
    cfg: ServiceConfig,
    queued: Instant,
    job: &Job<'_, P>,
) -> (Served, Result<RunOut<P>, String>)
where
    P::Msg: Clone + Send + Sync,
{
    let started = Instant::now();
    let queue_wait = started.duration_since(queued);
    let evaluate_and_key = || {
        let mut out = evaluate(cfg, job)?;
        if cfg.cache {
            out.key(job);
        }
        Ok(out)
    };
    let result = catch_unwind(AssertUnwindSafe(evaluate_and_key)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("(no message)");
        Err(format!("evaluation panicked: {msg}"))
    });
    let (outcome, depth) = match job.resume {
        Some((_, depth)) => (CacheOutcome::Incremental, depth),
        None if cfg.cache => (CacheOutcome::Miss, 0),
        None => (CacheOutcome::Uncached, 0),
    };
    let served = Served {
        outcome,
        depth,
        exec: started.elapsed(),
        queue_wait,
    };
    (served, result)
}

/// Evaluates `job` as its mode asks.
fn evaluate<P: ServeStack>(cfg: ServiceConfig, job: &Job<'_, P>) -> Result<RunOut<P>, String>
where
    P::Msg: Clone + Send + Sync,
{
    let g = job.graph;
    let spec = job.spec;
    let make = |v: NodeId, g: &WeightedGraph| P::make(spec, v, g);
    // Replays the schedule a search found, once, with checkpoints: the
    // full report for the response, and cached prefixes for free.
    let replay_found = |found: SearchOutcome, reduction: Option<(u64, u64)>| {
        let oracle = &mut ScheduleOracle::new(&found.schedule);
        let mut out = run_from(cfg, job, Origin::Fresh(make), oracle)?;
        out.stored.worst_case = Some(found.worst_case.get());
        out.stored.schedule_text = Some(found.schedule.to_text());
        out.stored.reduction = reduction;
        out.cache_schedule = Some(found.schedule);
        Ok(out)
    };

    match (&job.run, &job.resume) {
        (RunMode::Schedule(schedule), resume) => {
            let start = match resume {
                Some((checkpoint, _)) => Origin::Checkpoint(&**checkpoint),
                None => Origin::Fresh(make),
            };
            run_from(cfg, job, start, &mut ScheduleOracle::new(schedule))
        }
        (RunMode::Model { delay, seed }, _) => {
            // Record the transcript while running: the recorded
            // schedule is the canonical key the checkpoints are cached
            // under, so later *schedule* submissions replaying a
            // variation of this run resume incrementally.
            let mut rec = Recorder::new(ModelOracle::new(*delay, *seed));
            let mut out = if job.shards > 0 {
                // Opt-in sharded evaluation: bit-identical to the
                // sequential path (same report, digests and recorded
                // schedule), but checkpointless — prefix snapshots are
                // a sequential-core artifact.
                ShardedSimulator::new(g)
                    .threads(job.shards)
                    .record_trace(cfg.trace_cap)
                    .run_with_oracle(&mut rec, make)
                    .map(|run| RunOut::of(run, Vec::new()))
                    .map_err(|e| e.to_string())?
            } else {
                run_from(cfg, job, Origin::Fresh(make), &mut rec)?
            };
            out.cache_schedule = Some(rec.into_schedule(Fallback::WorstCase));
            Ok(out)
        }
        (RunMode::Search { budget, seed }, _) => {
            // The pool is already parallel — one thread per search
            // keeps total parallelism at the pool's width.
            let mut builder = SearchConfig::builder().seed(*seed).threads(1);
            if *budget > 0 {
                builder = builder.hill_rounds(*budget);
            }
            let search_cfg = builder
                .build()
                .expect("service search config is statically valid");
            replay_found(
                csp_adversary::find_worst_schedule(g, make, &search_cfg),
                None,
            )
        }
        (RunMode::Exhaustive { class_budget }, _) => {
            let search_cfg = SearchConfig::builder()
                // The pool is already parallel — the explorer itself is
                // sequential, so one evaluator per job suffices.
                .threads(1)
                .exhaustive(*class_budget)
                .build()
                .expect("exhaustive service config is statically valid");
            let out = csp_adversary::explore_exhaustive(g, make, &search_cfg);
            let reduction = Some((out.classes_explored, out.schedules_pruned));
            replay_found(out, reduction)
        }
    }
}

/// Deterministic word-mixing [`std::hash::Hasher`] for state digests:
/// `DefaultHasher` is documented as unstable across releases, and
/// `Debug`-formatting the state vector costs more than the run itself
/// on warm paths.
struct WordHasher(u64);

impl WordHasher {
    fn mix(h: u64, word: u64) -> u64 {
        let mut x = (h ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 32;
        x.wrapping_mul(0xff51_afd7_ed55_8ccd)
    }
}

impl std::hash::Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn write_u8(&mut self, i: u8) {
        self.0 = Self::mix(self.0, u64::from(i));
    }
    fn write_u32(&mut self, i: u32) {
        self.0 = Self::mix(self.0, u64::from(i));
    }
    fn write_u64(&mut self, i: u64) {
        self.0 = Self::mix(self.0, i);
    }
    fn write_u128(&mut self, i: u128) {
        self.0 = Self::mix(Self::mix(self.0, i as u64), (i >> 64) as u64);
    }
    fn write_usize(&mut self, i: usize) {
        self.0 = Self::mix(self.0, i as u64);
    }
}

/// Structural digest of the final state vector.
fn digest_states<P: std::hash::Hash>(states: &[P]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = WordHasher(0xcbf2_9ce4_8422_2325);
    states.len().hash(&mut h);
    for s in states {
        s.hash(&mut h);
    }
    h.finish()
}

/// Structural hash of a trace — field-by-field, not via `Debug`
/// formatting, because traces run to tens of thousands of events and
/// this digest sits on every response's hot path.
fn digest_trace(trace: &Trace) -> u64 {
    let mix = WordHasher::mix;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in trace.events() {
        h = mix(h, e.from.index() as u64);
        h = mix(h, e.to.index() as u64);
        h = mix(h, e.edge.index() as u64);
        h = mix(h, e.sent.get());
        h = mix(h, e.delivered.get());
        h = mix(h, e.class as u64);
    }
    mix(mix(h, trace.events().len() as u64), trace.dropped())
}

fn request_id(request: &Json) -> &str {
    request.get("id").and_then(Json::as_str).unwrap_or_default()
}

fn bad_json(e: &JsonError) -> String {
    format!("bad JSON at byte {}: {}", e.pos, e.msg)
}

fn error_response(id: &str, msg: &str) -> Json {
    Json::obj(vec![
        ("type", Json::str("error")),
        ("id", Json::str(id)),
        ("error", Json::str(msg)),
    ])
}

/// Renders a [`CostReport`] to the wire shape shared by results and
/// stored cache hits.
pub fn report_to_json(r: &CostReport) -> Json {
    Json::obj(vec![
        ("messages", Json::num(r.messages as f64)),
        ("weighted_comm", Json::num(r.weighted_comm.get() as f64)),
        ("completion", Json::num(r.completion.get() as f64)),
        ("drops", Json::num(r.drops as f64)),
        ("crashed_nodes", Json::num(r.crashed_nodes as f64)),
        ("dead_events", Json::num(r.dead_events as f64)),
        ("recoveries", Json::num(r.recoveries as f64)),
        ("weight_revisions", Json::num(r.weight_revisions as f64)),
        (
            "max_edge_congestion",
            Json::num(r.max_edge_congestion() as f64),
        ),
        ("overflow_pushes", Json::num(r.overflow_pushes as f64)),
        ("bucket_window", Json::num(r.bucket_window as f64)),
    ])
}

/// Renders `job`'s result from the record a FULL hit reads and a fresh
/// run writes. `trace_digest` exists for fresh runs only.
fn result_response<P: Process>(
    job: &Job<'_, P>,
    served: &Served,
    stored: &StoredResult,
    trace_digest: Option<u64>,
) -> Json {
    let (report, bound) = (&stored.report, job.bound);
    let mut fields = vec![
        ("type", Json::str("result")),
        ("id", Json::str(job.id.as_str())),
        ("status", Json::str("ok")),
        ("cache", Json::str(served.outcome.name())),
        ("depth", Json::num(served.depth as f64)),
        ("report", report_to_json(report)),
        (
            "states_digest",
            Json::str(format!("{:016x}", stored.states_digest)),
        ),
        ("exec_us", Json::num(served.exec.as_micros() as f64)),
        (
            "queue_wait_us",
            Json::num(served.queue_wait.as_micros() as f64),
        ),
    ];
    fields.extend(job.ingest.clone());
    if let Some(t) = trace_digest {
        fields.push(("trace_digest", Json::str(format!("{t:016x}"))));
    }
    if bound.time.is_some() || bound.comm.is_some() {
        let time_ok = bound.time.is_none_or(|t| report.completion.get() <= t);
        let comm_ok = bound
            .comm
            .is_none_or(|c| report.weighted_comm.get() <= u128::from(c));
        let mut b = vec![("holds", Json::Bool(time_ok && comm_ok))];
        if let Some(t) = bound.time {
            b.push(("time", Json::num(t as f64)));
        }
        if let Some(c) = bound.comm {
            b.push(("comm", Json::num(c as f64)));
        }
        fields.push(("bound", Json::obj(b)));
    }
    if let Some(w) = stored.worst_case {
        fields.push(("worst_case", Json::num(w as f64)));
    }
    if let Some((classes, pruned)) = stored.reduction {
        fields.push(("classes_explored", Json::num(classes as f64)));
        fields.push(("schedules_pruned", Json::num(pruned as f64)));
    }
    if let Some(s) = &stored.schedule_text {
        fields.push(("schedule", Json::str(s.as_str())));
    }
    Json::obj(fields)
}
