//! The service engine: request handling, batch scheduling, cache
//! integration.
//!
//! Requests flow **queue → scheduler → cache → workers**:
//!
//! 1. A batch of parsed [`Scenario`]s is partitioned by protocol stack
//!    (the cache is typed per stack).
//! 2. On the service thread, each scenario probes its
//!    [`StackCache`]: FULL hits are answered immediately, INCREMENTAL
//!    hits clone the deepest matching checkpoint into the job, misses
//!    stay cold.
//! 3. Remaining jobs fan out over [`csp_sim::sweep::par_map_with`] —
//!    the same order-preserving worker pool the sweep driver uses — and
//!    run replay / resume / model / search work.
//! 4. Back on the service thread, fresh checkpoints and results are
//!    folded into the cache and metrics, and responses are emitted in
//!    submission order.
//!
//! The cache layer never crosses a thread: workers only see cloned
//! checkpoints, which keeps the engine lock-free.
//!
//! A request reaches the engine as a line of bytes
//! ([`Service::handle_line`], what the binary calls) or as a parsed tree
//! ([`Service::handle`]). The line entry keeps a `submit`'s
//! `run.schedule` string out of the tree and reads it against the text
//! the cache retains for the scenario key ([`StackCache::ingest`]), so a
//! resubmitted schedule pays for the bytes that changed; a string using
//! escapes that walk does not read is decoded in full and takes the tree
//! entry. Both feed the same pipeline above.

use crate::cache::{fnv1a, CacheCaps, IngestError, Probe, StackCache, StoredResult};
use crate::json::{Json, JsonError};
use crate::metrics::{CacheOutcome, ServeMetrics};
use crate::scenario::{Bound, GraphSpec, RunMode, Scenario, SpecError, StackSpec};
use csp_adversary::{Fallback, Recorder, Schedule, ScheduleOracle, SearchConfig, SearchOutcome};
use csp_algo::flood::Flood;
use csp_algo::spt::recur::SptRecur;
use csp_graph::{NodeId, WeightedGraph};
use csp_sim::sweep::{effective_threads, par_map_with};
use csp_sim::{
    Checkpoint, CostReport, DelayModel, LinkOracle, ModelOracle, Process, Run, ShardedSimulator,
    Simulator, Trace,
};
use std::collections::HashMap;
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

/// One scheduled unit of work, after cache probing.
struct Job<'g, P: Process> {
    ix: usize,
    graph: &'g WeightedGraph,
    spec: StackSpec,
    queued: Instant,
    work: Work<P>,
}

enum Work<P: Process> {
    Replay {
        schedule: Schedule,
        resume: Option<Arc<Checkpoint<P>>>,
        depth: u64,
        /// Precomputed exact-result hash of the submitted schedule
        /// (None with the cache off — nothing will be stored).
        exact: Option<u64>,
    },
    Model {
        delay: DelayModel,
        seed: u64,
        exact: u64,
        /// Shard count for the conservative-parallel core (`0` =
        /// sequential). Not part of `exact` — the cores are
        /// bit-identical, so results are interchangeable.
        shards: usize,
    },
    Search {
        budget: usize,
        seed: u64,
        exact: u64,
    },
    Exhaustive {
        class_budget: usize,
        exact: u64,
    },
}

/// What a worker hands back to the service thread.
struct JobOut<P: Process> {
    ix: usize,
    worker: usize,
    exec: Duration,
    queue_wait: Duration,
    outcome: CacheOutcome,
    depth: u64,
    result: Result<RunOut<P>, String>,
    /// Mode key this result should also be stored under (model/search).
    exact: Option<u64>,
}

struct RunOut<P: Process> {
    report: CostReport,
    states_digest: u64,
    trace_digest: u64,
    /// Checkpoints produced by a cold run, to be cached keyed by
    /// `cache_schedule`.
    checkpoints: Vec<Checkpoint<P>>,
    /// The schedule that deterministically describes the run (submitted
    /// for replays, recorded for model runs, found for searches).
    cache_schedule: Option<Schedule>,
    /// Search extras.
    worst_case: Option<u64>,
    schedule_text: Option<String>,
    /// Exhaustive extras: `(classes_explored, schedules_pruned)`.
    reduction: Option<(u64, u64)>,
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
            Ok(scenario) => Some(self.process(vec![(scenario, ingest)])),
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
                Ok(s) => {
                    let ingest = Ingest::whole(started, &s);
                    self.process(vec![(s, ingest)])
                }
                Err(e) => self.reject(request_id(request), &e.msg),
            },
            Some("batch") => {
                let Some(items) = request.get("scenarios").and_then(Json::as_arr) else {
                    return self.reject("", "batch needs a \"scenarios\" array");
                };
                let mut scenarios = Vec::new();
                let mut slots = Vec::new();
                let mut responses: Vec<Option<Json>> = Vec::new();
                for item in items {
                    match Scenario::from_json(item) {
                        Ok(s) => {
                            slots.push(responses.len());
                            let ingest = Ingest::whole(started, &s);
                            scenarios.push((s, ingest));
                            responses.push(None);
                        }
                        Err(e) => responses.push(self.reject(request_id(item), &e.msg).pop()),
                    }
                }
                for (slot, resp) in slots.into_iter().zip(self.process(scenarios)) {
                    responses[slot] = Some(resp);
                }
                responses.into_iter().flatten().collect()
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
        self.process(scenarios.into_iter().map(|s| (s, ingest)).collect())
    }

    fn process(&mut self, scenarios: Vec<(Scenario, Ingest)>) -> Vec<Json> {
        self.metrics.batches += 1;
        self.metrics.submitted += scenarios.len() as u64;
        let queued = Instant::now();

        // Materialize every referenced graph first, so jobs can borrow
        // the store immutably for the whole parallel phase.
        for (s, _) in &scenarios {
            self.graphs
                .entry(s.graph.key())
                .or_insert_with(|| s.graph.build());
        }

        let mut responses: Vec<Option<Json>> = vec![None; scenarios.len()];

        // Partition by stack type; each partition runs through the
        // typed pipeline. Order within `responses` preserves submission
        // order regardless of partitioning.
        let mut flood_jobs: Vec<(usize, Scenario, Ingest)> = Vec::new();
        let mut spt_jobs: Vec<(usize, Scenario, Ingest)> = Vec::new();
        for (ix, (s, ingest)) in scenarios.into_iter().enumerate() {
            match s.stack {
                StackSpec::Flood { .. } => flood_jobs.push((ix, s, ingest)),
                StackSpec::SptRecur { .. } => spt_jobs.push((ix, s, ingest)),
            }
        }

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
        run_stack_jobs(
            *cfg,
            *threads,
            graphs,
            flood_cache,
            metrics,
            flood_jobs,
            queued,
            &mut responses,
        );
        run_stack_jobs(
            *cfg,
            *threads,
            graphs,
            spt_cache,
            metrics,
            spt_jobs,
            queued,
            &mut responses,
        );

        let (fc, fr) = self.flood_cache.len();
        let (sc, sr) = self.spt_cache.len();
        self.metrics.checkpoints_stored = (fc + sc) as u64;
        self.metrics.results_stored = (fr + sr) as u64;
        self.metrics.evictions = self.flood_cache.evictions() + self.spt_cache.evictions();

        responses
            .into_iter()
            .map(|r| r.expect("every scenario answered"))
            .collect()
    }
}

/// Probes the cache, fans misses/resumes out to the worker pool, folds
/// results back into cache + metrics, and writes responses.
#[allow(clippy::too_many_arguments)]
fn run_stack_jobs<P: ServeStack>(
    cfg: ServiceConfig,
    threads: usize,
    graphs: &HashMap<String, WeightedGraph>,
    cache: &mut StackCache<P>,
    metrics: &mut ServeMetrics,
    scenarios: Vec<(usize, Scenario, Ingest)>,
    queued: Instant,
    responses: &mut [Option<Json>],
) where
    P::Msg: Clone + Send + Sync,
{
    if scenarios.is_empty() {
        return;
    }
    let mut jobs: Vec<Job<'_, P>> = Vec::new();
    let mut ids: HashMap<usize, (String, Bound, String, IngestFields)> = HashMap::new();

    for (ix, s, ingest) in scenarios {
        let graph = graphs.get(&s.graph.key()).expect("graph materialized");
        let scenario_key = scenario_key(&s.graph, &s.stack);
        let exact_hash = s
            .run
            .exact_key()
            .map(|suffix| fnv1a(&format!("{scenario_key}#{suffix}")));
        // Every mode looks for a stored result first; a schedule's probe
        // may also find a checkpoint to resume from.
        let (stored, work) = match s.run {
            RunMode::Schedule(schedule) => {
                // The kernel's intake panics on a plan that does not fit
                // the graph; a submission gets the same verdict as an
                // error. Here, not at parse time: the graph is known here.
                if let Err(e) = schedule.plan.check(graph.node_count(), graph.edge_count()) {
                    metrics.rejected += 1;
                    responses[ix] = Some(error_response(&s.id, &format!("bad schedule: {e}")));
                    continue;
                }
                // The probe's single O(len) pass also yields the exact
                // hash reused at result-insertion time.
                let (exact, probe) = if cfg.cache {
                    let (exact, probe) =
                        cache.probe_shared(&scenario_key, &schedule, ingest.reused);
                    (Some(exact), probe)
                } else {
                    (None, Probe::Miss)
                };
                let (stored, resume, depth) = match probe {
                    Probe::Full(stored) => (Some(*stored), None, 0),
                    Probe::Incremental { checkpoint, depth } => (None, Some(checkpoint), depth),
                    Probe::Miss => (None, None, 0),
                };
                let work = Work::Replay {
                    schedule,
                    resume,
                    depth,
                    exact,
                };
                (stored, work)
            }
            RunMode::Model { delay, seed } => {
                let exact = exact_hash.expect("model mode is exact");
                let work = Work::Model {
                    delay,
                    seed,
                    exact,
                    shards: s.shards,
                };
                (cache.get_exact(&scenario_key, exact), work)
            }
            RunMode::Search { budget, seed } => {
                let exact = exact_hash.expect("search mode is exact");
                let work = Work::Search {
                    budget,
                    seed,
                    exact,
                };
                (cache.get_exact(&scenario_key, exact), work)
            }
            RunMode::Exhaustive { class_budget } => {
                let exact = exact_hash.expect("exhaustive mode is exact");
                let work = Work::Exhaustive {
                    class_budget,
                    exact,
                };
                (cache.get_exact(&scenario_key, exact), work)
            }
        };
        let ingest = ingest.finish(metrics);
        if let Some(stored) = stored {
            metrics.cache_full_hits += 1;
            responses[ix] = Some(result_response(
                &s.id,
                CacheOutcome::Full,
                0,
                &stored.report,
                stored.states_digest,
                None,
                s.bound,
                Duration::ZERO,
                queued.elapsed(),
                ingest,
                stored.worst_case,
                stored.schedule_text.as_deref(),
                stored.reduction,
            ));
            continue;
        }
        ids.insert(ix, (s.id, s.bound, scenario_key, ingest));
        jobs.push(Job {
            ix,
            graph,
            spec: s.stack,
            queued,
            work,
        });
    }

    // Fan out. Worker slots self-assign ids off an atomic so per-worker
    // meters survive the pool (par_map_with's state is per thread).
    let next_worker = AtomicUsize::new(0);
    let outs: Vec<JobOut<P>> = par_map_with(
        &jobs,
        threads,
        || next_worker.fetch_add(1, Ordering::Relaxed),
        |worker, job| run_job(cfg, *worker, job),
    );

    // Fold back: cache inserts, metrics, responses. Replay schedules
    // are recovered from the job list (moving, not cloning, the
    // decision stream a worker would otherwise have to copy).
    let replay_schedules: HashMap<usize, Schedule> = jobs
        .into_iter()
        .filter_map(|j| match j.work {
            Work::Replay { schedule, .. } => Some((j.ix, schedule)),
            _ => None,
        })
        .collect();
    for out in outs {
        let (id, bound, scenario_key, ingest) = ids.remove(&out.ix).expect("job bookkeeping");
        match out.result {
            Err(msg) => {
                responses[out.ix] = Some(error_response(&id, &msg));
            }
            Ok(run) => {
                if cfg.cache {
                    let stored = StoredResult {
                        report: run.report.clone(),
                        states_digest: run.states_digest,
                        schedule_text: run.schedule_text.clone(),
                        worst_case: run.worst_case,
                        reduction: run.reduction,
                    };
                    if !run.checkpoints.is_empty() {
                        // Cold replays key checkpoints by the submitted
                        // schedule; model/search runs by the schedule
                        // they recorded/found.
                        if let Some(schedule) = run
                            .cache_schedule
                            .as_ref()
                            .or_else(|| replay_schedules.get(&out.ix))
                        {
                            cache.insert_checkpoints(&scenario_key, schedule, &run.checkpoints);
                        }
                    }
                    if let Some(schedule) = &run.cache_schedule {
                        cache.insert_schedule_result(&scenario_key, schedule, stored.clone());
                    }
                    if let Some(exact) = out.exact {
                        cache.insert_exact(&scenario_key, exact, stored);
                    }
                }
                metrics.record_scenario(
                    out.outcome,
                    out.depth,
                    &run.report,
                    out.exec,
                    out.queue_wait,
                    out.worker,
                );
                responses[out.ix] = Some(result_response(
                    &id,
                    out.outcome,
                    out.depth,
                    &run.report,
                    run.states_digest,
                    Some(run.trace_digest),
                    bound,
                    out.exec,
                    out.queue_wait,
                    ingest,
                    run.worst_case,
                    run.schedule_text.as_deref(),
                    run.reduction,
                ));
            }
        }
    }
}

impl<P: Process> JobOut<P> {
    fn new(ix: usize, worker: usize, outcome: CacheOutcome, depth: u64) -> Self {
        JobOut {
            ix,
            worker,
            exec: Duration::ZERO,
            queue_wait: Duration::ZERO,
            outcome,
            depth,
            result: Err("unset".to_string()),
            exact: None,
        }
    }
}

/// One cold run of `job`'s stack under `oracle`, with the checkpoints
/// it left — every arm of [`run_job`] but the resume ends in one,
/// whatever it ran first to get its oracle.
fn cold_run<P: ServeStack, O: LinkOracle>(
    cfg: ServiceConfig,
    job: &Job<'_, P>,
    oracle: &mut O,
) -> Result<(Run<P>, Vec<Checkpoint<P>>), String>
where
    P::Msg: Clone + Send + Sync,
{
    // With the cache off there is nobody to hand checkpoints to — run
    // with an unreachable cadence so the baseline pays no snapshot cost.
    let every = if cfg.cache {
        cfg.checkpoint_every
    } else {
        u64::MAX
    };
    let spec = job.spec;
    let mut cps = Vec::new();
    let mut sim = Simulator::new(job.graph);
    sim.record_trace(cfg.trace_cap);
    sim.run_with_checkpoints(oracle, |v, g| P::make(spec, v, g), every, &mut cps)
        .map(|run| (run, cps))
        .map_err(|e| e.to_string())
}

/// Evaluates one job on a worker thread.
fn run_job<P: ServeStack>(cfg: ServiceConfig, worker: usize, job: &Job<'_, P>) -> JobOut<P>
where
    P::Msg: Clone + Send + Sync,
{
    let started = Instant::now();
    let queue_wait = started.duration_since(job.queued);
    let g = job.graph;
    let spec = job.spec;
    let make = |v: NodeId, g: &WeightedGraph| P::make(spec, v, g);
    let cold = if cfg.cache {
        CacheOutcome::Miss
    } else {
        CacheOutcome::Uncached
    };
    // Replays the schedule a search found, once, with checkpoints: the
    // full report for the response, and cached prefixes for free.
    let replay_found = |out: SearchOutcome, reduction: Option<(u64, u64)>| {
        cold_run(cfg, job, &mut ScheduleOracle::new(&out.schedule)).map(|(run, cps)| {
            let (worst_case, text) = (out.worst_case.get(), out.schedule.to_text());
            let found = Some(out.schedule);
            finish_run(run, cps, found, Some(worst_case), Some(text), reduction)
        })
    };

    let (outcome, depth, result, exact) = match &job.work {
        Work::Replay {
            schedule,
            resume: Some(cp),
            depth,
            exact,
        } => {
            let mut sim = Simulator::new(g);
            sim.record_trace(cfg.trace_cap);
            let res = sim
                .resume(cp, &mut ScheduleOracle::new(schedule))
                .map(|run| finish_run(run, Vec::new(), None, None, None, None))
                .map_err(|e| e.to_string());
            (CacheOutcome::Incremental, *depth, res, *exact)
        }
        Work::Replay {
            schedule,
            resume: None,
            exact,
            ..
        } => {
            let res = cold_run(cfg, job, &mut ScheduleOracle::new(schedule))
                .map(|(run, cps)| finish_run(run, cps, None, None, None, None));
            (cold, 0, res, *exact)
        }
        Work::Model {
            delay,
            seed,
            exact,
            shards,
        } => {
            // Record the transcript while running: the recorded
            // schedule is the canonical key the checkpoints are cached
            // under, so later *schedule* submissions replaying a
            // variation of this run resume incrementally.
            let mut rec = Recorder::new(ModelOracle::new(*delay, *seed));
            let ran = if *shards > 0 {
                // Opt-in sharded evaluation: bit-identical to the
                // sequential path (same report, digests and recorded
                // schedule), but checkpointless — prefix snapshots are
                // a sequential-core artifact.
                ShardedSimulator::new(g)
                    .threads(*shards)
                    .record_trace(cfg.trace_cap)
                    .run_with_oracle(&mut rec, make)
                    .map(|run| (run, Vec::new()))
                    .map_err(|e| e.to_string())
            } else {
                cold_run(cfg, job, &mut rec)
            };
            let res = ran.map(|(run, cps)| {
                let schedule = rec.into_schedule(Fallback::WorstCase);
                finish_run(run, cps, Some(schedule), None, None, None)
            });
            (cold, 0, res, Some(*exact))
        }
        Work::Search {
            budget,
            seed,
            exact,
        } => {
            // The pool is already parallel — one thread per search
            // keeps total parallelism at the pool's width.
            let mut builder = SearchConfig::builder().seed(*seed).threads(1);
            if *budget > 0 {
                builder = builder.hill_rounds(*budget);
            }
            let search_cfg = builder
                .build()
                .expect("service search config is statically valid");
            let out = csp_adversary::find_worst_schedule(g, make, &search_cfg);
            (cold, 0, replay_found(out, None), Some(*exact))
        }
        Work::Exhaustive {
            class_budget,
            exact,
        } => {
            let search_cfg = SearchConfig::builder()
                // The pool is already parallel — the explorer itself is
                // sequential, so one evaluator per job suffices.
                .threads(1)
                .exhaustive(*class_budget)
                .build()
                .expect("exhaustive service config is statically valid");
            let out = csp_adversary::explore_exhaustive(g, make, &search_cfg);
            let reduction = Some((out.classes_explored, out.schedules_pruned));
            (cold, 0, replay_found(out, reduction), Some(*exact))
        }
    };

    let mut out = JobOut::new(job.ix, worker, outcome, depth);
    out.exec = started.elapsed();
    out.queue_wait = queue_wait;
    out.result = result;
    out.exact = exact;
    out
}

fn finish_run<P: Process + std::hash::Hash>(
    run: Run<P>,
    checkpoints: Vec<Checkpoint<P>>,
    cache_schedule: Option<Schedule>,
    worst_case: Option<u64>,
    schedule_text: Option<String>,
    reduction: Option<(u64, u64)>,
) -> RunOut<P> {
    RunOut {
        states_digest: digest_states(&run.states),
        trace_digest: digest_trace(&run.trace),
        report: run.cost,
        checkpoints,
        cache_schedule,
        worst_case,
        schedule_text,
        reduction,
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
    fn mix(h: u64, word: u64) -> u64 {
        let mut x = (h ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 32;
        x.wrapping_mul(0xff51_afd7_ed55_8ccd)
    }
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

#[allow(clippy::too_many_arguments)]
fn result_response(
    id: &str,
    outcome: CacheOutcome,
    depth: u64,
    report: &CostReport,
    states_digest: u64,
    trace_digest: Option<u64>,
    bound: Bound,
    exec: Duration,
    queue_wait: Duration,
    ingest: IngestFields,
    worst_case: Option<u64>,
    schedule_text: Option<&str>,
    reduction: Option<(u64, u64)>,
) -> Json {
    let mut fields = vec![
        ("type", Json::str("result")),
        ("id", Json::str(id)),
        ("status", Json::str("ok")),
        ("cache", Json::str(outcome.name())),
        ("depth", Json::num(depth as f64)),
        ("report", report_to_json(report)),
        ("states_digest", Json::str(format!("{states_digest:016x}"))),
        ("exec_us", Json::num(exec.as_micros() as f64)),
        ("queue_wait_us", Json::num(queue_wait.as_micros() as f64)),
    ];
    fields.extend(ingest);
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
    if let Some(w) = worst_case {
        fields.push(("worst_case", Json::num(w as f64)));
    }
    if let Some((classes, pruned)) = reduction {
        fields.push(("classes_explored", Json::num(classes as f64)));
        fields.push(("schedules_pruned", Json::num(pruned as f64)));
    }
    if let Some(s) = schedule_text {
        fields.push(("schedule", Json::str(s)));
    }
    Json::obj(fields)
}
