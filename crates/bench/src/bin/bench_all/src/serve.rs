//! The two service workloads, driven through the real `csp-serve`
//! binary: one closed-loop client writes a JSON line to the child's
//! stdin and reads the response line(s) from its stdout.
//!
//! * `serve_resubmit` — never-before-seen tail variants of one long
//!   recorded schedule; every response must be `cache:"incremental"`.
//! * `serve_fresh` — distinct model-mode scenarios; every response must
//!   be `cache:"miss"`.
//!
//! One request in sixteen is also answered by an in-process service
//! with its cache off; `report` and `states_digest` must agree.

use crate::bench::{
    seed_block, time_reps, vm_hwm_mb, Checks, Measured, Metrics, Op, Pass, Workload, THREADS,
};
use crate::span::Tracer;
use csp_adversary::{record, Decision, Fallback, PrefixHasher, Schedule};
use csp_algo::flood::Flood;
use csp_algo::spt::recur::SptRecur;
use csp_graph::{NodeId, WeightedGraph};
use csp_serve::scenario::{Bound, GraphSpec, RunMode, Scenario, StackSpec};
use csp_serve::service::{ServeStack, Service, ServiceConfig};
use csp_serve::{CacheCaps, Json, StackCache, StoredResult};
use csp_sim::{CrashOracle, DelayModel, DropOracle, Process, SimTime, Simulator};
use std::collections::HashSet;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::process::{ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Messages between the child's stored checkpoints.
const CHECKPOINT_EVERY: u64 = 256;
/// One request in this many is cross-checked against a cold replay.
const SAMPLE_EVERY: u64 = 16;
/// Requests answered before timing starts.
const WARMUP_REQUESTS: usize = 12;

const FLOOD: StackSpec = StackSpec::Flood { root: 0 };
/// `SPT_recur` in its single-strip regime.
const SPT: StackSpec = StackSpec::SptRecur { root: 0, delta: 0 };

// ------------------------------------------------------------ the child

/// A running `csp-serve` and the pipe pair to it.
struct Server {
    child: std::process::Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Spawns the `csp-serve` built beside this binary.
    fn spawn() -> Server {
        let exe = std::env::current_exe().expect("the running binary has a path");
        let path = exe.with_file_name("csp-serve");
        let mut child = Command::new(&path)
            .args(["--threads", &THREADS.to_string()])
            .args(["--checkpoint-every", &CHECKPOINT_EVERY.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| {
                panic!(
                    "cannot start {}: {e} (run.sh builds it beside bench_all)",
                    path.display()
                )
            });
        Server {
            stdin: child.stdin.take().expect("piped stdin"),
            stdout: BufReader::new(child.stdout.take().expect("piped stdout")),
            child,
        }
    }

    /// Writes one request line and reads `responses` response lines;
    /// the seconds run from the first byte written to the last read.
    fn request(&mut self, line: &str, responses: usize) -> (Vec<String>, f64) {
        let t = Instant::now();
        self.stdin
            .write_all(line.as_bytes())
            .and_then(|()| self.stdin.write_all(b"\n"))
            .and_then(|()| self.stdin.flush())
            .expect("the child reads its stdin");
        let lines = (0..responses)
            .map(|_| {
                let mut buf = String::new();
                let n = self
                    .stdout
                    .read_line(&mut buf)
                    .expect("the child writes its stdout");
                assert!(n > 0, "csp-serve closed its stdout mid-request");
                buf
            })
            .collect();
        (lines, t.elapsed().as_secs_f64())
    }

    fn peak_rss_mb(&self) -> f64 {
        vm_hwm_mb(self.child.id())
    }

    /// The child's own meters (`stats` request).
    fn stats(&mut self) -> Json {
        let (lines, _) = self.request(r#"{"type":"stats","id":"s"}"#, 1);
        Json::parse(&lines[0]).expect("stats response parses")
    }
}

impl Drop for Server {
    /// Asks the child to exit and waits for it, so no process outlives
    /// the benchmark.
    fn drop(&mut self) {
        let _ = self.stdin.write_all(b"{\"type\":\"shutdown\"}\n");
        let _ = self.stdin.flush();
        let _ = self.child.wait();
    }
}

fn reference_service() -> Service {
    Service::new(ServiceConfig {
        threads: 1,
        checkpoint_every: CHECKPOINT_EVERY,
        cache: false,
        caps: CacheCaps::default(),
        trace_cap: 0,
    })
}

/// What the bench keeps of one response line.
struct Reply {
    ok: bool,
    cache: String,
    depth: u64,
    exec_us: f64,
    queue_wait_us: f64,
    /// `report` and `states_digest`, rendered for comparison.
    identity: String,
}

fn identity(r: &Json) -> String {
    format!(
        "{}|{}",
        r.get("report").map_or(String::new(), Json::dump),
        r.get("states_digest").and_then(Json::as_str).unwrap_or("")
    )
}

impl Reply {
    fn parse(line: &str) -> Reply {
        let r = Json::parse(line.trim_end()).unwrap_or(Json::Null);
        let num = |key: &str| r.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        Reply {
            ok: r.get("status").and_then(Json::as_str) == Some("ok"),
            cache: r
                .get("cache")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
            depth: num("depth") as u64,
            exec_us: num("exec_us"),
            queue_wait_us: num("queue_wait_us"),
            identity: identity(&r),
        }
    }
}

/// Cache outcomes and child-side timings since the last `counts()`.
#[derive(Default)]
struct ServeTally {
    responses: u64,
    incremental: u64,
    miss: u64,
    full: u64,
    depth_sum: u64,
    /// Child-reported microseconds of the end-to-end (untraced) ops.
    exec_us: Vec<f64>,
    queue_wait_us: Vec<f64>,
}

impl ServeTally {
    fn add(&mut self, r: &Reply, end_to_end: bool) {
        self.responses += 1;
        match r.cache.as_str() {
            "incremental" => {
                self.incremental += 1;
                self.depth_sum += r.depth;
            }
            "miss" => self.miss += 1,
            "full" => self.full += 1,
            _ => {}
        }
        if end_to_end {
            self.exec_us.push(r.exec_us);
            self.queue_wait_us.push(r.queue_wait_us);
        }
    }

    /// The count metrics, resetting the counters (child-side timing
    /// samples stay: the layers are set against them).
    fn counts(&mut self) -> Metrics {
        let share = |k: u64| Measured::exact(k as f64 / self.responses.max(1) as f64);
        let mut m = Metrics::new();
        m.insert("serve.cache.incremental_share", share(self.incremental));
        m.insert("serve.cache.miss_share", share(self.miss));
        m.insert(
            "serve.cache.mean_resume_depth",
            Measured::exact(self.depth_sum as f64 / self.incremental.max(1) as f64),
        );
        (
            self.responses,
            self.incremental,
            self.miss,
            self.full,
            self.depth_sum,
        ) = (0, 0, 0, 0, 0);
        m
    }
}

fn us_each(secs: &[f64], per: usize) -> Measured {
    Measured::scaled(secs, 1e6 / per as f64)
}

/// The layer measurements both service workloads share, taken in this
/// process on the same request and response lines the child saw.
fn shared_layers(
    tracer: &mut Tracer,
    (requests, responses): (&[String], &[String]),
    tally: &ServeTally,
    untraced: &Pass,
    server: &mut Server,
    out: &mut Metrics,
) {
    let mut parsed = Vec::new();
    let parse = tracer.span("serve.json.parse", |_| {
        time_reps(9, || {
            parsed = requests
                .iter()
                .map(|l| Json::parse(l).expect("request parses"))
                .collect();
        })
    });
    let from_json = tracer.span("serve.scenario.from_json", |_| {
        time_reps(9, || {
            for j in &parsed {
                // A `batch` line parses scenario by scenario.
                match j.get("scenarios").and_then(Json::as_arr) {
                    Some(items) => items.iter().for_each(|s| {
                        black_box(Scenario::from_json(s).expect("scenario parses"));
                    }),
                    None => {
                        black_box(Scenario::from_json(j).expect("scenario parses"));
                    }
                }
            }
        })
    });
    let replies: Vec<Json> = responses
        .iter()
        .map(|l| Json::parse(l.trim_end()).expect("response parses"))
        .collect();
    let dump = tracer.span("serve.json.dump", |_| {
        time_reps(9, || {
            for r in &replies {
                black_box(r.dump());
            }
        })
    });
    let parse = us_each(&parse, requests.len());
    let from_json = us_each(&from_json, requests.len());
    // Responses per request, so the dump cost is per request too.
    let dump = us_each(&dump, requests.len());
    out.insert("serve.json.parse_us", parse);
    out.insert("serve.scenario.from_json_us", from_json);
    out.insert("serve.json.dump_us", dump);

    let exec = Measured::of(&tally.exec_us);
    let wait = Measured::of(&tally.queue_wait_us);
    out.insert("serve.service.exec_us_p50", exec);
    out.insert("serve.service.queue_wait_us_p50", wait);
    out.insert("serve.latency_ms_p99", untraced.latency_ms_tail(0.99));

    // What nobody above owns: pipe, allocation, cache fold-back. The
    // child's queue wait runs from batch acceptance to worker start, so
    // it already contains the cache probe.
    let owned_us = parse.value + from_json.value + wait.value + exec.value + dump.value;
    out.insert(
        "serve.transport.residual_ms_p50",
        Measured::exact(untraced.latency_ms_p50().value - owned_us / 1e3),
    );

    let stats = server.stats();
    let stat = |key: &str| {
        stats
            .get("stats")
            .and_then(|s| s.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    out.insert(
        "serve.cache.evictions",
        Measured::exact(stat("evictions") / stat("submitted").max(1.0)),
    );
}

/// The stored result a request's fold-back writes into the cache.
fn stored_result<P: Process>(run: &csp_sim::Run<P>) -> StoredResult {
    StoredResult {
        report: run.cost.clone(),
        states_digest: 0,
        schedule_text: None,
        worst_case: None,
        reduction: None,
    }
}

// ---------------------------------------------------------- serve_resubmit

const BASE_N: usize = 300;
/// Tail shares at which a variant's first changed decision sits,
/// round-robin.
const TAIL_SHARES: [f64; 3] = [0.01, 0.05, 0.25];

fn make_spt(v: NodeId, g: &WeightedGraph) -> SptRecur {
    SptRecur::make(SPT, v, g)
}

fn rotate(delay: u64, by: u64, weight: u64) -> u64 {
    1 + (delay - 1 + by) % weight
}

/// The decisions variant `k` changes, as `(position, new delay)` in
/// ascending position order; every entry differs from `base`.
///
/// The first change sits exactly at the first changeable decision at or
/// after `len − share·len` (`share` cycling through [`TAIL_SHARES`] with
/// `k`), and the variant number within its share class is written in
/// mixed radix into the changeable decisions after it — so two
/// different `k` never give the same schedule.
pub fn variant_changes(base: &Schedule, k: u64) -> Vec<(usize, u64)> {
    let len = base.decisions.len();
    let share = TAIL_SHARES[(k % 3) as usize];
    let from = len - (share * len as f64).ceil() as usize;
    let mut changeable = base.decisions[from..]
        .iter()
        .enumerate()
        .filter(|(_, d)| !d.dropped && d.weight >= 2)
        .map(|(i, d)| (from + i, d));
    let (first, d) = changeable
        .next()
        .expect("the tail has a changeable decision");
    let mut number = k / 3;
    let mut changes = vec![(
        first,
        rotate(d.delay, 1 + number % (d.weight - 1), d.weight),
    )];
    number /= d.weight - 1;
    while number > 0 {
        let (pos, d) = changeable
            .next()
            .expect("the tail is long enough to number every variant");
        if !number.is_multiple_of(d.weight) {
            changes.push((pos, rotate(d.delay, number % d.weight, d.weight)));
        }
        number /= d.weight;
    }
    changes
}

fn apply_changes(base: &Schedule, changes: &[(usize, u64)]) -> Schedule {
    let mut s = base.clone();
    for &(pos, delay) in changes {
        s.decisions[pos].delay = delay;
    }
    s
}

/// The base schedule's request line, cut so that a variant's line is
/// assembled from slices without serializing 21k decisions again.
struct LineTemplate {
    head: String,
    tail: String,
    /// The schedule text as it appears inside the JSON string (newlines
    /// escaped), and where each decision's line starts in it.
    body: String,
    line_start: Vec<usize>,
}

impl LineTemplate {
    fn new(graph: &GraphSpec, base: &Schedule) -> LineTemplate {
        let text = base.to_text();
        let lines: Vec<&str> = text.lines().collect();
        // Decisions are the last `len` lines, one each, in order.
        let first_decision = lines.len() - base.len();
        let mut body = String::with_capacity(text.len() + lines.len());
        let mut line_start = Vec::with_capacity(base.len() + 1);
        for (i, l) in lines.iter().enumerate() {
            if i >= first_decision {
                line_start.push(body.len());
            }
            body.push_str(l);
            body.push_str("\\n");
        }
        line_start.push(body.len());
        let stack = Json::obj(vec![
            ("protocol", Json::str("spt_recur")),
            ("root", Json::num(0.0)),
            ("delta", Json::num(0.0)),
        ]);
        LineTemplate {
            head: format!("{{\"type\":\"submit\",\"graph\":{},\"stack\":{},\"run\":{{\"mode\":\"schedule\",\"schedule\":\"", graph_json(graph).dump(), stack.dump()),
            tail: "\"}".to_string(),
            body,
            line_start,
        }
    }

    /// The request line submitting `base` with `changes` applied.
    fn line(&self, id: &str, base: &Schedule, changes: &[(usize, u64)]) -> String {
        let mut out = String::with_capacity(self.head.len() + self.body.len() + 64);
        out.push_str(&self.head);
        let mut cursor = 0;
        for &(pos, delay) in changes {
            out.push_str(&self.body[cursor..self.line_start[pos]]);
            // The line `to_text` writes for the changed decision.
            let one = Schedule {
                decisions: vec![Decision {
                    delay,
                    ..base.decisions[pos]
                }],
                ..Schedule::default()
            }
            .to_text();
            out.push_str(one.lines().last().expect("a decision line"));
            out.push_str("\\n");
            cursor = self.line_start[pos + 1];
        }
        out.push_str(&self.body[cursor..]);
        out.push_str(&self.tail);
        out.push_str(",\"id\":\"");
        out.push_str(id);
        out.push_str("\"}");
        out
    }
}

fn graph_json(spec: &GraphSpec) -> Json {
    let n = |x: usize| Json::num(x as f64);
    let u = |x: u64| Json::num(x as f64);
    match *spec {
        GraphSpec::Gnp {
            n: nodes,
            p,
            w_min,
            w_max,
            seed,
        } => Json::obj(vec![
            ("family", Json::str("gnp")),
            ("n", n(nodes)),
            ("p", Json::Num(p)),
            ("w_min", u(w_min)),
            ("w_max", u(w_max)),
            ("seed", u(seed)),
        ]),
        GraphSpec::Cycle { n: nodes, w } => Json::obj(vec![
            ("family", Json::str("cycle")),
            ("n", n(nodes)),
            ("w", u(w)),
        ]),
        GraphSpec::Path { n: nodes, w } => Json::obj(vec![
            ("family", Json::str("path")),
            ("n", n(nodes)),
            ("w", u(w)),
        ]),
        GraphSpec::Cluster {
            clusters,
            size,
            heavy,
            seed,
        } => Json::obj(vec![
            ("family", Json::str("cluster")),
            ("clusters", n(clusters)),
            ("size", n(size)),
            ("heavy", u(heavy)),
            ("seed", u(seed)),
        ]),
    }
}

pub struct ServeResubmit {
    server: Server,
    reference: Service,
    graph: GraphSpec,
    g: WeightedGraph,
    base: Schedule,
    template: LineTemplate,
    /// Next never-submitted variant number.
    next: u64,
    tally: ServeTally,
    setup_checks: Checks,
}

impl ServeResubmit {
    fn scenario(&self, id: &str, schedule: Schedule) -> Scenario {
        Scenario {
            id: id.to_string(),
            graph: self.graph.clone(),
            stack: SPT,
            run: RunMode::Schedule(schedule),
            bound: Bound::default(),
            shards: 0,
        }
    }

    /// Submits variant `k`, expecting cache outcome `expect`.
    fn submit(&mut self, k: u64, expect: &str, tracer: &mut Tracer) -> Op {
        let id = format!("v{k}");
        let changes = variant_changes(&self.base, k);
        let line = self.template.line(&id, &self.base, &changes);
        let (lines, secs) = tracer.span("serve.request", |_| self.server.request(&line, 1));
        let reply = tracer.span("serve.json.parse", |_| Reply::parse(&lines[0]));
        let mut failed = !reply.ok || reply.cache != expect;
        if k.is_multiple_of(SAMPLE_EVERY) {
            let cold = tracer.span("serve.service.cold", |_| {
                let scenario = self.scenario(&id, apply_changes(&self.base, &changes));
                self.reference.process_batch(vec![scenario])
            });
            failed |= identity(&cold[0]) != reply.identity;
        }
        self.tally.add(&reply, !tracer.is_on());
        Op {
            secs,
            work: u64::from(reply.ok),
            failed,
        }
    }
}

impl Workload for ServeResubmit {
    fn batch(&mut self, tracer: &mut Tracer, ops: &mut Vec<Op>) {
        // Twenty variants of each tail share.
        for _ in 0..60 {
            tracer.next_op();
            let k = self.next;
            self.next += 1;
            ops.push(self.submit(k, "incremental", tracer));
        }
    }

    fn verify(&mut self, checks: &mut Checks) {
        checks.attempted += self.setup_checks.attempted;
        checks.failed += self.setup_checks.failed;
        // The assembled line is the scenario a client would serialize.
        let changes = variant_changes(&self.base, 7);
        let line = self.template.line("probe", &self.base, &changes);
        let parsed = Json::parse(&line)
            .ok()
            .and_then(|j| Scenario::from_json(&j).ok());
        let want = self.scenario("probe", apply_changes(&self.base, &changes));
        checks.gate(parsed.as_ref() == Some(&want), || {
            "an assembled request line does not parse to its variant".to_string()
        });
    }

    fn counts(&mut self) -> Metrics {
        // No variant was ever answered from a stored result.
        assert_eq!(
            self.tally.full, 0,
            "a never-seen variant came back cache:full"
        );
        self.tally.counts()
    }

    fn layers(&mut self, tracer: &mut Tracer, untraced: &Pass, out: &mut Metrics) {
        // The zero-change row: lines already answered come straight
        // from the result store — parse + probe + serialize + pipe.
        let full: Vec<f64> = (self.next.saturating_sub(200)..self.next)
            .map(|k| {
                let op = self.submit(k, "full", tracer);
                assert!(!op.failed, "resubmitting variant {k} was not a full hit");
                op.secs * 1e3
            })
            .collect();
        self.tally.counts();
        out.insert("serve.service.full_hit_ms_p50", Measured::of(&full));

        // Schedule text and prefix hashing on the 21k-decision base.
        let kdec = self.base.len() as f64 / 1e3;
        let text = self.base.to_text();
        let parse = tracer.span("adversary.schedule.parse", |_| {
            time_reps(9, || {
                black_box(Schedule::from_text(&text).expect("base parses"));
            })
        });
        let dump = tracer.span("adversary.schedule.dump", |_| {
            time_reps(9, || {
                black_box(self.base.to_text());
            })
        });
        let hash = tracer.span("adversary.schedule.prefix_hash", |_| {
            time_reps(9, || {
                let mut h = PrefixHasher::new(&self.base);
                self.base.decisions.iter().for_each(|d| h.absorb(d));
                black_box(h.key());
            })
        });
        out.insert(
            "adversary.schedule.parse_us_per_kdec",
            Measured::scaled(&parse, 1e6 / kdec),
        );
        out.insert(
            "adversary.schedule.dump_us_per_kdec",
            Measured::scaled(&dump, 1e6 / kdec),
        );
        out.insert(
            "adversary.schedule.prefix_hash_ns_per_dec",
            Measured::scaled(&hash, 1e9 / self.base.len() as f64),
        );

        // An in-process cache primed like the child's: the base's
        // checkpoints, then probes by fresh variants and the result
        // insert each resumed request folds back.
        let key = format!("{}/{}", self.graph.key(), SPT.key());
        let mut cps = Vec::new();
        let run = Simulator::new(&self.g)
            .run_with_checkpoints(
                &mut csp_adversary::ScheduleOracle::new(&self.base),
                make_spt,
                CHECKPOINT_EVERY,
                &mut cps,
            )
            .expect("base quiesces");
        let mut cache: StackCache<SptRecur> = StackCache::new(CacheCaps::default());
        cache.insert_checkpoints(&key, &self.base, &cps);
        let variants: Vec<Schedule> = (0..24)
            .map(|j| apply_changes(&self.base, &variant_changes(&self.base, self.next + j)))
            .collect();
        let mut hashes = Vec::new();
        let probe = tracer.span("serve.cache.probe", |_| {
            time_reps(9, || {
                hashes = variants
                    .iter()
                    .map(|v| {
                        let (exact, hit) = cache.probe(&key, v);
                        assert!(matches!(hit, csp_serve::Probe::Incremental { .. }));
                        exact
                    })
                    .collect();
            })
        });
        let insert = tracer.span("serve.cache.insert", |_| {
            time_reps(9, || {
                for &h in &hashes {
                    cache.insert_exact(&key, h, stored_result(&run));
                }
            })
        });
        out.insert("serve.cache.probe_us", us_each(&probe, variants.len()));
        out.insert("serve.cache.insert_us", us_each(&insert, variants.len()));

        let sample: Vec<u64> = (0..24).map(|j| self.next + 100 + j).collect();
        let requests: Vec<String> = sample
            .iter()
            .map(|&k| {
                self.template
                    .line("layer", &self.base, &variant_changes(&self.base, k))
            })
            .collect();
        let responses: Vec<String> = requests
            .iter()
            .map(|l| self.server.request(l, 1).0.remove(0))
            .collect();
        shared_layers(
            tracer,
            (&requests, &responses),
            &self.tally,
            untraced,
            &mut self.server,
            out,
        );
    }

    fn peak_rss_mb(&self) -> f64 {
        self.server.peak_rss_mb()
    }
}

/// Variant numbers one round draws from: `--seed` and the round pick the
/// block, so no two children are ever sent the same variant.
const VARIANTS_PER_ROUND: u64 = 6000;

pub fn serve_resubmit(seed: u64, round: u64) -> ServeResubmit {
    // The base is the legacy serve bench's: a fixed identity, because
    // request cost is proportional to its length (21 142 decisions) and
    // that length moves by a sixth with the graph or oracle seed.
    // `--seed` drives what a client iterating on it would change — which
    // never-seen variants are submitted.
    let graph = GraphSpec::Gnp {
        n: BASE_N,
        p: 0.05,
        w_min: 2,
        w_max: 9,
        seed: 7,
    };
    let g = graph.build();
    let oracle = CrashOracle::new(
        DropOracle::new(DelayModel::Uniform, 0xBEEF_CAFE, 0.15, 4),
        vec![(NodeId::new(BASE_N - 1), SimTime::new(40))],
    );
    let (_, base) = record(&g, make_spt, oracle, Fallback::WorstCase);

    // Untimed: every variant this run can reach is distinct from every
    // other and from the base.
    let first = seed_block(seed, round) / (1 << 24) * VARIANTS_PER_ROUND;
    let mut setup_checks = Checks::default();
    let mut seen: HashSet<Vec<(usize, u64)>> = HashSet::new();
    let distinct = (first..first + VARIANTS_PER_ROUND).all(|k| {
        let changes = variant_changes(&base, k);
        let differs = changes
            .iter()
            .all(|&(pos, delay)| base.decisions[pos].delay != delay);
        !changes.is_empty() && differs && seen.insert(changes)
    });
    setup_checks.gate(base.has_faults() && distinct, || {
        "generated variants are not pairwise distinct and distinct from the base".to_string()
    });

    let template = LineTemplate::new(&graph, &base);
    let mut w = ServeResubmit {
        server: Server::spawn(),
        reference: reference_service(),
        graph,
        g,
        base,
        template,
        next: first,
        tally: ServeTally::default(),
        setup_checks,
    };
    // Prime the child's cache with the base (a cold miss that stores its
    // checkpoints), then warm up on variants that are never reused.
    let line = w.template.line("base", &w.base, &[]);
    let (lines, _) = w.server.request(&line, 1);
    let primed = Reply::parse(&lines[0]);
    w.setup_checks
        .gate(primed.ok && primed.cache == "miss", || {
            format!("priming the base came back cache:{}", primed.cache)
        });
    let mut quiet = Tracer::new(false);
    for _ in 0..WARMUP_REQUESTS {
        let k = w.next;
        w.next += 1;
        let op = w.submit(k, "incremental", &mut quiet);
        w.setup_checks
            .gate(!op.failed, || format!("warm-up variant {k} failed"));
    }
    w.tally = ServeTally::default();
    w
}

// ------------------------------------------------------------ serve_fresh

/// Requests per batch: every fourth of the first 72 is a `batch` line
/// of eight, the rest are singles — 56 singles (each of the fourteen
/// single scenarios four times), 16 flood lines and 2 SPT lines, so
/// every batch is the same mix of 200 scenarios.
const FRESH_REQUESTS: usize = 74;
const BATCH_OF: usize = 8;

pub struct ServeFresh {
    server: Server,
    reference: Service,
    /// The eight graphs a `batch` line holds, all under one stack.
    graphs: Vec<GraphSpec>,
    /// Graph × stack of the single requests, visited round-robin.
    singles: Vec<(GraphSpec, StackSpec)>,
    /// Model seeds start here and never repeat.
    seed_base: u64,
    next: u64,
    tally: ServeTally,
    setup_checks: Checks,
}

fn stack_json(stack: StackSpec) -> Json {
    match stack {
        StackSpec::Flood { root } => Json::obj(vec![
            ("protocol", Json::str("flood")),
            ("root", Json::num(root as f64)),
        ]),
        StackSpec::SptRecur { root, delta } => Json::obj(vec![
            ("protocol", Json::str("spt_recur")),
            ("root", Json::num(root as f64)),
            ("delta", Json::num(delta as f64)),
        ]),
    }
}

impl ServeFresh {
    /// A never-submitted scenario of `stack` on `graph`: the model seed
    /// is fresh.
    fn next_scenario(&mut self, graph: GraphSpec, stack: StackSpec) -> Scenario {
        let k = self.next;
        self.next += 1;
        Scenario {
            id: format!("f{k}"),
            graph,
            stack,
            run: RunMode::Model {
                delay: DelayModel::Uniform,
                seed: self.seed_base + k,
            },
            bound: Bound::default(),
            shards: 0,
        }
    }

    fn scenario_json(s: &Scenario, kind: Option<&str>) -> Json {
        let RunMode::Model { seed, .. } = s.run else {
            unreachable!("serve_fresh submits model-mode scenarios only")
        };
        let mut fields = vec![
            ("id", Json::str(s.id.clone())),
            ("graph", graph_json(&s.graph)),
            ("stack", stack_json(s.stack)),
            (
                "run",
                Json::obj(vec![
                    ("mode", Json::str("model")),
                    ("delay", Json::str("uniform")),
                    ("seed", Json::num(seed as f64)),
                ]),
            ),
        ];
        if let Some(kind) = kind {
            fields.push(("type", Json::str(kind)));
        }
        Json::obj(fields)
    }

    /// Sends `scenarios` as one request (a `submit`, or a `batch` when
    /// there are several); every response must be a cold miss.
    fn submit(
        &mut self,
        scenarios: Vec<Scenario>,
        tracer: &mut Tracer,
    ) -> (Op, String, Vec<String>) {
        let line = match scenarios.as_slice() {
            [one] => Self::scenario_json(one, Some("submit")).dump(),
            many => Json::obj(vec![
                ("type", Json::str("batch")),
                (
                    "scenarios",
                    Json::Arr(many.iter().map(|s| Self::scenario_json(s, None)).collect()),
                ),
            ])
            .dump(),
        };
        let n = scenarios.len();
        let (lines, secs) = tracer.span("serve.request", |_| self.server.request(&line, n));
        let mut failed = false;
        let mut ok = 0;
        for (s, l) in scenarios.into_iter().zip(&lines) {
            let reply = tracer.span("serve.json.parse", |_| Reply::parse(l));
            failed |= !reply.ok || reply.cache != "miss";
            ok += u64::from(reply.ok);
            if self.tally.responses.is_multiple_of(SAMPLE_EVERY) {
                let cold = tracer.span("serve.service.cold", |_| {
                    self.reference.process_batch(vec![s])
                });
                failed |= identity(&cold[0]) != reply.identity;
            }
            self.tally.add(&reply, !tracer.is_on());
        }
        (
            Op {
                secs,
                work: ok,
                failed,
            },
            line,
            lines,
        )
    }

    /// The `i`-th request of a batch, laid out so that the latency
    /// percentiles sit inside a class of like requests and not between
    /// two. Sorted by cost a batch is 56 singles (0.1–1.3 ms, the
    /// median among them), 16 flood lines holding all eight graphs
    /// (one cost, ~1.6 ms: ranks 57–72 of 74, the 90th percentile in
    /// their middle) and 2 SPT lines (10–25 ms by the delay seeds they
    /// drew, mostly cache writes: they show in throughput and p99).
    fn request(&mut self, i: usize, tracer: &mut Tracer) -> (Op, String, Vec<String>) {
        let scenarios = if i % 4 == 3 && i < 72 {
            let stack = if i % 36 == 35 { SPT } else { FLOOD };
            (0..BATCH_OF)
                .map(|g| self.next_scenario(self.graphs[g].clone(), stack))
                .collect()
        } else {
            let nth = i - (i + 1).min(72) / 4;
            let (graph, stack) = self.singles[nth % self.singles.len()].clone();
            vec![self.next_scenario(graph, stack)]
        };
        self.submit(scenarios, tracer)
    }
}

impl Workload for ServeFresh {
    fn batch(&mut self, tracer: &mut Tracer, ops: &mut Vec<Op>) {
        for i in 0..FRESH_REQUESTS {
            tracer.next_op();
            ops.push(self.request(i, tracer).0);
        }
    }

    fn verify(&mut self, checks: &mut Checks) {
        checks.attempted += self.setup_checks.attempted;
        checks.failed += self.setup_checks.failed;
        // A line the bench writes is the scenario it meant.
        let s = self.next_scenario(self.graphs[0].clone(), SPT);
        let line = Self::scenario_json(&s, Some("submit")).dump();
        let parsed = Json::parse(&line)
            .ok()
            .and_then(|j| Scenario::from_json(&j).ok());
        checks.gate(parsed.as_ref() == Some(&s), || {
            "a written request line does not parse to its scenario".to_string()
        });
    }

    fn counts(&mut self) -> Metrics {
        self.tally.counts()
    }

    fn layers(&mut self, tracer: &mut Tracer, untraced: &Pass, out: &mut Metrics) {
        // The cache writes one cold model run folds back: its
        // checkpoints, its schedule result and its exact result.
        let (graph, stack) = (self.graphs[0].clone(), FLOOD);
        let g = graph.build();
        let key = format!("{}/{}", graph.key(), stack.key());
        let oracle = csp_sim::ModelOracle::new(DelayModel::Uniform, self.seed_base);
        let mut rec = csp_adversary::Recorder::new(oracle);
        let mut cps = Vec::new();
        let make = |v: NodeId, g: &WeightedGraph| Flood::make(stack, v, g);
        let run = Simulator::new(&g)
            .run_with_checkpoints(&mut rec, make, CHECKPOINT_EVERY, &mut cps)
            .expect("flood quiesces");
        let schedule = rec.into_schedule(Fallback::WorstCase);
        let mut cache: StackCache<Flood> = StackCache::new(CacheCaps::default());
        let insert = tracer.span("serve.cache.insert", |_| {
            time_reps(9, || {
                for h in 0..24 {
                    cache.insert_checkpoints(&key, &schedule, &cps);
                    cache.insert_schedule_result(&key, &schedule, stored_result(&run));
                    cache.insert_exact(&key, h, stored_result(&run));
                }
            })
        });
        out.insert("serve.cache.insert_us", us_each(&insert, 24));

        let (mut requests, mut responses) = (Vec::new(), Vec::new());
        for i in 0..FRESH_REQUESTS {
            let (op, line, lines) = self.request(i, tracer);
            assert!(!op.failed, "a layer-sample request failed");
            requests.push(line);
            responses.extend(lines);
        }
        self.tally.counts();
        shared_layers(
            tracer,
            (&requests, &responses),
            &self.tally,
            untraced,
            &mut self.server,
            out,
        );
    }

    fn peak_rss_mb(&self) -> f64 {
        self.server.peak_rss_mb()
    }
}

pub fn serve_fresh(seed: u64, round: u64) -> ServeFresh {
    // Eight graphs spanning size, degree and weight spread W — the
    // weight spread, not just n, decides bucket-window width. They are
    // fixed identities (request cost follows graph size); `--seed`
    // drives the model seeds, 200 fresh ones per batch.
    let gnp = |n, p, w_min, w_max, seed| GraphSpec::Gnp {
        n,
        p,
        w_min,
        w_max,
        seed,
    };
    let graphs = vec![
        gnp(60, 0.08, 1, 9, 0),
        gnp(90, 0.06, 1, 9, 1),
        GraphSpec::Cycle { n: 128, w: 4 },
        GraphSpec::Path { n: 256, w: 3 },
        GraphSpec::Cluster {
            clusters: 6,
            size: 16,
            heavy: 32,
            seed: 4,
        },
        GraphSpec::Cluster {
            clusters: 10,
            size: 12,
            heavy: 64,
            seed: 5,
        },
        gnp(120, 0.05, 2, 9, 2),
        gnp(200, 0.03, 1, 32, 3),
    ];
    // Every graph floods as a single; SPT runs as a single on the first
    // six only. On the two largest it costs 2 ms and 5–17 ms by the
    // delay seeds drawn — as singles those would be the sparse classes
    // the 90th percentile falls between — so they run inside the SPT
    // lines only.
    let singles = graphs
        .iter()
        .map(|g| (g.clone(), FLOOD))
        .chain(graphs[..6].iter().map(|g| (g.clone(), SPT)))
        .collect();
    let mut w = ServeFresh {
        server: Server::spawn(),
        reference: reference_service(),
        graphs,
        singles,
        seed_base: seed_block(seed, round),
        next: 0,
        tally: ServeTally::default(),
        setup_checks: Checks::default(),
    };
    // Warm up on one whole mix: every graph gets built, by the child and
    // by the reference service, before timing starts.
    let mut quiet = Tracer::new(false);
    for i in 0..FRESH_REQUESTS {
        let (op, _, _) = w.request(i, &mut quiet);
        w.setup_checks
            .gate(!op.failed, || format!("warm-up request {i} failed"));
    }
    w.tally = ServeTally::default();
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_graph::generators::{connected_gnp, WeightDist};

    fn small_base() -> (GraphSpec, Schedule) {
        let graph = GraphSpec::Gnp {
            n: 60,
            p: 0.1,
            w_min: 2,
            w_max: 9,
            seed: 3,
        };
        let g = connected_gnp(60, 0.1, WeightDist::Uniform(2, 9), 3);
        let oracle = DropOracle::new(DelayModel::Uniform, 11, 0.1, 4);
        (graph, record(&g, make_spt, oracle, Fallback::WorstCase).1)
    }

    #[test]
    fn variants_are_pairwise_distinct_and_sit_at_their_tail_share() {
        let (_, base) = small_base();
        let len = base.len();
        assert!(len > 1000, "the base is long enough to number variants");
        let mut seen = HashSet::new();
        for k in 0..3000 {
            let changes = variant_changes(&base, k);
            let variant = apply_changes(&base, &changes);
            assert_ne!(variant, base, "variant {k} equals the base");
            // Admissible: every delay stays in [1, weight].
            assert!(variant
                .decisions
                .iter()
                .all(|d| (1..=d.weight).contains(&d.delay)));
            // The first difference is where the share class puts it.
            let first = base.common_prefix_len(&variant);
            let from = len - (TAIL_SHARES[(k % 3) as usize] * len as f64).ceil() as usize;
            assert_eq!(first, changes[0].0);
            assert!(
                first >= from && first < from + 16,
                "variant {k} starts at {first}"
            );
            assert!(
                seen.insert(
                    variant
                        .decisions
                        .iter()
                        .map(|d| d.delay)
                        .collect::<Vec<_>>()
                ),
                "variant {k} repeats an earlier one"
            );
        }
    }

    #[test]
    fn assembled_lines_parse_to_their_variant() {
        let (graph, base) = small_base();
        let template = LineTemplate::new(&graph, &base);
        for k in [0, 1, 2, 500, 2999] {
            let changes = variant_changes(&base, k);
            let line = template.line("x", &base, &changes);
            let parsed = Scenario::from_json(&Json::parse(&line).unwrap()).unwrap();
            assert_eq!(parsed.id, "x");
            assert_eq!(parsed.graph, graph);
            assert_eq!(
                parsed.run,
                RunMode::Schedule(apply_changes(&base, &changes))
            );
        }
        // No changes: the base itself.
        let line = template.line("b", &base, &[]);
        let parsed = Scenario::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed.run, RunMode::Schedule(base));
    }
}
