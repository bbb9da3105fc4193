//! Scenario submissions: what a client asks the service to evaluate.
//!
//! A scenario names a **graph** (by generator family and parameters —
//! graphs are deterministic given the spec, so the spec *is* the
//! graph), a **protocol stack**, a **run mode** (replay a fault
//! schedule, run a delay model, or search for a worst-case schedule)
//! and optionally a **bound** to check the outcome against.
//!
//! Graph and stack specs canonicalise to key strings
//! ([`GraphSpec::key`], [`StackSpec::key`]); together with
//! `csp-adversary`'s schedule prefix hashes these form the cache keys
//! the service's prefix-sharing layer is built on.

use crate::json::Json;
use csp_adversary::Schedule;
use csp_graph::generators::{self, WeightDist};
use csp_graph::{NodeId, WeightedGraph};
use csp_sim::DelayModel;
use std::fmt;

/// A graph named by its generator parameters.
#[derive(Clone, Debug, PartialEq)]
pub enum GraphSpec {
    /// Connected G(n, p) with uniform weights in `[w_min, w_max]`.
    Gnp {
        /// Vertex count.
        n: usize,
        /// Edge probability.
        p: f64,
        /// Minimum edge weight.
        w_min: u64,
        /// Maximum edge weight.
        w_max: u64,
        /// Generator seed.
        seed: u64,
    },
    /// A cycle with constant weight.
    Cycle {
        /// Vertex count.
        n: usize,
        /// Every edge's weight.
        w: u64,
    },
    /// A path with constant weight.
    Path {
        /// Vertex count.
        n: usize,
        /// Every edge's weight.
        w: u64,
    },
    /// Dense unit-weight clusters joined by heavy bridges.
    Cluster {
        /// Number of clusters.
        clusters: usize,
        /// Vertices per cluster.
        size: usize,
        /// Bridge weight.
        heavy: u64,
        /// Generator seed.
        seed: u64,
    },
}

impl GraphSpec {
    /// Canonical cache-key string: distinct specs map to distinct keys
    /// and equal specs always render identically.
    pub fn key(&self) -> String {
        match self {
            GraphSpec::Gnp {
                n,
                p,
                w_min,
                w_max,
                seed,
            } => format!("gnp:n={n}:p={p}:w={w_min}-{w_max}:seed={seed}"),
            GraphSpec::Cycle { n, w } => format!("cycle:n={n}:w={w}"),
            GraphSpec::Path { n, w } => format!("path:n={n}:w={w}"),
            GraphSpec::Cluster {
                clusters,
                size,
                heavy,
                seed,
            } => format!("cluster:k={clusters}:size={size}:heavy={heavy}:seed={seed}"),
        }
    }

    /// Materializes the graph (deterministic given the spec).
    pub fn build(&self) -> WeightedGraph {
        match *self {
            GraphSpec::Gnp {
                n,
                p,
                w_min,
                w_max,
                seed,
            } => generators::connected_gnp(n, p, WeightDist::Uniform(w_min, w_max), seed),
            GraphSpec::Cycle { n, w } => generators::cycle(n, |_| w),
            GraphSpec::Path { n, w } => generators::path(n, |_| w),
            GraphSpec::Cluster {
                clusters,
                size,
                heavy,
                seed,
            } => generators::cluster_graph(clusters, size, heavy, seed),
        }
    }

    /// Parses the `"graph"` member of a submission.
    pub fn from_json(v: &Json) -> Result<GraphSpec, SpecError> {
        let family = req_str(v, "family")?;
        let spec = match family {
            "gnp" => GraphSpec::Gnp {
                n: req_u64(v, "n")? as usize,
                p: v.get("p")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| SpecError::new("graph.p must be a number"))?,
                w_min: opt_u64(v, "w_min", 1)?,
                w_max: opt_u64(v, "w_max", 9)?,
                seed: opt_u64(v, "seed", 0)?,
            },
            "cycle" => GraphSpec::Cycle {
                n: req_u64(v, "n")? as usize,
                w: opt_u64(v, "w", 1)?,
            },
            "path" => GraphSpec::Path {
                n: req_u64(v, "n")? as usize,
                w: opt_u64(v, "w", 1)?,
            },
            "cluster" => GraphSpec::Cluster {
                clusters: req_u64(v, "clusters")? as usize,
                size: req_u64(v, "size")? as usize,
                heavy: opt_u64(v, "heavy", 16)?,
                seed: opt_u64(v, "seed", 0)?,
            },
            other => {
                return Err(SpecError::new(&format!(
                    "unknown graph family {other:?} (gnp, cycle, path, cluster)"
                )))
            }
        };
        // What the generators assert, turned away here: `build` runs on
        // the service thread. Weights the generators would silently
        // raise to 1 or swap are refused as well — a spec names the
        // graph it builds, and two keys for one graph share nothing.
        let refused = match spec {
            GraphSpec::Gnp { p, .. } if !(0.0..=1.0).contains(&p) => {
                Some("graph.p must be a probability in [0, 1]")
            }
            GraphSpec::Gnp { w_min, w_max, .. } if w_min < 1 || w_min > w_max => {
                Some("graph weights need 1 <= w_min <= w_max")
            }
            GraphSpec::Cycle { n, .. } if n < 3 => Some("a cycle needs at least 3 vertices"),
            GraphSpec::Cycle { w: 0, .. }
            | GraphSpec::Path { w: 0, .. }
            | GraphSpec::Cluster { heavy: 0, .. } => Some("edge weights must be at least 1"),
            _ => None,
        };
        if let Some(msg) = refused {
            return Err(SpecError::new(msg));
        }
        let n = spec.nodes();
        if n < 2 {
            return Err(SpecError::new("graph needs at least 2 vertices"));
        }
        if n > MAX_NODES {
            return Err(SpecError::new(&format!(
                "graph too large for the service tier (n={n} > {MAX_NODES})"
            )));
        }
        Ok(spec)
    }

    /// Vertex count. A `clusters * size` beyond `usize` saturates, which
    /// [`MAX_NODES`] then refuses like any other oversized graph.
    fn nodes(&self) -> usize {
        match *self {
            GraphSpec::Gnp { n, .. } | GraphSpec::Cycle { n, .. } | GraphSpec::Path { n, .. } => n,
            GraphSpec::Cluster { clusters, size, .. } => clusters.saturating_mul(size),
        }
    }
}

/// Upper bound on submitted graph sizes: the service is an interactive
/// tier, and a hostile or fat-fingered `n` must not wedge every worker.
pub const MAX_NODES: usize = 100_000;

/// Upper bound on a search's `budget` (hill-climbing rounds): one
/// request must not hold a worker for hours. A search runs on one
/// thread and its cost grows linearly with the budget — on a
/// 12-vertex `spt_recur` gnp graph (`"p":0.4,"seed":3`), one thread of
/// a 2-vCPU Xeon host, 1 024 rounds took 0.57 s and 4 096 took 2.2 s —
/// so the ceiling keeps a request near the cost of [`MAX_CLASS_BUDGET`],
/// at 170 times the search default of 24 rounds.
pub const MAX_SEARCH_BUDGET: usize = 4_096;

/// Upper bound on an exhaustive run's `class_budget`: 65 536 classes,
/// the largest budget the explorer's golden outcomes pin, took 2.4 s on
/// the graph and host [`MAX_SEARCH_BUDGET`] was measured on. The
/// explorer stops early only when it runs out of classes, so on a
/// larger instance a larger budget only holds the worker longer.
pub const MAX_CLASS_BUDGET: usize = 65_536;

/// Upper bound on the per-scenario shard count: each shard is a real
/// worker thread, and a hostile request must not fork-bomb the host.
pub const MAX_SHARDS: usize = 64;

/// Upper bound on graph sizes admitted to the exhaustive
/// ([`RunMode::Exhaustive`]) mode: delivery-order class counts grow
/// combinatorially with the message count, so the interactive tier only
/// accepts instances small enough that the class budget is a real
/// coverage guarantee rather than an arbitrary truncation.
pub const MAX_EXHAUSTIVE_NODES: usize = 16;

/// The protocol stack a scenario runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StackSpec {
    /// Broadcast flood from `root`.
    Flood {
        /// The initiating vertex.
        root: usize,
    },
    /// Recursive-doubling SPT from `root` with strip parameter `delta`.
    SptRecur {
        /// The source vertex.
        root: usize,
        /// Strip width Δ (`0` means one strip covering everything).
        delta: u64,
    },
}

impl StackSpec {
    /// Canonical cache-key string.
    pub fn key(&self) -> String {
        match self {
            StackSpec::Flood { root } => format!("flood:root={root}"),
            StackSpec::SptRecur { root, delta } => format!("spt_recur:root={root}:delta={delta}"),
        }
    }

    /// The stack's root/source vertex.
    pub fn root(&self) -> NodeId {
        match self {
            StackSpec::Flood { root } | StackSpec::SptRecur { root, .. } => NodeId::new(*root),
        }
    }

    /// Parses the `"stack"` member of a submission.
    pub fn from_json(v: &Json) -> Result<StackSpec, SpecError> {
        let protocol = req_str(v, "protocol")?;
        match protocol {
            "flood" => Ok(StackSpec::Flood {
                root: opt_u64(v, "root", 0)? as usize,
            }),
            "spt_recur" => Ok(StackSpec::SptRecur {
                root: opt_u64(v, "root", 0)? as usize,
                delta: opt_u64(v, "delta", 0)?,
            }),
            other => Err(SpecError::new(&format!(
                "unknown protocol {other:?} (flood, spt_recur)"
            ))),
        }
    }
}

/// How the scenario's link behaviour is determined.
#[derive(Clone, Debug, PartialEq)]
pub enum RunMode {
    /// Replay a recorded fault schedule (the schedule's text format,
    /// embedded as a JSON string).
    Schedule(Schedule),
    /// Run a delay model with a seed — deterministic, so cacheable by
    /// `(model, seed)`.
    Model {
        /// The delay model.
        delay: DelayModel,
        /// Model seed (ignored by deterministic models).
        seed: u64,
    },
    /// Search for a worst-case schedule within a budget.
    Search {
        /// Hill-climbing rounds (`0` means the search default), at most
        /// [`MAX_SEARCH_BUDGET`].
        budget: usize,
        /// Master search seed.
        seed: u64,
    },
    /// Exhaustively enumerate delivery-order classes with the
    /// sleep-set/DPOR explorer — one representative schedule per class.
    /// Only accepted for graphs of at most [`MAX_EXHAUSTIVE_NODES`]
    /// vertices (class counts grow combinatorially).
    Exhaustive {
        /// Cap on explored classes (`0` means the explorer default), at
        /// most [`MAX_CLASS_BUDGET`].
        class_budget: usize,
    },
}

impl RunMode {
    /// Parses the `"run"` member of a submission.
    pub fn from_json(v: &Json) -> Result<RunMode, SpecError> {
        match req_str(v, "mode")? {
            "schedule" => {
                let text = req_str(v, "schedule")?;
                let schedule = Schedule::from_text(text)
                    .map_err(|e| SpecError::new(&format!("bad schedule: {e}")))?;
                Ok(RunMode::Schedule(schedule))
            }
            "model" => {
                let delay = match opt_str(v, "delay", "worst-case")? {
                    "worst-case" => DelayModel::WorstCase,
                    "eager" => DelayModel::Eager,
                    "uniform" => DelayModel::Uniform,
                    other => {
                        return Err(SpecError::new(&format!(
                            "unknown delay model {other:?} (worst-case, eager, uniform)"
                        )))
                    }
                };
                Ok(RunMode::Model {
                    delay,
                    seed: opt_u64(v, "seed", 0)?,
                })
            }
            "search" => Ok(RunMode::Search {
                budget: opt_budget(v, "budget", MAX_SEARCH_BUDGET)?,
                seed: opt_u64(v, "seed", 0)?,
            }),
            "exhaustive" => Ok(RunMode::Exhaustive {
                class_budget: opt_budget(v, "class_budget", MAX_CLASS_BUDGET)?,
            }),
            other => Err(SpecError::new(&format!(
                "unknown run mode {other:?} (schedule, model, search, exhaustive)"
            ))),
        }
    }

    /// Canonical key suffix for modes cacheable as exact results.
    pub fn exact_key(&self) -> Option<String> {
        match self {
            // Schedules are keyed by prefix hash, not by this path.
            RunMode::Schedule(_) => None,
            RunMode::Model { delay, seed } => {
                let name = match delay {
                    DelayModel::WorstCase => "worst-case".to_string(),
                    DelayModel::Eager => "eager".to_string(),
                    DelayModel::Uniform => "uniform".to_string(),
                    // Not reachable from the wire (the parser only
                    // accepts the three names above), but programmatic
                    // scenarios may carry it.
                    DelayModel::Proportional { num, den } => format!("proportional:{num}/{den}"),
                };
                Some(format!("model:{name}:seed={seed}"))
            }
            RunMode::Search { budget, seed } => Some(format!("search:budget={budget}:seed={seed}")),
            RunMode::Exhaustive { class_budget } => {
                Some(format!("exhaustive:classes={class_budget}"))
            }
        }
    }
}

/// An optional bound the result is checked against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Bound {
    /// Maximum admissible completion time.
    pub time: Option<u64>,
    /// Maximum admissible weighted communication.
    pub comm: Option<u64>,
}

impl Bound {
    /// Parses the optional `"bound"` member of a submission.
    pub fn from_json(v: Option<&Json>) -> Result<Bound, SpecError> {
        let Some(v) = v else {
            return Ok(Bound::default());
        };
        Ok(Bound {
            time: v.get("time").map(|t| t.as_u64()).map_or(Ok(None), |t| {
                t.map(Some)
                    .ok_or_else(|| SpecError::new("bound.time must be a non-negative integer"))
            })?,
            comm: v.get("comm").map(|c| c.as_u64()).map_or(Ok(None), |c| {
                c.map(Some)
                    .ok_or_else(|| SpecError::new("bound.comm must be a non-negative integer"))
            })?,
        })
    }
}

/// One fully parsed scenario submission.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Client-chosen request id, echoed on the response.
    pub id: String,
    /// The graph to run on.
    pub graph: GraphSpec,
    /// The protocol stack.
    pub stack: StackSpec,
    /// Link behaviour.
    pub run: RunMode,
    /// Optional bound to check.
    pub bound: Bound,
    /// Shard count for the conservative-parallel core (`0` = the
    /// sequential core). A pure *execution hint*: the sharded core is
    /// bit-identical to the sequential one, so this is deliberately not
    /// part of any cache key — a sharded run can hit a sequential run's
    /// cached result and vice versa. Only model-mode runs honour it
    /// (replay and search are built on sequential prefix checkpoints).
    pub shards: usize,
}

impl Scenario {
    /// Parses one `submit` object.
    pub fn from_json(v: &Json) -> Result<Scenario, SpecError> {
        Scenario::from_json_with(v, |_, _, run| RunMode::from_json(run))
    }

    /// [`Scenario::from_json`] with the `"run"` member read by `run`,
    /// which is handed the graph and stack parsed before it — the
    /// service reads a held `run.schedule` string against what its
    /// cache retains for that scenario key. Members are read, and
    /// errors reported, in the same order either way.
    pub(crate) fn from_json_with<E: From<SpecError>>(
        v: &Json,
        run: impl FnOnce(&GraphSpec, &StackSpec, &Json) -> Result<RunMode, E>,
    ) -> Result<Scenario, E> {
        let graph = GraphSpec::from_json(
            v.get("graph")
                .ok_or_else(|| SpecError::new("missing \"graph\""))?,
        )?;
        let stack = StackSpec::from_json(
            v.get("stack")
                .ok_or_else(|| SpecError::new("missing \"stack\""))?,
        )?;
        let run = run(
            &graph,
            &stack,
            v.get("run")
                .ok_or_else(|| SpecError::new("missing \"run\""))?,
        )?;
        let scenario = Scenario {
            id: opt_str(v, "id", "")?.to_string(),
            graph,
            stack,
            run,
            bound: Bound::from_json(v.get("bound"))?,
            shards: opt_u64(v, "shards", 0)? as usize,
        };
        if scenario.shards > MAX_SHARDS {
            return Err(SpecError::new(&format!(
                "shards {} too large (max {MAX_SHARDS})",
                scenario.shards
            ))
            .into());
        }
        // The root must exist in the spec'd graph; checking here keeps
        // worker code panic-free on hostile input.
        let n = scenario.graph.nodes();
        if scenario.stack.root().index() >= n {
            return Err(SpecError::new(&format!(
                "stack root {} out of range for a {n}-vertex graph",
                scenario.stack.root().index()
            ))
            .into());
        }
        if matches!(scenario.run, RunMode::Exhaustive { .. }) && n > MAX_EXHAUSTIVE_NODES {
            return Err(SpecError::new(&format!(
                "exhaustive mode is limited to {MAX_EXHAUSTIVE_NODES} vertices \
                 (got n={n}); use \"mode\": \"search\" for larger instances"
            ))
            .into());
        }
        Ok(scenario)
    }
}

/// A rejected submission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError {
    /// Human-readable cause, returned verbatim on the error response.
    pub msg: String,
}

impl SpecError {
    pub(crate) fn new(msg: &str) -> SpecError {
        SpecError {
            msg: msg.to_string(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for SpecError {}

fn req_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, SpecError> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| SpecError::new(&format!("missing or non-string \"{key}\"")))
}

fn opt_str<'a>(v: &'a Json, key: &str, default: &'static str) -> Result<&'a str, SpecError> {
    match v.get(key) {
        None => Ok(default),
        Some(s) => s
            .as_str()
            .ok_or_else(|| SpecError::new(&format!("\"{key}\" must be a string"))),
    }
}

fn req_u64(v: &Json, key: &str) -> Result<u64, SpecError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| SpecError::new(&format!("missing or non-integer \"{key}\"")))
}

fn opt_u64(v: &Json, key: &str, default: u64) -> Result<u64, SpecError> {
    match v.get(key) {
        None => Ok(default),
        Some(n) => n
            .as_u64()
            .ok_or_else(|| SpecError::new(&format!("\"{key}\" must be a non-negative integer"))),
    }
}

/// The budget `key` of a run mode (`0` when absent), refused above
/// `max`.
fn opt_budget(v: &Json, key: &str, max: usize) -> Result<usize, SpecError> {
    let n = opt_u64(v, key, 0)?;
    usize::try_from(n)
        .ok()
        .filter(|&n| n <= max)
        .ok_or_else(|| SpecError::new(&format!("\"{key}\" {n} is too large (max {max})")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(doc: &str) -> Json {
        Json::parse(doc).unwrap()
    }

    #[test]
    fn graph_keys_are_canonical_and_buildable() {
        let v = parse(r#"{"family":"gnp","n":10,"p":0.3,"seed":7}"#);
        let spec = GraphSpec::from_json(&v).unwrap();
        assert_eq!(spec.key(), "gnp:n=10:p=0.3:w=1-9:seed=7");
        let g = spec.build();
        assert_eq!(g.node_count(), 10);
        // Same spec, differently-ordered JSON → same key.
        let v2 = parse(r#"{"seed":7,"p":0.3,"n":10,"family":"gnp"}"#);
        assert_eq!(GraphSpec::from_json(&v2).unwrap().key(), spec.key());
    }

    #[test]
    fn stack_and_mode_parse() {
        let s =
            StackSpec::from_json(&parse(r#"{"protocol":"spt_recur","root":2,"delta":8}"#)).unwrap();
        assert_eq!(s.key(), "spt_recur:root=2:delta=8");
        let m = RunMode::from_json(&parse(r#"{"mode":"model","delay":"eager"}"#)).unwrap();
        assert_eq!(m.exact_key().as_deref(), Some("model:eager:seed=0"));
        let m = RunMode::from_json(&parse(
            r#"{"mode":"schedule","schedule":"csp-adversary-schedule v1\nfallback rush\n"}"#,
        ))
        .unwrap();
        assert!(matches!(m, RunMode::Schedule(s) if s.is_empty()));
    }

    #[test]
    fn exhaustive_mode_parses_and_is_size_gated() {
        let m = RunMode::from_json(&parse(r#"{"mode":"exhaustive","class_budget":512}"#)).unwrap();
        assert_eq!(m.exact_key().as_deref(), Some("exhaustive:classes=512"));
        assert_eq!(m, RunMode::Exhaustive { class_budget: 512 });
        // Within the cap: accepted.
        let ok = parse(
            r#"{"graph":{"family":"gnp","n":8,"p":0.4},"stack":{"protocol":"flood"},"run":{"mode":"exhaustive"}}"#,
        );
        assert!(Scenario::from_json(&ok).is_ok());
        // Above the cap: a structured rejection naming the limit, not a
        // wedged worker.
        let big = parse(
            r#"{"graph":{"family":"gnp","n":40,"p":0.4},"stack":{"protocol":"flood"},"run":{"mode":"exhaustive"}}"#,
        );
        let err = Scenario::from_json(&big).unwrap_err();
        assert!(err.msg.contains("exhaustive mode is limited"), "{err}");
        // The same graph is fine under the heuristic search.
        let search = parse(
            r#"{"graph":{"family":"gnp","n":40,"p":0.4},"stack":{"protocol":"flood"},"run":{"mode":"search"}}"#,
        );
        assert!(Scenario::from_json(&search).is_ok());
    }

    #[test]
    fn hostile_submissions_are_rejected_not_panicked() {
        for bad in [
            r#"{"graph":{"family":"torus"},"stack":{"protocol":"flood"},"run":{"mode":"model"}}"#,
            r#"{"graph":{"family":"gnp","n":1,"p":0.5},"stack":{"protocol":"flood"},"run":{"mode":"model"}}"#,
            r#"{"graph":{"family":"gnp","n":200000,"p":0.5},"stack":{"protocol":"flood"},"run":{"mode":"model"}}"#,
            r#"{"graph":{"family":"path","n":4},"stack":{"protocol":"flood","root":9},"run":{"mode":"model"}}"#,
            r#"{"graph":{"family":"path","n":4},"stack":{"protocol":"flood"},"run":{"mode":"schedule","schedule":"garbage"}}"#,
            r#"{"graph":{"family":"path","n":4},"stack":{"protocol":"flood"},"run":{"mode":"model"},"bound":{"time":-3}}"#,
            // Specs `GraphSpec::build` would panic on.
            r#"{"graph":{"family":"cycle","n":2},"stack":{"protocol":"flood"},"run":{"mode":"model"}}"#,
            r#"{"graph":{"family":"path","n":3,"w":0},"stack":{"protocol":"flood"},"run":{"mode":"model"}}"#,
            r#"{"graph":{"family":"cycle","n":8,"w":0},"stack":{"protocol":"flood"},"run":{"mode":"model"}}"#,
            r#"{"graph":{"family":"gnp","n":4,"p":7.5},"stack":{"protocol":"flood"},"run":{"mode":"model"}}"#,
            r#"{"graph":{"family":"gnp","n":4,"p":-1},"stack":{"protocol":"flood"},"run":{"mode":"model"}}"#,
            r#"{"graph":{"family":"cluster","clusters":4294967296,"size":4294967296},"stack":{"protocol":"flood"},"run":{"mode":"model"}}"#,
            // Weights the generators would silently reinterpret.
            r#"{"graph":{"family":"gnp","n":4,"p":0.5,"w_min":0},"stack":{"protocol":"flood"},"run":{"mode":"model"}}"#,
            r#"{"graph":{"family":"gnp","n":4,"p":0.5,"w_min":5,"w_max":2},"stack":{"protocol":"flood"},"run":{"mode":"model"}}"#,
            r#"{"graph":{"family":"cluster","clusters":2,"size":3,"heavy":0},"stack":{"protocol":"flood"},"run":{"mode":"model"}}"#,
        ] {
            assert!(
                Scenario::from_json(&parse(bad)).is_err(),
                "{bad} must be rejected"
            );
        }
    }

    #[test]
    fn minimal_submission_defaults() {
        let v = parse(
            r#"{"id":"a","graph":{"family":"path","n":4},"stack":{"protocol":"flood"},"run":{"mode":"model"}}"#,
        );
        let s = Scenario::from_json(&v).unwrap();
        assert_eq!(s.id, "a");
        assert_eq!(s.bound, Bound::default());
        assert!(matches!(
            s.run,
            RunMode::Model {
                delay: DelayModel::WorstCase,
                seed: 0
            }
        ));
    }
}
