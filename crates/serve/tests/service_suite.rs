//! End-to-end tests for the scenario-evaluation service: the JSON-lines
//! protocol, cache behaviour (FULL / INCREMENTAL / MISS), and the
//! differential guarantee the cache is allowed to exist by — resumed
//! and cached results are **bit-identical** to cold runs (costs, trace
//! digests, final-state digests, fault meters) across drop/crash
//! schedules.

use csp_adversary::{record, Fallback, Schedule};
use csp_algo::spt::recur::SptRecur;
use csp_graph::generators::{self, WeightDist};
use csp_graph::{EdgeId, NodeId, Weight};
use csp_serve::json::Json;
use csp_serve::scenario::{MAX_CLASS_BUDGET, MAX_SEARCH_BUDGET};
use csp_serve::service::{Service, ServiceConfig};
use csp_serve::CacheCaps;
use csp_sim::{
    ChurnOracle, CrashOracle, DelayModel, DropOracle, FaultPlan, ModelOracle, SimTime, Simulator,
};

/// The gnp graph every test scenario here runs on. Weights start at 2
/// so every decision has at least two admissible delays (mutation can
/// always pick a different one).
fn graph_json() -> Json {
    Json::obj(vec![
        ("family", Json::str("gnp")),
        ("n", Json::num(10.0)),
        ("p", Json::num(0.35)),
        ("w_min", Json::num(2.0)),
        ("w_max", Json::num(9.0)),
        ("seed", Json::num(7.0)),
    ])
}

fn stack_json() -> Json {
    Json::obj(vec![
        ("protocol", Json::str("spt_recur")),
        ("root", Json::num(0.0)),
    ])
}

fn submit(id: &str, run: Json) -> Json {
    Json::obj(vec![
        ("type", Json::str("submit")),
        ("id", Json::str(id)),
        ("graph", graph_json()),
        ("stack", stack_json()),
        ("run", run),
    ])
}

fn schedule_run(s: &Schedule) -> Json {
    Json::obj(vec![
        ("mode", Json::str("schedule")),
        ("schedule", Json::str(s.to_text())),
    ])
}

/// Records a drop+crash schedule for the test graph's SPT scenario.
fn fault_schedule() -> Schedule {
    let g = generators::connected_gnp(10, 0.35, WeightDist::Uniform(2, 9), 7);
    let make = |v: NodeId, _: &csp_graph::WeightedGraph| SptRecur::new(v, NodeId::new(0), 1 << 40);
    let oracle = CrashOracle::new(
        DropOracle::new(DelayModel::Uniform, 0xFEED_BEEF, 0.2, 3),
        vec![(NodeId::new(7), SimTime::new(25))],
    );
    let (_, schedule) = record(&g, make, oracle, Fallback::WorstCase);
    assert!(
        schedule.has_faults(),
        "test premise: the recorded schedule must carry faults"
    );
    schedule
}

/// Mutates the tail of a schedule: different delay on the last ~10% of
/// delivered decisions, keeping every delay admissible in [1, w].
fn mutate_tail(base: &Schedule) -> Schedule {
    let mut s = base.clone();
    let len = s.decisions.len();
    assert!(len >= 10, "test premise: schedule long enough to mutate");
    let from = len - len / 10 - 1;
    let mut changed = 0;
    for d in &mut s.decisions[from..] {
        if !d.dropped && d.weight > 1 {
            d.delay = if d.delay == d.weight { 1 } else { d.delay + 1 };
            changed += 1;
        }
    }
    assert!(changed > 0, "test premise: tail mutation changed something");
    s
}

/// One response of type "result" with status ok, or panic with context.
fn expect_result(responses: &[Json]) -> &Json {
    assert_eq!(responses.len(), 1, "one response per submit");
    let r = &responses[0];
    assert_eq!(
        r.get("type").and_then(Json::as_str),
        Some("result"),
        "expected a result, got: {}",
        r.dump()
    );
    r
}

fn cache_of(r: &Json) -> &str {
    r.get("cache").and_then(Json::as_str).unwrap()
}

/// Every field a cold and a cached evaluation must agree on, pulled
/// into one comparable string.
fn identity_fields(r: &Json) -> String {
    let report = r.get("report").expect("report");
    format!(
        "report={} states={} trace={}",
        report.dump(),
        r.get("states_digest").and_then(Json::as_str).unwrap(),
        r.get("trace_digest").and_then(Json::as_str).unwrap(),
    )
}

fn caching_service() -> Service {
    Service::new(ServiceConfig {
        threads: 2,
        checkpoint_every: 8,
        cache: true,
        caps: CacheCaps::default(),
        trace_cap: 1 << 14,
    })
}

fn cold_service() -> Service {
    Service::new(ServiceConfig {
        threads: 2,
        checkpoint_every: 8,
        cache: false,
        caps: CacheCaps::default(),
        trace_cap: 1 << 14,
    })
}

#[test]
fn incremental_resume_is_bit_identical_to_cold_under_faults() {
    let base = fault_schedule();
    let variant = mutate_tail(&base);

    let mut warm = caching_service();
    let mut cold = cold_service();

    // Cold evaluation of the base schedule populates the checkpoint
    // tree.
    let r_base = warm.handle(&submit("base", schedule_run(&base)));
    let r_base = expect_result(&r_base);
    assert_eq!(cache_of(r_base), "miss");

    // The tail-mutated variant must resume from a checkpoint...
    let r_var = warm.handle(&submit("variant", schedule_run(&variant)));
    let r_var = expect_result(&r_var);
    assert_eq!(
        cache_of(r_var),
        "incremental",
        "tail mutation shares a prefix: {}",
        r_var.dump()
    );
    assert!(r_var.get("depth").and_then(Json::as_u64).unwrap() > 0);

    // ...and be bit-identical to a cold run of the same variant.
    let c_var = cold.handle(&submit("variant-cold", schedule_run(&variant)));
    let c_var = expect_result(&c_var);
    assert_eq!(cache_of(c_var), "uncached");
    assert_eq!(
        identity_fields(r_var),
        identity_fields(c_var),
        "incremental result must match cold run exactly"
    );

    // The cold base run and the warm base run agree too.
    let c_base = cold.handle(&submit("base-cold", schedule_run(&base)));
    assert_eq!(
        identity_fields(r_base),
        identity_fields(expect_result(&c_base))
    );

    // Exact resubmission is a FULL hit with the same identity.
    let r_full = warm.handle(&submit("base-again", schedule_run(&base)));
    let r_full = expect_result(&r_full);
    assert_eq!(cache_of(r_full), "full");
    let report_eq = |a: &Json, b: &Json| {
        assert_eq!(
            a.get("report").unwrap().dump(),
            b.get("report").unwrap().dump()
        );
        assert_eq!(
            a.get("states_digest").and_then(Json::as_str),
            b.get("states_digest").and_then(Json::as_str)
        );
    };
    report_eq(r_full, r_base);

    // Fault meters actually moved (the schedule carries drops and a
    // crash), so the equality above covered them.
    let report = r_var.get("report").unwrap();
    assert!(report.get("drops").and_then(Json::as_u64).unwrap() > 0);

    let stats = warm.handle(&Json::obj(vec![("type", Json::str("stats"))]));
    let stats = &stats[0].get("stats").cloned().unwrap();
    assert_eq!(stats.get("cache_full_hits").and_then(Json::as_u64), Some(1));
    assert_eq!(
        stats.get("cache_incremental_hits").and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(stats.get("cache_misses").and_then(Json::as_u64), Some(1));
    assert!(
        stats
            .get("mean_checkpoint_depth")
            .and_then(Json::as_f64)
            .unwrap()
            > 0.0
    );
}

#[test]
fn crash_set_divergence_prevents_prefix_reuse() {
    let base = fault_schedule();
    let mut other_crash = base.clone();
    other_crash.plan.churn[0].1[0] += 1_000_000;

    let mut warm = caching_service();
    expect_result(&warm.handle(&submit("base", schedule_run(&base))));
    let r = warm.handle(&submit("other", schedule_run(&other_crash)));
    let r = expect_result(&r);
    assert_eq!(
        cache_of(r),
        "miss",
        "different crash set must not resume from base checkpoints"
    );
}

/// Records a churn schedule — bounded drops plus a crash–rejoin–recrash
/// chain of vertex 7 and one mid-run weight revision — for the same
/// scenario the other suites use.
fn churn_schedule() -> Schedule {
    let g = generators::connected_gnp(10, 0.35, WeightDist::Uniform(2, 9), 7);
    let make = |v: NodeId, _: &csp_graph::WeightedGraph| SptRecur::new(v, NodeId::new(0), 1 << 40);
    let oracle = ChurnOracle::new(
        DropOracle::new(DelayModel::Uniform, 0xFEED_BEEF, 0.2, 3),
        vec![(
            NodeId::new(7),
            vec![SimTime::new(25), SimTime::new(40), SimTime::new(55)],
        )],
        vec![(EdgeId::new(0), SimTime::new(12), Weight::new(4))],
    );
    let (_, schedule) = record(&g, make, oracle, Fallback::WorstCase);
    assert!(
        schedule.plan.churn.iter().any(|(_, chain)| chain.len() > 1)
            && !schedule.plan.drift.is_empty(),
        "test premise: the recorded schedule must churn"
    );
    schedule
}

#[test]
fn churn_schedules_evaluate_warm_equals_cold() {
    let churn = churn_schedule();
    let mut warm = caching_service();
    let mut cold = cold_service();

    // Cold pass populates the cache; an identical resubmission is a
    // FULL hit — and both must be bit-identical to the cache-free
    // service's answer, fault and churn meters included.
    let first = warm.handle(&submit("churn", schedule_run(&churn)));
    let first = expect_result(&first);
    assert_eq!(cache_of(first), "miss");
    let again = warm.handle(&submit("churn-again", schedule_run(&churn)));
    let again = expect_result(&again);
    assert_eq!(cache_of(again), "full");
    let reference = cold.handle(&submit("churn-cold", schedule_run(&churn)));
    let reference = expect_result(&reference);
    assert_eq!(identity_fields(first), identity_fields(reference));
    // FULL hits come straight from the stored result (no trace replay,
    // so no trace digest): report and state digest must still agree.
    assert_eq!(
        again.get("report").unwrap().dump(),
        reference.get("report").unwrap().dump()
    );
    assert_eq!(
        again.get("states_digest").and_then(Json::as_str),
        reference.get("states_digest").and_then(Json::as_str)
    );

    // The wire report carries the churn meters.
    let report = first.get("report").unwrap();
    assert_eq!(report.get("recoveries").and_then(Json::as_u64), Some(1));
    assert_eq!(
        report.get("weight_revisions").and_then(Json::as_u64),
        Some(1)
    );

    // `stats` folds them over evaluated scenarios: the miss counts once
    // and the FULL hit is not metered again.
    let stats = warm.handle(&Json::obj(vec![("type", Json::str("stats"))]));
    let stats = stats[0].get("stats").unwrap();
    assert_eq!(stats.get("recoveries").and_then(Json::as_u64), Some(1));
    assert_eq!(
        stats.get("weight_revisions").and_then(Json::as_u64),
        Some(1)
    );
}

#[test]
fn churn_divergence_prevents_prefix_reuse() {
    let base = churn_schedule();
    let mut warm = caching_service();
    expect_result(&warm.handle(&submit("base", schedule_run(&base))));

    // Same decisions, same crash set — but the rejoin moves one tick.
    let mut moved = base.clone();
    moved.plan.churn[0].1[1] += 1;
    let r = warm.handle(&submit("moved", schedule_run(&moved)));
    assert_eq!(
        cache_of(expect_result(&r)),
        "miss",
        "a different rejoin time must not resume from base checkpoints"
    );

    // And a drift-only change diverges too.
    let mut drifted = base.clone();
    drifted.plan.drift[0].2 = Weight::new(drifted.plan.drift[0].2.get() + 1);
    let r = warm.handle(&submit("drifted", schedule_run(&drifted)));
    assert_eq!(
        cache_of(expect_result(&r)),
        "miss",
        "a different weight revision must not resume from base checkpoints"
    );
}

#[test]
fn model_and_search_runs_cache_as_exact_results() {
    let mut svc = caching_service();

    let model = || {
        Json::obj(vec![
            ("mode", Json::str("model")),
            ("delay", Json::str("uniform")),
            ("seed", Json::num(11.0)),
        ])
    };
    let first = svc.handle(&submit("m1", model()));
    let first = expect_result(&first);
    assert_eq!(cache_of(first), "miss");
    let second = svc.handle(&submit("m2", model()));
    let second = expect_result(&second);
    assert_eq!(cache_of(second), "full");
    assert_eq!(
        first.get("report").unwrap().dump(),
        second.get("report").unwrap().dump()
    );

    // A schedule submission replaying the *recorded transcript* of the
    // model run hits the checkpoints that run left behind.
    let g = generators::connected_gnp(10, 0.35, WeightDist::Uniform(2, 9), 7);
    let make = |v: NodeId, _: &csp_graph::WeightedGraph| SptRecur::new(v, NodeId::new(0), 1 << 40);
    let (_, transcript) = record(
        &g,
        make,
        csp_sim::ModelOracle::new(DelayModel::Uniform, 11),
        Fallback::WorstCase,
    );
    let variant = mutate_tail(&transcript);
    let r = svc.handle(&submit("m3", schedule_run(&variant)));
    let r = expect_result(&r);
    assert_eq!(
        cache_of(r),
        "incremental",
        "model-run checkpoints serve schedule variants: {}",
        r.dump()
    );

    let search = || {
        Json::obj(vec![
            ("mode", Json::str("search")),
            ("budget", Json::num(2.0)),
            ("seed", Json::num(3.0)),
        ])
    };
    let s1 = svc.handle(&submit("s1", search()));
    let s1 = expect_result(&s1);
    assert_eq!(cache_of(s1), "miss");
    assert!(s1.get("worst_case").and_then(Json::as_u64).unwrap() > 0);
    assert!(s1.get("schedule").and_then(Json::as_str).is_some());
    let s2 = svc.handle(&submit("s2", search()));
    let s2 = expect_result(&s2);
    assert_eq!(cache_of(s2), "full");
    assert_eq!(
        s1.get("worst_case").and_then(Json::as_u64),
        s2.get("worst_case").and_then(Json::as_u64)
    );
}

/// A client that still writes the `v1` header shares its cache with
/// one that writes `v3`: the same decisions under the other header are
/// an exact-result hit, with the report and state digest the first run
/// had (a hit carries no trace digest).
#[test]
fn a_v1_schedule_and_its_v3_text_share_one_cache_entry() {
    let g = generators::connected_gnp(10, 0.35, WeightDist::Uniform(2, 9), 7);
    let make = |v: NodeId, _: &csp_graph::WeightedGraph| SptRecur::new(v, NodeId::new(0), 1 << 40);
    let (_, schedule) = record(
        &g,
        make,
        ModelOracle::new(DelayModel::Uniform, 5),
        Fallback::WorstCase,
    );
    let v3 = schedule.to_text();
    let v1 = v3.replacen(
        "csp-adversary-schedule v3\n",
        "csp-adversary-schedule v1\n",
        1,
    );
    assert_ne!(v1, v3);
    let run = |text: &str| {
        Json::obj(vec![
            ("mode", Json::str("schedule")),
            ("schedule", Json::str(text)),
        ])
    };
    let mut svc = caching_service();
    let old = svc.handle(&submit("v1", run(&v1)));
    let old = expect_result(&old);
    assert_eq!(cache_of(old), "miss");
    let new = svc.handle(&submit("v3", run(&v3)));
    let new = expect_result(&new);
    assert_eq!(cache_of(new), "full", "{}", new.dump());
    for key in ["report", "states_digest"] {
        assert_eq!(
            new.get(key).unwrap().dump(),
            old.get(key).unwrap().dump(),
            "{key}"
        );
    }
}

/// A search or exhaustive budget past its ceiling is one error response
/// instead of a worker held for hours; the ceiling itself is served, and
/// so is the next request.
#[test]
fn run_budgets_past_their_ceiling_are_refused() {
    let mut svc = caching_service();
    let path2 = Json::obj(vec![("family", Json::str("path")), ("n", Json::num(2.0))]);
    let flood = Json::obj(vec![("protocol", Json::str("flood"))]);
    for (mode, key, max) in [
        ("search", "budget", MAX_SEARCH_BUDGET),
        ("exhaustive", "class_budget", MAX_CLASS_BUDGET),
    ] {
        let request = |budget: usize| {
            Json::obj(vec![
                ("type", Json::str("submit")),
                ("id", Json::str(mode)),
                ("graph", path2.clone()),
                ("stack", flood.clone()),
                (
                    "run",
                    Json::obj(vec![
                        ("mode", Json::str(mode)),
                        (key, Json::num(budget as f64)),
                    ]),
                ),
            ])
        };
        expect_result(&svc.handle(&request(max)));
        let refused = svc.handle(&request(max + 1));
        assert_eq!(refused.len(), 1, "one error per refused request");
        assert_eq!(refused[0].get("type").and_then(Json::as_str), Some("error"));
        let error = refused[0].get("error").and_then(Json::as_str).unwrap();
        assert!(
            error.contains(&format!("\"{key}\" {} is too large (max {max})", max + 1)),
            "{error}"
        );
        assert_still_serving(&mut svc);
    }
    let stats = svc.handle(&Json::obj(vec![("type", Json::str("stats"))]));
    let stats = stats[0].get("stats").unwrap();
    assert_eq!(stats.get("rejected").and_then(Json::as_u64), Some(2));
    assert_eq!(stats.get("submitted").and_then(Json::as_u64), Some(2));
}

/// A FULL hit is rendered from the record the fresh run stored, by the
/// code that rendered the fresh run: in every mode the two responses
/// differ only in how they were served.
#[test]
fn a_full_hit_renders_the_record_the_fresh_result_did() {
    let served_how = [
        "id",
        "cache",
        "depth",
        "exec_us",
        "queue_wait_us",
        "ingest_us",
        "ingest_reused",
        "ingest_parsed",
        "trace_digest",
    ];
    let mode = |name: &str, fields: Vec<(&'static str, Json)>| {
        let mut run = vec![("mode", Json::str(name))];
        run.extend(fields);
        Json::obj(run)
    };
    let runs = [
        mode(
            "model",
            vec![("delay", Json::str("uniform")), ("seed", Json::num(5.0))],
        ),
        schedule_run(&fault_schedule()),
        mode(
            "search",
            vec![("budget", Json::num(2.0)), ("seed", Json::num(3.0))],
        ),
        mode("exhaustive", vec![("class_budget", Json::num(32.0))]),
    ];
    let mut svc = caching_service();
    for run in runs {
        // Bounded, so the bound verdict is compared too.
        let request = |id: &str| {
            let mut request = submit(id, run.clone());
            if let Json::Obj(ref mut m) = request {
                m.insert(
                    "bound".to_string(),
                    Json::obj(vec![("time", Json::num(40.0)), ("comm", Json::num(1e9))]),
                );
            }
            request
        };
        let fresh = svc.handle(&request("fresh"));
        let fresh = expect_result(&fresh);
        assert_eq!(cache_of(fresh), "miss", "{}", run.dump());
        let hit = svc.handle(&request("hit"));
        let hit = expect_result(&hit);
        assert_eq!(cache_of(hit), "full", "{}", run.dump());
        let (Json::Obj(fresh), Json::Obj(hit)) = (fresh, hit) else {
            panic!("responses are objects");
        };
        assert!(fresh.contains_key("trace_digest") && !hit.contains_key("trace_digest"));
        let what = |r: &std::collections::BTreeMap<String, Json>| -> Vec<(String, String)> {
            r.iter()
                .filter(|(k, _)| !served_how.contains(&k.as_str()))
                .map(|(k, v)| (k.clone(), v.dump()))
                .collect()
        };
        assert_eq!(what(fresh), what(hit), "{}", run.dump());
        assert!(what(hit).len() >= 5, "type, status, report, digest, bound");
        // The bound is echoed beside its verdict.
        let bound = &hit["bound"];
        assert_eq!(bound.get("time").and_then(Json::as_u64), Some(40));
        assert_eq!(
            bound.get("comm").and_then(Json::as_u64),
            Some(1_000_000_000)
        );
        assert!(bound.get("holds").and_then(Json::as_bool).is_some());
    }
}

/// Under caps small enough that nearly every store evicts, a caching
/// service still answers every scenario as a cold one does, and two
/// caching services fed one sequence evict alike: the same scenarios
/// come back `full`, `incremental` or `miss`, at the same depths.
#[test]
fn warm_equals_cold_under_eviction_pressure_and_evicts_deterministically() {
    let tight = |cache| {
        Service::new(ServiceConfig {
            threads: 2,
            checkpoint_every: 8,
            cache,
            caps: CacheCaps {
                checkpoints: 3,
                results: 2,
            },
            trace_cap: 1 << 14,
        })
    };
    let mode = |name: &str, fields: Vec<(&'static str, Json)>| {
        let mut run = vec![("mode", Json::str(name))];
        run.extend(fields);
        Json::obj(run)
    };
    let model = mode(
        "model",
        vec![("delay", Json::str("uniform")), ("seed", Json::num(11.0))],
    );
    let g = generators::connected_gnp(10, 0.35, WeightDist::Uniform(2, 9), 7);
    let make = |v: NodeId, _: &csp_graph::WeightedGraph| SptRecur::new(v, NodeId::new(0), 1 << 40);
    let (_, transcript) = record(
        &g,
        make,
        ModelOracle::new(DelayModel::Uniform, 11),
        Fallback::WorstCase,
    );
    let base = fault_schedule();
    let mut last_only = base.clone();
    let last = last_only.decisions.len() - 1;
    let d = &mut last_only.decisions[last];
    d.delay = if d.delay == d.weight { 1 } else { d.delay + 1 };
    let runs = [
        model.clone(),
        schedule_run(&mutate_tail(&transcript)),
        mode(
            "search",
            vec![("budget", Json::num(2.0)), ("seed", Json::num(3.0))],
        ),
        mode("exhaustive", vec![("class_budget", Json::num(32.0))]),
        schedule_run(&base),
        schedule_run(&mutate_tail(&base)),
        schedule_run(&last_only),
        model,
        schedule_run(&base),
        schedule_run(&transcript),
    ];

    let (mut cold, mut warm, mut twin) = (tight(false), tight(true), tight(true));
    let (mut served, mut incremental) = (Vec::new(), 0);
    for (i, run) in runs.iter().enumerate() {
        let request = submit(&format!("r{i}"), run.clone());
        let c = cold.handle(&request);
        let (w, t) = (warm.handle(&request), twin.handle(&request));
        let (c, w, t) = (expect_result(&c), expect_result(&w), expect_result(&t));
        // Everything but how it was served, and the trace digest where
        // the warm run has one (a FULL hit replays nothing).
        let what = |r: &Json| -> Vec<(String, String)> {
            let Json::Obj(fields) = r else {
                panic!("responses are objects")
            };
            fields
                .iter()
                .filter(|(k, _)| {
                    !matches!(
                        k.as_str(),
                        "id" | "cache"
                            | "depth"
                            | "exec_us"
                            | "queue_wait_us"
                            | "ingest_us"
                            | "ingest_reused"
                            | "ingest_parsed"
                            | "trace_digest"
                    )
                })
                .map(|(k, v)| (k.clone(), v.dump()))
                .collect()
        };
        assert_eq!(what(w), what(c), "warm ≠ cold at r{i}: {}", run.dump());
        if let Some(trace) = w.get("trace_digest") {
            assert_eq!(Some(trace), c.get("trace_digest"), "trace at r{i}");
        }
        let how = |r: &Json| (cache_of(r).to_string(), r.get("depth").unwrap().dump());
        assert_eq!(how(w), how(t), "two caches disagree at r{i}");
        incremental += usize::from(cache_of(w) == "incremental");
        served.push(how(w));
    }
    let stats = warm.handle(&Json::obj(vec![("type", Json::str("stats"))]));
    let stats = stats[0].get("stats").unwrap();
    assert!(
        stats.get("evictions").and_then(Json::as_u64).unwrap() > 0,
        "the caps must bite: {}",
        stats.dump()
    );
    assert!(
        stats
            .get("checkpoints_stored")
            .and_then(Json::as_u64)
            .unwrap()
            <= 3
    );
    assert!(incremental >= 2, "resumes under pressure: {served:?}");
}

#[test]
fn exhaustive_runs_report_reduction_and_cache_as_exact_results() {
    // Exhaustive mode answers with the explorer's reduction counters,
    // a replayable witness schedule, and caches like a search result.
    let submit_exhaustive = |id: &str| {
        Json::obj(vec![
            ("type", Json::str("submit")),
            ("id", Json::str(id)),
            (
                "graph",
                Json::obj(vec![
                    ("family", Json::str("gnp")),
                    ("n", Json::num(6.0)),
                    ("p", Json::num(0.5)),
                    ("w_min", Json::num(2.0)),
                    ("w_max", Json::num(4.0)),
                    ("seed", Json::num(3.0)),
                ]),
            ),
            (
                "stack",
                Json::obj(vec![
                    ("protocol", Json::str("flood")),
                    ("root", Json::num(0.0)),
                ]),
            ),
            (
                "run",
                Json::obj(vec![
                    ("mode", Json::str("exhaustive")),
                    ("class_budget", Json::num(64.0)),
                ]),
            ),
        ])
    };

    let mut svc = caching_service();
    let cold = svc.handle(&submit_exhaustive("x1"));
    let cold = expect_result(&cold);
    assert_eq!(cache_of(cold), "miss");
    let classes = cold
        .get("classes_explored")
        .and_then(Json::as_u64)
        .expect("exhaustive results carry classes_explored");
    assert!(classes >= 1, "{}", cold.dump());
    assert!(
        cold.get("schedules_pruned")
            .and_then(Json::as_u64)
            .is_some(),
        "{}",
        cold.dump()
    );
    // The winning representative is at least the worst-case anchor.
    let worst = cold.get("worst_case").and_then(Json::as_u64).unwrap();
    let completion = cold
        .get("report")
        .and_then(|r| r.get("completion"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(completion >= worst, "{}", cold.dump());
    assert!(cold.get("schedule").and_then(Json::as_str).is_some());

    // Resubmission is a FULL hit with identical counters.
    let warm = svc.handle(&submit_exhaustive("x2"));
    let warm = expect_result(&warm);
    assert_eq!(cache_of(warm), "full", "{}", warm.dump());
    assert_eq!(
        warm.get("classes_explored").and_then(Json::as_u64),
        Some(classes)
    );
    assert_eq!(
        cold.get("report").unwrap().dump(),
        warm.get("report").unwrap().dump()
    );

    // Heuristic searches keep their wire shape: no reduction counters.
    let s = svc.handle(&submit(
        "x3",
        Json::obj(vec![
            ("mode", Json::str("search")),
            ("budget", Json::num(1.0)),
            ("seed", Json::num(3.0)),
        ]),
    ));
    let s = expect_result(&s);
    assert!(s.get("classes_explored").is_none(), "{}", s.dump());
}

#[test]
fn sharded_model_runs_are_bit_identical_and_share_the_cache() {
    // Sequential and sharded evaluation of the same model scenario must
    // agree on every identity field, and since `shards` is an execution
    // hint rather than a cache key, each one's cold result must serve
    // the other's resubmission as a FULL hit.
    let submit_shards = |id: &str, shards: f64| {
        Json::obj(vec![
            ("type", Json::str("submit")),
            ("id", Json::str(id)),
            ("graph", graph_json()),
            ("stack", stack_json()),
            (
                "run",
                Json::obj(vec![
                    ("mode", Json::str("model")),
                    ("delay", Json::str("uniform")),
                    ("seed", Json::num(29.0)),
                ]),
            ),
            ("shards", Json::num(shards)),
        ])
    };

    // Cold sharded run vs cold sequential run (separate services, so
    // both really execute).
    let mut sharded_svc = caching_service();
    let sharded = sharded_svc.handle(&submit_shards("p1", 4.0));
    let sharded = expect_result(&sharded);
    assert_eq!(cache_of(sharded), "miss");
    let mut seq_svc = caching_service();
    let seq = seq_svc.handle(&submit_shards("q1", 0.0));
    let seq = expect_result(&seq);
    assert_eq!(cache_of(seq), "miss");
    assert_eq!(identity_fields(sharded), identity_fields(seq));

    // Cross-resubmission: the sequential twin FULL-hits the sharded
    // service's cache, and vice versa.
    let hit = sharded_svc.handle(&submit_shards("p2", 0.0));
    let hit = expect_result(&hit);
    assert_eq!(cache_of(hit), "full", "{}", hit.dump());
    let hit = seq_svc.handle(&submit_shards("q2", 8.0));
    let hit = expect_result(&hit);
    assert_eq!(cache_of(hit), "full", "{}", hit.dump());

    // A hostile shard count is rejected, not spawned.
    let r = sharded_svc.handle(&submit_shards("p3", 10_000.0));
    assert_eq!(r[0].get("type").and_then(Json::as_str), Some("error"));
}

#[test]
fn bounds_are_checked_against_the_report() {
    let mut svc = caching_service();
    let run = || {
        Json::obj(vec![
            ("mode", Json::str("model")),
            ("delay", Json::str("worst-case")),
        ])
    };
    let mut with_bound = submit("loose", run());
    if let Json::Obj(ref mut m) = with_bound {
        m.insert(
            "bound".to_string(),
            Json::obj(vec![("time", Json::num(1e12))]),
        );
    }
    let r = svc.handle(&with_bound);
    let r = expect_result(&r);
    assert_eq!(
        r.get("bound")
            .unwrap()
            .get("holds")
            .and_then(|b| b.as_bool()),
        Some(true)
    );

    let mut tight = submit("tight", run());
    if let Json::Obj(ref mut m) = tight {
        m.insert(
            "bound".to_string(),
            Json::obj(vec![("time", Json::num(1.0)), ("comm", Json::num(1.0))]),
        );
    }
    let r = svc.handle(&tight);
    let r = expect_result(&r);
    assert_eq!(
        r.get("bound")
            .unwrap()
            .get("holds")
            .and_then(|b| b.as_bool()),
        Some(false),
        "1 tick / 1 comm cannot hold: {}",
        r.dump()
    );
}

#[test]
fn batches_preserve_order_and_isolate_errors() {
    let mut svc = caching_service();
    let good = |id: &str| {
        Json::obj(vec![
            ("id", Json::str(id)),
            ("graph", graph_json()),
            ("stack", stack_json()),
            (
                "run",
                Json::obj(vec![
                    ("mode", Json::str("model")),
                    ("delay", Json::str("eager")),
                ]),
            ),
        ])
    };
    let bad = Json::obj(vec![
        ("id", Json::str("broken")),
        ("graph", Json::obj(vec![("family", Json::str("torus"))])),
        ("stack", stack_json()),
        (
            "run",
            Json::obj(vec![
                ("mode", Json::str("model")),
                ("delay", Json::str("eager")),
            ]),
        ),
    ]);
    let batch = Json::obj(vec![
        ("type", Json::str("batch")),
        ("scenarios", Json::Arr(vec![good("a"), bad, good("b")])),
    ]);
    let rs = svc.handle(&batch);
    assert_eq!(rs.len(), 3);
    assert_eq!(rs[0].get("id").and_then(Json::as_str), Some("a"));
    assert_eq!(rs[0].get("type").and_then(Json::as_str), Some("result"));
    assert_eq!(rs[1].get("id").and_then(Json::as_str), Some("broken"));
    assert_eq!(rs[1].get("type").and_then(Json::as_str), Some("error"));
    assert_eq!(rs[2].get("id").and_then(Json::as_str), Some("b"));
    assert_eq!(rs[2].get("type").and_then(Json::as_str), Some("result"));
    // Identical scenarios in one batch: first in wins the cache, the
    // duplicate is answered consistently (either outcome, same report).
    assert_eq!(
        rs[0].get("report").unwrap().dump(),
        rs[2].get("report").unwrap().dump()
    );
}

/// A model-mode flood `submit` on the graph `graph` spells out.
fn submit_on(graph: &str) -> Json {
    let graph = Json::parse(graph).expect("test graphs are JSON");
    let mut request = submit(
        "hostile-graph",
        Json::obj(vec![("mode", Json::str("model"))]),
    );
    if let Json::Obj(ref mut m) = request {
        m.insert("graph".to_string(), graph);
        let flood = Json::obj(vec![("protocol", Json::str("flood"))]);
        m.insert("stack".to_string(), flood);
    }
    request
}

#[test]
fn hostile_requests_are_rejected_not_crashed() {
    let mut svc = caching_service();
    let mut cases = vec![
        Json::obj(vec![("type", Json::str("noop"))]),
        Json::obj(vec![("nope", Json::num(1.0))]),
        Json::obj(vec![("type", Json::str("submit")), ("graph", graph_json())]),
        submit(
            "root-oob",
            Json::obj(vec![
                ("mode", Json::str("model")),
                ("delay", Json::str("eager")),
            ]),
        ),
        // Graph specs the generators assert on: `GraphSpec::build` runs
        // on the service thread, where a panic ends the session.
        submit_on(r#"{"family":"cycle","n":2}"#),
        submit_on(r#"{"family":"path","n":3,"w":0}"#),
        submit_on(r#"{"family":"cycle","n":8,"w":0}"#),
        submit_on(r#"{"family":"gnp","n":4,"p":7.5}"#),
        submit_on(r#"{"family":"gnp","n":4,"p":-1}"#),
        submit_on(r#"{"family":"cluster","clusters":4294967296,"size":4294967296}"#),
        // Weights the generators would silently raise or swap.
        submit_on(r#"{"family":"gnp","n":4,"p":0.5,"w_min":0}"#),
        submit_on(r#"{"family":"gnp","n":4,"p":0.5,"w_min":5,"w_max":2}"#),
        submit_on(r#"{"family":"cluster","clusters":2,"size":3,"heavy":0}"#),
    ];
    // Patch the fourth case's stack root out of range.
    if let Json::Obj(ref mut m) = cases[3] {
        m.insert(
            "stack".to_string(),
            Json::obj(vec![
                ("protocol", Json::str("flood")),
                ("root", Json::num(99.0)),
            ]),
        );
    }
    // Once as parsed trees, once as the lines the binary reads.
    for by_line in [false, true] {
        for case in &cases {
            let rs = if by_line {
                svc.handle_line(case.dump().as_bytes())
                    .expect("not a shutdown")
            } else {
                svc.handle(case)
            };
            assert_eq!(rs.len(), 1, "one error per bad request");
            assert_eq!(
                rs[0].get("type").and_then(Json::as_str),
                Some("error"),
                "expected rejection of {}",
                case.dump()
            );
            assert_still_serving(&mut svc);
        }
    }
    let stats = svc.handle(&Json::obj(vec![("type", Json::str("stats"))]));
    assert_eq!(
        stats[0]
            .get("stats")
            .unwrap()
            .get("rejected")
            .and_then(Json::as_u64),
        Some(2 * cases.len() as u64)
    );
}

/// A drift to weight 2⁶³ − 1 is a well-formed plan, and under worst-case
/// delays the second message over that edge overflows the simulated
/// clock: a panic inside the evaluation, which must cost that scenario
/// its answer and nobody else theirs.
#[test]
fn a_panicking_evaluation_is_that_scenarios_error_only() {
    let cycle6 = || Json::obj(vec![("family", Json::str("cycle")), ("n", Json::num(6.0))]);
    let scenario = |id: &str, run: Json| {
        Json::obj(vec![
            ("id", Json::str(id)),
            ("graph", cycle6()),
            ("stack", stack_json()),
            ("run", run),
        ])
    };
    let overflow = "csp-adversary-schedule v3\nfallback worst-case\nw 0 1 9223372036854775807\n";
    assert!(
        Schedule::from_text(overflow).is_ok(),
        "the plan is well-formed"
    );
    let model = || Json::obj(vec![("mode", Json::str("model"))]);
    let poisoned = || {
        Json::obj(vec![
            ("mode", Json::str("schedule")),
            ("schedule", Json::str(overflow)),
        ])
    };
    for threads in [1, 2] {
        let mut svc = Service::new(ServiceConfig {
            threads,
            ..ServiceConfig::default()
        });
        let batch = Json::obj(vec![
            ("type", Json::str("batch")),
            (
                "scenarios",
                Json::Arr(vec![
                    scenario("healthy", model()),
                    scenario("poisoned", poisoned()),
                ]),
            ),
        ]);
        let rs = svc.handle(&batch);
        assert_eq!(rs.len(), 2, "threads={threads}");
        assert_eq!(rs[0].get("id").and_then(Json::as_str), Some("healthy"));
        assert_eq!(rs[0].get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(rs[1].get("id").and_then(Json::as_str), Some("poisoned"));
        assert_eq!(rs[1].get("type").and_then(Json::as_str), Some("error"));
        let error = rs[1].get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("simulated time overflow"), "{error:?}");
        // Alone, and by the line entry (which retains the text): the same.
        let mut alone = scenario("poisoned-again", poisoned());
        if let Json::Obj(ref mut m) = alone {
            m.insert("type".to_string(), Json::str("submit"));
        }
        for _ in 0..2 {
            let rs = svc.handle_line(alone.dump().as_bytes()).unwrap();
            assert_eq!(rs.len(), 1);
            assert_eq!(rs[0].get("type").and_then(Json::as_str), Some("error"));
        }
        // Counted as rejected, nothing stored for it, still serving.
        let stats = svc.handle(&Json::obj(vec![("type", Json::str("stats"))]));
        let stats = stats[0].get("stats").unwrap();
        assert_eq!(stats.get("rejected").and_then(Json::as_u64), Some(3));
        assert_eq!(stats.get("cache_misses").and_then(Json::as_u64), Some(1));
        // The healthy run's two: under its recorded schedule and its mode key.
        assert_eq!(stats.get("results_stored").and_then(Json::as_u64), Some(2));
    }
}

/// A `submit` of `text` as the schedule of a flood on a 4-vertex path
/// (vertices 0..=3, edges 0..=2).
fn submit_on_path4(id: &str, text: &str) -> Json {
    Json::obj(vec![
        ("type", Json::str("submit")),
        ("id", Json::str(id)),
        (
            "graph",
            Json::obj(vec![("family", Json::str("path")), ("n", Json::num(4.0))]),
        ),
        ("stack", Json::obj(vec![("protocol", Json::str("flood"))])),
        (
            "run",
            Json::obj(vec![
                ("mode", Json::str("schedule")),
                ("schedule", Json::str(text)),
            ]),
        ),
    ])
}

fn assert_still_serving(svc: &mut Service) {
    let stats = svc.handle(&Json::obj(vec![("type", Json::str("stats"))]));
    assert_eq!(stats[0].get("type").and_then(Json::as_str), Some("stats"));
}

#[test]
fn ids_beyond_the_id_space_are_a_parse_error_not_a_panic() {
    // `EdgeId::new` / `NodeId::new` assert the u32 id space; a submitted
    // id must be turned away before it gets there.
    let mut svc = caching_service();
    for (line, body) in [
        (3, "d 0 99999999999 0 4 4"),
        (3, "c 99999999999 3"),
        (4, "c 1 3\nr 4294967295 9"),
        (3, "w 4294967295 3 2"),
    ] {
        let text = format!("csp-adversary-schedule v3\nfallback rush\n{body}\n");
        let rs = svc.handle(&submit_on_path4("big", &text));
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].get("type").and_then(Json::as_str), Some("error"));
        let error = rs[0].get("error").and_then(Json::as_str).unwrap();
        assert!(
            error.contains(&format!("line {line}")) && error.contains("exceeds the id space"),
            "{body:?} gave {error:?}"
        );
        assert_still_serving(&mut svc);
    }
}

/// One rule-set, three doors. Each malformed plan is run into the
/// kernel (which panics), written as text for the parser (a
/// `ParseError` where the text alone shows the fault — the parser knows
/// no graph and groups a vertex's lines into one chain), and submitted
/// to the service on a 4-vertex path (an error response, the session
/// carrying on): all three give [`FaultPlan::check`]'s verdict in its
/// words.
#[test]
fn a_malformed_plan_gets_one_verdict_from_kernel_parser_and_service() {
    let t = SimTime::new;
    let chain = |v: usize, times: &[u64]| (NodeId::new(v), times.iter().map(|&x| t(x)).collect());
    let churn = |chains: Vec<(NodeId, Vec<SimTime>)>| FaultPlan {
        churn: chains,
        drift: Vec::new(),
    };
    let revise = |e: usize| FaultPlan {
        churn: Vec::new(),
        drift: vec![(EdgeId::new(e), t(3), Weight::new(2))],
    };
    // (plan, verdict or None for a plan that fits, its text, whether
    // the text alone is already a parse error)
    let table: Vec<(FaultPlan, Option<&str>, Option<&str>, bool)> = vec![
        (
            churn(vec![chain(3, &[3, 9])]),
            None,
            Some("c 3 3\nr 3 9"),
            false,
        ),
        (revise(2), None, Some("w 2 3 2"), false),
        (
            churn(vec![chain(1, &[5, 5])]),
            Some("churn chain for v1 must be strictly increasing"),
            Some("c 1 5\nr 1 5"),
            true,
        ),
        (
            // Text orders a vertex's lines by time, so it cannot say
            // "9 then 3"; nor can it give a vertex two chains.
            churn(vec![chain(1, &[9, 3])]),
            Some("churn chain for v1 must be strictly increasing"),
            None,
            false,
        ),
        (
            churn(vec![chain(1, &[3]), chain(1, &[5, 8])]),
            Some("v1 has two churn chains"),
            None,
            false,
        ),
        (
            churn(vec![chain(4, &[3])]),
            Some("churn chain names v4, but the graph has 4 vertices"),
            Some("c 4 3"),
            false,
        ),
        (
            churn(vec![chain(4, &[3, 9])]),
            Some("churn chain names v4, but the graph has 4 vertices"),
            Some("c 4 3\nr 4 9"),
            false,
        ),
        (
            revise(3),
            Some("drift revision names e3, but the graph has 3 edges"),
            Some("w 3 3 2"),
            false,
        ),
    ];
    let g = generators::path(4, |_| 1);
    let mut svc = caching_service();
    for (plan, verdict, body, unparseable) in table {
        assert_eq!(
            plan.check(g.node_count(), g.edge_count())
                .err()
                .map(|e| e.to_string()),
            verdict.map(str::to_string),
            "{plan:?}"
        );
        // Door one: the kernel's intake.
        let run = std::panic::catch_unwind(|| {
            let inner = ModelOracle::new(DelayModel::WorstCase, 0);
            let mut oracle = ChurnOracle::new(inner, plan.churn.clone(), plan.drift.clone());
            let flood = |v, _: &_| csp_algo::flood::Flood::new(v == NodeId::new(0));
            Simulator::new(&g)
                .run_with_oracle(&mut oracle, flood)
                .is_ok()
        });
        match verdict {
            None => assert!(run.unwrap(), "{plan:?} runs"),
            Some(verdict) => {
                let panic = run.expect_err("a malformed plan must not run");
                assert_eq!(panic.downcast_ref::<String>().unwrap(), verdict);
            }
        }
        let Some(body) = body else { continue };
        let text = format!("csp-adversary-schedule v3\nfallback rush\n{body}\n");
        // Door two: the parser.
        match (Schedule::from_text(&text), unparseable) {
            (Ok(parsed), false) => assert_eq!(parsed.plan, plan, "{body:?}"),
            (Err(e), true) => assert_eq!(e.msg, verdict.unwrap(), "{body:?}"),
            (other, _) => panic!("{body:?} parsed to {other:?}"),
        }
        // Door three: the service, which outlives every verdict.
        let rs = svc.handle(&submit_on_path4("plan", &text));
        assert_eq!(rs.len(), 1);
        let kind = rs[0].get("type").and_then(Json::as_str).unwrap();
        match verdict {
            None => assert_eq!(kind, "result", "{body:?} fits: {}", rs[0].dump()),
            Some(verdict) => {
                assert_eq!(kind, "error", "{body:?} does not fit");
                let error = rs[0].get("error").and_then(Json::as_str).unwrap();
                assert!(
                    error.starts_with("bad schedule: ") && error.ends_with(verdict),
                    "{body:?} gave {error:?}"
                );
            }
        }
        assert_still_serving(&mut svc);
    }
}

/// Runs the `csp-serve` binary over `input` until it exits on its own,
/// returning the lines it wrote.
fn binary_session(input: &[u8]) -> Vec<Json> {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_csp-serve"));
    child.args(["--threads", "1"]);
    session_of(child, input)
}

/// [`binary_session`] with the child's address space capped at
/// `kib` KiB (`ulimit -v`), so an allocation past it aborts the child.
fn capped_binary_session(kib: u64, input: &[u8]) -> Vec<Json> {
    let mut child = std::process::Command::new("sh");
    child.args([
        "-c",
        &format!(r#"ulimit -v {kib}; exec "$0" "$@""#),
        env!("CARGO_BIN_EXE_csp-serve"),
        "--threads",
        "1",
    ]);
    session_of(child, input)
}

fn session_of(mut command: std::process::Command, input: &[u8]) -> Vec<Json> {
    use std::io::{BufRead, BufReader, Write};
    use std::process::Stdio;
    let mut child = command
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("csp-serve starts");
    // A session's input fits the pipe's buffer, so it is written whole
    // before anything is read; the child may be gone before the end of
    // what follows a `shutdown`.
    let _ = child.stdin.take().unwrap().write_all(input);
    let lines = BufReader::new(child.stdout.take().unwrap())
        .lines()
        .map(|l| Json::parse(&l.unwrap()).expect("a response is JSON"))
        .collect();
    assert!(child.wait().unwrap().success());
    lines
}

#[test]
fn the_binary_answers_a_non_utf8_line_and_keeps_serving() {
    // EOF, not `shutdown`: the loop must end on its own.
    let lines = binary_session(
        b"{\"type\":\"stats\",\"id\":\"before\"}\n\xff\xfe not text\n\n{\"type\":\"stats\",\"id\":\"after\"}\n",
    );
    assert_eq!(
        lines.len(),
        3,
        "good, bad, good — the blank line is skipped"
    );
    assert_eq!(lines[0].get("id").and_then(Json::as_str), Some("before"));
    assert_eq!(lines[1].get("type").and_then(Json::as_str), Some("error"));
    assert_eq!(
        lines[1].get("error").and_then(Json::as_str),
        Some("request is not valid UTF-8")
    );
    assert_eq!(lines[2].get("id").and_then(Json::as_str), Some("after"));
    assert_eq!(
        lines[2]
            .get("stats")
            .and_then(|s| s.get("rejected"))
            .and_then(Json::as_u64),
        Some(1)
    );

    // A base schedule and one tail variant — which must resume the run
    // *and* copy the parsed prefix — then the counters both left behind,
    // and a `shutdown` that is acknowledged and obeyed.
    let base = fault_schedule();
    let mut variant = base.clone();
    let last = variant.decisions.last_mut().unwrap();
    last.delay = if last.delay == 1 { last.weight } else { 1 };
    let mut input = Vec::new();
    for request in [
        submit("base", schedule_run(&base)),
        submit("variant", schedule_run(&variant)),
        Json::obj(vec![("type", Json::str("stats"))]),
        Json::obj(vec![("type", Json::str("shutdown"))]),
        Json::obj(vec![
            ("type", Json::str("stats")),
            ("id", Json::str("late")),
        ]),
    ] {
        input.extend_from_slice(request.dump().as_bytes());
        input.push(b'\n');
    }
    let lines = binary_session(&input);
    assert_eq!(lines.len(), 4, "nothing is answered after shutdown");
    let num = |r: &Json, key: &str| r.get(key).and_then(Json::as_u64).unwrap();
    let (base_r, variant_r, stats) = (&lines[0], &lines[1], lines[2].get("stats").unwrap());
    assert_eq!(cache_of(base_r), "miss");
    assert_eq!(num(base_r, "ingest_reused"), 0);
    assert_eq!(num(base_r, "ingest_parsed"), base.len() as u64);
    assert_eq!(cache_of(variant_r), "incremental", "{}", variant_r.dump());
    assert!(num(variant_r, "depth") > 0);
    assert!(num(variant_r, "ingest_reused") > 0, "{}", variant_r.dump());
    assert!(num(variant_r, "ingest_parsed") <= 2, "{}", variant_r.dump());
    assert_eq!(num(stats, "submitted"), 2);
    assert_eq!(num(stats, "rejected"), 0);
    assert_eq!(num(stats, "cache_misses"), 1);
    assert_eq!(num(stats, "cache_incremental_hits"), 1);
    assert_eq!(num(stats, "cache_full_hits"), 0);
    assert!(num(stats, "checkpoints_stored") > 0);
    assert_eq!(num(stats, "results_stored"), 2);
    assert_eq!(num(stats, "ingest_reused"), num(variant_r, "ingest_reused"));
    assert_eq!(
        lines[3].dump(),
        r#"{"ok":true,"type":"shutdown"}"#,
        "the acknowledgement"
    );
}

#[test]
fn the_binary_answers_a_large_fresh_model_run_in_a_capped_address_space() {
    // One fresh single-strip SPT_recur request on gnp(1000, 0.01): about
    // 62 000 messages, so about 3 900 checkpoints at the default
    // `--checkpoint-every 16`. One deep clone of the machine each would
    // need several GiB, past the cap, and the child would abort (exit
    // 134); sharing what did not change between them needs a few
    // hundred MiB.
    let request = Json::obj(vec![
        ("type", Json::str("submit")),
        ("id", Json::str("large")),
        (
            "graph",
            Json::parse(r#"{"family":"gnp","n":1000,"p":0.01,"w_min":2,"w_max":9,"seed":7}"#)
                .unwrap(),
        ),
        (
            "stack",
            Json::parse(r#"{"protocol":"spt_recur","root":0,"delta":0}"#).unwrap(),
        ),
        (
            "run",
            Json::parse(r#"{"mode":"model","delay":"uniform","seed":42}"#).unwrap(),
        ),
    ]);
    let input = format!("{}\n", request.dump());
    let lines = capped_binary_session(3_000_000, input.as_bytes());
    assert_eq!(lines.len(), 1);
    let r = &lines[0];
    assert_eq!(
        r.get("status").and_then(Json::as_str),
        Some("ok"),
        "{}",
        r.dump()
    );
    assert_eq!(cache_of(r), "miss");
    let messages = r.get("report").and_then(|r| r.get("messages"));
    assert!(messages.and_then(Json::as_u64).unwrap() > 60_000);
}
