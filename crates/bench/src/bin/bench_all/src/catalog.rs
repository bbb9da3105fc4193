//! The ledger's vocabulary: every workload and metric by name, with its
//! unit, direction and (end to end) regression bound. `BENCHMARK.json`
//! at the repository root states the same catalogue for the driver; a
//! unit test keeps the two in step. README.md says why each exists.

/// One benchmark workload and the one-line reason it exists.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

/// One metric of the ledger.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Relative worsening of the median that counts as a regression
    /// (end-to-end metrics only; per-layer metrics carry `0.0`).
    pub bound: f64,
    /// Workloads that measure it; every other workload reports `0`
    /// ("layer not exercised here").
    pub workloads: &'static [&'static str],
}

pub const SIM_HOT: &str = "sim_hot";
pub const SIM_LARGE: &str = "sim_large";
pub const SIM_FAULTS: &str = "sim_faults";
pub const ADV_SEARCH: &str = "adv_search";
pub const ADV_EXHAUSTIVE: &str = "adv_exhaustive";
pub const SERVE_RESUBMIT: &str = "serve_resubmit";
pub const SERVE_FRESH: &str = "serve_fresh";

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: SIM_HOT,
        why: "GHS on the three cache-resident fig3 graphs: handler, dispatch and queue ops are all the time, memory none of it",
    },
    WorkloadDef {
        name: SIM_LARGE,
        why: "Flood on a streamed 300k-vertex gnp graph: memory-bound events, where slab, stride, CSR and bucket-window changes show",
    },
    WorkloadDef {
        name: SIM_FAULTS,
        why: "Detect<Resilient> SPT under drops, crash-rejoin chains and weight drift: timers and the three-deep oracle chain, not plain sends",
    },
    WorkloadDef {
        name: ADV_SEARCH,
        why: "whole find_worst_schedule calls on the committed SPT_recur witnesses plus gnp-n64: pool, checkpoints, mutation and 2-worker fan-out",
    },
    WorkloadDef {
        name: ADV_EXHAUSTIVE,
        why: "whole explore_exhaustive calls on the gnp-n8 flood cube: trace recording, class signatures and sleep sets; explorer bookkeeping is the cost",
    },
    WorkloadDef {
        name: SERVE_RESUBMIT,
        why: "never-seen tail variants of one 21k-decision schedule through the csp-serve binary: every request resumes incrementally, so the prefix cache is used",
    },
    WorkloadDef {
        name: SERVE_FRESH,
        why: "distinct model-mode scenarios through the csp-serve binary: every request misses, so prefix sharing and schedule parsing are bypassed",
    },
];

const ALL: &[&str] = &[
    SIM_HOT,
    SIM_LARGE,
    SIM_FAULTS,
    ADV_SEARCH,
    ADV_EXHAUSTIVE,
    SERVE_RESUBMIT,
    SERVE_FRESH,
];
const SIMS: &[&str] = &[SIM_HOT, SIM_LARGE, SIM_FAULTS];
const SERVES: &[&str] = &[SERVE_RESUBMIT, SERVE_FRESH];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        workloads: ALL,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    workloads: &'static [&'static str],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        workloads,
    }
}

/// End-to-end metrics; every workload reports every one of them.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("work_per_s", "1/s", "higher", 0.20),
    e2e("latency_ms_p50", "ms", "lower", 0.20),
    e2e("latency_ms_p90", "ms", "lower", 0.20),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
];

/// Per-layer metrics, measured from outside in the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    layer("graph.gen_s", "s", "lower", &[SIM_LARGE]),
    layer("graph.bytes_per_vertex", "B", "lower", &[SIM_LARGE]),
    layer("graph.shard_plan_s", "s", "lower", &[SIM_LARGE]),
    layer("graph.min_cut_weight", "count", "higher", &[SIM_LARGE]),
    layer("sim.queue.bucket_ns_per_op", "ns", "lower", SIMS),
    layer("sim.queue.heap_ns_per_op", "ns", "lower", SIMS),
    layer("sim.queue.overflow_pushes", "count", "lower", SIMS),
    layer("sim.queue.bucket_window", "count", "lower", SIMS),
    layer("sim.runtime.ns_per_event", "ns", "lower", SIMS),
    layer("sim.runtime.heap_core_ratio", "ratio", "higher", SIMS),
    layer("sim.runtime.baseline_ratio", "ratio", "higher", &[SIM_HOT]),
    layer("sim.runtime.trace_capture_ratio", "ratio", "lower", SIMS),
    layer(
        "sim.runtime.checkpoint_ratio",
        "ratio",
        "lower",
        &[ADV_SEARCH],
    ),
    layer("sim.runtime.restore_us", "us", "lower", &[ADV_SEARCH]),
    layer("sim.delay.model_ns", "ns", "lower", &[SIM_HOT]),
    layer("sim.delay.drop_ns", "ns", "lower", &[SIM_FAULTS]),
    layer("sim.delay.churn_ns", "ns", "lower", &[SIM_FAULTS]),
    layer("sim.delay.schedule_ns", "ns", "lower", &[ADV_SEARCH]),
    layer("sim.delay.recorder_ratio", "ratio", "lower", &[ADV_SEARCH]),
    layer("sim.detect.aux_msg_share", "ratio", "lower", &[SIM_FAULTS]),
    layer("sim.detect.drops", "count", "lower", &[SIM_FAULTS]),
    layer("sim.detect.recoveries", "count", "lower", &[SIM_FAULTS]),
    layer("sim.shard.events_per_s_k2", "1/s", "higher", &[SIM_LARGE]),
    layer("sim.shard.speedup_k2", "ratio", "higher", &[SIM_LARGE]),
    layer("sim.sync.events_per_s", "1/s", "higher", &[SIM_HOT]),
    layer("sim.sweep.par_efficiency", "ratio", "higher", &[ADV_SEARCH]),
    layer("algo.ghs_ns_per_event", "ns", "lower", &[SIM_HOT]),
    layer("algo.flood_ns_per_event", "ns", "lower", &[SIM_HOT]),
    layer(
        "adversary.schedule.parse_us_per_kdec",
        "us",
        "lower",
        &[SERVE_RESUBMIT],
    ),
    layer(
        "adversary.schedule.dump_us_per_kdec",
        "us",
        "lower",
        &[SERVE_RESUBMIT],
    ),
    layer(
        "adversary.schedule.prefix_hash_ns_per_dec",
        "ns",
        "lower",
        &[SERVE_RESUBMIT],
    ),
    layer("adversary.search.mutate_us", "us", "lower", &[ADV_SEARCH]),
    layer(
        "adversary.search.cold_eval_us",
        "us",
        "lower",
        &[ADV_SEARCH],
    ),
    layer(
        "adversary.search.resumed_eval_us",
        "us",
        "lower",
        &[ADV_SEARCH],
    ),
    layer(
        "adversary.search.evals_per_call",
        "count",
        "lower",
        &[ADV_SEARCH],
    ),
    layer(
        "adversary.search.best_time",
        "count",
        "higher",
        &[ADV_SEARCH],
    ),
    layer(
        "adversary.trace.record_us",
        "us",
        "lower",
        &[ADV_EXHAUSTIVE],
    ),
    layer(
        "adversary.trace.signature_us",
        "us",
        "lower",
        &[ADV_EXHAUSTIVE],
    ),
    layer(
        "adversary.trace.classes",
        "count",
        "higher",
        &[ADV_EXHAUSTIVE],
    ),
    layer(
        "adversary.trace.pruned",
        "count",
        "higher",
        &[ADV_EXHAUSTIVE],
    ),
    layer(
        "adversary.trace.useful_ratio",
        "ratio",
        "higher",
        &[ADV_EXHAUSTIVE],
    ),
    layer("adversary.refute.shrink_ms", "ms", "lower", &[ADV_SEARCH]),
    layer("serve.json.parse_us", "us", "lower", SERVES),
    layer("serve.json.dump_us", "us", "lower", SERVES),
    layer("serve.scenario.from_json_us", "us", "lower", SERVES),
    layer("serve.cache.probe_us", "us", "lower", &[SERVE_RESUBMIT]),
    layer("serve.cache.insert_us", "us", "lower", SERVES),
    layer("serve.cache.incremental_share", "ratio", "higher", SERVES),
    layer("serve.cache.miss_share", "ratio", "lower", SERVES),
    layer("serve.cache.mean_resume_depth", "count", "higher", SERVES),
    layer("serve.cache.evictions", "1/req", "lower", SERVES),
    layer("serve.service.exec_us_p50", "us", "lower", SERVES),
    layer("serve.service.queue_wait_us_p50", "us", "lower", SERVES),
    layer(
        "serve.service.full_hit_ms_p50",
        "ms",
        "lower",
        &[SERVE_RESUBMIT],
    ),
    layer("serve.transport.residual_ms_p50", "ms", "lower", SERVES),
    layer("serve.latency_ms_p99", "ms", "lower", SERVES),
    layer("trace_overhead_share", "ratio", "lower", ALL),
];

/// What one unit of `work_per_s` is on `workload`.
pub fn work_unit(workload: &str) -> &'static str {
    match workload {
        SIM_HOT | SIM_LARGE | SIM_FAULTS => "events",
        ADV_SEARCH | ADV_EXHAUSTIVE => "evals",
        _ => "req",
    }
}
