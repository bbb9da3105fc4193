//! Service observability: per-scenario and per-worker counters.
//!
//! Counters accumulate in plain structs on the service thread (workers
//! report per-scenario measurements back with their results, so no
//! atomics or locks sit on the hot path) and export two ways: the
//! `stats` request type returns a snapshot as a JSON object, and with
//! `--metrics` the binary emits one JSON line per batch on stderr —
//! pollable by anything that reads line-delimited JSON.

use crate::json::Json;
use csp_sim::CostReport;
use std::time::Duration;

/// How one scenario was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Stored result returned, nothing replayed.
    Full,
    /// Resumed from a checkpoint at some depth.
    Incremental,
    /// Cold evaluation.
    Miss,
    /// Modes that bypass the cache (e.g. cache disabled).
    Uncached,
}

impl CacheOutcome {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            CacheOutcome::Full => "full",
            CacheOutcome::Incremental => "incremental",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Uncached => "uncached",
        }
    }
}

/// One worker's accumulated meters (index = worker slot in the pool).
#[derive(Clone, Debug, Default)]
pub struct WorkerMetrics {
    /// Scenarios this worker evaluated.
    pub evals: u64,
    /// Messages metered across those evaluations.
    pub messages: u64,
    /// Wall-clock time spent evaluating.
    pub busy: Duration,
}

impl WorkerMetrics {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("evals", Json::num(self.evals as f64)),
            ("messages", Json::num(self.messages as f64)),
            ("busy_us", Json::num(self.busy.as_micros() as f64)),
            ("msgs_per_sec", Json::num(rate(self.messages, self.busy))),
        ])
    }
}

/// Service-wide meters.
#[derive(Clone, Debug, Default)]
pub struct ServeMetrics {
    /// Submissions accepted (parse errors excluded).
    pub submitted: u64,
    /// Submissions answered with an `error`: refused at parse/validation
    /// time, or accepted and failed in evaluation (a panic included).
    pub rejected: u64,
    /// Batches processed.
    pub batches: u64,
    /// FULL cache hits.
    pub cache_full_hits: u64,
    /// INCREMENTAL cache hits (checkpoint resumes).
    pub cache_incremental_hits: u64,
    /// Cold evaluations.
    pub cache_misses: u64,
    /// Sum of checkpoint depths used by incremental hits (messages
    /// skipped); divided by hits gives mean depth.
    pub checkpoint_depth_sum: u64,
    /// Checkpoints currently stored, updated after each batch.
    pub checkpoints_stored: u64,
    /// Exact results currently stored, updated after each batch.
    pub results_stored: u64,
    /// Cache evictions.
    pub evictions: u64,
    /// Total wall-clock spent inside worker evaluations.
    pub exec: Duration,
    /// Total time scenarios waited between acceptance and execution.
    pub queue_wait: Duration,
    /// Total time from a request's arrival to each of its scenarios
    /// being parsed and probed against the cache (the probe is also
    /// inside `queue_wait`).
    pub ingest: Duration,
    /// Schedule decisions copied from a retained text instead of parsed.
    pub ingest_reused: u64,
    /// Schedule decisions parsed from request bytes.
    pub ingest_parsed: u64,
    /// Messages metered across all evaluations.
    pub messages: u64,
    /// Aggregated fault meters across all evaluated scenarios.
    pub drops: u64,
    /// Crashed vertices across all evaluated scenarios.
    pub crashed_nodes: u64,
    /// Crash-consumed events across all evaluated scenarios.
    pub dead_events: u64,
    /// Rejoins of crashed vertices across all evaluated scenarios.
    pub recoveries: u64,
    /// Mid-run edge-weight revisions across all evaluated scenarios.
    pub weight_revisions: u64,
    /// Per-worker breakdown.
    pub workers: Vec<WorkerMetrics>,
}

impl ServeMetrics {
    /// Creates meters for a pool of `threads` workers.
    pub fn new(threads: usize) -> Self {
        ServeMetrics {
            workers: vec![WorkerMetrics::default(); threads],
            ..ServeMetrics::default()
        }
    }

    /// Records one completed scenario.
    pub fn record_scenario(
        &mut self,
        outcome: CacheOutcome,
        depth: u64,
        report: &CostReport,
        exec: Duration,
        queue_wait: Duration,
        worker: usize,
    ) {
        match outcome {
            CacheOutcome::Full => self.cache_full_hits += 1,
            CacheOutcome::Incremental => {
                self.cache_incremental_hits += 1;
                self.checkpoint_depth_sum += depth;
            }
            CacheOutcome::Miss => self.cache_misses += 1,
            CacheOutcome::Uncached => {}
        }
        self.exec += exec;
        self.queue_wait += queue_wait;
        self.messages += report.messages;
        self.drops += report.drops;
        self.crashed_nodes += report.crashed_nodes;
        self.dead_events += report.dead_events;
        self.recoveries += report.recoveries;
        self.weight_revisions += report.weight_revisions;
        if let Some(w) = self.workers.get_mut(worker) {
            w.evals += 1;
            w.messages += report.messages;
            w.busy += exec;
        }
    }

    /// Snapshot as a JSON object (the `stats` response body and the
    /// per-batch stderr metrics line share this shape).
    pub fn to_json(&self) -> Json {
        let hits = self.cache_incremental_hits.max(1);
        Json::obj(vec![
            ("submitted", Json::num(self.submitted as f64)),
            ("rejected", Json::num(self.rejected as f64)),
            ("batches", Json::num(self.batches as f64)),
            ("cache_full_hits", Json::num(self.cache_full_hits as f64)),
            (
                "cache_incremental_hits",
                Json::num(self.cache_incremental_hits as f64),
            ),
            ("cache_misses", Json::num(self.cache_misses as f64)),
            (
                "mean_checkpoint_depth",
                Json::num(if self.cache_incremental_hits == 0 {
                    0.0
                } else {
                    self.checkpoint_depth_sum as f64 / hits as f64
                }),
            ),
            (
                "checkpoints_stored",
                Json::num(self.checkpoints_stored as f64),
            ),
            ("results_stored", Json::num(self.results_stored as f64)),
            ("evictions", Json::num(self.evictions as f64)),
            ("exec_us", Json::num(self.exec.as_micros() as f64)),
            (
                "queue_wait_us",
                Json::num(self.queue_wait.as_micros() as f64),
            ),
            ("ingest_us", Json::num(self.ingest.as_micros() as f64)),
            ("ingest_reused", Json::num(self.ingest_reused as f64)),
            ("ingest_parsed", Json::num(self.ingest_parsed as f64)),
            ("messages", Json::num(self.messages as f64)),
            ("msgs_per_sec", Json::num(rate(self.messages, self.exec))),
            ("drops", Json::num(self.drops as f64)),
            ("crashed_nodes", Json::num(self.crashed_nodes as f64)),
            ("dead_events", Json::num(self.dead_events as f64)),
            ("recoveries", Json::num(self.recoveries as f64)),
            ("weight_revisions", Json::num(self.weight_revisions as f64)),
            (
                "workers",
                Json::Arr(self.workers.iter().map(WorkerMetrics::to_json).collect()),
            ),
        ])
    }
}

fn rate(count: u64, d: Duration) -> f64 {
    let secs = d.as_secs_f64();
    if secs > 0.0 {
        count as f64 / secs
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_recording_routes_to_the_right_counters() {
        let mut m = ServeMetrics::new(2);
        let mut report = CostReport::new(1);
        report.messages = 10;
        report.drops = 2;
        m.record_scenario(
            CacheOutcome::Incremental,
            40,
            &report,
            Duration::from_micros(100),
            Duration::from_micros(7),
            1,
        );
        m.record_scenario(
            CacheOutcome::Miss,
            0,
            &report,
            Duration::from_micros(50),
            Duration::ZERO,
            0,
        );
        assert_eq!(m.cache_incremental_hits, 1);
        assert_eq!(m.cache_misses, 1);
        assert_eq!(m.checkpoint_depth_sum, 40);
        assert_eq!(m.messages, 20);
        assert_eq!(m.drops, 4);
        assert_eq!(m.workers[1].evals, 1);
        assert_eq!(m.workers[0].evals, 1);
        let j = m.to_json();
        assert_eq!(j.get("cache_incremental_hits").unwrap().as_u64(), Some(1));
        assert_eq!(j.get("mean_checkpoint_depth").unwrap().as_f64(), Some(40.0));
        assert_eq!(j.get("workers").unwrap().as_arr().unwrap().len(), 2);
    }
}
