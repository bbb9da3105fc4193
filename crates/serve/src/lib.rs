#![forbid(unsafe_code)]

//! `csp-serve`: a long-running scenario-evaluation service for the
//! cost-sensitive protocol workbench.
//!
//! The service accepts scenario submissions — a graph spec, a protocol
//! stack, a run mode (explicit adversary schedule, delay model, or
//! worst-case search budget), and an optional bound to check — over a
//! line-delimited JSON protocol on stdin/stdout (no network
//! dependencies; it builds and runs fully offline). Scenarios fan out
//! over a worker pool built on [`csp_sim::sweep`]'s threading, and
//! results come back as structured cost reports or bound refutations.
//!
//! The performance core is a **prefix-sharing result cache**: every
//! evaluated schedule leaves a trail of simulator checkpoints keyed by
//! `(graph key, stack key, schedule-prefix hash)`. A resubmitted
//! scenario whose schedule shares a prefix with anything previously
//! evaluated resumes from the deepest matching checkpoint
//! (INCREMENTAL) instead of replaying from scratch; an exact match
//! returns the stored result (FULL). Resumed runs are bit-identical to
//! cold runs — costs, traces, and fault meters — which the crate's
//! differential tests pin. The sharing starts at the request bytes: a
//! resubmitted schedule is compared with the text retained for its
//! scenario key, and only what follows the first difference is parsed
//! and hashed.
//!
//! Modules:
//! - [`json`] — dependency-free JSON parsing/serialisation.
//! - [`scenario`] — wire-format scenario specs and validation.
//! - [`cache`] — the prefix-sharing checkpoint/result cache.
//! - [`service`] — the batch engine: probe, fan out, fold back.
//! - [`metrics`] — per-scenario and per-worker observability.

pub mod cache;
pub mod json;
pub mod metrics;
pub mod scenario;
pub mod service;

pub use cache::{CacheCaps, IngestError, Ingested, Probe, StackCache, StoredResult};
pub use json::{Json, JsonError};
pub use metrics::{CacheOutcome, ServeMetrics, WorkerMetrics};
pub use scenario::{Bound, GraphSpec, RunMode, Scenario, SpecError, StackSpec};
pub use service::{Service, ServiceConfig};
