//! Parallel sweep driver: fan a closure over (graph × seed × delay) grids.
//!
//! Experiments in this workspace — the paper-bound checks, the scale
//! suite, the benchmark harness — all share one shape: run the same
//! protocol over a grid of graphs, seeds and delay models, and collect
//! one [`CostReport`] per grid point. [`SweepGrid`] names that shape, and
//! [`par_map`] executes it across threads with `std::thread::scope` (no
//! external dependencies).
//!
//! Every grid point is an independent [`Simulator`](crate::Simulator) run
//! with its own seed, so parallel and sequential execution produce
//! *identical* per-run reports; `threads(1)` is only a scheduling choice,
//! never a semantic one.
//!
//! # Example
//!
//! ```
//! use csp_graph::generators;
//! use csp_sim::{DelayModel, SweepGrid, Simulator, Context, Process};
//! use csp_graph::NodeId;
//!
//! struct Flood { seen: bool }
//! impl Process for Flood {
//!     type Msg = ();
//!     fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
//!         if ctx.self_id() == NodeId::new(0) { self.seen = true; ctx.send_all(()); }
//!     }
//!     fn on_message(&mut self, _f: NodeId, _m: (), ctx: &mut Context<'_, ()>) {
//!         if !self.seen { self.seen = true; ctx.send_all(()); }
//!     }
//! }
//!
//! let ring = generators::cycle(8, |_| 2);
//! let runs = SweepGrid::new()
//!     .graph("ring", &ring)
//!     .seeds(0..4)
//!     .delay(DelayModel::Uniform)
//!     .run(|pt| {
//!         Simulator::new(pt.graph)
//!             .delay(pt.delay)
//!             .seed(pt.seed)
//!             .run(|_, _| Flood { seen: false })
//!             .unwrap()
//!             .cost
//!     });
//! assert_eq!(runs.len(), 4);
//! ```

use crate::cost::CostReport;
use crate::delay::DelayModel;
use crate::time::SimTime;
use csp_graph::{Cost, WeightedGraph};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a requested worker-thread count against the machine:
/// `0` means "auto" (the available parallelism), and any explicit
/// request is capped at the available parallelism — asking for 64
/// workers on a 8-way host gets 8, never 64 idle-fighting threads.
///
/// Both this module's drivers and `csp-adversary`'s search use this, so
/// `threads: 0` means the same thing everywhere.
pub fn effective_threads(requested: usize) -> usize {
    let avail = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    if requested == 0 {
        avail
    } else {
        requested.min(avail)
    }
}

/// Applies `f` to every item on a pool of scoped threads, preserving
/// input order in the output.
///
/// Items are claimed dynamically off a shared atomic cursor, so uneven
/// per-item runtimes balance automatically. Workers are named
/// `csp-worker-{i}`; a panic in `f` is reported with the index of the
/// item being processed and then propagated to the caller after the
/// scope joins. `threads` goes through
/// [`effective_threads`] (`0` = auto, capped at the machine) and is then
/// clamped to `1..=items.len()`; with one thread this degenerates to a
/// plain sequential map with no thread spawned.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(items, threads, || (), move |(), item| f(item))
}

/// [`par_map`] with per-worker scratch state: each worker thread calls
/// `init` once and threads the resulting state through every item it
/// claims — the hook pooled evaluators (e.g.
/// [`EvalPool`](crate::EvalPool)) need to stay allocation-free across a
/// fan-out. Results are still returned in input order, and with one
/// effective thread the single state makes this a sequential fold.
pub fn par_map_with<T, S, R, I, F>(items: &[T], threads: usize, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    // At most one item is a sequential fold whatever the machine has, so
    // settle that before asking it: resolving the available parallelism
    // reads cgroup files (≈ 14 µs a call).
    let threads = if items.len() <= 1 {
        1
    } else {
        effective_threads(threads).min(items.len())
    };
    if threads == 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    let cursor = AtomicUsize::new(0);
    // One slot per worker recording the item it is currently processing,
    // so a propagated panic can say *which* grid point blew up.
    let in_flight: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(usize::MAX)).collect();
    let buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let slot = &in_flight[w];
                let init = &init;
                let f = &f;
                let cursor = &cursor;
                std::thread::Builder::new()
                    .name(format!("csp-worker-{w}"))
                    .spawn_scoped(scope, move || {
                        let mut state = init();
                        let mut done = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(i) else {
                                return done;
                            };
                            slot.store(i, Ordering::Relaxed);
                            done.push((i, f(&mut state, item)));
                        }
                    })
                    .expect("spawning a scoped worker thread cannot fail")
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(w, h)| match h.join() {
                Ok(bucket) => bucket,
                Err(payload) => {
                    let item = in_flight[w].load(Ordering::Relaxed);
                    eprintln!("csp-worker-{w} panicked while processing item {item}");
                    std::panic::resume_unwind(payload)
                }
            })
            .collect()
    });
    let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    for (i, r) in buckets.into_iter().flatten() {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|r| r.expect("cursor covers every index exactly once"))
        .collect()
}

/// One grid point handed to the sweep closure.
#[derive(Clone, Copy, Debug)]
pub struct SweepPoint<'g> {
    /// Index of the graph in declaration order.
    pub graph_index: usize,
    /// The label given to [`SweepGrid::graph`].
    pub graph_label: &'g str,
    /// The graph itself.
    pub graph: &'g WeightedGraph,
    /// The seed for this run.
    pub seed: u64,
    /// The delay model for this run.
    pub delay: DelayModel,
}

/// The closure's [`CostReport`] paired with the grid point it came from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepRun {
    /// Index of the graph in declaration order.
    pub graph_index: usize,
    /// The label given to [`SweepGrid::graph`].
    pub graph_label: String,
    /// The seed of this run.
    pub seed: u64,
    /// The delay model of this run.
    pub delay: DelayModel,
    /// The metered cost the closure returned.
    pub cost: CostReport,
}

/// Builder for a (graph × seed × delay-model) experiment grid.
///
/// Points are enumerated graphs-outermost, then seeds, then delay models
/// — the declaration order of each axis is preserved, and the result
/// vector of [`SweepGrid::run`] follows the same order regardless of how
/// many threads executed it.
#[derive(Clone, Debug)]
pub struct SweepGrid<'g> {
    graphs: Vec<(String, &'g WeightedGraph)>,
    seeds: Vec<u64>,
    delays: Vec<DelayModel>,
    threads: Option<usize>,
}

impl Default for SweepGrid<'_> {
    fn default() -> Self {
        SweepGrid::new()
    }
}

impl<'g> SweepGrid<'g> {
    /// An empty grid with the default delay model and the single seed 0.
    pub fn new() -> Self {
        SweepGrid {
            graphs: Vec::new(),
            seeds: vec![0],
            delays: vec![DelayModel::default()],
            threads: None,
        }
    }
    /// Adds one labelled graph to the grid.
    pub fn graph(mut self, label: impl Into<String>, g: &'g WeightedGraph) -> Self {
        self.graphs.push((label.into(), g));
        self
    }

    /// Replaces the seed axis (default: the single seed 0).
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Replaces the delay axis with a single model (default:
    /// [`DelayModel::WorstCase`]).
    pub fn delay(self, delay: DelayModel) -> Self {
        self.delays([delay])
    }

    /// Replaces the delay axis (default: worst case only).
    pub fn delays(mut self, delays: impl IntoIterator<Item = DelayModel>) -> Self {
        self.delays = delays.into_iter().collect();
        self
    }

    /// Caps the worker-thread count. `0` (and the default) mean "auto" —
    /// the machine's available parallelism; explicit values are capped at
    /// it (see [`effective_threads`]).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Number of grid points the current axes span.
    pub fn len(&self) -> usize {
        self.graphs.len() * self.seeds.len() * self.delays.len()
    }

    /// Whether the grid has no points (some axis is empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn points(&self) -> Vec<(usize, u64, DelayModel)> {
        let mut pts = Vec::with_capacity(self.len());
        for gi in 0..self.graphs.len() {
            for &seed in &self.seeds {
                for &delay in &self.delays {
                    pts.push((gi, seed, delay));
                }
            }
        }
        pts
    }

    fn collect<F>(&self, threads: usize, f: F) -> Vec<SweepRun>
    where
        F: Fn(&SweepPoint<'_>) -> CostReport + Sync,
    {
        let points = self.points();
        par_map(&points, threads, |&(graph_index, seed, delay)| {
            let (ref label, graph) = self.graphs[graph_index];
            f(&SweepPoint {
                graph_index,
                graph_label: label,
                graph,
                seed,
                delay,
            })
        })
        .into_iter()
        .zip(points)
        .map(|(cost, (graph_index, seed, delay))| SweepRun {
            graph_index,
            graph_label: self.graphs[graph_index].0.clone(),
            seed,
            delay,
            cost,
        })
        .collect()
    }

    /// Runs `f` once per grid point across worker threads and returns the
    /// reports in grid order.
    pub fn run<F>(&self, f: F) -> Vec<SweepRun>
    where
        F: Fn(&SweepPoint<'_>) -> CostReport + Sync,
    {
        self.collect(effective_threads(self.threads.unwrap_or(0)), f)
    }

    /// Runs the grid on the calling thread only — same results as
    /// [`SweepGrid::run`], useful as the reference side of
    /// parallel-equals-sequential checks.
    pub fn run_sequential<F>(&self, f: F) -> Vec<SweepRun>
    where
        F: Fn(&SweepPoint<'_>) -> CostReport + Sync,
    {
        self.collect(1, f)
    }
}

/// Grid-level aggregate of a sweep's [`CostReport`]s.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepSummary {
    /// Number of runs aggregated.
    pub runs: usize,
    /// Sum of message counts over all runs.
    pub total_messages: u64,
    /// Sum of weighted communication over all runs.
    pub total_weighted_comm: Cost,
    /// Maximum completion time over all runs.
    pub max_completion: SimTime,
}

/// Folds per-run reports into grid-level totals.
pub fn summarize(runs: &[SweepRun]) -> SweepSummary {
    let mut s = SweepSummary::default();
    for r in runs {
        s.runs += 1;
        s.total_messages += r.cost.messages;
        s.total_weighted_comm += r.cost.weighted_comm;
        s.max_completion = s.max_completion.max(r.cost.completion);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{Context, Process};
    use crate::runtime::Simulator;
    use csp_graph::{generators, NodeId};

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..97).collect();
        for threads in [1, 2, 5] {
            let out = par_map(&items, threads, |&x| x * x);
            assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_with_threads_worker_state() {
        let items: Vec<u64> = (0..50).collect();
        for threads in [0, 1, 3] {
            // Each worker counts how many items it processed in its own
            // state; results must still be in input order.
            let out = par_map_with(
                &items,
                threads,
                || 0u64,
                |seen, &x| {
                    *seen += 1;
                    (x, *seen)
                },
            );
            assert_eq!(
                out.iter().map(|&(x, _)| x).collect::<Vec<_>>(),
                items,
                "order broken at {threads} threads"
            );
            // Worker-local counters are all ≥ 1 and sum to the item count.
            assert!(out.iter().all(|&(_, seen)| seen >= 1));
        }
    }

    #[test]
    fn effective_threads_caps_and_autos() {
        let avail = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        assert_eq!(effective_threads(0), avail, "0 means auto");
        assert_eq!(effective_threads(1), 1);
        assert_eq!(effective_threads(usize::MAX), avail, "requests are capped");
    }

    #[test]
    fn par_map_handles_empty_input() {
        let out: Vec<u64> = par_map(&[], 4, |_: &u64| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn par_map_propagates_worker_panics() {
        let items: Vec<u32> = (0..8).collect();
        par_map(&items, 2, |&x| {
            if x == 5 {
                panic!("boom");
            }
            x
        });
    }

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
        fn on_message(&mut self, _f: NodeId, _m: (), ctx: &mut Context<'_, ()>) {
            if !self.seen {
                self.seen = true;
                ctx.send_all(());
            }
        }
    }

    fn flood_cost(pt: &SweepPoint<'_>) -> CostReport {
        Simulator::new(pt.graph)
            .delay(pt.delay)
            .seed(pt.seed)
            .run(|_, _| Flood { seen: false })
            .unwrap()
            .cost
    }

    #[test]
    fn grid_enumerates_graphs_seeds_delays() {
        let ring = generators::cycle(6, |_| 2);
        let line = generators::path(5, |_| 3);
        let runs = SweepGrid::new()
            .graph("ring", &ring)
            .graph("line", &line)
            .seeds(0..3)
            .delays([DelayModel::WorstCase, DelayModel::Eager])
            .threads(2)
            .run(flood_cost);
        assert_eq!(runs.len(), 2 * 3 * 2);
        // Grid order: graph outermost, then seed, then delay.
        assert_eq!(runs[0].graph_label, "ring");
        assert_eq!((runs[0].seed, runs[0].delay), (0, DelayModel::WorstCase));
        assert_eq!((runs[1].seed, runs[1].delay), (0, DelayModel::Eager));
        assert_eq!(runs[5].graph_label, "ring");
        assert_eq!(runs[6].graph_label, "line");
    }

    #[test]
    fn parallel_equals_sequential() {
        let ring = generators::cycle(10, |i| 1 + i as u64 % 5);
        let grid = SweepGrid::new()
            .graph("ring", &ring)
            .seeds(0..6)
            .delay(DelayModel::Uniform);
        let par = grid.clone().threads(4).run(flood_cost);
        let seq = grid.run_sequential(flood_cost);
        assert_eq!(par, seq);
    }

    #[test]
    fn summary_folds_reports() {
        let ring = generators::cycle(6, |_| 2);
        let runs = SweepGrid::new()
            .graph("ring", &ring)
            .seeds(0..4)
            .run(flood_cost);
        let s = summarize(&runs);
        assert_eq!(s.runs, 4);
        assert_eq!(s.total_messages, runs.iter().map(|r| r.cost.messages).sum());
        assert!(s.max_completion >= runs[0].cost.completion);
    }
}
