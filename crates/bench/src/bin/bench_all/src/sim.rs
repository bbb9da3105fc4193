//! The three simulator workloads: `sim_hot`, `sim_large`, `sim_faults`.
//!
//! Each is a fixed list of *cases* (graph × seed × delay model, all
//! derived from `--seed`); a batch runs every case once, so per-batch
//! event rates compare like with like. Every run is checked against a
//! reference fingerprint taken in set-up.

use crate::bench::{
    digest, time_reps, vm_hwm_mb, Checks, Measured, Metrics, Op, Pass, SplitMix, Workload, THREADS,
};
use crate::span::Tracer;
use crate::stats::median;
use csp_algo::flood::Flood;
use csp_algo::mst::ghs::Ghs;
use csp_algo::resilient::{run_resilient_spt, Metric, Resilient, ResilientOutcome};
use csp_algo::spt::synch::SptSynch;
use csp_graph::generators::{connected_gnp, WeightDist};
use csp_graph::{EdgeId, NodeId, ShardPlan, Weight, WeightedGraph};
use csp_serve::Json;
use csp_sim::queue::{BucketQueue, HeapQueue};
use csp_sim::{
    BaselineSimulator, ChurnOracle, CoreKind, CostClass, CostReport, DelayModel, Detect,
    DetectConfig, DropOracle, LinkOracle, ModelOracle, MsgInfo, Run, ShardedSimulator, SimTime,
    Simulator, SyncRunner, Trace,
};
use std::hint::black_box;

/// Which executor runs a case.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Exec {
    /// `Simulator` on the default bucket queue — the measured path.
    Bucket,
    /// `Simulator` on the retained `BinaryHeap` queue.
    Heap,
    /// The retained `HashMap` reference core.
    Baseline,
    /// `ShardedSimulator` with `THREADS` shards.
    Sharded,
}

/// What identifies a run's simulated outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub messages: u64,
    pub weighted_comm: u128,
    pub completion: u64,
    pub states_digest: u64,
}

impl Fingerprint {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("messages", Json::num(self.messages as f64)),
            ("weighted_comm", Json::num(self.weighted_comm as f64)),
            ("completion", Json::num(self.completion as f64)),
            (
                "states_digest",
                Json::str(format!("{:016x}", self.states_digest)),
            ),
        ])
    }
}

/// The finished run of one case.
pub trait SimOut {
    fn cost(&self) -> &CostReport;
    /// Digest of the protocol's answer (MST branches, flood parents,
    /// distances), read through the states' public accessors.
    fn states_digest(&self) -> u64;
    /// Delivered-message trace (empty unless capture was asked for).
    fn trace(&self) -> Option<&Trace>;

    fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            messages: self.cost().messages,
            weighted_comm: self.cost().weighted_comm.get(),
            completion: self.cost().completion.get(),
            states_digest: self.states_digest(),
        }
    }
}

/// A simulator workload's inputs and how to run them.
pub trait SimCases {
    type Out: SimOut;

    fn len(&self) -> usize;
    fn label(&self, i: usize) -> String;

    /// Runs case `i` on `exec`, capturing up to `trace_cap` deliveries.
    /// Only the call into the simulator is timed (and spanned); input
    /// preparation and digesting stay outside.
    fn run(&self, i: usize, exec: Exec, trace_cap: usize, tracer: &mut Tracer) -> (Self::Out, f64);

    /// Executors that must reproduce the bucket core bit for bit.
    fn partners(&self) -> &'static [Exec];

    /// Workload-specific layer measurements.
    fn extra_layers(&self, tracer: &mut Tracer, ns_per_event: f64, out: &mut Metrics);

    /// Workload-specific counts over the reference sweep's cost reports.
    fn extra_counts(&self, _costs: &[CostReport], _out: &mut Metrics) {}
}

/// A simulator workload after set-up.
pub struct SimWorkload<C: SimCases> {
    name: &'static str,
    cases: C,
    reference: Vec<Fingerprint>,
    /// Scheduler statistics and work mix of the reference sweep (bucket
    /// core), which a pure-speed change must not move.
    counts: Metrics,
    expected: Option<Json>,
}

impl<C: SimCases> SimWorkload<C> {
    /// Runs every case once — the reference every later run is compared
    /// with — and `warmup_sweeps - 1` more sweeps to warm up.
    fn new(name: &'static str, cases: C, expected: Option<Json>, warmup_sweeps: usize) -> Self {
        let mut quiet = Tracer::new(false);
        let (mut reference, mut costs) = (Vec::new(), Vec::new());
        for i in 0..cases.len() {
            let (out, _) = cases.run(i, Exec::Bucket, 0, &mut quiet);
            reference.push(out.fingerprint());
            costs.push(out.cost().clone());
        }
        let mut counts = Metrics::new();
        let overflow_pushes: u64 = costs.iter().map(|c| c.overflow_pushes).sum();
        let bucket_window = costs.iter().map(|c| c.bucket_window).max().unwrap_or(0);
        counts.insert(
            "sim.queue.overflow_pushes",
            Measured::exact(overflow_pushes as f64),
        );
        counts.insert(
            "sim.queue.bucket_window",
            Measured::exact(bucket_window as f64),
        );
        cases.extra_counts(&costs, &mut counts);
        for _ in 1..warmup_sweeps {
            for i in 0..cases.len() {
                black_box(cases.run(i, Exec::Bucket, 0, &mut quiet));
            }
        }
        SimWorkload {
            name,
            cases,
            reference,
            counts,
            expected,
        }
    }

    /// The reference fingerprints in `expected.json` form.
    pub fn expected_json(&self) -> Json {
        Json::Obj(
            (0..self.cases.len())
                .map(|i| (self.cases.label(i), self.reference[i].to_json()))
                .collect(),
        )
    }

    /// Host seconds of one sweep over every case on `exec`, and the
    /// queue history of its busiest case when `trace_cap` captured one.
    fn sweep(
        &self,
        exec: Exec,
        trace_cap: usize,
        tracer: &mut Tracer,
    ) -> (f64, Option<QueueStream>) {
        let busiest = (0..self.cases.len())
            .max_by_key(|&i| self.reference[i].messages)
            .expect("a workload has cases");
        let (mut secs, mut stream) = (0.0, None);
        for i in 0..self.cases.len() {
            let (out, s) = self.cases.run(i, exec, trace_cap, tracer);
            secs += s;
            if i == busiest && trace_cap > 0 {
                stream = out.trace().map(QueueStream::of);
            }
        }
        (secs, stream)
    }
}

impl<C: SimCases> Workload for SimWorkload<C> {
    fn batch(&mut self, tracer: &mut Tracer, ops: &mut Vec<Op>) {
        for i in 0..self.cases.len() {
            tracer.next_op();
            let (out, secs) = self.cases.run(i, Exec::Bucket, 0, tracer);
            ops.push(Op {
                secs,
                work: out.cost().messages,
                failed: out.fingerprint() != self.reference[i],
            });
        }
    }

    fn verify(&mut self, checks: &mut Checks) {
        // The default seed is pinned on disk; any other seed is pinned
        // by the per-op comparison with the reference run.
        if let Some(expected) = &self.expected {
            for i in 0..self.cases.len() {
                let label = self.cases.label(i);
                let want = expected.get(self.name).and_then(|w| w.get(&label));
                let got = self.reference[i].to_json();
                checks.gate(want == Some(&got), || {
                    format!(
                        "{}/{label}: expected.json has {}, run gave {}",
                        self.name,
                        want.map_or("nothing".to_string(), Json::dump),
                        got.dump()
                    )
                });
            }
        }
        let mut quiet = Tracer::new(false);
        for &exec in self.cases.partners() {
            for i in 0..self.cases.len() {
                let (out, _) = self.cases.run(i, exec, 0, &mut quiet);
                checks.gate(out.fingerprint() == self.reference[i], || {
                    format!(
                        "{}/{}: {exec:?} diverged from the bucket core: {:?} vs {:?}",
                        self.name,
                        self.cases.label(i),
                        out.fingerprint(),
                        self.reference[i]
                    )
                });
            }
        }
    }

    fn counts(&mut self) -> Metrics {
        self.counts.clone()
    }

    fn layers(&mut self, tracer: &mut Tracer, untraced: &Pass, out: &mut Metrics) {
        let per_event = untraced.work_per_s().reciprocal(1e9);
        let ns_per_event = per_event.value;
        out.insert("sim.runtime.ns_per_event", per_event);

        // Every executor against the bucket core, sweep by sweep in
        // turn so machine drift hits all sides: about a second each, at
        // least one sweep.
        let (first, _) = self.sweep(Exec::Bucket, 0, tracer);
        let reps = ((1.0 / first) as usize).clamp(1, 9);
        let with_baseline = self.cases.partners().contains(&Exec::Baseline);
        let (mut bucket, mut heap, mut baseline, mut capture) =
            (vec![first], vec![], vec![], vec![]);
        let mut stream = None;
        for rep in 0..reps {
            if rep > 0 {
                bucket.push(self.sweep(Exec::Bucket, 0, tracer).0);
            }
            heap.push(self.sweep(Exec::Heap, 0, tracer).0);
            if with_baseline {
                baseline.push(self.sweep(Exec::Baseline, 0, tracer).0);
            }
            let (secs, captured) = self.sweep(Exec::Bucket, usize::MAX, tracer);
            capture.push(secs);
            stream = captured;
        }
        let against_bucket = |secs: &[f64]| Measured::derived(median(secs) / median(&bucket), reps);
        out.insert("sim.runtime.heap_core_ratio", against_bucket(&heap));
        if with_baseline {
            out.insert("sim.runtime.baseline_ratio", against_bucket(&baseline));
        }
        out.insert("sim.runtime.trace_capture_ratio", against_bucket(&capture));

        // Queue cost alone: the push/pop stream of the busiest case,
        // replayed through each queue with nothing else in the loop.
        let stream = stream.expect("a capturing sweep records the busiest case");
        let replays = (2_000_000 / stream.ops.len().max(1)).clamp(1, 25);
        let (bucket, heap) = tracer.span("sim.queue", |_| stream.replay(replays));
        out.insert("sim.queue.bucket_ns_per_op", bucket);
        out.insert("sim.queue.heap_ns_per_op", heap);

        self.cases.extra_layers(tracer, ns_per_event, out);
    }

    fn peak_rss_mb(&self) -> f64 {
        vm_hwm_mb(std::process::id())
    }
}

/// The `(time, seq)` push/pop history of a run, rebuilt from its
/// delivered-message trace: at every tick the deliveries due are popped,
/// then the messages sent at that tick are pushed.
struct QueueStream {
    /// `Some(arrival)` is a push, `None` a pop.
    ops: Vec<Option<u64>>,
    max_delay: u64,
}

impl QueueStream {
    fn of(trace: &Trace) -> QueueStream {
        let mut sends: Vec<(u64, u64)> = trace
            .events()
            .iter()
            .map(|e| (e.sent.get(), e.delivered.get()))
            .collect();
        sends.sort_unstable();
        let mut arrivals: Vec<u64> = sends.iter().map(|&(_, d)| d).collect();
        arrivals.sort_unstable();
        let max_delay = sends.iter().map(|&(s, d)| d - s).max().unwrap_or(1);

        let mut ops = Vec::with_capacity(2 * sends.len());
        let (mut s, mut a) = (0, 0);
        while a < arrivals.len() {
            // Next tick with anything to do: a due delivery, or a send
            // (sends at tick t follow the deliveries of tick t).
            let tick = match sends.get(s) {
                Some(&(sent, _)) => sent.min(arrivals[a]),
                None => arrivals[a],
            };
            while a < arrivals.len() && arrivals[a] == tick {
                ops.push(None);
                a += 1;
            }
            while s < sends.len() && sends[s].0 == tick {
                ops.push(Some(sends[s].1));
                s += 1;
            }
        }
        QueueStream { ops, max_delay }
    }

    /// `(bucket, heap)` nanoseconds per queue operation, median of
    /// `reps` whole replays each.
    fn replay(&self, reps: usize) -> (Measured, Measured) {
        let per_op = |secs: Vec<f64>| Measured::scaled(&secs, 1e9 / self.ops.len() as f64);
        let mut bucket = BucketQueue::new(self.max_delay);
        let bucket_secs = time_reps(reps, || {
            bucket.clear();
            for (seq, op) in self.ops.iter().enumerate() {
                match *op {
                    Some(arrival) => bucket.push(arrival, seq as u64, seq),
                    None => {
                        black_box(bucket.pop());
                    }
                }
            }
        });
        let mut heap = HeapQueue::new();
        let heap_secs = time_reps(reps, || {
            heap.clear();
            for (seq, op) in self.ops.iter().enumerate() {
                match *op {
                    Some(arrival) => heap.push(arrival, seq as u64, seq),
                    None => {
                        black_box(heap.pop());
                    }
                }
            }
        });
        (per_op(bucket_secs), per_op(heap_secs))
    }
}

/// Nanoseconds per `LinkOracle::decide` over a synthetic message stream
/// on `g`'s edges, median of several loops.
fn decide_ns(g: &WeightedGraph, mut oracle: impl LinkOracle) -> Measured {
    const CALLS: usize = 200_000;
    let infos: Vec<MsgInfo> = (0..g.edge_count().min(4096))
        .map(|i| {
            let e = EdgeId::new(i);
            let (u, v) = g.edge(e).endpoints();
            MsgInfo {
                index: i as u64,
                edge: e,
                dir: 0,
                weight: g.weight(e),
                from: u,
                to: v,
                sent: SimTime::new(i as u64),
            }
        })
        .collect();
    let secs = time_reps(7, || {
        for k in 0..CALLS {
            black_box(oracle.decide(&infos[k % infos.len()]));
        }
    });
    Measured::scaled(&secs, 1e9 / CALLS as f64)
}

impl<P> SimOut for Run<P>
where
    Run<P>: StatesDigest,
{
    fn cost(&self) -> &CostReport {
        &self.cost
    }
    fn states_digest(&self) -> u64 {
        StatesDigest::digest(self)
    }
    fn trace(&self) -> Option<&Trace> {
        Some(&self.trace)
    }
}

/// Protocol-specific digest of a run's final states.
pub trait StatesDigest {
    fn digest(&self) -> u64;
}

fn opt_node(v: Option<NodeId>) -> u64 {
    v.map_or(u64::MAX, |v| v.index() as u64)
}

impl StatesDigest for Run<Ghs> {
    fn digest(&self) -> u64 {
        digest(self.states.iter().flat_map(|s| {
            let mut words = vec![u64::from(s.halted()), opt_node(s.core_neighbor())];
            words.extend(s.branch_neighbors().iter().map(|v| v.index() as u64));
            words.push(u64::MAX);
            words
        }))
    }
}

impl StatesDigest for Run<Flood> {
    fn digest(&self) -> u64 {
        digest(
            self.states
                .iter()
                .flat_map(|s| [u64::from(s.reached()), opt_node(s.parent())]),
        )
    }
}

// ---------------------------------------------------------------- sim_hot

/// GHS on the three Figure-3 graphs × 5 seeds × {WorstCase, Uniform}.
pub struct HotCases {
    graphs: Vec<(String, WeightedGraph)>,
    seeds: Vec<u64>,
}

const HOT_MODELS: [(DelayModel, &str); 2] = [
    (DelayModel::WorstCase, "worst-case"),
    (DelayModel::Uniform, "uniform"),
];

impl HotCases {
    fn case(&self, i: usize) -> (&(String, WeightedGraph), u64, (DelayModel, &'static str)) {
        let per_graph = self.seeds.len() * HOT_MODELS.len();
        (
            &self.graphs[i / per_graph],
            self.seeds[(i % per_graph) / HOT_MODELS.len()],
            HOT_MODELS[i % HOT_MODELS.len()],
        )
    }

    /// Host nanoseconds per event of `run` swept over the three graphs
    /// under worst-case delays, and the events of one sweep.
    fn sweep_ns_per_event(&self, mut run: impl FnMut(&WeightedGraph) -> u64) -> (Measured, u64) {
        let mut events = 0;
        let secs = time_reps(15, || {
            events = self.graphs.iter().map(|(_, g)| run(g)).sum();
        });
        (Measured::scaled(&secs, 1e9 / events as f64), events)
    }
}

impl SimCases for HotCases {
    type Out = Run<Ghs>;

    fn len(&self) -> usize {
        self.graphs.len() * self.seeds.len() * HOT_MODELS.len()
    }

    fn label(&self, i: usize) -> String {
        let ((name, _), seed, (_, model)) = self.case(i);
        format!("{name} seed={seed} {model}")
    }

    fn run(&self, i: usize, exec: Exec, trace_cap: usize, tracer: &mut Tracer) -> (Run<Ghs>, f64) {
        let ((_, g), seed, (model, _)) = self.case(i);
        let (run, secs) = tracer.timed("sim.runtime", || match exec {
            Exec::Bucket | Exec::Heap => Simulator::new(g)
                .core(if exec == Exec::Heap {
                    CoreKind::Heap
                } else {
                    CoreKind::Bucket
                })
                .delay(model)
                .seed(seed)
                .record_trace(trace_cap)
                .run(Ghs::new),
            Exec::Baseline => BaselineSimulator::new(g)
                .delay(model)
                .seed(seed)
                .record_trace(trace_cap)
                .run(Ghs::new),
            Exec::Sharded => unreachable!("sim_hot has no sharded partner"),
        });
        (run.expect("GHS quiesces"), secs)
    }

    fn partners(&self) -> &'static [Exec] {
        &[Exec::Heap, Exec::Baseline]
    }

    fn extra_layers(&self, tracer: &mut Tracer, _ns_per_event: f64, out: &mut Metrics) {
        let gnp = &self.graphs.last().expect("fig3 has graphs").1;
        out.insert(
            "sim.delay.model_ns",
            tracer.span("sim.delay", |_| {
                decide_ns(gnp, ModelOracle::new(DelayModel::Uniform, self.seeds[0]))
            }),
        );

        // Handler share: GHS against a flood over the same graphs, whose
        // handler is a flag test — what is left is dispatch + queue.
        let (ghs, _) = tracer.span("algo.ghs", |_| {
            self.sweep_ns_per_event(|g| {
                let run = Simulator::new(g).run(Ghs::new).expect("GHS quiesces");
                black_box(run.cost.messages)
            })
        });
        let (flood, _) = tracer.span("algo.flood", |_| {
            self.sweep_ns_per_event(|g| {
                let run = Simulator::new(g)
                    .run(|v, _| Flood::new(v == NodeId::new(0)))
                    .expect("flood quiesces");
                black_box(run.cost.messages)
            })
        });
        out.insert(
            "algo.ghs_ns_per_event",
            Measured::derived(ghs.value - flood.value, ghs.n),
        );
        out.insert("algo.flood_ns_per_event", flood);

        let (sync, _) = tracer.span("sim.sync", |_| {
            self.sweep_ns_per_event(|g| {
                let run = SyncRunner::new(g)
                    .run(|v, _| SptSynch::new(v, NodeId::new(0)))
                    .expect("synchronous SPT run");
                black_box(run.cost.messages)
            })
        });
        out.insert("sim.sync.events_per_s", sync.reciprocal(1e9));
    }
}

pub fn sim_hot(seed: u64, expected: Option<Json>) -> SimWorkload<HotCases> {
    let graphs = csp_bench::fig3_workloads()
        .into_iter()
        .map(|w| (w.name, w.graph))
        .collect();
    // `--seed 1` sweeps delay seeds 0..5, as the legacy core bench did.
    let seeds = (0..5)
        .map(|k| seed.wrapping_sub(1).wrapping_mul(5).wrapping_add(k))
        .collect();
    // A sweep is 3.5 ms: eight of them fill the caches and make set-up
    // long enough to time.
    SimWorkload::new(
        crate::catalog::SIM_HOT,
        HotCases { graphs, seeds },
        expected,
        8,
    )
}

// -------------------------------------------------------------- sim_large

/// Flood on one streamed `connected_gnp(n, 8/n, Uniform(1, 64))` under
/// worst-case delays.
pub struct LargeCases {
    g: WeightedGraph,
    n: usize,
}

/// Graph and root are one fixed identity, and flooding under worst-case
/// delays draws nothing, so `--seed` changes nothing here: the resident
/// peak moves in steps of 3–17 MB with the graph drawn or the root
/// flooded from (240–261 MB over ten seeds of either), and a memory
/// metric must not move with `--seed`.
const LARGE_IDENTITY: u64 = 1;

impl LargeCases {
    fn generate(n: usize) -> WeightedGraph {
        connected_gnp(
            n,
            8.0 / n as f64,
            WeightDist::Uniform(1, 64),
            LARGE_IDENTITY,
        )
    }
}

impl SimCases for LargeCases {
    type Out = Run<Flood>;

    fn len(&self) -> usize {
        1
    }

    fn label(&self, _: usize) -> String {
        format!("flood gnp n={} seed={LARGE_IDENTITY} worst-case", self.n)
    }

    fn run(
        &self,
        _: usize,
        exec: Exec,
        trace_cap: usize,
        tracer: &mut Tracer,
    ) -> (Run<Flood>, f64) {
        let make = |v: NodeId, _: &WeightedGraph| Flood::new(v == NodeId::new(0));
        let (run, secs) = tracer.timed("sim.runtime", || match exec {
            Exec::Bucket | Exec::Heap => Simulator::new(&self.g)
                .core(if exec == Exec::Heap {
                    CoreKind::Heap
                } else {
                    CoreKind::Bucket
                })
                .record_trace(trace_cap)
                .run(make),
            Exec::Sharded => ShardedSimulator::new(&self.g)
                .threads(THREADS)
                .record_trace(trace_cap)
                .run(make),
            Exec::Baseline => unreachable!("sim_large has no baseline partner"),
        });
        (run.expect("flood quiesces"), secs)
    }

    fn partners(&self) -> &'static [Exec] {
        &[Exec::Heap, Exec::Sharded]
    }

    fn extra_layers(&self, tracer: &mut Tracer, ns_per_event: f64, out: &mut Metrics) {
        let gen = tracer.span("graph.generators", |_| {
            time_reps(3, || {
                black_box(Self::generate(self.n));
            })
        });
        out.insert("graph.gen_s", Measured::of(&gen));
        out.insert(
            "graph.bytes_per_vertex",
            Measured::exact(self.g.memory_bytes() as f64 / self.n as f64),
        );

        let mut plan = None;
        let plan_secs = tracer.span("graph.cover", |_| {
            time_reps(3, || plan = Some(ShardPlan::derive(&self.g, THREADS)))
        });
        out.insert("graph.shard_plan_s", Measured::of(&plan_secs));
        let cut = plan.expect("derived above").cut(&self.g);
        out.insert(
            "graph.min_cut_weight",
            Measured::exact(cut.min_cut_weight.map_or(0.0, |w| w.get() as f64)),
        );

        let mut events = 0;
        let sharded: Vec<f64> = (0..2)
            .map(|_| {
                let (run, secs) = self.run(0, Exec::Sharded, 0, tracer);
                events = run.cost.messages;
                events as f64 / secs
            })
            .collect();
        let k2 = Measured::of(&sharded);
        out.insert("sim.shard.events_per_s_k2", k2);
        out.insert(
            "sim.shard.speedup_k2",
            Measured::derived(k2.value * ns_per_event / 1e9, k2.n),
        );
    }
}

pub fn sim_large(quick: bool, expected: Option<Json>) -> SimWorkload<LargeCases> {
    // Five 2-second repetitions of n = 3·10⁵ fit a run; a 10⁶ run alone
    // takes eleven seconds. `--quick` keeps the shape at a tenth.
    let n = if quick { 30_000 } else { 300_000 };
    let cases = LargeCases {
        g: LargeCases::generate(n),
        n,
    };
    SimWorkload::new(crate::catalog::SIM_LARGE, cases, expected, 1)
}

// ------------------------------------------------------------- sim_faults

/// `Detect<Resilient>` SPT under drops, crash–rejoin chains and drift.
pub struct FaultCases {
    g: WeightedGraph,
    oracle_seeds: Vec<u64>,
    churn: Vec<(NodeId, Vec<SimTime>)>,
    drifts: Vec<(EdgeId, SimTime, Weight)>,
}

const FAULT_N: usize = 1024;
const DROP_RATE: f64 = 0.05;
const CHAINS: usize = 8;
const DRIFTS: usize = 16;

fn detector() -> DetectConfig {
    // Tolerating one loss per channel matches the drop oracle's streak
    // budget, so drops never raise a false suspicion.
    DetectConfig::new(8, 30, 1)
}

type FaultStack = Detect<Resilient>;
type FaultOracle = ChurnOracle<DropOracle>;

/// Either the public runner's outcome or the raw run of the same stack
/// on another executor; both digest to the same answer.
pub enum FaultOut {
    Outcome(ResilientOutcome),
    Raw(Run<FaultStack>),
}

fn answer_digest(
    dists: impl Iterator<Item = Option<u64>>,
    parents: impl Iterator<Item = Option<NodeId>>,
) -> u64 {
    digest(
        dists
            .map(|d| d.unwrap_or(u64::MAX))
            .chain(parents.map(opt_node)),
    )
}

impl SimOut for FaultOut {
    fn cost(&self) -> &CostReport {
        match self {
            FaultOut::Outcome(o) => &o.cost,
            FaultOut::Raw(r) => &r.cost,
        }
    }

    fn states_digest(&self) -> u64 {
        match self {
            FaultOut::Outcome(o) => {
                answer_digest(o.dists.iter().copied(), o.parents.iter().copied())
            }
            FaultOut::Raw(r) => answer_digest(
                r.states.iter().map(|s| s.inner().dist()),
                r.states.iter().map(|s| s.inner().parent()),
            ),
        }
    }

    fn trace(&self) -> Option<&Trace> {
        match self {
            FaultOut::Outcome(_) => None,
            FaultOut::Raw(r) => Some(&r.trace),
        }
    }
}

impl FaultCases {
    fn oracle(&self, i: usize) -> FaultOracle {
        ChurnOracle::new(
            DropOracle::new(DelayModel::Uniform, self.oracle_seeds[i], DROP_RATE, 1),
            self.churn.clone(),
            self.drifts.clone(),
        )
    }

    fn make(&self) -> impl Fn(NodeId, &WeightedGraph) -> FaultStack + '_ {
        |v, g| {
            Detect::new(
                Resilient::new(v, NodeId::new(0), Metric::Weighted, g),
                detector(),
            )
        }
    }
}

impl SimCases for FaultCases {
    type Out = FaultOut;

    fn len(&self) -> usize {
        self.oracle_seeds.len()
    }

    fn label(&self, i: usize) -> String {
        format!(
            "resilient-spt gnp n={FAULT_N} oracle-seed={}",
            self.oracle_seeds[i]
        )
    }

    fn run(&self, i: usize, exec: Exec, trace_cap: usize, tracer: &mut Tracer) -> (FaultOut, f64) {
        let mut oracle = self.oracle(i);
        let g = &self.g;
        match exec {
            // The measured path is the public runner, as a user calls
            // it; capture needs the raw run, which is the same stack.
            Exec::Bucket if trace_cap == 0 => {
                let (out, secs) = tracer.timed("sim.runtime", || {
                    run_resilient_spt(g, NodeId::new(0), &mut oracle, detector())
                });
                (FaultOut::Outcome(out.expect("run quiesces")), secs)
            }
            Exec::Bucket | Exec::Heap => {
                let (run, secs) = tracer.timed("sim.runtime", || {
                    Simulator::new(g)
                        .core(if exec == Exec::Heap {
                            CoreKind::Heap
                        } else {
                            CoreKind::Bucket
                        })
                        .record_trace(trace_cap)
                        .run_with_oracle(&mut oracle, self.make())
                });
                (FaultOut::Raw(run.expect("run quiesces")), secs)
            }
            Exec::Sharded => {
                let (run, secs) = tracer.timed("sim.runtime", || {
                    ShardedSimulator::new(g)
                        .threads(THREADS)
                        .record_trace(trace_cap)
                        .run_with_oracle(&mut oracle, self.make())
                });
                (FaultOut::Raw(run.expect("run quiesces")), secs)
            }
            // The baseline core has no timers, rejoins or drift.
            Exec::Baseline => unreachable!("sim_faults has no baseline partner"),
        }
    }

    fn partners(&self) -> &'static [Exec] {
        &[Exec::Heap, Exec::Sharded]
    }

    fn extra_layers(&self, tracer: &mut Tracer, _ns_per_event: f64, out: &mut Metrics) {
        let seed = self.oracle_seeds[0];
        let (drop, churn) = tracer.span("sim.delay", |_| {
            (
                decide_ns(
                    &self.g,
                    DropOracle::new(DelayModel::Uniform, seed, DROP_RATE, 1),
                ),
                decide_ns(&self.g, self.oracle(0)),
            )
        });
        out.insert("sim.delay.drop_ns", drop);
        out.insert("sim.delay.churn_ns", churn);
    }

    fn extra_counts(&self, costs: &[CostReport], out: &mut Metrics) {
        let sum = |f: fn(&CostReport) -> u64| costs.iter().map(f).sum::<u64>() as f64;
        let aux = sum(|c| c.messages_of(CostClass::Auxiliary));
        out.insert(
            "sim.detect.aux_msg_share",
            Measured::exact(aux / sum(|c| c.messages)),
        );
        out.insert("sim.detect.drops", Measured::exact(sum(|c| c.drops)));
        out.insert(
            "sim.detect.recoveries",
            Measured::exact(sum(|c| c.recoveries)),
        );
    }
}

/// The graph, the eight crash–rejoin chains and the sixteen drift
/// revisions are one fixed identity: who churns decides how much
/// recovery traffic a run carries, so letting `--seed` pick the victims
/// would make runs of different seeds different amounts of work.
/// `--seed` drives what averages out — the drop-and-delay draws of the
/// eight oracle seeds a sweep runs.
const FAULT_IDENTITY: u64 = 1024;
const FAULT_CASES: u64 = 8;

pub fn sim_faults(seed: u64, expected: Option<Json>) -> SimWorkload<FaultCases> {
    let g = connected_gnp(
        FAULT_N,
        6.0 / FAULT_N as f64,
        WeightDist::Uniform(1, 16),
        FAULT_IDENTITY,
    );
    let mut rng = SplitMix(FAULT_IDENTITY);
    // Eight distinct non-source victims, each crashing inside the
    // heartbeat window and rejoining after its suspicion had time to
    // fire.
    let mut victims: Vec<usize> = Vec::new();
    while victims.len() < CHAINS {
        let v = rng.range(1, FAULT_N as u64 - 1) as usize;
        if !victims.contains(&v) {
            victims.push(v);
        }
    }
    let churn = victims
        .into_iter()
        .map(|v| {
            let crash = rng.range(8, 120);
            let rejoin = crash + rng.range(40, 80);
            (
                NodeId::new(v),
                vec![SimTime::new(crash), SimTime::new(rejoin)],
            )
        })
        .collect();
    // Sixteen revisions of distinct edges, each to a fresh weight.
    let mut edges: Vec<usize> = Vec::new();
    while edges.len() < DRIFTS {
        let e = rng.range(0, g.edge_count() as u64 - 1) as usize;
        if !edges.contains(&e) {
            edges.push(e);
        }
    }
    let drifts = edges
        .into_iter()
        .map(|e| {
            (
                EdgeId::new(e),
                SimTime::new(rng.range(1, 200)),
                Weight::new(rng.range(1, 16)),
            )
        })
        .collect();
    let cases = FaultCases {
        g,
        oracle_seeds: (0..FAULT_CASES)
            .map(|k| seed.wrapping_mul(FAULT_CASES).wrapping_add(k))
            .collect(),
        churn,
        drifts,
    };
    SimWorkload::new(crate::catalog::SIM_FAULTS, cases, expected, 1)
}
