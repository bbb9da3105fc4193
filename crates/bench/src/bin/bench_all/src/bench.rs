//! What every workload has in common: operations, passes over them, and
//! the measured values they turn into.

use crate::span::Tracer;
use crate::stats::{self, Summary};
use std::collections::BTreeMap;
use std::time::Instant;

/// Worker threads every parallel layer runs with (`SearchConfig`,
/// `csp-serve --threads`, shard count): fixed and recorded because the
/// sizing host has `nproc = 2`.
pub const THREADS: usize = 2;

/// One timed operation of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    /// Host seconds the operation took (request line written to
    /// response line read; one whole `run` / search call).
    pub secs: f64,
    /// Units of work it completed (events, evaluations, ok responses).
    pub work: u64,
    /// Whether it failed: an error, a wrong cache outcome, or any
    /// correctness gate.
    pub failed: bool,
}

/// A value as reported: the median (or the exact count), with the
/// quartiles and sample count it came from.
#[derive(Clone, Copy, Debug)]
pub struct Measured {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl From<Summary> for Measured {
    fn from(s: Summary) -> Measured {
        Measured {
            value: s.median,
            q1: s.q1,
            q3: s.q3,
            n: s.n,
        }
    }
}

impl Measured {
    /// Median of timing samples.
    pub fn of(samples: &[f64]) -> Measured {
        Summary::of(samples).into()
    }

    /// Median of timing samples, each multiplied by `scale` (seconds of
    /// a loop to nanoseconds per call, say).
    pub fn scaled(samples: &[f64], scale: f64) -> Measured {
        Measured::of(&samples.iter().map(|s| s * scale).collect::<Vec<_>>())
    }

    /// `scale ÷ value`: a rate as a time per unit, or back. The
    /// quartiles trade places.
    pub fn reciprocal(self, scale: f64) -> Measured {
        Measured {
            value: scale / self.value,
            q1: scale / self.q3,
            q3: scale / self.q1,
            n: self.n,
        }
    }

    /// A count or a value derived from one observation.
    pub fn exact(value: f64) -> Measured {
        Measured::derived(value, 1)
    }

    /// A value computed from `n` samples that has no quartiles of its
    /// own (a ratio of medians, a difference).
    pub fn derived(value: f64, n: usize) -> Measured {
        Measured {
            value,
            q1: value,
            q3: value,
            n,
        }
    }
}

/// Metric name to measured value.
pub type Metrics = BTreeMap<&'static str, Measured>;

/// Once-per-run correctness gates outside the timed section.
#[derive(Clone, Copy, Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts one gate; a failing one is explained on stderr.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("  CHECK FAILED: {}", what());
        }
    }
}

/// One benchmark workload, already set up.
pub trait Workload {
    /// Runs one batch — a fixed mix of operations, so per-batch rates
    /// are comparable — appending its operations to `ops`. Every
    /// operation is checked for correctness; calls into a layer go
    /// through `tracer`.
    fn batch(&mut self, tracer: &mut Tracer, ops: &mut Vec<Op>);

    /// Correctness gates that run once, outside the timed section.
    fn verify(&mut self, checks: &mut Checks);

    /// Counts over the operations since the previous call, normalized
    /// per batch so that they repeat exactly between passes and runs.
    fn counts(&mut self) -> Metrics;

    /// Per-layer measurements taken from outside (traced run only).
    /// `untraced` is the end-to-end pass the layers are set against.
    fn layers(&mut self, tracer: &mut Tracer, untraced: &Pass, out: &mut Metrics);

    /// `VmHWM` of the measured process in MB.
    fn peak_rss_mb(&self) -> f64;
}

/// Latency samples a pass keeps; later operations still count, but a
/// ten-second pass of the fastest workload stays well below this.
const LATENCY_CAP: usize = 1 << 20;
const BATCH_CAP: usize = 1 << 16;

/// What a pass keeps of one batch.
#[derive(Clone, Copy)]
struct Batch {
    work: u64,
    busy_secs: f64,
    /// Latency samples kept of it: all of its operations, or none.
    kept: u32,
}

/// What one timed pass observed. Its buffers are allocated and touched
/// up front, so the harness adds the same few megabytes to the peak
/// resident set however many operations a faster program completes.
pub struct Pass {
    /// Per-operation times, batch after batch.
    latencies_ms: Vec<f32>,
    batches: Vec<Batch>,
    attempted: u64,
    failed: u64,
}

impl Pass {
    pub fn new() -> Pass {
        // A zero fill would be a lazily mapped `calloc`: fill with a
        // value that has to be written.
        fn touched<T: Clone>(fill: T, cap: usize) -> Vec<T> {
            let mut v = vec![fill; cap];
            v.clear();
            v
        }
        let fill = Batch {
            work: 1,
            busy_secs: 1.0,
            kept: 1,
        };
        Pass {
            latencies_ms: touched(1.0, LATENCY_CAP),
            batches: touched(fill, BATCH_CAP),
            attempted: 0,
            failed: 0,
        }
    }

    /// Runs batches of `w` for about `seconds` (at least one batch),
    /// adding them to what the pass already holds.
    pub fn run(&mut self, w: &mut dyn Workload, tracer: &mut Tracer, seconds: f64) {
        let mut ops = Vec::new();
        let start = Instant::now();
        for done in 1.. {
            ops.clear();
            w.batch(tracer, &mut ops);
            self.record(&ops);
            // Stop at the batch boundary nearest to `seconds`.
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed + elapsed / done as f64 / 2.0 >= seconds {
                return;
            }
        }
    }

    fn record(&mut self, ops: &[Op]) {
        self.attempted += ops.len() as u64;
        self.failed += ops.iter().filter(|o| o.failed).count() as u64;
        if self.batches.len() == BATCH_CAP {
            return;
        }
        let fits = self.latencies_ms.len() + ops.len() <= LATENCY_CAP;
        if fits {
            self.latencies_ms
                .extend(ops.iter().map(|o| (o.secs * 1e3) as f32));
        }
        self.batches.push(Batch {
            work: ops.iter().map(|o| o.work).sum(),
            busy_secs: ops.iter().map(|o| o.secs).sum(),
            kept: if fits { ops.len() as u32 } else { 0 },
        });
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.latencies_ms.iter().map(|&ms| f64::from(ms)).collect()
    }

    /// Throughput as the median of per-batch rates (work per busy
    /// second of the batch).
    pub fn work_per_s(&self) -> Measured {
        let rates: Vec<f64> = self
            .batches
            .iter()
            .map(|b| b.work as f64 / b.busy_secs)
            .collect();
        Measured::of(&rates)
    }

    pub fn latency_ms_p50(&self) -> Measured {
        Measured::of(&self.latencies_ms())
    }

    /// `want`-th latency percentile under the ten-samples-beyond rule
    /// (see [`stats::batch_tail_percentile`]).
    pub fn latency_ms_tail(&self, want: f64) -> Measured {
        let lat = self.latencies_ms();
        let mut rest = lat.as_slice();
        let batches: Vec<&[f64]> = self
            .batches
            .iter()
            .map(|b| {
                let (batch, after) = rest.split_at(b.kept as usize);
                rest = after;
                batch
            })
            .collect();
        stats::batch_tail_percentile(&batches, want).into()
    }
}

/// Median host seconds of `reps` calls of `f`, each call a sample.
pub fn time_reps(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// `VmHWM` (peak resident set) of process `pid` in MB, from
/// `/proc/<pid>/status`; `0.0` where procfs is missing.
pub fn vm_hwm_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Small seeded generator (splitmix64) so every input derives from
/// `--seed` without reaching into the workspace's vendored `rand`.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// Where the per-batch seeds of round `round` of a run under `--seed
/// seed` start: rounds and seeds get disjoint blocks of 2²⁴, and the
/// result stays exact as a JSON number whatever seed is passed.
pub fn seed_block(seed: u64, round: u64) -> u64 {
    ((seed % (1 << 16)) << 32) + ((round % (1 << 8)) << 24)
}

/// Order-sensitive 64-bit digest of a word stream (the same mixer the
/// service uses for its state digests).
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        let mut x = (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 32;
        x.wrapping_mul(0xff51_afd7_ed55_8ccd)
    })
}
