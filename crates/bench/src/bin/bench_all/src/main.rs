//! `bench_all` — the repository's one performance ledger.
//!
//! ```text
//! bench_all [--workload W] [--seed S] [--seconds T] [--trace [0|1]]
//!           [--out F] [--quick] [--aa]
//! ```
//!
//! Runs every workload (or `W`), checks every output for correctness,
//! and prints every metric by name with unit, median, quartiles and
//! sample count on stderr. The last line of stdout is one JSON object:
//! for a single workload `{"correct", "attempted", "failed",
//! "metrics"}` — the end-to-end metrics, or with `--trace 1` the
//! per-layer metrics — and for the whole suite the same object per
//! workload (plus its `"counts"`) under `"workloads"`, beside the
//! `"host"` block. The suite runs every workload in a process of its
//! own, as the driver does: a resident peak belongs to a process. Exits
//! non-zero on any correctness failure. See README.md in this
//! directory for what each workload and metric is for.

mod adv;
mod bench;
mod catalog;
mod host;
mod serve;
mod sim;
mod span;
mod stats;

use bench::{Checks, Measured, Metrics, Pass, Workload, THREADS};
use catalog::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use csp_serve::Json;
use span::Tracer;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Reference fingerprints of the simulator workloads at `--seed 1`.
const EXPECTED: &str = include_str!("../expected.json");
const DEFAULT_SEED: u64 = 1;

/// A run is cut into rounds, each a fresh set-up and an equal share of
/// the timed seconds: as many rounds as set-ups fit this budget, at most
/// this many (the resident peak of a `csp-serve` child differs by ±5 %
/// between identical children; the median over ten repeats within 3 %).
const MAX_ROUNDS: usize = 10;
const SETUP_BUDGET_S: f64 = 1.5;

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    quick: bool,
    aa: bool,
    print_expected: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_all [--workload W] [--seed S] [--seconds T] [--trace [0|1]] \
         [--out F] [--quick] [--aa]\nworkloads:"
    );
    for w in WORKLOADS {
        eprintln!("  {:<16} {}", w.name, w.why);
    }
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
        out: None,
        quick: false,
        aa: false,
        print_expected: false,
    };
    let mut seconds = None;
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("bench_all: {what} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--workload" => {
                let w = value("--workload");
                let Some(def) = WORKLOADS.iter().find(|d| d.name == w) else {
                    eprintln!("bench_all: unknown workload {w:?}");
                    usage()
                };
                args.workload = Some(def.name);
            }
            "--seed" => args.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                let s: f64 = value("--seconds").parse().unwrap_or_else(|_| usage());
                if s.is_nan() || s <= 0.0 {
                    usage()
                }
                seconds = Some(s);
            }
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--out" => args.out = Some(PathBuf::from(value("--out"))),
            "--quick" => args.quick = true,
            "--aa" => args.aa = true,
            // Regenerates expected.json after a deliberate change of a
            // simulated statistic.
            "--print-expected" => args.print_expected = true,
            _ => usage(),
        }
    }
    args.seconds = seconds.unwrap_or(if args.quick { 0.5 } else { 10.0 });
    args
}

fn expected() -> Json {
    Json::parse(EXPECTED).expect("expected.json is valid JSON")
}

/// Sets `name` up for round `round` of a run: rounds draw different
/// seeds where a workload draws fresh ones per batch.
fn setup(name: &str, args: &Args, round: u64) -> Box<dyn Workload> {
    // Pinned on disk for the inputs of the default seed only.
    let expected = (args.seed == DEFAULT_SEED).then(expected);
    match name {
        catalog::SIM_HOT => Box::new(sim::sim_hot(args.seed, expected)),
        catalog::SIM_LARGE => Box::new(sim::sim_large(args.quick, Some(self::expected()))),
        catalog::SIM_FAULTS => Box::new(sim::sim_faults(args.seed, expected)),
        catalog::ADV_SEARCH => Box::new(adv::adv_search(args.seed, round)),
        catalog::ADV_EXHAUSTIVE => Box::new(adv::adv_exhaustive()),
        catalog::SERVE_RESUBMIT => Box::new(serve::serve_resubmit(args.seed, round)),
        catalog::SERVE_FRESH => Box::new(serve::serve_fresh(args.seed, round)),
        _ => unreachable!("workload names are validated at parse time"),
    }
}

/// Everything one run of one workload found.
struct Report {
    attempted: u64,
    failed: u64,
    end_to_end: Metrics,
    /// Empty unless the run was traced.
    per_layer: Metrics,
    /// Counts of the untraced pass (compared between A/A sets).
    counts: Metrics,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result object with the counts of the untraced pass beside
    /// it, as the suite's document keeps it.
    fn to_full_json(&self, traced: bool) -> Json {
        let Json::Obj(mut result) = self.to_json(traced) else {
            unreachable!("the result is an object")
        };
        let counts = self
            .counts
            .iter()
            .map(|(&name, m)| (name, Json::Num(m.value)))
            .collect();
        result.insert("counts".to_string(), Json::obj(counts));
        Json::Obj(result)
    }

    /// The result object of the benchmark contract: the end-to-end
    /// metrics, or every per-layer metric when the run was traced
    /// (`0` where this workload does not exercise the layer).
    fn to_json(&self, traced: bool) -> Json {
        let (defs, metrics) = if traced {
            (PER_LAYER, &self.per_layer)
        } else {
            (END_TO_END, &self.end_to_end)
        };
        let metrics = defs
            .iter()
            .map(|d| {
                let value = metrics.get(d.name).map_or(0.0, |m| m.value);
                let value = if value.is_finite() { value } else { 0.0 };
                (
                    d.name,
                    Json::obj(vec![
                        ("value", Json::Num(value)),
                        ("unit", Json::str(d.unit)),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::num(self.attempted as f64)),
            ("failed", Json::num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

fn print_metric(def: &MetricDef, m: &Measured, note: &str) {
    eprintln!(
        "  {:<42} {:>16.6} {:<6} q1 {:<14.6} q3 {:<14.6} n={}{note}",
        def.name, m.value, def.unit, m.q1, m.q3, m.n
    );
}

/// Where the benchmark leaves `file`: `<target>/bench_all/`, beside the
/// profile directory the binary runs from.
fn artifact_path(file: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let target = exe
        .parent()
        .and_then(|p| p.parent())
        .expect("the binary lives in <target>/<profile>/");
    target.join("bench_all").join(file)
}

fn run_workload(name: &'static str, args: &Args) -> Report {
    eprintln!(
        "== {name} (seed {}, {} s, threads {THREADS}{}) ==",
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );
    // End to end, tracing off. A traced run keeps a shorter untraced
    // pass: the layers are set against it, and counts must match it.
    let seconds = if args.trace {
        args.seconds / 4.0
    } else {
        args.seconds
    };
    // Rounds: set up afresh, time a share of the seconds, repeat. The
    // set-up time reported is the median over rounds, and what a single
    // process happens to get — its memory layout, its allocator arenas
    // — shifts one round, not the run.
    let mut checks = Checks::default();
    let mut setups = Vec::new();
    let mut untraced = Pass::new();
    let mut peaks = Vec::new();
    let mut counts = Metrics::new();
    let mut rounds = 1;
    let mut w = loop {
        let t = Instant::now();
        let mut w = setup(name, args, setups.len() as u64);
        setups.push(t.elapsed().as_secs_f64());
        if setups.len() == 1 {
            let fit = (SETUP_BUDGET_S / setups[0]) as usize + 1;
            rounds = fit.min(if args.quick { 2 } else { MAX_ROUNDS });
        }
        untraced.run(&mut *w, &mut Tracer::new(false), seconds / rounds as f64);
        let round_counts = w.counts();
        if setups.len() > 1 {
            for (name, m) in &counts {
                checks.gate(
                    round_counts.get(name).map(|c| c.value) == Some(m.value),
                    || format!("count {name} differs between rounds"),
                );
            }
        }
        counts = round_counts;
        // Read before the once-per-run gates: the reference executors
        // they run are not the program being measured. A round's peak
        // is its child's, or this process's so far.
        peaks.push(w.peak_rss_mb());
        if setups.len() == rounds {
            break w;
        }
    };
    let mut end_to_end = Metrics::new();
    end_to_end.insert("setup_s", Measured::of(&setups));
    end_to_end.insert("work_per_s", untraced.work_per_s());
    end_to_end.insert("latency_ms_p50", untraced.latency_ms_p50());
    end_to_end.insert("latency_ms_p90", untraced.latency_ms_tail(0.90));
    end_to_end.insert("peak_rss_mb", Measured::of(&peaks));
    w.verify(&mut checks);
    let mut attempted = checks.attempted + untraced.attempted();
    let mut failed = checks.failed + untraced.failed();

    let mut per_layer = Metrics::new();
    if args.trace {
        let mut tracer = Tracer::new(true);
        let mut traced = Pass::new();
        traced.run(&mut *w, &mut tracer, args.seconds / 2.0);
        attempted += traced.attempted();
        failed += traced.failed();
        per_layer = w.counts();
        let mut same = Checks::default();
        for (name, m) in &counts {
            same.gate(
                per_layer.get(name).map(|t| t.value) == Some(m.value),
                || format!("count {name} differs between the untraced and traced pass"),
            );
        }

        w.layers(&mut tracer, &untraced, &mut per_layer);
        let (off, on) = (
            untraced.latency_ms_p50().value,
            traced.latency_ms_p50().value,
        );
        per_layer.insert("trace_overhead_share", Measured::exact((on - off) / off));
        // The catalogue says which workload measures which layer; a run
        // that disagrees with it is reporting under the wrong name.
        for d in PER_LAYER {
            same.gate(
                d.workloads.contains(&name) == per_layer.contains_key(d.name),
                || format!("{name} and the catalogue disagree on {}", d.name),
            );
        }
        attempted += same.attempted;
        failed += same.failed;

        let path = artifact_path(&format!("trace-{name}.jsonl"));
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!("  {} spans -> {}", tracer.spans().len(), path.display()),
            Err(e) => eprintln!("  could not write {}: {e}", path.display()),
        }
        eprintln!("  self time by layer (span minus covered child time):");
        for (layer, (ns, calls)) in span::self_time_by_layer(tracer.spans()) {
            eprintln!(
                "    {layer:<24} {:>12.3} ms over {calls} calls",
                ns as f64 / 1e6
            );
        }
    }

    let unit = catalog::work_unit(name);
    for d in END_TO_END {
        let note = if d.name == "work_per_s" {
            format!("  ({unit}/s)")
        } else {
            String::new()
        };
        print_metric(d, &end_to_end[d.name], &note);
    }
    for d in PER_LAYER {
        if let Some(m) = per_layer.get(d.name) {
            print_metric(d, m, "");
        }
    }
    eprintln!(
        "  fail_share {} ({failed} of {attempted} operations and gates)",
        failed as f64 / attempted as f64
    );
    Report {
        attempted,
        failed,
        end_to_end,
        per_layer,
        counts,
    }
}

/// A workload's result as the suite keeps it: the contract's result
/// object plus `"counts"`.
type SuiteResult = (&'static str, Json);

fn is_correct(result: &Json) -> bool {
    result.get("correct") == Some(&Json::Bool(true))
}

/// Runs `name` in a process of its own and reads its result back from
/// the document it writes. A child that dies without one counts as one
/// failed operation.
fn run_in_child(name: &'static str, args: &Args) -> Json {
    let out = artifact_path(&format!("report-{name}.json"));
    let _ = std::fs::remove_file(&out);
    let exe = std::env::current_exe().expect("the running binary has a path");
    let status = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(args.quick.then_some("--quick"))
        .arg("--out")
        .arg(&out)
        .stdout(Stdio::null())
        .status();
    let result = std::fs::read_to_string(&out)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .and_then(|doc| doc.get("workloads")?.get(name).cloned());
    result.unwrap_or_else(|| {
        eprintln!("  {name}: no result from its process ({status:?})");
        Json::obj(vec![
            ("correct", Json::Bool(false)),
            ("attempted", Json::num(1.0)),
            ("failed", Json::num(1.0)),
            ("metrics", Json::obj(vec![])),
        ])
    })
}

fn run_suite(args: &Args) -> Vec<SuiteResult> {
    WORKLOADS
        .iter()
        .map(|w| (w.name, run_in_child(w.name, args)))
        .collect()
}

/// The full document: host block plus every workload's result.
fn document(results: &[SuiteResult], args: &Args) -> Json {
    Json::obj(vec![
        ("host", host::host_block()),
        ("seed", Json::num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("traced", Json::Bool(args.trace)),
        ("workloads", Json::obj(results.to_vec())),
    ])
}

/// A/A: the same code twice, back to back. Every end-to-end median must
/// agree within its own bound and every count exactly.
fn run_aa(args: &Args) -> bool {
    let first = run_suite(args);
    let second = run_suite(args);
    let mut ok = first.iter().chain(&second).all(|(_, r)| is_correct(r));
    eprintln!("== A/A: relative difference of medians against each bound ==");
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        for d in END_TO_END {
            let value = |r: &Json| {
                r.get("metrics")
                    .and_then(|m| m.get(d.name)?.get("value")?.as_f64())
                    .unwrap_or(f64::NAN)
            };
            let (x, y) = (value(a), value(b));
            let worse = if d.better == "lower" { y - x } else { x - y } / x;
            // A missing value compares as exceeding.
            let within = worse <= d.bound;
            let verdict = if within { "ok" } else { "EXCEEDS" };
            ok &= within;
            eprintln!(
                "  {name:<16} {:<16} {x:>14.4} -> {y:>14.4}  {worse:+.4} of bound {:.2}  {verdict}",
                d.name, d.bound
            );
        }
        if a.get("counts") != b.get("counts") {
            ok = false;
            eprintln!("  {name:<16} counts differ between the two sets");
        }
    }
    ok
}

fn print_expected() {
    // `sim_large` is pinned at both of its sizes: `--quick` runs the
    // small one.
    let Json::Obj(mut large) = sim::sim_large(false, None).expected_json() else {
        unreachable!("reference fingerprints are an object")
    };
    if let Json::Obj(quick) = sim::sim_large(true, None).expected_json() {
        large.extend(quick);
    }
    let doc = Json::obj(vec![
        (
            catalog::SIM_HOT,
            sim::sim_hot(DEFAULT_SEED, None).expected_json(),
        ),
        (catalog::SIM_LARGE, Json::Obj(large)),
        (
            catalog::SIM_FAULTS,
            sim::sim_faults(DEFAULT_SEED, None).expected_json(),
        ),
    ]);
    println!("{}", doc.dump());
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_out(args: &Args, doc: &Json) -> bool {
    let Some(path) = &args.out else { return true };
    std::fs::write(path, doc.dump() + "\n")
        .map_err(|e| eprintln!("bench_all: cannot write {}: {e}", path.display()))
        .is_ok()
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.print_expected {
        print_expected();
        return ExitCode::SUCCESS;
    }
    if let Some(name) = args.workload {
        eprintln!("host: {}", host::host_block().dump());
        let report = run_workload(name, &args);
        let doc = document(&[(name, report.to_full_json(args.trace))], &args);
        let written = write_out(&args, &doc);
        println!("{}", report.to_json(args.trace).dump());
        return exit_code(written && report.correct());
    }
    if args.aa {
        return exit_code(run_aa(&args));
    }
    let results = run_suite(&args);
    let doc = document(&results, &args);
    let written = write_out(&args, &doc);
    println!("{}", doc.dump());
    exit_code(written && results.iter().all(|(_, r)| is_correct(r)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report(traced: bool) -> Report {
        let mut end_to_end = Metrics::new();
        for (i, d) in END_TO_END.iter().enumerate() {
            end_to_end.insert(d.name, Measured::exact(1.5 + i as f64));
        }
        let mut per_layer = Metrics::new();
        if traced {
            per_layer.insert("sim.runtime.ns_per_event", Measured::exact(99.25));
            per_layer.insert("trace_overhead_share", Measured::exact(f64::NAN));
        }
        Report {
            attempted: 12,
            failed: 0,
            end_to_end,
            per_layer,
            counts: Metrics::new(),
        }
    }

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn result_lines_round_trip_and_name_every_manifest_metric() {
        let manifest = manifest();
        for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let line = sample_report(traced).to_json(traced).dump();
            let back = Json::parse(&line).expect("the result line is valid JSON");
            let mut keys: Vec<&str> = match &back {
                Json::Obj(m) => m.keys().map(String::as_str).collect(),
                _ => panic!("the result line is an object"),
            };
            keys.sort_unstable();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(back.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(back.get("attempted").and_then(Json::as_u64), Some(12));

            let metrics = back.get("metrics").expect("metrics object");
            let listed = manifest.get(key).and_then(Json::as_arr).expect(key);
            for m in listed {
                let name = m.get("name").and_then(Json::as_str).expect("name");
                let got = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{name} missing from the {key} result line"));
                assert_eq!(got.get("unit"), m.get("unit"), "{name}");
                assert!(got.get("value").and_then(Json::as_f64).is_some(), "{name}");
            }
            match metrics {
                Json::Obj(m) => assert_eq!(m.len(), listed.len(), "{key}: no extra metrics"),
                _ => panic!("metrics is an object"),
            }
        }
        // A value that cannot be written as JSON is reported as 0.
        let traced = sample_report(true).to_json(true);
        let overhead = traced
            .get("metrics")
            .and_then(|m| m.get("trace_overhead_share"));
        assert_eq!(overhead.and_then(|m| m.get("value")), Some(&Json::Num(0.0)));
    }

    #[test]
    fn manifest_matches_the_catalogue() {
        let manifest = manifest();
        let names = |key: &str| -> Vec<String> {
            manifest
                .get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(
            names("workloads"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            assert_eq!(names(key), defs.iter().map(|d| d.name).collect::<Vec<_>>());
            for (m, d) in manifest
                .get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .zip(defs)
            {
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(d.unit),
                    "{}",
                    d.name
                );
                assert_eq!(
                    m.get("better").and_then(Json::as_str),
                    Some(d.better),
                    "{}",
                    d.name
                );
                if key == "end_to_end" {
                    assert_eq!(
                        m.get("bound").and_then(Json::as_f64),
                        Some(d.bound),
                        "{}",
                        d.name
                    );
                }
                // Every workload a metric lists exists.
                for w in d.workloads {
                    assert!(
                        WORKLOADS.iter().any(|x| x.name == *w),
                        "{} lists {w}",
                        d.name
                    );
                }
            }
        }
        for (w, m) in WORKLOADS
            .iter()
            .zip(manifest.get("workloads").and_then(Json::as_arr).unwrap())
        {
            assert_eq!(m.get("why").and_then(Json::as_str), Some(w.why));
        }
        let paths = manifest.get("paths").and_then(Json::as_arr).expect("paths");
        assert_eq!(paths, [Json::str("crates/bench/src/bin/bench_all")]);
    }
}
