//! `csp-serve` — the scenario-evaluation service binary.
//!
//! Speaks line-delimited JSON on stdin/stdout: one request per line in,
//! one response per scenario out. `{"type":"shutdown"}` (or EOF) exits
//! cleanly.
//!
//! ```text
//! csp-serve [--threads N] [--checkpoint-every N] [--no-cache]
//!           [--metrics] [--trace-cap N]
//! ```
//!
//! - `--threads N`          worker threads (0 = one per core)
//! - `--checkpoint-every N` messages between stored checkpoints (default 16)
//! - `--no-cache`           disable the prefix-sharing cache (cold baseline)
//! - `--metrics`            emit one JSON metrics line per batch on stderr
//! - `--trace-cap N`        record up to N trace events per run and expose
//!   a trace digest in responses (differential testing)
//!
//! A submission may carry `"shards": k` to evaluate a model-mode run on
//! the sharded conservative-parallel core. The result is bit-identical
//! to the sequential core's, so the field is an execution hint only —
//! cached results are shared freely between sharded and sequential
//! submissions of the same scenario.

use csp_serve::json::Json;
use csp_serve::service::{Service, ServiceConfig};
use std::io::{BufRead, BufReader, Write};

fn usage() -> ! {
    eprintln!(
        "usage: csp-serve [--threads N] [--checkpoint-every N] [--no-cache] \
         [--metrics] [--trace-cap N]"
    );
    std::process::exit(2)
}

fn parse_usize(args: &mut std::env::Args, flag: &str) -> usize {
    match args.next().map(|v| v.parse::<usize>()) {
        Some(Ok(v)) => v,
        _ => {
            eprintln!("csp-serve: {flag} needs a non-negative integer");
            usage()
        }
    }
}

fn main() {
    let mut cfg = ServiceConfig::default();
    let mut metrics_stream = false;
    let mut args = std::env::args();
    let _ = args.next();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => cfg.threads = parse_usize(&mut args, "--threads"),
            "--checkpoint-every" => {
                cfg.checkpoint_every = parse_usize(&mut args, "--checkpoint-every") as u64;
                if cfg.checkpoint_every == 0 {
                    eprintln!("csp-serve: --checkpoint-every must be >= 1");
                    usage()
                }
            }
            "--no-cache" => cfg.cache = false,
            "--metrics" => metrics_stream = true,
            "--trace-cap" => cfg.trace_cap = parse_usize(&mut args, "--trace-cap"),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("csp-serve: unknown flag {other:?}");
                usage()
            }
        }
    }

    let mut service = Service::new(cfg);
    let stdout = std::io::stdout();
    let stderr = std::io::stderr();
    let mut out = stdout.lock();
    let mut err = stderr.lock();

    // One line buffer for the whole session — a resubmitted schedule is
    // a line of hundreds of kilobytes, and a fresh allocation that size
    // is paid for in page faults on every request — and a read buffer
    // that takes what a pipe hands over in one read.
    let mut input = BufReader::with_capacity(1 << 16, std::io::stdin().lock());
    let mut line = Vec::new();
    loop {
        line.clear();
        match input.read_until(b'\n', &mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("csp-serve: reading stdin failed: {e}");
                break;
            }
        }
        // The service answers a line that is not UTF-8 or not JSON with
        // an error and carries on; only EOF or a read error ends it.
        let Some(responses) = service.handle_line(&line) else {
            let resp = Json::obj(vec![
                ("type", Json::str("shutdown")),
                ("ok", Json::Bool(true)),
            ]);
            let _ = writeln!(out, "{}", resp.dump());
            let _ = out.flush();
            break;
        };
        if responses.is_empty() {
            continue;
        }
        for resp in responses {
            let _ = writeln!(out, "{}", resp.dump());
        }
        let _ = out.flush();
        if metrics_stream {
            let _ = writeln!(err, "{}", service.metrics.to_json().dump());
            let _ = err.flush();
        }
    }
}
