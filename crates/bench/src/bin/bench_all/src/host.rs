//! The host block every ledger output carries: a number is only
//! comparable with another taken on the same kind of machine.

use crate::bench::THREADS;
use csp_serve::Json;
use std::process::Command;

fn unknown() -> String {
    "unknown".to_string()
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(unknown)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(unknown)
}

/// The checked-out revision, read from `.git` in the working directory
/// without running git (a benchmark checkout need not be a repository,
/// and git would go looking in parent directories).
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return unknown(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| r.to_string(), |s| s.trim().to_string()),
    }
}

/// `nproc`, CPU model, compiler, source revision and the thread count
/// every parallel layer was run with. `degraded_host` marks a machine
/// with fewer cores than `THREADS`, where no parallel figure means
/// anything.
pub fn host_block() -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj(vec![
        ("nproc", Json::num(nproc as f64)),
        ("cpu", Json::str(cpu_model())),
        ("rustc", Json::str(rustc_version())),
        ("git_rev", Json::str(git_rev())),
        ("threads", Json::num(THREADS as f64)),
        ("degraded_host", Json::Bool(nproc < THREADS)),
    ])
}
