#!/usr/bin/env bash
# Builds the benchmark and the csp-serve binary it drives, then runs
# bench_all with the given arguments. Run from the repository root:
#
#   bash crates/bench/src/bin/bench_all/run.sh [--workload W] [--seed S]
#        [--seconds T] [--trace [0|1]] [--out F] [--quick] [--aa]
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
# One target directory for both builds, so csp-serve lands beside
# bench_all; a relative CARGO_TARGET_DIR is relative to the root.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

# Build output goes to stderr: stdout carries only the result line.
cargo build --release --offline --quiet -p csp-serve --bin csp-serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$CARGO_TARGET_DIR/release/bench_all" "$@"
