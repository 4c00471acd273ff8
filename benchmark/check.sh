#!/usr/bin/env bash
# Entry point for CI: everything that must hold before a change to the
# benchmark crate (or a new baseline) is accepted.
#
#   benchmark/check.sh
#
# Steps: rustfmt, clippy with warnings denied, the crate's unit tests, then
# `run --workload all --smoke --repeat 2`: every workload for one second at
# reduced counts in a fresh process each, which fails unless every metric
# of every workload is present, every output matches its golden, every
# simulated-clock and count metric is bit-equal between the two repeats, and
# the committed BENCHMARK.json equals `cinm-benchmark manifest`.
#
# Exit codes: 0 every step passed; 1 a step failed (its name is the last
# "== step" line on stderr); 2 cargo is missing.
set -uo pipefail
cd "$(dirname "$0")"

command -v cargo >/dev/null || { echo "check.sh: cargo not found" >&2; exit 2; }

step() {
    echo "== $*" >&2
    "$@" || { echo "check.sh: FAILED: $*" >&2; exit 1; }
}

step cargo fmt --check
step cargo clippy --offline --all-targets -- -D warnings
step cargo test --offline --release
step cargo run --offline --release --quiet -- run --workload all --smoke --repeat 2
echo "check.sh: all steps passed" >&2
