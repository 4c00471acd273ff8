#!/usr/bin/env bash
# Source-line budget: counts every line of the workspace's Rust sources —
# crates/*/src and src/, the library and binary code together with the unit
# tests that live beside it — and fails when the total is over `budget`
# below. ROADMAP aim 2 says the line count should go *down*; with the number
# committed here it cannot go up without a change saying so: lower it after
# a deletion, and raise it only on purpose, naming what grew in the change's
# description. The `cinm-core` + `cinm-lowering` share, the figure ROADMAP
# item 3 targets, is printed alongside.
#
#   tools/check_loc.sh
#
# Exit codes: 0 within budget; 1 over it.
set -euo pipefail

budget=34701 # lines of crates/*/src + src; lower it when the code shrinks

cd "$(dirname "$0")/.."

lines() {
    find "$@" -name '*.rs' -print0 | xargs -0 cat | wc -l
}

total="$(lines crates/*/src src)"
core="$(lines crates/cinm-core/src crates/cinm-lowering/src)"
if [ "$total" -gt "$budget" ]; then
    echo "error: crates/*/src + src/ hold $total lines, over their budget of $budget."
    echo "       Delete code, or raise \`budget\` in tools/check_loc.sh on purpose and"
    echo "       name what grew in the change's description."
    exit 1
fi
echo "OK: crates/*/src + src/ hold $total lines (budget $budget; cinm-core + cinm-lowering $core)"
