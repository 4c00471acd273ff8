#!/usr/bin/env bash
# The machine-independent half of the benchmark regression gate: a change
# that only moves host time must leave every simulated-clock and count
# metric of `benchmark/` exactly where the base revision has it.
#
#   tools/check_bench_regress.sh <base-rev>
#
# Checks <base-rev> out into a temporary `git worktree`, runs
#   cinm-benchmark run --workload all --seed 1 --seconds 1
# there and in this checkout (each builds its own benchmark crate), then
# reads `cinm-benchmark compare` on the two result files. Fails when a row
# of a deterministic metric (compare bound 0.1%) differs, and — because the
# compare table lists only the gated metrics — when any other metric whose
# clock is `sim` or `count` differs between the result files. Host-clock
# rows are printed and not judged: one second on a shared runner says
# nothing about them.
#
# Exit codes: 0 equal; 1 a deterministic metric moved or a run failed;
# 2 bad usage or a missing tool.
set -uo pipefail

[ $# -eq 1 ] || { echo "usage: $0 <base-rev>" >&2; exit 2; }
for tool in git cargo jq; do
    command -v "$tool" >/dev/null || { echo "$0: $tool not found" >&2; exit 2; }
done

root="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
base="$(git -C "$root" rev-parse --verify "$1^{commit}")" || exit 2
work="$(mktemp -d)"
cleanup() {
    git -C "$root" worktree remove --force "$work/base" 2>/dev/null
    rm -rf "$work"
}
trap cleanup EXIT

git -C "$root" worktree add --quiet --detach "$work/base" "$base" || exit 2

bench() { # <checkout> <args...>
    local dir="$1"
    shift
    (cd "$dir" && cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- "$@")
}

for side in base head; do
    dir="$root"
    [ "$side" = base ] && dir="$work/base"
    echo "== $side: run --workload all --seed 1 --seconds 1 ($dir)" >&2
    bench "$dir" run --workload all --seed 1 --seconds 1 --out "$work/$side.json" >/dev/null ||
        { echo "$0: the $side run failed" >&2; exit 1; }
done

# `compare` exits 1 on a host-clock row too; only its table is used here.
bench "$root" compare "$work/base.json" "$work/head.json" >"$work/table.md"
cat "$work/table.md"

status=0
# | workload | metric | A cell | B cell | B vs A | spread | bound | verdict |
moved="$(awk -F'|' '$8 ~ /^ *0\.1% *$/ && $4 != $5 { print "  " $2 $3 ":" $4 "->" $5 }' "$work/table.md")"
if [ -n "$moved" ]; then
    echo "$0: compare reports deterministic metrics that moved:" >&2
    echo "$moved" >&2
    status=1
fi

deterministic() {
    jq -r '.runs[] | .workload as $w | .metrics | to_entries[]
           | select(.value.clock == "sim" or .value.clock == "count")
           | "\($w) \(.key) \(.value.value)"' "$1" | sort
}
if ! diff <(deterministic "$work/base.json") <(deterministic "$work/head.json") >"$work/diff.txt"; then
    echo "$0: simulated-clock or count metrics differ (< base, > head):" >&2
    cat "$work/diff.txt" >&2
    status=1
fi

[ $status -eq 0 ] && echo "$0: every simulated-clock and count metric equals $1" >&2
exit $status
