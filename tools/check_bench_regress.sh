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
#   tools/check_bench_regress.sh <base-rev> --pairs <n> --workload <name>
#
# The host-clock half, measured and not judged: with the same worktree and
# builds, runs <n> alternating base/head pairs of
#   cinm-benchmark run --workload <name> --seed <i> --trace 0
# (pair i uses seed i on both sides; the side that goes first flips every
# pair; --seconds is the benchmark's own) and prints, per end-to-end metric
# of BENCHMARK.json, both medians, both inter-quartile spreads and the pairs
# head won. Reading it is up to the PR: a gain needs nine pairs in ten and a
# median gap beyond the base's spread.
#
# Exit codes: 0 equal (or the pairs were run); 1 a deterministic metric
# moved or a run failed; 2 bad usage or a missing tool.
set -uo pipefail

usage() { echo "usage: $0 <base-rev> [--pairs <n> --workload <name>]" >&2; exit 2; }
pairs=""
workload=""
[ $# -ge 1 ] || usage
base_rev="$1"
shift
while [ $# -gt 0 ]; do
    case "$1" in
    --pairs) pairs="${2:-}" ;;
    --workload) workload="${2:-}" ;;
    *) usage ;;
    esac
    shift 2 || usage
done
if [ -n "$pairs$workload" ]; then # both or neither, and a count
    [ -n "$workload" ] && [ "$pairs" -gt 0 ] 2>/dev/null || usage
fi
for tool in git cargo jq; do
    command -v "$tool" >/dev/null || { echo "$0: $tool not found" >&2; exit 2; }
done

root="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
base="$(git -C "$root" rev-parse --verify "$base_rev^{commit}")" || exit 2
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

if [ -n "$pairs" ]; then
    for i in $(seq 1 "$pairs"); do
        order="base head"
        [ $((i % 2)) -eq 0 ] && order="head base"
        for side in $order; do
            dir="$root"
            [ "$side" = base ] && dir="$work/base"
            echo "== pair $i, $side: run --workload $workload --seed $i --trace 0" >&2
            # The last line of a run is the record the driver reads.
            bench "$dir" run --workload "$workload" --seed "$i" --trace 0 | tail -n 1 >"$work/$side.$i.json" &&
                [ "$(jq -r .correct "$work/$side.$i.json")" = true ] ||
                { echo "$0: the $side run of pair $i failed" >&2; exit 1; }
        done
    done
    echo "$workload: $pairs alternating pairs, base $base_rev -> head (median [q1, q3] spread; head wins)"
    jq -r '.end_to_end[] | "\(.name) \(.better)"' "$root/BENCHMARK.json" | while read -r metric better; do
        jq -rs --arg m "$metric" --arg better "$better" --argjson n "$pairs" '
            def q(p): sort | . as $s | ((length - 1) * p) as $h | ($h | floor) as $l
                | $s[$l] + ($h - $l) * (($s[$l + 1] // $s[$l]) - $s[$l]);
            def r: . * 1e6 | round / 1e6;
            def cell: "\(q(0.5) | r) [\(q(0.25) | r), \(q(0.75) | r)] \((q(0.75) - q(0.25)) / q(0.5) * 1000 | round / 10)%";
            (.[:$n] | map(.metrics[$m].value)) as $base | (.[$n:] | map(.metrics[$m].value)) as $head
            | ([range($n) | select(if $better == "lower" then $head[.] < $base[.] else $head[.] > $base[.] end)] | length) as $won
            | "  \($m): base \($base | cell) -> head \($head | cell); median \(($head | q(0.5)) / ($base | q(0.5)) * 1000 - 1000 | round / 10)%; head wins \($won)/\($n)"
        ' $(for side in base head; do for i in $(seq 1 "$pairs"); do echo "$work/$side.$i.json"; done; done)
    done
    echo "  failed ops: base $(cat "$work"/base.*.json | jq -s 'map(.failed) | add'), head $(cat "$work"/head.*.json | jq -s 'map(.failed) | add')"
    exit 0
fi

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

[ $status -eq 0 ] && echo "$0: every simulated-clock and count metric equals $base_rev" >&2
exit $status
