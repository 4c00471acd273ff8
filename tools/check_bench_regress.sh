#!/usr/bin/env bash
# The machine-independent half of the benchmark regression gate: a change
# that only moves host time must leave every simulated-clock and count
# metric of `benchmark/` exactly where the base revision has it.
#
#   tools/check_bench_regress.sh <base-rev>
#
# Unpacks <base-rev> (`git archive`) into a temporary directory, runs
#   cinm-benchmark run --workload all --seed 1 --seconds 1
# there and in this checkout (each builds its own benchmark crate), then
# reads `cinm-benchmark compare` on the two result files. Fails when a row
# of a deterministic metric (compare bound 0.1%) differs, and — because the
# compare table lists only the gated metrics — when any other metric whose
# clock is `sim` or `count` differs between the result files. Host-clock
# rows are printed and not judged: one second on a shared runner says
# nothing about them.
#
# A change that moves simulated rows on purpose declares them in the
# committed `tools/bench_moves.txt`, one `<workload> <metric>` per line
# (`#` starts a comment). The declaration counts only when the file differs
# between <base-rev> and HEAD, so a change that moves rows rewrites it and
# says why in its comments; an unchanged file declares nothing and the gate
# is the one above. A declared row must differ from the base (in the result
# files), and every row it does not name must stay equal, the compare
# table's 0.1% rows included.
#
#   tools/check_bench_regress.sh <base-rev> --pairs <n> --workload <a>[,<b>,...] [--claim <metric>]
#
# The host-clock half: with the same base copy and builds, runs, for each
# workload of the comma-separated list in turn, <n> alternating base/head
# pairs of
#   cinm-benchmark run --workload <name> --seed <i> --trace 0
# (pair i uses seed i on both sides; the side that goes first flips every
# pair; --seconds is the benchmark's own) and prints, per end-to-end metric
# of BENCHMARK.json, both medians, both inter-quartile spreads and the pairs
# head won. Without --claim that is all: measured, not judged.
#
# With --claim <metric> (an end-to-end metric of BENCHMARK.json) every row
# also gets a verdict, and the exit code judges them. The claim is made on
# the first workload of the list; the others are its controls, so one
# invocation judges the claimed workload and the ones that must not move:
#   * the claimed metric on the first workload is `claim met` only when head
#     wins at least nine tenths of the pairs (a tie is a win for neither) and
#     its median is better than base's by more than the distance between
#     base's quartiles;
#   * every other metric there, and every metric of every control workload,
#     is `REGRESSED` when head's median is worse than base's by more than
#     the metric's `bound`; otherwise `unresolved` when either side's
#     quartile spread is wider than the bound (the pairs cannot tell, which
#     by itself does not fail), else `ok`;
#   * more failed ops on head than on base, on any workload, fail too.
#
# Exit codes: 0 equal (or the pairs were run and, with --claim, every
# verdict on every workload holds); 1 a deterministic metric moved, a run
# failed, the claim is not met or a metric regressed; 2 bad usage or a
# missing tool.
set -uo pipefail

usage() {
    echo "usage: $0 <base-rev> [--pairs <n> --workload <a>[,<b>,...] [--claim <metric>]]" >&2
    exit 2
}
pairs=""
workload=""
claim=""
[ $# -ge 1 ] || usage
base_rev="$1"
shift
while [ $# -gt 0 ]; do
    case "$1" in
    --pairs) pairs="${2:-}" ;;
    --workload) workload="${2:-}" ;;
    --claim) claim="${2:-}" ;;
    *) usage ;;
    esac
    shift 2 || usage
done
if [ -n "$pairs$workload$claim" ]; then # both or neither, and a count
    [ -n "$workload" ] && [ "$pairs" -gt 0 ] 2>/dev/null || usage
fi
for tool in git cargo jq; do
    command -v "$tool" >/dev/null || { echo "$0: $tool not found" >&2; exit 2; }
done

root="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
base="$(git -C "$root" rev-parse --verify "$base_rev^{commit}")" || exit 2
if [ -n "$claim" ]; then
    jq -e --arg m "$claim" 'any(.end_to_end[]; .name == $m)' "$root/BENCHMARK.json" >/dev/null ||
        { echo "$0: --claim $claim is not an end-to-end metric of BENCHMARK.json" >&2; exit 2; }
fi
# The rows declared to move (empty: none; see the header).
moves=""
if ! git -C "$root" diff --quiet "$base" HEAD -- tools/bench_moves.txt; then
    moves="$(git -C "$root" show HEAD:tools/bench_moves.txt 2>/dev/null |
        sed 's/#.*//' | awk 'NF == 2 { print $1, $2 }' | sort -u)"
fi
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

mkdir "$work/base" && git -C "$root" archive "$base" | tar -x -C "$work/base" || exit 2

bench() { # <checkout> <args...>
    local dir="$1"
    shift
    (cd "$dir" && cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- "$@")
}

# Runs the pairs of one workload and prints its rows. With --claim, judges
# them: <claimed> is the claimed metric on the first workload and empty on a
# control, where every metric falls under the bound rule. Returns 1 if a
# verdict fails.
pairs_of() { # <workload> <claimed>
    local workload="$1" claimed="$2" judge=false status=0
    [ -n "$claim" ] && judge=true
    for i in $(seq 1 "$pairs"); do
        order="base head"
        [ $((i % 2)) -eq 0 ] && order="head base"
        for side in $order; do
            dir="$root"
            [ "$side" = base ] && dir="$work/base"
            echo "== $workload pair $i, $side: run --workload $workload --seed $i --trace 0" >&2
            # The last line of a run is the record the driver reads.
            bench "$dir" run --workload "$workload" --seed "$i" --trace 0 | tail -n 1 >"$work/$workload.$side.$i.json" &&
                [ "$(jq -r .correct "$work/$workload.$side.$i.json")" = true ] ||
                { echo "$0: the $side run of $workload pair $i failed" >&2; exit 1; }
        done
    done
    echo "$workload: $pairs alternating pairs, base $base_rev -> head (median [q1, q3] spread; head wins)"
    # shellcheck disable=SC2046 # the file list is meant to split
    report="$(jq -rs --slurpfile manifest "$root/BENCHMARK.json" --arg claim "$claimed" --argjson judge "$judge" --argjson n "$pairs" '
        def q(p): sort | . as $s | ((length - 1) * p) as $h | ($h | floor) as $l
            | $s[$l] + ($h - $l) * (($s[$l + 1] // $s[$l]) - $s[$l]);
        def iqr: q(0.75) - q(0.25);
        def ratio(a; b): if b != 0 then a / b elif a == 0 then 0 else 1e9 end;
        def r: . * 1e6 | round / 1e6;
        def pct: . * 1000 | round / 10;
        def cell: "\(q(0.5) | r) [\(q(0.25) | r), \(q(0.75) | r)] \(ratio(iqr; q(0.5)) | pct)%";
        . as $runs | $manifest[0].end_to_end[] | . as $e | .name as $m
        | (if .better == "lower" then 1 else -1 end) as $sign
        | ($runs[:$n] | map(.metrics[$m].value)) as $base | ($runs[$n:] | map(.metrics[$m].value)) as $head
        | ([range($n) | select(($head[.] - $base[.]) * $sign < 0)] | length) as $won
        # How much worse the head median reads, in the unit of the metric (negative: better).
        | ((($head | q(0.5)) - ($base | q(0.5))) * $sign) as $worse
        | (if $judge | not then ""
           elif $m == $claim then
               if $won * 10 >= $n * 9 and -$worse > ($base | iqr) then "; claim met"
               else "; claim NOT met (needs \($n * 9 / 10 | ceil)/\($n) pairs and a gap beyond base\u0027s quartile spread \($base | iqr | r))" end
           elif ratio($worse; $base | q(0.5)) > $e.bound then "; REGRESSED beyond the bound of \($e.bound | pct)%"
           elif ([$base, $head | ratio(iqr; q(0.5))] | max) > $e.bound then "; unresolved (spread wider than the bound of \($e.bound | pct)%)"
           else "; ok" end) as $verdict
        | "  \($m): base \($base | cell) -> head \($head | cell); median \(ratio($worse * $sign; $base | q(0.5)) | pct)%; head wins \($won)/\($n)\($verdict)"
    ' $(for side in base head; do for i in $(seq 1 "$pairs"); do echo "$work/$workload.$side.$i.json"; done; done))"
    echo "$report"
    failed_base="$(cat "$work/$workload".base.*.json | jq -s 'map(.failed) | add')"
    failed_head="$(cat "$work/$workload".head.*.json | jq -s 'map(.failed) | add')"
    echo "  failed ops: base $failed_base, head $failed_head"
    $judge || return 0
    if grep -q 'claim NOT met\|REGRESSED' <<<"$report"; then
        status=1
    fi
    if [ "$failed_head" -gt "$failed_base" ]; then
        echo "$0: head failed more ops than base on $workload" >&2
        status=1
    fi
    return $status
}

if [ -n "$pairs" ]; then
    IFS=, read -ra workloads <<<"$workload"
    status=0
    claimed="$claim" # the claim is made on the first workload only
    for name in "${workloads[@]}"; do
        [ -n "$name" ] || usage
        pairs_of "$name" "$claimed" || status=1
        claimed=""
    done
    [ -n "$claim" ] && [ $status -eq 0 ] &&
        echo "$0: the claim on $claim (${workloads[0]}) holds and nothing regressed on $workload" >&2
    exit $status
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

# Drops the "<workload> <metric> ..." lines of stdin that are declared moves.
undeclared() {
    awk -v moves="$moves" '
        BEGIN { n = split(moves, l, "\n"); for (i = 1; i <= n; i++) m[l[i]] = 1 }
        !(($1 " " $2) in m)'
}

status=0
# | workload | metric | A cell | B cell | B vs A | spread | bound | verdict |
moved="$(awk -F'|' '$8 ~ /^ *0\.1% *$/ && $4 != $5 {
        w = $2; gsub(/ /, "", w); m = $3; sub(/^[^`]*`/, "", m); sub(/`.*$/, "", m)
        print w, m, ":" $4 "->" $5 }' "$work/table.md" | undeclared | sed 's/^/  /')"
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
deterministic "$work/base.json" >"$work/base.rows"
deterministic "$work/head.json" >"$work/head.rows"
if ! diff <(undeclared <"$work/base.rows") <(undeclared <"$work/head.rows") >"$work/diff.txt"; then
    echo "$0: simulated-clock or count metrics differ (< base, > head):" >&2
    cat "$work/diff.txt" >&2
    status=1
fi
while read -r workload metric; do
    [ -n "$workload" ] || continue
    was="$(awk -v w="$workload" -v m="$metric" '$1 == w && $2 == m { print $3 }' "$work/base.rows")"
    now="$(awk -v w="$workload" -v m="$metric" '$1 == w && $2 == m { print $3 }' "$work/head.rows")"
    if [ -z "$was" ] || [ "$was" = "$now" ]; then
        echo "$0: tools/bench_moves.txt declares $workload $metric, which did not move (${was:-no such row} -> ${now:-no such row})" >&2
        status=1
    else
        echo "declared move: $workload $metric $was -> $now" >&2
    fi
done <<<"$moves"

[ $status -eq 0 ] && echo "$0: every simulated-clock and count metric equals $base_rev${moves:+, apart from the declared moves}" >&2
exit $status
