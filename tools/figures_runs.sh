#!/usr/bin/env bash
# Where a change to the `figures` workload saved (or lost) its host time: the
# 26 cold runs of one pass, one row each.
#
#   tools/figures_runs.sh <trace.json>
#   tools/figures_runs.sh <base-trace.json> <head-trace.json>
#   tools/figures_runs.sh <base-trace.json>... -- <head-trace.json>...
#
# Reads the Chrome traces a `cinm-benchmark run --workload figures` leaves in
# benchmark/out/trace_figures.json and prints, per run of the 26-run pass
# (device, workload), the fastest `harness.op` span over the traced passes in
# milliseconds, a subtotal per device group (12 UPMEM sessions, 9 crossbar
# programs, 5 sharded ops) and their sum. With traces of two sides (say the
# parent's and the change's) it prints both columns and the delta, so a
# claimed saving can be shown where it sits (choosing-metrics, section 6.6).
# One pair cannot resolve a delta below the host's drift between two runs
# (about 20 ms per group on a shared 2-core host), so several pairs may be
# given: the i-th base trace pairs with the i-th head trace (take them in
# alternating order), each column is the median over its side's traces, the
# delta is the median of the per-pair deltas, and `faster` counts the pairs
# in which the head was faster. The run order is the fixed one of
# benchmark/src/workloads/figures.rs (`programs`): 12 UPMEM sessions, the 9
# crossbar programs, 5 sharded ops.
#
# Exit codes: 0 printed; 2 bad usage, a missing tool or a trace that does not
# hold whole passes of 26 runs.
set -uo pipefail

usage() {
    echo "usage: $0 <trace.json> | <base.json> <head.json> | <base.json>... -- <head.json>..." >&2
    exit 2
}
base=()
head=()
side=base
for a in "$@"; do
    if [ "$a" = "--" ]; then
        [ "$side" = base ] || usage
        side=head
    elif [ "$side" = base ]; then
        base+=("$a")
    else
        head+=("$a")
    fi
done
if [ "$side" = base ]; then
    # No separator: one trace, or one pair.
    case ${#base[@]} in
        1) ;;
        2) head=("${base[1]}"); base=("${base[0]}") ;;
        *) usage ;;
    esac
elif [ ${#base[@]} -eq 0 ] || [ ${#base[@]} -ne ${#head[@]} ]; then
    usage
fi
command -v jq >/dev/null || { echo "$0: jq not found" >&2; exit 2; }
for f in "${base[@]}" "${head[@]}"; do
    [ -r "$f" ] || { echo "$0: cannot read $f" >&2; exit 2; }
done

jq -rn --argjson nbase "${#base[@]}" '
    ["upmem mm", "upmem conv", "upmem contrl", "upmem contrs1", "upmem contrs2", "upmem mv",
     "upmem va", "upmem sel", "upmem bfs", "upmem hst-l", "upmem red", "upmem ts",
     "crossbar mv", "crossbar mm", "crossbar 2mm", "crossbar 3mm", "crossbar conv",
     "crossbar contrl", "crossbar contrs1", "crossbar contrs2", "crossbar mlp",
     "sharded mm", "sharded mv", "sharded va", "sharded red", "sharded hst-l"] as $runs
    | def r: . * 1000 | round / 1000;
    def lpad(n): . + " " * ([n - length, 1] | max);
    def rpad(n): tostring | " " * ([n - length, 1] | max) + .;
    def median: sort | if length % 2 == 1 then .[length / 2 | floor]
        else (.[length / 2 - 1] + .[length / 2]) / 2 end;
    # Fastest harness.op per position in the pass, in ms.
    def fastest: [.traceEvents[] | select(.name == "harness.op")]
        | if length == 0 or length % ($runs | length) != 0
          then error("\(length) harness.op spans are not whole passes of \($runs | length) runs")
          else . end
        | (length / ($runs | length)) as $passes
        | [range($runs | length) as $i
           | [.[range($passes) * ($runs | length) + $i].dur] | min / 1000] ;
    # One row: a label, each side median of the sums over the runs
    # [from, to), and with two sides the median per-pair delta.
    def row($base; $head; $name; $from; $to):
        def sums($side): [$side[] | .[$from:$to] | add];
        [$name, (sums($base) | median | r)]
        + (if ($head | length) > 0
           then [range($base | length) as $k | sums($head)[$k] - sums($base)[$k]] as $d
                | [(sums($head) | median | r), ($d | median | r),
                   "\([$d[] | select(. < 0)] | length)/\($d | length)"]
           else [] end);
    [inputs | fastest] as $cols
    | $cols[:$nbase] as $base | $cols[$nbase:] as $head
    | (if ($head | length) > 0
       then ["run", "base ms", "head ms", "head - base", "faster"] else ["run", "ms"] end),
      (range($runs | length) as $i | row($base; $head; $runs[$i]; $i; $i + 1)),
      row($base; $head; "upmem (12)"; 0; 12),
      row($base; $head; "crossbar (9)"; 12; 21),
      row($base; $head; "sharded (5)"; 21; 26),
      row($base; $head; "pass"; 0; $runs | length)
    | (.[0] | lpad(18)) + (.[1:] | map(rpad(13)) | join(""))
' "${base[@]}" "${head[@]}" || exit 2
