#!/usr/bin/env bash
# Where a change to the `figures` workload saved (or lost) its host time: the
# 26 cold runs of one pass, one row each.
#
#   tools/figures_runs.sh <trace.json> [<trace.json>]
#
# Reads the Chrome trace a `cinm-benchmark run --workload figures` leaves in
# benchmark/out/trace_figures.json and prints, per run of the 26-run pass
# (device, workload), the fastest `harness.op` span over the traced passes in
# milliseconds, a subtotal per device group (12 UPMEM sessions, 9 crossbar
# programs, 5 sharded ops) and their sum. With a second trace (say the parent's and the
# change's) it prints both columns and the delta, so a claimed saving can be
# shown where it sits (choosing-metrics, section 6.6). The run order is the
# fixed one of benchmark/src/workloads/figures.rs (`programs`): 12 UPMEM
# sessions, the 9 crossbar programs, 5 sharded ops.
#
# Exit codes: 0 printed; 2 bad usage, a missing tool or a trace that does not
# hold whole passes of 26 runs.
set -uo pipefail

[ $# -eq 1 ] || [ $# -eq 2 ] || { echo "usage: $0 <trace.json> [<trace.json>]" >&2; exit 2; }
command -v jq >/dev/null || { echo "$0: jq not found" >&2; exit 2; }
for f in "$@"; do
    [ -r "$f" ] || { echo "$0: cannot read $f" >&2; exit 2; }
done

jq -rn '
    ["upmem mm", "upmem conv", "upmem contrl", "upmem contrs1", "upmem contrs2", "upmem mv",
     "upmem va", "upmem sel", "upmem bfs", "upmem hst-l", "upmem red", "upmem ts",
     "crossbar mv", "crossbar mm", "crossbar 2mm", "crossbar 3mm", "crossbar conv",
     "crossbar contrl", "crossbar contrs1", "crossbar contrs2", "crossbar mlp",
     "sharded mm", "sharded mv", "sharded va", "sharded red", "sharded hst-l"] as $runs
    | def r: . * 1000 | round / 1000;
    def lpad(n): . + " " * ([n - length, 1] | max);
    def rpad(n): tostring | " " * ([n - length, 1] | max) + .;
    # Fastest harness.op per position in the pass, in ms.
    def fastest: [.traceEvents[] | select(.name == "harness.op")]
        | if length == 0 or length % ($runs | length) != 0
          then error("\(length) harness.op spans are not whole passes of \($runs | length) runs")
          else . end
        | (length / ($runs | length)) as $passes
        | [range($runs | length) as $i
           | [.[range($passes) * ($runs | length) + $i].dur] | min / 1000] ;
    # One row: a label and the sum of each column over the runs [from, to).
    def row($cols; $name; $from; $to): [$name] + [$cols[] | .[$from:$to] | add | r]
        + (if ($cols | length) == 2
           then [($cols[1][$from:$to] | add) - ($cols[0][$from:$to] | add) | r] else [] end);
    [inputs | fastest] as $cols
    | (["run", "ms"] + (if ($cols | length) == 2 then ["ms (2nd)", "2nd - 1st"] else [] end)),
      (range($runs | length) as $i | row($cols; $runs[$i]; $i; $i + 1)),
      row($cols; "upmem (12)"; 0; 12),
      row($cols; "crossbar (9)"; 12; 21),
      row($cols; "sharded (5)"; 21; 26),
      row($cols; "pass"; 0; $runs | length)
    | (.[0] | lpad(18)) + (.[1:] | map(rpad(11)) | join(""))
' "$@" || exit 2
