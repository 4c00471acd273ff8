#!/usr/bin/env bash
# Public-API surface snapshot: extracts every `pub` item declaration of the
# workspace's library sources (crates/*/src and src/, i.e. what `cargo doc`
# documents; tests, benches and examples excluded), normalises it, and diffs
# it against the committed API.txt — so future PRs change the public API
# *deliberately*: an API change without a matching API.txt update fails CI.
#
#   tools/check_api.sh            # verify (CI mode)
#   tools/check_api.sh --update   # regenerate API.txt after an intended change
#
# The surface is also on a budget (ROADMAP aim 2: "`API.txt` should go
# down"): `--check` fails when the snapshot has more lines than `budget`
# below, so the public surface cannot grow past it unless the PR changes the
# number on purpose — down after a pruning, up with every addition named in
# the PR text.
#
# The snapshot is source-derived (grep over declaration lines) rather than
# rustdoc-derived so it is stable across toolchain versions and needs no
# nightly rustdoc-json; it deliberately includes `pub use` re-exports, since
# those are API surface too. Lines are normalised (collapsed whitespace,
# bodies/where-clauses stripped) and prefixed with their file path.
set -euo pipefail

budget=1141 # public items; lower it when the surface shrinks

cd "$(dirname "$0")/.."
snapshot_file="API.txt"

snapshot() {
    find crates src -path '*/src/*.rs' -o -path 'src/*.rs' | LC_ALL=C sort | while read -r f; do
        # Declaration lines only; normalise whitespace, strip bodies,
        # where-clauses and trailing semicolons.
        (grep -E '^[[:space:]]*pub (fn|struct|enum|trait|mod|type|const|static|use) ' "$f" || true) \
            | sed -E 's/[[:space:]]+/ /g; s/^ //; s/ ?\{.*$//; s/ where .*$//; s/;$//' \
            | sed "s|^|$f: |"
    done
}

case "${1:---check}" in
--update)
    snapshot >"$snapshot_file"
    echo "regenerated $snapshot_file ($(wc -l <"$snapshot_file") public items, budget $budget)"
    ;;
--check)
    [ -f "$snapshot_file" ] || {
        echo "error: $snapshot_file not found; run tools/check_api.sh --update"
        exit 1
    }
    if ! diff -u "$snapshot_file" <(snapshot) >/tmp/api_diff.$$ 2>&1; then
        echo "error: the public API surface changed but $snapshot_file was not updated."
        echo "       Review the diff below; if the change is intended, run"
        echo "       tools/check_api.sh --update and commit the result."
        cat /tmp/api_diff.$$
        rm -f /tmp/api_diff.$$
        exit 1
    fi
    rm -f /tmp/api_diff.$$
    count="$(wc -l <"$snapshot_file")"
    if [ "$count" -gt "$budget" ]; then
        echo "error: the public API surface has $count items, over its budget of $budget."
        echo "       Prune it, or raise \`budget\` in tools/check_api.sh on purpose and name"
        echo "       every addition in the PR text."
        exit 1
    fi
    echo "OK: public API surface matches $snapshot_file ($count public items, budget $budget)"
    ;;
*)
    echo "usage: tools/check_api.sh [--check|--update]"
    exit 2
    ;;
esac
