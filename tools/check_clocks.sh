#!/usr/bin/env bash
# Host-clock lint: no decision and no test assertion of the library may read
# the wall clock, so tier-1 gives the same verdict on a busy machine as on a
# quiet one (ROADMAP item 8). Fails when
#
#   * `Instant` or `SystemTime` appears in a `.rs` file under crates/*/src or
#     tests/ other than the allow-list below, or on more or fewer lines of an
#     allowed file than the list says — a new clock read next to an allowed
#     one fails too, and the list changes only on purpose;
#   * a test — a file under tests/, or the `#[cfg(test)] mod` of a source
#     file — names `max_concurrent`, the field of `ShardStats` that the host's
#     scheduling decides.
#
# Usage: tools/check_clocks.sh
# Exit codes: 0 clean; 1 a violation (each is printed).

set -u
cd "$(dirname "$0")/.."

# `<file> <lines>`: the files that may read the host clock, and on how many
# lines.
allowed=(
    # Request latency of the server's statistics.
    "crates/cinm-core/src/serve.rs 4"
    # The deadline that turns a lost wake-up in the pool test's rendezvous
    # into a failure instead of a hang.
    "crates/cinm-runtime/src/pool.rs 3"
)

errors=0
clock='\b(Instant|SystemTime)\b'
fields='\bmax_concurrent\b'
sources="$(find crates/*/src tests -name '*.rs' | sort)"

declare -A lines_allowed
for entry in "${allowed[@]}"; do
    lines_allowed["${entry% *}"]="${entry##* }"
    if [ ! -f "${entry% *}" ]; then
        echo "allow-list names ${entry% *}, which does not exist" >&2
        errors=$((errors + 1))
    fi
done

for file in $sources; do
    found="$(grep -cE "$clock" "$file")"
    want="${lines_allowed[$file]:-0}"
    if [ "$found" != "$want" ]; then
        echo "$file: $found line(s) name the host clock, the allow-list says $want:" >&2
        grep -nE "$clock" "$file" | sed 's/^/    /' >&2
        errors=$((errors + 1))
    fi
done

for file in $sources; do
    case "$file" in
    tests/*) hits="$(grep -nE "$fields" "$file")" ;;
    *)
        # From the `#[cfg(test)]` that opens a `mod` to the end of the file.
        hits="$(awk '
            prev ~ /^[[:space:]]*#\[cfg\(test\)\]/ && /^[[:space:]]*(pub(\([a-z]+\))? )?mod / { t = 1 }
            t && match($0, "(^|[^A-Za-z0-9_])max_concurrent([^A-Za-z0-9_]|$)") { print NR ":" $0 }
            { prev = $0 }' "$file")"
        ;;
    esac
    if [ -n "$hits" ]; then
        echo "$file: a test reads a host-clock field of ShardStats:" >&2
        sed 's/^/    /' <<<"$hits" >&2
        errors=$((errors + 1))
    fi
done

if [ "$errors" -gt 0 ]; then
    echo "clock check failed: $errors problem(s)" >&2
    exit 1
fi
echo "clock check passed: host clock read only where allowed, and by no test"
