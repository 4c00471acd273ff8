#!/usr/bin/env bash
# Pin quarantine lint: the shims `benchmark/` compiles against (ROADMAP item
# 14) live in one module per crate — `crates/cinm-core/src/pinned.rs`,
# `crates/cinm-lowering/src/pinned.rs` and `crates/cinm-runtime/src/stream.rs`
# — and nothing else in the workspace calls them, so deleting those modules
# (ROADMAP item 1(d)) deletes the old op forms with them. Fails when a `.rs`
# file under crates/, src/, tests/ or examples/ outside those modules names
#
#   ShardOp, DeviceFuture, op_from_name, ESTIMATE_BINS or hazard_deps,
#   `estimate_joules(`, or a call to `.plan(` (the string planner entries),
#
# other than on the counted lines of the allow-list below — the re-exports
# that keep the pins at their paths and the declaration of the hidden
# `Device::submit` — and in tests/pinned.rs, the one test that checks each
# pin against its typed twin. `.submit(` is deliberately not matched:
# `SessionServer::submit` is unrelated.
#
# Usage: tools/check_pins.sh
# Exit codes: 0 clean; 1 a violation (each is printed).

set -u
cd "$(dirname "$0")/.."

# The pinned modules and their one agreement test: every line of them may
# name a pin.
pinned=(
    crates/cinm-core/src/pinned.rs
    crates/cinm-lowering/src/pinned.rs
    crates/cinm-runtime/src/stream.rs
    tests/pinned.rs
)

# `<file> <lines>`: files outside the pinned modules that name a pin, and on
# how many lines.
allowed=(
    # `pub use crate::pinned::{DeviceFuture, ShardOp}` and the signature of
    # the hidden `Device::submit`.
    "crates/cinm-lowering/src/device.rs 2"
    # The crate-root re-export of the device module's items (two lines of
    # one `pub use`).
    "crates/cinm-lowering/src/lib.rs 2"
    # `pub use stream::{hazard_deps, Access, BufferId}`.
    "crates/cinm-runtime/src/lib.rs 1"
)

errors=0
pins='\b(ShardOp|DeviceFuture|op_from_name|ESTIMATE_BINS|hazard_deps)\b|estimate_joules\(|\.plan\('

declare -A lines_allowed
for file in "${pinned[@]}"; do
    lines_allowed["$file"]=any
done
for entry in "${allowed[@]}"; do
    lines_allowed["${entry% *}"]="${entry##* }"
done
for file in "${!lines_allowed[@]}"; do
    if [ ! -f "$file" ]; then
        echo "the pin lists name $file, which does not exist" >&2
        errors=$((errors + 1))
    fi
done

for file in $(find crates src tests examples -name '*.rs' | sort); do
    want="${lines_allowed[$file]:-0}"
    [ "$want" = any ] && continue
    found="$(grep -cE "$pins" "$file")"
    if [ "$found" != "$want" ]; then
        echo "$file: $found line(s) name a benchmark pin, the allow-list says $want:" >&2
        grep -nE "$pins" "$file" | sed 's/^/    /' >&2
        errors=$((errors + 1))
    fi
done

if [ "$errors" -gt 0 ]; then
    echo "error: $errors pin violation(s). Call the typed path instead" >&2
    echo "       (ShardPlanner::plan_op, CachedShardPlanner::plan_op, Device::run)." >&2
    exit 1
fi
echo "OK: the benchmark's pins are named only in their modules and the allow-listed lines"
