#!/usr/bin/env bash
# Link check for the repo's documentation: fails if EXPERIMENTS.md or
# ARCHITECTURE.md reference files or markdown anchors that do not exist.
#
#   * markdown links `[text](target)` — the target file must exist relative
#     to the repo root (http(s) links are skipped); `file#anchor` targets
#     additionally require a heading in the target file whose GitHub slug
#     matches the anchor;
#   * backticked repo paths (`crates/.../file.rs`, `tools/x.sh`, ...) —
#     any backticked token that contains a `/` and a known source/doc
#     extension must exist, unless git ignores it (see below).
#
# Usage: tools/check_links.sh [files...]   (default: EXPERIMENTS.md ARCHITECTURE.md)

set -u
cd "$(dirname "$0")/.."

files=("$@")
if [ ${#files[@]} -eq 0 ]; then
    files=(EXPERIMENTS.md ARCHITECTURE.md)
fi

errors=0

# A path the repo's .gitignore covers (a build or benchmark output such as
# `benchmark/out/trace_figures.json`) is made by running the tools and never
# committed, so a clean checkout cannot have it: the docs may name it, and it
# is not checked. Outside a git work tree (an unpacked `git archive`) a
# throwaway repository reads the same .gitignore files.
git_args=()
if ! git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    scratch_repo="$(mktemp -d)"
    trap 'rm -rf "$scratch_repo"' EXIT
    git init -q "$scratch_repo"
    git_args=(--git-dir="$scratch_repo/.git" --work-tree=.)
fi
ignored() {
    git "${git_args[@]}" check-ignore -q -- "$1" 2>/dev/null
}

# GitHub-style heading slug: lowercase, drop everything but alnum/space/
# hyphen, spaces to hyphens.
slugify() {
    printf '%s' "$1" \
        | tr '[:upper:]' '[:lower:]' \
        | sed -e 's/[^a-z0-9 -]//g' -e 's/ /-/g'
}

has_anchor() {
    local file="$1" anchor="$2" heading
    while IFS= read -r heading; do
        if [ "$(slugify "$heading")" = "$anchor" ]; then
            return 0
        fi
    done < <(sed -n 's/^#\{1,6\} \{0,1\}//p' "$file")
    return 1
}

for doc in "${files[@]}"; do
    if [ ! -f "$doc" ]; then
        echo "error: $doc does not exist"
        errors=$((errors + 1))
        continue
    fi

    # Markdown links.
    while IFS= read -r target; do
        case "$target" in
            http://*|https://*|mailto:*) continue ;;
        esac
        file="${target%%#*}"
        anchor=""
        case "$target" in
            *#*) anchor="${target#*#}" ;;
        esac
        if [ -z "$file" ]; then
            file="$doc"   # intra-document anchor
        fi
        if [ ! -e "$file" ]; then
            echo "error: $doc links to missing file '$file'"
            errors=$((errors + 1))
            continue
        fi
        if [ -n "$anchor" ] && ! has_anchor "$file" "$anchor"; then
            echo "error: $doc links to missing anchor '#$anchor' in '$file'"
            errors=$((errors + 1))
        fi
    done < <(grep -o '\[[^]]*\]([^)]*)' "$doc" | sed 's/^\[[^]]*\](//; s/)$//')

    # Backticked repo paths.
    while IFS= read -r path; do
        if [ ! -e "$path" ] && ! ignored "$path"; then
            echo "error: $doc references missing path '$path'"
            errors=$((errors + 1))
        fi
    done < <(grep -o '`[A-Za-z0-9_./-]*`' "$doc" \
        | tr -d '`' \
        | grep '/' \
        | grep -E '\.(rs|md|json|yml|yaml|toml|sh)$' \
        | sort -u)
done

if [ "$errors" -gt 0 ]; then
    echo "link check failed: $errors broken reference(s)"
    exit 1
fi
echo "link check passed for: ${files[*]}"
