#!/usr/bin/env bash
# Replays the mutation checks listed in scripts/mutants.txt (or the list
# given as the first argument). Each mutant replaces one exact snippet of
# one file in a copy of the tree, and the tests it names must then fail.
#
# The copy lives in target/mutants/tree and builds into
# target/mutants/target, which every mutant and every run share, so a
# mutant rebuilds only the crate it touches and what depends on it. The
# copy is synced from the working tree's tracked files by content, so
# uncommitted edits to them are checked too (an untracked file is not
# copied until it is added), and a file the working tree no longer
# tracks is deleted from it.
#
# The runner fails, naming the mutant, when
#   * a mutant survives: its tests build and pass;
#   * its snippet does not occur exactly once in its file, so a list that
#     no longer matches the code cannot pass silently;
#   * the mutated tree does not build its tests;
#   * a line of the list is malformed.
#
# List format: one mutant per line, four fields separated by " ||| ":
#   file ||| exact snippet ||| replacement ||| cargo test arguments
# The arguments select the tests that must fail, for example
#   -p sieve-core --lib sched::tests::type1_
# Blank lines and lines starting with # are skipped; the comment above a
# mutant says what it breaks.
#
# Run from anywhere: ./scripts/mutants.sh [LIST]
set -euo pipefail
shopt -u patsub_replacement 2>/dev/null || true

cd "$(dirname "$0")/.."
root=$PWD
list=$(realpath "${1:-scripts/mutants.txt}")
work=$root/target/mutants
tree=$work/tree
log=$work/last.log
export CARGO_TARGET_DIR=$work/target
mkdir -p "$tree"

# Sync the copy: a file whose content differs is copied with a fresh
# mtime, so cargo rebuilds it; an unchanged file keeps its mtime. Every
# other file in the copy is deleted, so a crate or test removed since the
# last run does not stay a member of the copy's workspace.
export LC_ALL=C
files=$work/files
git ls-files -z | while IFS= read -r -d '' file; do
    if [ -f "$file" ]; then printf '%s\0' "$file"; fi
done | sort -z > "$files"
while IFS= read -r -d '' file; do
    if ! cmp -s "$file" "$tree/$file"; then
        mkdir -p "$tree/$(dirname "$file")"
        cp "$file" "$tree/$file"
    fi
done < "$files"
(cd "$tree" && find . -type f -printf '%P\0') | sort -z | comm -z -13 "$files" - |
    while IFS= read -r -d '' file; do rm -f "$tree/$file"; done
find "$tree" -mindepth 1 -type d -empty -delete

sep=' ||| '
failed=0
mutants=0
lineno=0
start=$SECONDS
while IFS= read -r line || [ -n "$line" ]; do
    lineno=$((lineno + 1))
    case "$line" in '' | '#'*) continue ;; esac
    file=${line%%"$sep"*}
    rest=${line#*"$sep"}
    snippet=${rest%%"$sep"*}
    rest=${rest#*"$sep"}
    replacement=${rest%%"$sep"*}
    tests=${rest#*"$sep"}
    if [ "$tests" = "$rest" ] || [ -z "$snippet" ] || [[ "$tests" == *"$sep"* ]]; then
        echo "mutants: FAIL — line $lineno: not four ' ||| '-separated fields" >&2
        failed=1
        continue
    fi
    mutants=$((mutants + 1))
    name="line $lineno ($file)"
    if [ ! -f "$root/$file" ]; then
        echo "mutants: FAIL — $name: no such file" >&2
        failed=1
        continue
    fi
    # Read the file whole, trailing newlines included.
    content=$(cat "$root/$file"; printf x)
    content=${content%x}
    stripped=${content//"$snippet"/}
    count=$(((${#content} - ${#stripped}) / ${#snippet}))
    if [ "$count" -ne 1 ]; then
        echo "mutants: FAIL — $name: snippet occurs $count times, not once: $snippet" >&2
        failed=1
        continue
    fi
    printf '%s' "${content/"$snippet"/"$replacement"}" > "$tree/$file"
    began=$SECONDS
    # shellcheck disable=SC2086 # the test arguments are words
    if ! (cd "$tree" && cargo test -q --offline --no-run $tests) > "$log" 2>&1; then
        echo "mutants: FAIL — $name: the mutated tree does not build (see $log)" >&2
        failed=1
    elif (cd "$tree" && cargo test -q --offline $tests) > "$log" 2>&1; then
        echo "mutants: FAIL — $name survived: cargo test $tests passed with $snippet -> $replacement" >&2
        failed=1
    else
        echo "   killed  $name in $((SECONDS - began)) s: $snippet -> $replacement"
    fi
    # Restore with a fresh mtime, so the next build drops the mutant.
    cp "$root/$file" "$tree/$file"
done < "$list"

if [ "$mutants" -eq 0 ]; then
    echo "mutants: FAIL — no mutant in $list" >&2
    failed=1
fi
if [ "$failed" -ne 0 ]; then
    exit 1
fi
echo "== mutants: all $mutants killed in $((SECONDS - start)) s =="
