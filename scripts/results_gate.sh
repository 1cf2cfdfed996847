#!/usr/bin/env bash
# Tier-1 results gate: compares a scripts/figures.sh run in DIR with the
# committed results/, so every committed figure is what the tree prints.
# Fails when a committed CSV or results/all_figures.txt differs from the
# rerun, or when the rerun wrote a CSV that results/ lacks; each failure
# names the file. fig01_breakdown's shares and its "Largest other stage"
# column are one run's wall-clock times, so that table is compared on its
# App and Reads classified columns only, in its CSV and in its section of
# all_figures.txt.
# Run from anywhere, after ./scripts/figures.sh DIR:
#   ./scripts/results_gate.sh DIR
# To refresh results/ after an intended change, see results/README.md.
set -euo pipefail

if [ "$#" -ne 1 ]; then
    echo "usage: $0 DIR" >&2
    exit 2
fi
dir=$(cd "$1" && pwd)
cd "$(dirname "$0")/.."

# Prints FILE without fig01_breakdown's wall-clock columns. In its table
# the rule under the header is as wide as those columns, so it goes too.
deterministic() {
    case $(basename "$1") in
        fig01_breakdown.csv) cut -d, -f1,5 "$1" ;;
        all_figures.txt)
            awk '/^===== / { fig01 = ($2 == "fig01_breakdown"); print; next }
                 fig01 && /^-+$/ { next }
                 fig01 && NF { print $1, $NF; next }
                 { print }' "$1" ;;
        *) cat "$1" ;;
    esac
}

bad=0
for committed in results/*.csv results/all_figures.txt; do
    name=$(basename "$committed")
    rerun="$dir/results/$name"
    if [ "$name" = all_figures.txt ]; then
        rerun="$dir/$name"
    fi
    if [ ! -f "$rerun" ]; then
        echo "results: $name is committed but the rerun did not write it" >&2
        bad=1
    elif ! cmp -s <(deterministic "$committed") <(deterministic "$rerun"); then
        echo "results: $name differs from the rerun:" >&2
        diff -u --label "results/$name" --label rerun \
            <(deterministic "$committed") <(deterministic "$rerun") | head -n 12 >&2 || true
        bad=1
    fi
done
for rerun in "$dir"/results/*.csv; do
    name=$(basename "$rerun")
    if [ ! -f "results/$name" ]; then
        echo "results: the rerun wrote $name, which results/ lacks" >&2
        bad=1
    fi
done
exit "$bad"
