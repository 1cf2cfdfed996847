#!/usr/bin/env bash
# Runs every figure and table binary (crates/bench/src/bin/*.rs) in
# release, each with DIR as its working directory, so each CSV lands in
# DIR/results/ and each binary's stdout in DIR/<binary>.txt, not in the
# repository. DIR/all_figures.txt collects every stdout, each under a
# "===== <binary> =====" header, in run order. Fails on the first binary
# that exits non-zero.
# Run from anywhere: ./scripts/figures.sh DIR
# ./scripts/results_gate.sh DIR then compares the run with results/. To
# compare two trees, run each tree's copy into its own DIR and diff the
# two (fig01_breakdown's wall-clock shares differ from run to run).
set -euo pipefail

if [ "$#" -ne 1 ]; then
    echo "usage: $0 DIR" >&2
    exit 2
fi
mkdir -p "$1"
out=$(cd "$1" && pwd)
cd "$(dirname "$0")/.."
cargo build --release --offline -q -p sieve-bench --bins
target=${CARGO_TARGET_DIR:-target}
case $target in
    /*) ;;
    *) target="$(pwd)/$target" ;;
esac
bins="$target/release"
: > "$out/all_figures.txt"
for src in crates/bench/src/bin/*.rs; do
    name=$(basename "$src" .rs)
    if ! (cd "$out" && "$bins/$name" > "$name.txt"); then
        echo "figures: $name exited non-zero" >&2
        exit 1
    fi
    { echo "===== $name ====="; cat "$out/$name.txt"; } >> "$out/all_figures.txt"
done
