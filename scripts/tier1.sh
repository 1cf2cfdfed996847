#!/usr/bin/env bash
# Tier-1 gate: release build, full test suite, lint-clean core crates,
# and one short traced sievebench run.
# Run from the repository root: ./scripts/tier1.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== tier1: cargo fmt --check =="
cargo fmt --check

echo "== tier1: cargo build --release =="
cargo build --release

echo "== tier1: cargo test --workspace -q =="
# The root package is a workspace member, so this runs every test binary
# under tests/ and every doc-test. The test build checks integer overflow
# (the dev profile's default; kernel_equivalence's
# test_builds_check_overflow fails if that ever changes), so a silent wrap
# in the SWAR kernels' bit algebra, the Type-1 depth tables, the recorder's
# sums or the traffic closed forms fails here.
cargo test --workspace -q

echo "== tier1: examples and sieve-cli (release) =="
# `cargo test` only compiles the examples, and no test invokes sieve-cli,
# yet they are the callers of much of the public API (SieveApi, load,
# thermal, KmerCounter, read_set_stats, fasta/fastq). Run each example and
# the CLI's three subcommands end to end; any non-zero exit fails here.
cargo build --release --examples -q
for example in examples/*.rs; do
    ./target/release/examples/"$(basename "$example" .rs)" > /dev/null
done
CLI_DATA=$(mktemp -d)
trap 'rm -rf "$CLI_DATA"' EXIT
./target/release/sieve-cli make-data --out "$CLI_DATA" --taxa 8 --reads 500 > /dev/null
for subcommand in classify simulate; do
    ./target/release/sieve-cli "$subcommand" --reference "$CLI_DATA/reference.fasta" \
        --reads "$CLI_DATA/reads.fastq" > /dev/null
done

echo "== tier1: figure and table binaries (release) =="
# No test runs the 22 binaries under crates/bench/src/bin, so one that
# panics (say, on a sweep config its device refuses behind an .expect)
# fails only here. They write their CSVs into a temporary directory, not
# into results/, and results_gate.sh then fails on any committed file in
# results/ that the rerun does not reproduce (fig01_breakdown on its App
# and Reads classified columns only; its shares are wall-clock), and on a
# rerun CSV that results/ lacks.
FIGURES=$(mktemp -d)
trap 'rm -rf "$CLI_DATA" "$FIGURES"' EXIT
./scripts/figures.sh "$FIGURES"
./scripts/results_gate.sh "$FIGURES"

echo "== tier1: rustdoc (-D warnings) =="
# Broken intra-doc links (e.g. to a deleted or private item) fail here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== tier1: sievebench fmt, clippy and tests =="
# The benchmark is its own package (outside the workspace) built against
# the public APIs of core/genomics/dram: its tests catch an API change
# that would break the benchmark. Being outside the workspace, it is
# reached by neither `cargo fmt --check` nor `cargo clippy --workspace`
# above, so it gets the same two gates here.
cargo fmt --check --manifest-path sievebench/Cargo.toml
cargo clippy --offline --manifest-path sievebench/Cargo.toml --all-targets -- -D warnings
cargo test --release --offline --manifest-path sievebench/Cargo.toml

echo "== tier1: sievebench gate (2 s traced run) =="
# One short traced run of every workload: every read must match the
# oracle, the spans must explain >= 95 % of each call, reads_per_s must
# clear a per-workload floor, and peak_heap_mb and setup_s stay under
# per-workload ceilings (see scripts/sievebench_gate.sh).
SIEVEBENCH_OUT=target/tier1-sievebench.txt
cargo run --release --offline --quiet --manifest-path sievebench/Cargo.toml -- \
    --seconds 2 --trace 1 --seed 1 > "$SIEVEBENCH_OUT"
./scripts/sievebench_gate.sh < "$SIEVEBENCH_OUT"

echo "== tier1: shellcheck scripts/*.sh =="
if command -v shellcheck >/dev/null 2>&1; then
    shellcheck scripts/*.sh
else
    echo "tier1: SKIP shellcheck — not installed in this container (install shellcheck to lint scripts/*.sh)"
fi

echo "== tier1: cargo clippy (workspace, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier1: audit #[ignore]d tests =="
# Every #[ignore] must carry a linked justification (an issue reference or
# URL) within a line of the attribute; unexplained quarantines rot.
bad=0
while IFS=: read -r file line _; do
    start=$(( line > 2 ? line - 2 : 1 ))
    context=$(sed -n "${start},$(( line + 1 ))p" "$file")
    if ! printf '%s' "$context" | grep -qiE 'issue|https?://'; then
        echo "tier1: unlinked #[ignore] at ${file}:${line} — add an '// issue: …' comment" >&2
        bad=1
    fi
done < <(grep -rn '#\[ignore' --include='*.rs' crates src tests 2>/dev/null || true)
if [ "$bad" -ne 0 ]; then
    exit 1
fi

echo "== tier1: OK =="
