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
# under tests/ and every doc-test.
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

echo "== tier1: rustdoc (-D warnings) =="
# Broken intra-doc links (e.g. to a deleted or private item) fail here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== tier1: kernel differential suite under overflow checks =="
# The SWAR kernels and their scalar twins (DESIGN.md §9) lean on
# wrapping-free bit algebra (LCP-from-XOR, mask erosion, rolling shifts);
# overflow checks turn any silent wrap in that algebra into a test
# failure. The extraction and revcomp twins live in kernel_equivalence,
# the vote and LCP twins next to their scalar references in sieve-core's
# host and engine modules, the block-pass twin in host
# (block_pass_twins_extract_run_vote: classify_reads and classify_stream,
# block by block, held bit for bit to extract_kmers -> SieveDevice::run ->
# vote_reads), the staged search of the layout's key
# column in layout (staged_search_twins_lookup*: the global rank, the
# rank -> subarray arithmetic with its g - 1 at g = 0, and the outcome,
# held to a test-local first-key search -- the largest subarray whose
# first key is at most the query -- and engine::lookup, next to the
# store's size bound), the recorder in obs (obs::tests: its counts and
# sums are plain u64 additions, so a wrap fails here instead of passing
# silently), and the Type-1 per-query
# cost twin (type1_cost_twins_reference_*: u16 depth-table prefix sums,
# LCP from XOR on boundary keys, the row-stream sums) in sched, next to
# the config guard that keeps those prefix sums from wrapping, and the
# reference database build in sieve-genomics' db
# (sort_build_twins_hash_reference: the extract -> sort -> fold build, its
# Σ(len + 1 - k) pre-sizing and its run folds, held bit for bit to the
# HashMap build it replaced, with and without a taxonomy, canonical on
# and off, k in {1, 5, 16, 31, 32}, genomes holding Ns, shorter than k or
# listed twice, and no genomes), and prof_traffic (prof::traffic's closed
# forms are u64 products of the recorder's counts and sums, held to
# test-local byte constants). A separate target dir keeps the special
# RUSTFLAGS from invalidating the main cache.
RUSTFLAGS="-C overflow-checks=on" CARGO_TARGET_DIR=target/overflow \
    cargo test -q --test kernel_equivalence --test prof_traffic
RUSTFLAGS="-C overflow-checks=on" CARGO_TARGET_DIR=target/overflow \
    cargo test -q -p sieve-core --lib -- host::tests engine::tests layout::tests sched::tests config::tests obs::tests
RUSTFLAGS="-C overflow-checks=on" CARGO_TARGET_DIR=target/overflow \
    cargo test -q -p sieve-genomics --lib -- db::tests

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
