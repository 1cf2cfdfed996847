#!/usr/bin/env bash
# Tier-1 gate: release build, full test suite, and lint-clean core crates.
# Run from the repository root: ./scripts/tier1.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== tier1: cargo fmt --check =="
cargo fmt --check

echo "== tier1: cargo build --release =="
cargo build --release

echo "== tier1: cargo test --workspace -q =="
cargo test --workspace -q

echo "== tier1: doc-tests =="
cargo test --workspace --doc -q

echo "== tier1: rustdoc (-D warnings) =="
# Broken intra-doc links (e.g. to a deleted or private item) fail here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== tier1: observability + hardening test files =="
cargo test -q \
    --test obs_determinism \
    --test fault_model \
    --test report_golden \
    --test cluster_edge \
    --test parallel_determinism \
    --test prof_traffic \
    --test prof_determinism

echo "== tier1: kernel differential suite under overflow checks =="
# The SWAR kernels and their scalar twins (DESIGN.md §9) lean on
# wrapping-free bit algebra (LCP-from-XOR, mask erosion, rolling shifts);
# overflow checks turn any silent wrap in that algebra into a test
# failure. The extraction and revcomp twins live in kernel_equivalence,
# the vote and LCP twins next to their scalar references in sieve-core's
# host and engine modules. A separate target dir keeps the special
# RUSTFLAGS from invalidating the main cache.
RUSTFLAGS="-C overflow-checks=on" CARGO_TARGET_DIR=target/overflow \
    cargo test -q --test kernel_equivalence
RUSTFLAGS="-C overflow-checks=on" CARGO_TARGET_DIR=target/overflow \
    cargo test -q -p sieve-core --lib -- host::tests engine::tests

echo "== tier1: sievebench tests =="
# The benchmark is its own package (outside the workspace) built against
# the public APIs of core/genomics/dram: its tests catch an API change
# that would break the benchmark.
cargo test --release --offline --manifest-path sievebench/Cargo.toml

echo "== tier1: bench smoke (throughput floors) =="
./scripts/bench_smoke.sh

echo "== tier1: roofline report golden =="
# The report is a pure rendering of the committed artifact, so its
# output must match the committed golden byte-for-byte; regenerate both
# together (see the header of scripts/roofline_report.sh).
diff <(./scripts/roofline_report.sh) results/ROOFLINE.txt \
    || { echo "tier1: roofline_report.sh no longer matches results/ROOFLINE.txt — regenerate the golden with the artifact" >&2; exit 1; }

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
