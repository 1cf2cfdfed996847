#!/usr/bin/env bash
# Bench smoke gate: a fast `bench_classify --json` run (scaled-down
# workload, separate --out so the committed results/BENCH_classify.json
# is never clobbered) with three regression floors:
#
#   * 1-thread throughput — must stay above SMOKE_FLOOR_1T reads/sec.
#     The floor is half of the slowest committed full-run baseline
#     (80,272 reads/sec before the radix-plan + dedup rework), so it
#     trips on algorithmic regressions, not scheduler noise.
#   * 2-thread streamed speedup — must stay above SMOKE_FLOOR_SPEEDUP_2T
#     on any host with >= 2 cores. This is the floor that catches the
#     planner re-serializing (the pre-parallel-radix regression showed
#     0.85x here); it guards the streamed path because that is where the
#     pipelined extractor overlaps the device the most.
#   * 4-thread batch speedup — must stay above SMOKE_FLOOR_SPEEDUP_4T
#     on any host with >= 4 cores.
#
# Wall-clock parallel speedup needs physical cores. bench_classify marks
# each row "oversubscribed": true when its thread count exceeds what the
# container detects (CI containers are often 1-core); those rows' floors
# are SKIPPED with a message, because oversubscribed threads on one core
# cannot speed anything up and the number would only measure scheduler
# noise. The flag comes from the artifact itself, so this script and
# bench_check.sh skip the exact rows the bench classified — host_cores
# still honours SIEVE_HOST_CORES (see bench_classify) for containers
# that under-report parallelism.
#
# Run from the repository root: ./scripts/bench_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."

SMOKE_READS="${SMOKE_READS:-2000}"
SMOKE_REPS="${SMOKE_REPS:-6}"
SMOKE_CHUNK=$((SMOKE_READS / 4))
SMOKE_OUT=target/bench_smoke.json
SMOKE_FLOOR_1T=40000
SMOKE_FLOOR_SPEEDUP_2T=1.2
SMOKE_FLOOR_SPEEDUP_4T=1.4
BASELINE=results/BENCH_classify.json

# The smoke gate itself only reads its own fresh run, but it is the
# first bench script tier1 executes — so it also vouches for the
# committed baseline every other consumer (bench_check.sh,
# roofline_report.sh) gates against: present, and with a schema version
# this toolchain understands. A missing or unversioned baseline fails
# here, loudly, instead of as an empty-field mystery two scripts later.
if [[ ! -f "$BASELINE" ]]; then
    echo "bench_smoke: error — no committed baseline at $BASELINE (regenerate with bench_classify --json)" >&2
    exit 1
fi
base_schema=$(awk -F'"schema_version": ' '/^  "schema_version": / { split($2, a, "[,}]"); print a[1]; exit }' "$BASELINE")
if ! awk -v s="${base_schema:-}" 'BEGIN { exit !(s + 0 >= 2 && s == int(s) && s != "") }'; then
    echo "bench_smoke: error — $BASELINE has no parseable \"schema_version\" >= 2 (got '${base_schema:-none}'); regenerate it with the current bench_classify --json" >&2
    exit 1
fi

echo "== bench_smoke: ${SMOKE_READS} reads x ${SMOKE_REPS} reps (chunk ${SMOKE_CHUNK}) =="
cargo run -q --release -p sieve-bench --bin bench_classify -- \
    --reads "$SMOKE_READS" --reps "$SMOKE_REPS" --chunk "$SMOKE_CHUNK" \
    --json --out "$SMOKE_OUT"

# The hand-rolled JSON is line-per-row, so awk is enough to pull fields.
# The ":" in the anchor matters: "host_cores_detected" must not match.
cores=$(awk -F'[ ,]' '/"host_cores":/ { print $4 }' "$SMOKE_OUT")
# Anchor batch floors on the chunk-0 rows and the streamed floor on the
# non-zero chunk rows: both row families carry the same thread counts.
rps_1t=$(awk -F'"reads_per_sec": ' '/"threads": 1, "chunk": 0,/ { split($2, a, ","); print a[1]; exit }' "$SMOKE_OUT")
speedup_2t=$(awk -F'"speedup_vs_1_thread": ' '/"threads": 2, "chunk": [1-9]/ { split($2, a, ","); print a[1]; exit }' "$SMOKE_OUT")
speedup_4t=$(awk -F'"speedup_vs_1_thread": ' '/"threads": 4, "chunk": 0,/ { split($2, a, ","); print a[1]; exit }' "$SMOKE_OUT")
over_2t=$(awk -F'"oversubscribed": ' '/"threads": 2, "chunk": [1-9]/ { split($2, a, ","); print a[1]; exit }' "$SMOKE_OUT")
over_4t=$(awk -F'"oversubscribed": ' '/"threads": 4, "chunk": 0,/ { split($2, a, ","); print a[1]; exit }' "$SMOKE_OUT")

echo "   host_cores=${cores} 1t=${rps_1t} reads/sec 2t_streamed_speedup=${speedup_2t:-n/a} 4t_speedup=${speedup_4t:-n/a}"

fail=0
if ! awk -v v="$rps_1t" -v floor="$SMOKE_FLOOR_1T" 'BEGIN { exit !(v >= floor) }'; then
    echo "bench_smoke: FAIL — 1-thread throughput ${rps_1t} reads/sec below floor ${SMOKE_FLOOR_1T}" >&2
    fail=1
fi
if [ "${over_2t:-false}" = "true" ]; then
    echo "bench_smoke: SKIP 2-thread streamed speedup floor (row marked oversubscribed: host detects fewer than 2 cores, so the number would measure scheduler noise)"
elif ! awk -v v="$speedup_2t" -v floor="$SMOKE_FLOOR_SPEEDUP_2T" 'BEGIN { exit !(v >= floor) }'; then
    echo "bench_smoke: FAIL — 2-thread streamed speedup ${speedup_2t}x below floor ${SMOKE_FLOOR_SPEEDUP_2T}x" >&2
    fail=1
fi
if [ "${over_4t:-false}" = "true" ]; then
    echo "bench_smoke: SKIP 4-thread speedup floor (row marked oversubscribed: host detects fewer than 4 cores, so the number would measure scheduler noise)"
elif ! awk -v v="$speedup_4t" -v floor="$SMOKE_FLOOR_SPEEDUP_4T" 'BEGIN { exit !(v >= floor) }'; then
    echo "bench_smoke: FAIL — 4-thread speedup ${speedup_4t}x below floor ${SMOKE_FLOOR_SPEEDUP_4T}x" >&2
    fail=1
fi
if [ "$fail" -ne 0 ]; then
    exit 1
fi

echo "== bench_smoke: OK =="
