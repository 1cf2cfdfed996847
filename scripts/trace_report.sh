#!/usr/bin/env bash
# Trace report: captures one traced streaming run via
# `bench_classify --trace` and summarizes both exported artifacts —
# event counts per name on the model timeline, the heaviest folded
# stacks (what a flamegraph would show widest), and the drop counters
# (non-zero drops mean the ring capacity displaced events; raise it via
# Tracer::set_event_capacity before trusting aggregate weights).
#
#   ./scripts/trace_report.sh            # fresh scaled-down traced run
#   ./scripts/trace_report.sh --cached   # re-summarize target/trace_report.*
#
# Artifacts: target/trace_report.chrome.json (load into
# https://ui.perfetto.dev or chrome://tracing) and
# target/trace_report.folded (pipe through flamegraph.pl / inferno).
set -euo pipefail

cd "$(dirname "$0")/.."

TRACE_STEM=target/trace_report
TRACE_READS="${TRACE_READS:-2000}"

if [[ "${1:-}" != "--cached" ]]; then
    echo "== trace_report: tracing a ${TRACE_READS}-read streaming run =="
    cargo run -q --release -p sieve-bench --bin bench_classify -- \
        --reads "$TRACE_READS" --reps 1 --trace "$TRACE_STEM" \
        --out target/trace_report_bench.json --json
    echo
fi

CHROME="$TRACE_STEM.chrome.json"
FOLDED="$TRACE_STEM.folded"
if [[ ! -f "$FOLDED" ]]; then
    echo "error: $FOLDED not found (run without --cached first)" >&2
    exit 1
fi

echo "== model-timeline event counts (by name) =="
# Chrome events are one-per-line compact JSON; model lanes carry "pid":1.
awk -F'"name":"' '/"pid":1/ && /"ph":"[Xi]"/ {
    split($2, a, "\""); n[a[1]]++
} END { for (k in n) printf "  %-24s %d\n", k, n[k] }' "$CHROME" | sort

echo
echo "== heaviest folded stacks (top 12 by weight) =="
# Folded lines are "path;to;frame weight" — weight is the last field.
sort -k2 -n -r "$FOLDED" | head -n 12 | awk '{ printf "  %-56s %s\n", $1, $2 }'

echo
echo "== planner sort-phase attribution (wall lane) =="
# The radix pipeline brackets each phase in its own wall span (pid 2 =
# wall clock): "sort.hist" (global top-window histogram), "sort.scatter"
# (the one full-array MSD counting scatter, write-combining staged),
# "sort.flush" (partial staging-buffer drains inside the scatter),
# and "sort.local" (every bucket segment sort, narrowed or comparison).
# Their sum against the enclosing "shard.sort" total shows where planning
# time goes; sort.flush nests inside sort.scatter, so it is attribution
# detail, not additional mass. A batch small enough for the comparison
# cutover has a shard.sort span but no sort.* phases.
awk -F'"name":"' '/"pid":2/ && /"ph":"X"/ {
    split($2, a, "\""); name = a[1]
    if (name !~ /^(shard\.sort|sort\.(hist|scatter|local|flush))$/) next
    split($0, d, /"dur":/); split(d[2], v, "[,}]")
    busy[name] += v[1]; n[name]++
} END {
    if (!("shard.sort" in busy)) { print "  (no shard.sort spans in this trace)"; exit }
    total = busy["shard.sort"]
    order = "sort.hist sort.scatter sort.flush sort.local"
    split(order, names, " ")
    printf "  %-14s %12.1f us  (%d spans)\n", "shard.sort", total, n["shard.sort"]
    for (i = 1; i <= 4; i++) {
        name = names[i]
        if (!(name in busy)) continue
        printf "  %-14s %12.1f us  (%d spans, %.1f%% of shard.sort%s)\n", \
            name, busy[name], n[name], 100 * busy[name] / total, \
            name == "sort.flush" ? ", nested in scatter" : ""
    }
}' "$CHROME"

echo
echo "== timeline mass by domain =="
# %.0f, not %d: picosecond masses exceed 32-bit printf on mawk.
awk '{ split($1, p, ";"); mass[p[1]] += $NF }
     END { for (d in mass) printf "  %-6s %.0f (%s)\n", d, mass[d],
           d == "model" ? "simulated ps" : "host ns" }' "$FOLDED" | sort

echo
echo "== trace_report: OK ($CHROME, $FOLDED) =="
