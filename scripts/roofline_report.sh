#!/usr/bin/env bash
# Roofline report: renders the per-phase roofline rows of a committed
# `bench_classify --json` artifact (default results/BENCH_classify.json;
# pass another path as $1) as a table — bytes moved, wall time, achieved
# GB/s, and the fraction of the machine's calibrated peak (see
# DESIGN.md §10 for the methodology and scripts/bench_check.sh for the
# gate built on the same numbers).
#
# The output is a pure function of the artifact, so tier1.sh diffs it
# against the committed results/ROOFLINE.txt golden: regenerate both
# together (bench_calibrate; bench_classify --json --chunk 1000; then
# ./scripts/roofline_report.sh > results/ROOFLINE.txt).
#
# Run from the repository root: ./scripts/roofline_report.sh
set -euo pipefail

cd "$(dirname "$0")/.."

SRC="${1:-results/BENCH_classify.json}"

if [[ ! -f "$SRC" ]]; then
    echo "roofline_report: error — no bench artifact at $SRC (run: cargo run --release -p sieve-bench --bin bench_classify -- --json)" >&2
    exit 1
fi

schema=$(awk -F'"schema_version": ' '/^  "schema_version": / { split($2, a, "[,}]"); print a[1]; exit }' "$SRC")
if ! awk -v s="${schema:-}" 'BEGIN { exit !(s + 0 >= 2 && s == int(s) && s != "") }'; then
    echo "roofline_report: error — $SRC has no parseable \"schema_version\" >= 2 (got '${schema:-none}'); regenerate it with the current bench_classify --json" >&2
    exit 1
fi

echo "== roofline: $SRC (schema v${schema}) =="
if grep -q '"calibration": null' "$SRC"; then
    echo "calibration: none — phases unclassified (run: cargo run --release -p sieve-bench --bin bench_calibrate)"
else
    awk -F': ' '/^  "calibration": \{/ {
        split($0, c, /"copy_gbps_1t": /);    split(c[2], a, "[,}]")
        split($0, v, /"schema_version": /);  split(v[2], d, "[,}]")
        # Artifacts from before schema v3 also carry retired scatter probes.
        sc = ""
        if ($0 ~ /"scatter_gbps_1t": /) {
            split($0, s, /"scatter_gbps_1t": /); split(s[2], b, "[,}]")
            sc = sprintf(", scatter %s GB/s", b[1])
        }
        if ($0 ~ /"scatter8_gbps_1t": /) {
            split($0, e, /"scatter8_gbps_1t": /); split(e[2], f, "[,}]")
            sc = sc sprintf(", scatter8 %s GB/s", f[1])
        }
        printf "calibration: copy %s GB/s%s (single-core peaks, MACHINE.json schema v%s)\n", a[1], sc, d[1]
        exit
    }' "$SRC"
fi
echo

# One roofline row per line in the artifact; every column below is read
# from the artifact verbatim (this script derives nothing), so the table
# is exactly as reproducible as the JSON it renders.
awk '
function field(key,    a, b) {
    split($0, a, "\"" key "\": ")
    split(a[2], b, "[,}]")
    return b[1]
}
BEGIN {
    fmt = "%-14s %11s %11s %9s %10s %9s %7s %7s %6s  %s\n"
    printf fmt, "phase", "read MB", "written MB", "items", "wall ms", "ns/item", "GB/s", "peak", "frac", "bound"
    printf fmt, "-----", "-------", "----------", "-----", "-------", "-------", "----", "----", "----", "-----"
}
/"phase": / {
    phase = field("phase"); gsub(/"/, "", phase)
    bound = field("bound"); gsub(/"/, "", bound)
    printf fmt, phase,
        sprintf("%.2f", field("bytes_read") / 1e6),
        sprintf("%.2f", field("bytes_written") / 1e6),
        field("items"),
        sprintf("%.2f", field("wall_ns") / 1e6),
        field("ns_per_item"),
        field("gbps"),
        field("peak_gbps"),
        field("frac_of_peak"),
        bound
}
' "$SRC"
