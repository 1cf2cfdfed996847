#!/usr/bin/env bash
# Tier-1 benchmark gate over the standard output of one traced sievebench
# run, read on stdin. sievebench exits 0 even when reads fail, so the gate
# parses what it printed and fails unless
#
#   * its last line, the result line, reads "correct": true and
#     "failed": 0;
#   * every workload's bench.coverage is at least 0.95: the pipeline's
#     top-level spans explain at least 95 % of each traced call;
#   * every workload's reads_per_s is at least its floor below, about
#     half what the workload read in 20 s runs on a 2-vCPU Xeon VM when
#     the floors were set. reads_per_s is on sievebench's reference
#     clock, which absorbs the host's speed drift;
#   * every workload's peak_heap_mb is at most its ceiling below: the
#     host classifies block by block, so a call holds one block of
#     k-mers besides its per-read output (~0.4-0.6 MB), and
#     mg_fastq_stream also its parsed reads (~2.8 MB: the records
#     fastq::parse returns, in a vector allocated once at its final
#     size). peak_heap_mb repeats exactly for a seed at one thread, so
#     this check cannot flake; a call that materializes its whole batch
#     again (19.84 MB on mg_batch before the block pass), or a parse
#     that indexes its lines first (4.31 MB on mg_fastq_stream), fails
#     it;
#   * every workload's setup_s is at most its ceiling below, about twice
#     what the sort-and-fold database build read in 2 s traced runs on
#     a 2-vCPU Xeon VM (~0.006 s on the 16-taxon workloads, ~0.06-0.07 s
#     on large_ref). setup_s is on the reference clock too. The HashMap
#     build it replaced read 0.016-0.021 and 0.21 s there, so a return
#     of a hash build, or of anything as slow, fails it.
#
# A missing result line, or a workload without a reads_per_s,
# bench.coverage, peak_heap_mb or setup_s line, fails too, so the gate
# cannot pass on empty or truncated output. Each failure names the
# workload and the metric.
#
# Run from the repository root:
#   cargo run --release --offline --manifest-path sievebench/Cargo.toml -- \
#       --seconds 2 --trace 1 --seed 1 | ./scripts/sievebench_gate.sh
set -euo pipefail

awk '
BEGIN {
    n = split("mg_batch mg_fastq_stream hot_stream large_ref t1_batch", workloads, " ")
    floor["mg_batch"] = 175000
    floor["mg_fastq_stream"] = 170000
    floor["hot_stream"] = 155000
    floor["large_ref"] = 139000
    floor["t1_batch"] = 73000
    ceiling["mg_batch"] = "1.0"
    ceiling["mg_fastq_stream"] = "3.0"
    ceiling["hot_stream"] = "1.0"
    ceiling["large_ref"] = "1.0"
    ceiling["t1_batch"] = "1.0"
    setup_ceiling["mg_batch"] = "0.013"
    setup_ceiling["mg_fastq_stream"] = "0.013"
    setup_ceiling["hot_stream"] = "0.013"
    setup_ceiling["large_ref"] = "0.14"
    setup_ceiling["t1_batch"] = "0.013"
    min_coverage = 0.95
}
NF { last = $0 }
NF == 4 && $2 == "reads_per_s" { rps[$1] = $3 }
NF == 4 && $2 == "bench.coverage" { coverage[$1] = $3 }
NF == 4 && $2 == "peak_heap_mb" { heap[$1] = $3 }
NF == 4 && $2 == "setup_s" { setup[$1] = $3 }
function fail(msg) {
    print "sievebench gate: FAIL — " msg > "/dev/stderr"
    bad = 1
}
END {
    if (last !~ /^\{"correct": /) {
        fail("no result line")
    } else {
        if (last !~ /^\{"correct": true, /) fail("result line: correct is not true")
        if (last !~ /, "failed": 0, /) fail("result line: failed is not 0")
    }
    for (i = 1; i <= n; i++) {
        w = workloads[i]
        if (!(w in rps)) {
            fail(w " reads_per_s: missing")
        } else if (!(rps[w] + 0 >= floor[w])) {
            fail(w " reads_per_s: " rps[w] " is below its floor of " floor[w])
        }
        if (!(w in coverage)) {
            fail(w " bench.coverage: missing")
        } else if (!(coverage[w] + 0 >= min_coverage)) {
            fail(w " bench.coverage: " coverage[w] " is below " min_coverage)
        }
        if (!(w in heap)) {
            fail(w " peak_heap_mb: missing")
        } else if (!(heap[w] + 0 <= ceiling[w] + 0)) {
            fail(w " peak_heap_mb: " heap[w] " is above its ceiling of " ceiling[w])
        }
        if (!(w in setup)) {
            fail(w " setup_s: missing")
        } else if (!(setup[w] + 0 <= setup_ceiling[w] + 0)) {
            fail(w " setup_s: " setup[w] " is above its ceiling of " setup_ceiling[w])
        }
        printf "   %-16s reads_per_s %8.0f (floor %6d)  bench.coverage %.4f  peak_heap_mb %.2f (ceiling %s)  setup_s %.4f (ceiling %s)\n", w, rps[w], floor[w], coverage[w], heap[w], ceiling[w], setup[w], setup_ceiling[w]
    }
    if (bad) exit 1
    print "== sievebench gate: OK =="
}'
