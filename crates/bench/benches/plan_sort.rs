//! Criterion micro-benchmarks for the planner's pair sort: the production
//! radix pipeline against an inline comparison sort, across batch sizes
//! and key distributions. This is the calibration source for the
//! adaptive cutover's cost constants in `core::radix`
//! (`CMP_NS_X16_PER_KEY_LEVEL` and friends): rerun `plan_sort` after
//! touching the sort loops and retune the constants from the ns/key
//! these groups report.
//!
//! Distributions pick the shapes the pipeline special-cases: `uniform`
//! exercises the full pass plan, `one_giant_bucket` collapses the global
//! pass's histogram mass onto one segment (the steal queue's worst case,
//! sorted on tie-ranked narrow records), `pre_sorted` rewards nothing
//! (counting passes are oblivious to input order — the comparison sort's
//! pattern-defeating pivots are not), and `duplicate_heavy` narrows the
//! diff window so per-segment replans skip passes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sieve_core::sort_bench::SortHarness;

const SIZES: [usize; 3] = [4 << 10, 64 << 10, 1 << 20];

/// splitmix64, the same stream the core's sort tests draw from.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Key sets shaped like the planner's inputs: 62-bit k-mer codes.
fn keys(dist: &str, n: usize) -> Vec<u64> {
    const MASK: u64 = (1 << 62) - 1;
    let mut state = 0x5EED ^ n as u64;
    match dist {
        "uniform" => (0..n).map(|_| splitmix(&mut state) & MASK).collect(),
        // ~95% of keys share the top 11 bits; the fringe spreads out.
        "one_giant_bucket" => (0..n)
            .map(|i| {
                let k = splitmix(&mut state) & MASK;
                if i % 20 == 0 {
                    k
                } else {
                    (k & (MASK >> 11)) | (0x2AB << 51)
                }
            })
            .collect(),
        "pre_sorted" => {
            let mut v: Vec<u64> = (0..n).map(|_| splitmix(&mut state) & MASK).collect();
            v.sort_unstable();
            v
        }
        // 1023 distinct keys: heavy duplication, diff confined to the
        // spread of the survivors.
        "duplicate_heavy" => (0..n)
            .map(|_| {
                let mut pick = 0xD1CE ^ (splitmix(&mut state) & 0x3FF);
                (splitmix(&mut pick)) & MASK
            })
            .collect(),
        other => unreachable!("unknown distribution {other}"),
    }
}

/// The comparison reference: `(key, id)` pairs with ids in input order,
/// sorted by `sort_unstable_by_key` — the same total order the radix
/// pipeline produces — folded like [`SortHarness::run`].
fn comparison_sort(pairs: &mut Vec<(u64, u32)>, master: &[(u64, u32)]) -> u64 {
    pairs.clear();
    pairs.extend_from_slice(master);
    pairs.sort_unstable_by_key(|&p| p);
    pairs.iter().enumerate().fold(0u64, |acc, (i, &(key, id))| {
        acc.wrapping_mul(0x100_0000_01B3)
            .wrapping_add(key ^ u64::from(id) ^ i as u64)
    })
}

fn bench_plan_sort(c: &mut Criterion) {
    for dist in [
        "uniform",
        "one_giant_bucket",
        "pre_sorted",
        "duplicate_heavy",
    ] {
        let mut g = c.benchmark_group(format!("plan_sort/{dist}"));
        for n in SIZES {
            let keys = keys(dist, n);
            let mut harness = SortHarness::new(&keys);
            let master: Vec<(u64, u32)> = keys.iter().zip(0u32..).map(|(&k, i)| (k, i)).collect();
            let mut pairs = Vec::with_capacity(n);
            // Both axes must agree on the fold of the sorted order — a
            // cheap cross-check that the bench measures implementations
            // of the same sort.
            let want = comparison_sort(&mut pairs, &master);
            assert_eq!(harness.run(1), want, "{dist}/{n}");
            g.throughput(Throughput::Elements(n as u64));
            g.bench_with_input(BenchmarkId::new("radix", n), &n, |b, _| {
                b.iter(|| harness.run(1));
            });
            g.bench_with_input(BenchmarkId::new("comparison", n), &n, |b, _| {
                b.iter(|| comparison_sort(&mut pairs, &master));
            });
        }
        g.finish();
    }
}

criterion_group!(plan_sort, bench_plan_sort);
criterion_main!(plan_sort);
