//! Calibrates the host's sustained memory bandwidth and writes the
//! versioned `results/MACHINE.json` that the roofline layer normalizes
//! against (see DESIGN.md §10).
//!
//! Two ceilings per thread count, both counting read + write bytes:
//!
//! * **copy** — a per-thread streaming `copy_from_slice` over buffers far
//!   larger than L2: the classic STREAM-style upper bound for
//!   sequential-traffic phases (extraction, histogram scans);
//! * **scatter** — the *production* radix sort ([`SortHarness`]) on
//!   uniform random 64-bit keys, bandwidth taken as the canonical
//!   scatter+flush byte charge over the measured scatter+flush wall. A
//!   plain `memcpy` cannot stand in for this: write-combining scatters
//!   sustain only a fraction of copy bandwidth on any real memory
//!   system, and gating scatter phases against a copy ceiling would
//!   misclassify every one of them as compute-bound.
//!
//! Thread counts 1, 2, 4, and the detected core count (deduplicated,
//! capped at the detected cores — an oversubscribed calibration measures
//! contention, not a ceiling). Every cell is the median of its reps.
//!
//! Flags: `--quick` shrinks buffers and reps for CI smoke runs,
//! `--out PATH` redirects the artifact (default `results/MACHINE.json`).

use std::sync::Barrier;
use std::time::Instant;

use sieve_bench::machine::{self, BandwidthRow, Machine, MACHINE_SCHEMA_VERSION};
use sieve_bench::table::Table;
use sieve_core::sort_bench::SortHarness;
use sieve_core::{obs, prof};

const DEFAULT_OUT: &str = "results/MACHINE.json";

/// Value of `--flag N` style arguments, if present.
fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Median of the samples (sorted in place).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// SplitMix64: deterministic uniform keys without an RNG dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sustained copy bandwidth at `threads`, GB/s. Each worker owns a
/// private `words`-u64 source and destination and copies `iters` times;
/// all workers start together on a barrier and the clock covers the
/// slowest one (that is what a parallel phase's wall span sees too).
#[allow(clippy::cast_precision_loss)]
fn copy_gbps(threads: usize, words: usize, iters: usize, reps: usize) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    let mut sink = 0u64;
    for rep in 0..reps {
        let barrier = Barrier::new(threads);
        let (elapsed, fold) = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        // Touch every page up front so the timed loop
                        // measures DRAM, not first-fault zeroing.
                        let src: Vec<u64> = (0..words)
                            .map(|i| (i as u64) ^ (t as u64) ^ rep as u64)
                            .collect();
                        let mut dst = vec![0u64; words];
                        barrier.wait();
                        let start = Instant::now();
                        for _ in 0..iters {
                            dst.copy_from_slice(&src);
                            std::hint::black_box(&mut dst);
                        }
                        (start.elapsed(), dst[words / 2])
                    })
                })
                .collect();
            let mut slowest = std::time::Duration::ZERO;
            let mut fold = 0u64;
            for h in handles {
                let (d, v) = h.join().expect("calibration worker");
                slowest = slowest.max(d);
                fold ^= v;
            }
            (slowest, fold)
        });
        sink ^= fold;
        let bytes = (threads * iters * words * std::mem::size_of::<u64>() * 2) as f64;
        samples.push(bytes / elapsed.as_nanos() as f64);
    }
    std::hint::black_box(sink);
    median(&mut samples)
}

/// Sustained radix-scatter bandwidth at `threads`, GB/s: the production
/// sort's canonical scatter+flush byte charge over its measured
/// scatter+flush wall on uniform 64-bit keys, recorded by the same
/// obs/prof plumbing the pipeline reports through.
#[allow(clippy::cast_precision_loss)]
fn scatter_probe(threads: usize, n_keys: usize, reps: usize) -> f64 {
    let mut state = 0xC0FF_EE00_D15E_A5E5u64;
    let keys: Vec<u64> = (0..n_keys).map(|_| splitmix64(&mut state)).collect();
    let mut harness = SortHarness::new(&keys);
    let rec = obs::global();
    let mut samples = Vec::with_capacity(reps);
    let mut sink = 0u64;
    // Warm allocations and caches once, unmeasured.
    sink ^= harness.run(threads);
    for _ in 0..reps {
        rec.set_enabled(true);
        rec.reset();
        prof::reset();
        sink ^= harness.run(threads);
        let metrics = rec.snapshot();
        let traffic = prof::snapshot();
        rec.set_enabled(false);
        rec.reset();
        let scatter = traffic.traffic(prof::Phase::SortScatter);
        let bytes = scatter.bytes() + traffic.traffic(prof::Phase::SortFlush).bytes();
        let wall: u64 = ["wall.sort.scatter.ns", "wall.sort.flush.ns"]
            .iter()
            .filter_map(|h| metrics.histogram(h))
            .map(|h| h.sum)
            .sum();
        assert!(
            bytes > 0 && wall > 0,
            "calibration sort must run the radix path"
        );
        samples.push(bytes as f64 / wall as f64);
    }
    prof::reset();
    std::hint::black_box(sink);
    median(&mut samples)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| DEFAULT_OUT.to_string());
    // Full: 32 MiB copy buffers (src + dst = 64 MiB, past any L3) × 8
    // iters, 1 Mi keys, median of 7. Quick: 4 MiB × 4, 256 Ki keys,
    // median of 3 — CI-fast, same method, ceilings a little cachier.
    let (words, iters, n_keys, reps) = if quick {
        (1 << 19, 4, 1 << 18, 3)
    } else {
        (1 << 22, 8, 1 << 20, 7)
    };

    let detected = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut thread_counts: Vec<usize> = [1, 2, 4, detected]
        .into_iter()
        .filter(|&t| t <= detected)
        .collect();
    thread_counts.sort_unstable();
    thread_counts.dedup();

    println!(
        "machine calibration{}: {} cores, {} MiB copy buffers, {} keys, median of {reps}\n",
        if quick { " (--quick)" } else { "" },
        detected,
        (words * std::mem::size_of::<u64>()) >> 20,
        n_keys,
    );

    let rows: Vec<BandwidthRow> = thread_counts
        .iter()
        .map(|&threads| BandwidthRow {
            threads,
            copy_gbps: copy_gbps(threads, words, iters, reps),
            scatter_gbps: scatter_probe(threads, n_keys, reps),
        })
        .collect();

    let mut t = Table::new(["threads", "copy GB/s", "scatter GB/s", "scatter/copy"]);
    for r in &rows {
        t.row([
            r.threads.to_string(),
            format!("{:.2}", r.copy_gbps),
            format!("{:.2}", r.scatter_gbps),
            format!("{:.2}", r.scatter_gbps / r.copy_gbps),
        ]);
    }
    println!("{}", t.render());

    let m = Machine {
        schema_version: MACHINE_SCHEMA_VERSION,
        cpu_model: machine::cpu_model(),
        host_cores: detected,
        rows,
    };
    if let Some(dir) = std::path::Path::new(&out_path)
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
    {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(&out_path, m.render_json()).expect("write the calibration file");
    println!("wrote {out_path}");
}
