//! Calibrates the host's sustained memory bandwidth and writes the
//! versioned `results/MACHINE.json` that the roofline layer normalizes
//! against (see DESIGN.md §10).
//!
//! One ceiling per thread count, counting read + write bytes: a
//! per-thread streaming `copy_from_slice` over buffers far larger than
//! L2, the classic STREAM-style upper bound every host phase is judged
//! against.
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

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| DEFAULT_OUT.to_string());
    // Full: 32 MiB copy buffers (src + dst = 64 MiB, past any L3) × 8
    // iters, median of 7. Quick: 4 MiB × 4, median of 3 — CI-fast, same
    // method, ceiling a little cachier.
    let (words, iters, reps) = if quick {
        (1 << 19, 4, 3)
    } else {
        (1 << 22, 8, 7)
    };

    let detected = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut thread_counts: Vec<usize> = [1, 2, 4, detected]
        .into_iter()
        .filter(|&t| t <= detected)
        .collect();
    thread_counts.sort_unstable();
    thread_counts.dedup();

    println!(
        "machine calibration{}: {} cores, {} MiB copy buffers, median of {reps}\n",
        if quick { " (--quick)" } else { "" },
        detected,
        (words * std::mem::size_of::<u64>()) >> 20,
    );

    let rows: Vec<BandwidthRow> = thread_counts
        .iter()
        .map(|&threads| BandwidthRow {
            threads,
            copy_gbps: copy_gbps(threads, words, iters, reps),
        })
        .collect();

    let mut t = Table::new(["threads", "copy GB/s"]);
    for r in &rows {
        t.row([r.threads.to_string(), format!("{:.2}", r.copy_gbps)]);
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
