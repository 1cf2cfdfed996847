//! Determinism of the parallel simulation core (DESIGN.md §6):
//! for every `threads` setting — sequential, moderate, oversubscribed —
//! a run's functional results and its full timing/energy report must be
//! bit-identical to the sequential run's.

use proptest::prelude::*;
use sieve::core::{HostPipeline, PipelineOutput, SieveConfig, SieveDevice};
use sieve::dram::Geometry;
use sieve::genomics::{synth, DnaSequence, Kmer};

/// Includes 1 (the sequential reference), the container's typical core
/// counts, and an oversubscribed setting (more workers than cores).
const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn dataset() -> synth::SyntheticDataset {
    synth::make_dataset_with(8, 2048, 31, 4242)
}

fn device(config: SieveConfig, threads: usize, ds: &synth::SyntheticDataset) -> SieveDevice {
    SieveDevice::new(
        config
            .with_geometry(Geometry::scaled_medium())
            .with_threads(threads),
        ds.entries.clone(),
    )
    .expect("dataset fits the scaled geometry")
}

fn assert_same_pipeline(a: &PipelineOutput, b: &PipelineOutput, context: &str) {
    assert_eq!(a.reads, b.reads, "{context}: per-read results diverged");
    assert_eq!(a.report, b.report, "{context}: reports diverged");
}

#[test]
fn seeded_workload_runs_identically_on_every_design() {
    let ds = dataset();
    let (reads, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 60, 7);
    let queries: Vec<Kmer> = reads
        .iter()
        .flat_map(|r| r.kmers(31).map(|(_, k)| k))
        .collect();
    for config in [
        SieveConfig::type1(),
        SieveConfig::type2(8),
        SieveConfig::type3(8),
        SieveConfig::type3(8).with_etm(false),
        SieveConfig::type3(8).with_esp_override(10),
    ] {
        let base = device(config.clone(), 1, &ds).run(&queries).unwrap();
        for threads in &THREAD_SWEEP[1..] {
            let out = device(config.clone(), *threads, &ds).run(&queries).unwrap();
            assert_eq!(
                out.results,
                base.results,
                "{} threads={threads}: functional results diverged",
                config.device.label()
            );
            assert_eq!(
                out.report,
                base.report,
                "{} threads={threads}: report diverged",
                config.device.label()
            );
        }
    }
}

/// Every host call, at every thread count, on every design point: 50
/// reads run on one worker in one block; 640 reads (~45k k-mers, 11
/// blocks) split into one read range per worker, as do the 300-read
/// chunks of their stream.
#[test]
fn seeded_pipeline_is_identical_across_thread_counts() {
    let ds = dataset();
    for (n_reads, chunk) in [(50, 9), (640, 300)] {
        let (reads, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), n_reads, 23);
        for config in [
            SieveConfig::type1(),
            SieveConfig::type2(8),
            SieveConfig::type3(8),
        ] {
            let base = HostPipeline::new(device(config.clone(), 1, &ds));
            let base_reads = base.classify_reads(&reads).unwrap();
            let base_stream = base.classify_stream(&reads, chunk).unwrap();
            for threads in &THREAD_SWEEP[1..] {
                let host = HostPipeline::new(device(config.clone(), *threads, &ds));
                let at = |call: &str| {
                    format!(
                        "{} {n_reads} reads threads={threads} {call}",
                        config.device.label()
                    )
                };
                assert_same_pipeline(
                    &host.classify_reads(&reads).unwrap(),
                    &base_reads,
                    &at("classify_reads"),
                );
                assert_same_pipeline(
                    &host.classify_stream(&reads, chunk).unwrap(),
                    &base_stream,
                    &at("classify_stream"),
                );
            }
        }
    }
}

#[test]
fn degenerate_batches_are_identical_across_thread_counts() {
    let ds = dataset();
    let one = ds.entries[0].0;
    // Empty batch, single query, and a batch of one repeated k-mer (every
    // worker's range routes to the same one subarray).
    for queries in [Vec::new(), vec![one], vec![one; 257]] {
        let base = device(SieveConfig::type3(8), 1, &ds).run(&queries).unwrap();
        for threads in &THREAD_SWEEP[1..] {
            let out = device(SieveConfig::type3(8), *threads, &ds)
                .run(&queries)
                .unwrap();
            assert_eq!(out.results, base.results);
            assert_eq!(out.report, base.report);
        }
    }
}

/// For every chunk size — including the degenerate 1-read chunks and a
/// single whole-batch chunk — a stream at every thread count is
/// bit-identical to the single-threaded stream at the same chunk size,
/// and the per-read classifications never depend on chunking.
#[test]
fn stream_matches_across_thread_counts_for_every_chunk_size() {
    let ds = dataset();
    let (reads, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 40, 13);
    let whole = HostPipeline::new(device(SieveConfig::type3(8), 1, &ds))
        .classify_reads(&reads)
        .unwrap();
    for chunk in [1usize, 7, reads.len()] {
        let one = HostPipeline::new(device(SieveConfig::type3(8), 1, &ds))
            .classify_stream(&reads, chunk)
            .unwrap();
        assert_eq!(
            one.reads, whole.reads,
            "chunk={chunk}: chunking changed classifications"
        );
        for threads in &THREAD_SWEEP[1..] {
            let out = HostPipeline::new(device(SieveConfig::type3(8), *threads, &ds))
                .classify_stream(&reads, chunk)
                .unwrap();
            assert_same_pipeline(&out, &one, &format!("threads={threads} chunk={chunk}"));
        }
    }
}

/// A stream that repeats the same reads three times, so later chunks
/// re-present earlier chunks' k-mers: at every thread count its per-read
/// classifications and full modeled report are bit-identical to the
/// single-threaded run's.
#[test]
fn repeated_read_streams_are_bit_identical_across_thread_counts() {
    let ds = dataset();
    let (pass, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 30, 31);
    let reads: Vec<DnaSequence> = pass.iter().cycle().take(pass.len() * 3).cloned().collect();
    let chunk = 10;
    let base = HostPipeline::new(device(SieveConfig::type3(8), 1, &ds))
        .classify_stream(&reads, chunk)
        .unwrap();
    for threads in [2usize, 4] {
        let out = HostPipeline::new(device(SieveConfig::type3(8), threads, &ds))
            .classify_stream(&reads, chunk)
            .unwrap();
        assert_same_pipeline(&out, &base, &format!("threads={threads}"));
    }
}

/// `count` distinct 31-mers sharing their top 10 bits and spread over the
/// low 40: they all route to one subarray.
fn giant_bucket(count: u64) -> Vec<Kmer> {
    (0..count)
        .map(|i| {
            let spread = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24;
            Kmer::from_u64((0x2AA << 50) | spread, 31).unwrap()
        })
        .collect()
}

/// The worker sweep {1,2,4,8} must be bit-identical to the sequential
/// run — functional results and the full modeled report — on three
/// adversarial batch shapes:
///
/// * `giant` — 20,000 distinct keys routed to one subarray plus a
///   spread fringe: at threads > 1 every worker's range charges that
///   subarray, and the ranges' sums for it must merge exactly;
/// * `narrow` — three distinct keys cycled, so every multi-worker
///   setting has more workers than subarrays the batch reaches;
/// * `mixed` — a spread of stored entries, the balanced common case.
#[test]
fn skewed_batches_are_bit_identical_across_worker_counts() {
    let ds = dataset();
    let spread: Vec<Kmer> = ds.entries.iter().map(|&(k, _)| k).take(64).collect();
    let mut giant = giant_bucket(20_000);
    giant.extend(spread.iter().copied());
    let narrow: Vec<Kmer> = spread.iter().take(3).cycle().take(4_096).copied().collect();
    let mixed: Vec<Kmer> = spread.iter().cycle().take(5_000).copied().collect();
    for (name, queries) in [("giant", &giant), ("narrow", &narrow), ("mixed", &mixed)] {
        let base = device(SieveConfig::type3(8), 1, &ds).run(queries).unwrap();
        for threads in THREAD_SWEEP {
            let out = device(SieveConfig::type3(8), threads, &ds)
                .run(queries)
                .unwrap();
            let ctx = format!("{name} threads={threads}");
            assert_eq!(out.results, base.results, "{ctx}: results diverged");
            assert_eq!(out.report, base.report, "{ctx}: report diverged");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Duplicate-heavy batches run identically — functional results and
    /// the full timing/energy report — at 4 threads and at 1, on every
    /// design point. Duplicates are forced: each drawn k-mer is repeated
    /// 1–3× and a stride of stored entries guarantees repeated hits too.
    #[test]
    fn forced_duplicates_run_identically_across_thread_counts(
        raw in prop::collection::vec(any::<u64>(), 1..160),
    ) {
        let ds = dataset();
        let mut queries: Vec<Kmer> = Vec::new();
        for (i, &bits) in raw.iter().enumerate() {
            let k = if i % 3 == 0 {
                ds.entries[bits as usize % ds.entries.len()].0
            } else {
                Kmer::from_u64(bits >> 2, 31).unwrap()
            };
            for _ in 0..=(i % 3) {
                queries.push(k);
            }
        }
        // Interleave a second pass of copies so duplicates are not
        // adjacent in the batch.
        let first: Vec<Kmer> = queries.iter().step_by(2).copied().collect();
        queries.extend(first);
        for config in [SieveConfig::type1(), SieveConfig::type2(8), SieveConfig::type3(8)] {
            let base = device(config.clone(), 1, &ds).run(&queries).unwrap();
            let out = device(config.clone(), 4, &ds).run(&queries).unwrap();
            prop_assert_eq!(&out.results, &base.results,
                "{}: threads changed results", config.device.label());
            prop_assert_eq!(&out.report, &base.report,
                "{}: threads changed the report", config.device.label());
        }
    }

    /// Random read sets through the stream: chunk size never changes
    /// classifications, and the thread count never changes anything
    /// relative to the single-threaded stream at the same chunk size.
    #[test]
    fn random_streams_are_chunk_and_thread_count_invariant(
        raw in prop::collection::vec("[ACGTN]{0,120}", 1..12),
    ) {
        let ds = dataset();
        let reads: Vec<DnaSequence> = raw.iter().map(|s| s.parse().unwrap()).collect();
        let whole = HostPipeline::new(device(SieveConfig::type3(8), 1, &ds))
            .classify_reads(&reads)
            .unwrap();
        for chunk in [1usize, 7, reads.len()] {
            let one = HostPipeline::new(device(SieveConfig::type3(8), 1, &ds))
                .classify_stream(&reads, chunk)
                .unwrap();
            prop_assert_eq!(&one.reads, &whole.reads);
            for threads in [2usize, 8] {
                let out = HostPipeline::new(device(SieveConfig::type3(8), threads, &ds))
                    .classify_stream(&reads, chunk)
                    .unwrap();
                assert_same_pipeline(&out, &one, "random stream");
            }
        }
    }

    #[test]
    fn random_read_sets_classify_identically(raw in prop::collection::vec("[ACGTN]{0,120}", 0..16)) {
        let ds = dataset();
        let reads: Vec<DnaSequence> = raw.iter().map(|s| s.parse().unwrap()).collect();
        let base = HostPipeline::new(device(SieveConfig::type3(8), 1, &ds))
            .classify_reads(&reads)
            .unwrap();
        for threads in [3usize, 8] {
            let out = HostPipeline::new(device(SieveConfig::type3(8), threads, &ds))
                .classify_reads(&reads)
                .unwrap();
            assert_same_pipeline(&out, &base, "random reads");
        }
    }

    #[test]
    fn random_query_batches_run_identically(raw in prop::collection::vec(any::<u64>(), 0..400)) {
        let ds = dataset();
        let queries: Vec<Kmer> = raw
            .iter()
            .map(|&bits| Kmer::from_u64(bits >> 2, 31).unwrap())
            .collect();
        for config in [SieveConfig::type1(), SieveConfig::type3(8)] {
            let base = device(config.clone(), 1, &ds).run(&queries).unwrap();
            for threads in [4usize, 8] {
                let out = device(config.clone(), threads, &ds).run(&queries).unwrap();
                prop_assert_eq!(&out.results, &base.results);
                prop_assert_eq!(&out.report, &base.report);
            }
        }
    }
}
