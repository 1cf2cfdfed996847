//! Determinism of the observability layer (DESIGN.md §7): the recorder's
//! counters and histograms are *model* metrics, pure functions of the
//! workload, so a snapshot must be bit-identical across simulator thread
//! counts.
//!
//! The recorder is process-wide; this file owns it (each integration-test
//! file is its own binary) and serializes its tests on a local mutex so
//! concurrent `#[test]` threads don't interleave workloads.

use std::sync::Mutex;

use proptest::prelude::*;
use sieve::core::{obs, HostPipeline, SieveConfig, SieveDevice};
use sieve::dram::Geometry;
use sieve::genomics::{synth, Kmer};

/// The acceptance sweep: sequential, typical cores, oversubscribed.
const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Serializes tests in this binary around the global recorder.
static RECORDER_LOCK: Mutex<()> = Mutex::new(());

/// Guard: exclusive recorder access, enabled on entry, disabled and
/// cleared on exit (even when an assertion fails mid-test).
struct RecorderSession<'a> {
    _guard: std::sync::MutexGuard<'a, ()>,
}

impl RecorderSession<'_> {
    fn begin() -> Self {
        let guard = RECORDER_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        obs::global().reset();
        obs::global().set_enabled(true);
        Self { _guard: guard }
    }
}

impl Drop for RecorderSession<'_> {
    fn drop(&mut self) {
        obs::global().set_enabled(false);
        obs::global().reset();
    }
}

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

/// Runs `work` once per thread count and returns each run's snapshot
/// (recorder reset between runs).
fn snapshot_sweep(mut work: impl FnMut(usize)) -> Vec<obs::MetricsSnapshot> {
    THREAD_SWEEP
        .iter()
        .map(|&threads| {
            obs::global().reset();
            work(threads);
            obs::global().snapshot()
        })
        .collect()
}

#[test]
fn seeded_device_runs_snapshot_identically_across_thread_counts() {
    let _session = RecorderSession::begin();
    let ds = dataset();
    let (reads, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 60, 7);
    let queries: Vec<Kmer> = reads
        .iter()
        .flat_map(|r| r.kmers(31).map(|(_, k)| k))
        .collect();
    for config in [
        SieveConfig::type1(),
        SieveConfig::type3(8),
        SieveConfig::type3(8).with_pcie(sieve::core::PcieConfig::gen4_x16()),
    ] {
        let snaps = snapshot_sweep(|threads| {
            device(config.clone(), threads, &ds).run(&queries).unwrap();
        });
        for (i, snap) in snaps.iter().enumerate().skip(1) {
            assert_eq!(
                snap,
                &snaps[0],
                "{} threads={}: deterministic snapshot diverged",
                config.device.label(),
                THREAD_SWEEP[i]
            );
        }
    }
}

/// A forced-imbalance batch — nearly every query routed to one subarray,
/// whose sums every worker's range contributes to — only moves work
/// between workers, so the snapshot must be bit-identical across the
/// full thread sweep.
#[test]
fn one_giant_shard_snapshots_identically_across_thread_counts() {
    let _session = RecorderSession::begin();
    let ds = dataset();
    let mut queries: Vec<Kmer> = (0..20_000u64)
        .map(|i| {
            let spread = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24;
            Kmer::from_u64((0x2AA << 50) | spread, 31).unwrap()
        })
        .collect();
    queries.extend(ds.entries.iter().map(|&(k, _)| k).take(64));
    let snaps = snapshot_sweep(|threads| {
        device(SieveConfig::type3(8), threads, &ds)
            .run(&queries)
            .unwrap();
        let shards = obs::global().snapshot();
        let shards = shards.histogram("shard_queries").unwrap();
        assert!(
            shards.max >= 20_000,
            "no shard holds most of the batch (largest: {} of {})",
            shards.max,
            queries.len()
        );
    });
    for (i, snap) in snaps.iter().enumerate().skip(1) {
        assert_eq!(
            snap, &snaps[0],
            "threads={}: deterministic snapshot diverged",
            THREAD_SWEEP[i]
        );
    }
}

/// Every design point, with its default row charge, the paper's ESP cap
/// and ETM off: the counters follow the workload, and the match stage's
/// ETM-depth histogram carries exactly the rows each scheduler charges.
#[test]
fn snapshot_counters_reflect_the_workload() {
    let _session = RecorderSession::begin();
    let ds = dataset();
    let (reads, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 25, 11);
    for base in [
        SieveConfig::type1(),
        SieveConfig::type2(16),
        SieveConfig::type3(8),
    ] {
        for config in [
            base.clone(),
            base.clone().with_esp_override(10),
            base.with_etm(false),
        ] {
            let label = format!(
                "{} esp={:?} etm={}",
                config.device.label(),
                config.esp_override,
                config.etm_enabled
            );
            obs::global().reset();
            let host = HostPipeline::new(device(config, 4, &ds));
            let out = host.classify_stream(&reads, 10).unwrap();
            let snap = obs::global().snapshot();
            assert_eq!(snap.counter("host_reads"), reads.len() as u64, "{label}");
            assert_eq!(
                snap.counter("host_bases"),
                reads.iter().map(|r| r.len() as u64).sum::<u64>(),
                "{label}"
            );
            // One chunk_kmers sample per host run, holding its k-mers.
            let chunks = snap.histogram("chunk_kmers").unwrap();
            assert_eq!(chunks.count, reads.len().div_ceil(10) as u64, "{label}");
            assert_eq!(chunks.sum, out.report.queries, "{label}");
            assert_eq!(snap.counter("match_hits"), out.report.hits, "{label}");
            assert_eq!(snap.counter("device_runs"), 3, "{label}");
            // Every resolved query lands in the ETM-depth histogram, and
            // the model's total row count is exactly the histogram's mass
            // (payload rows are accounted separately by the scheduler).
            let rows = snap.histogram("etm_rows_activated").unwrap();
            assert_eq!(rows.count, out.report.queries, "{label}");
            assert_eq!(
                rows.sum,
                out.report.row_activations - 2 * out.report.hits,
                "{label}: ETM histogram mass must equal Region-1 activations"
            );
            // Shard skew histogram: one sample per reached subarray,
            // holding its queries.
            let shards = snap.histogram("shard_queries").unwrap();
            assert_eq!(shards.sum, out.report.queries, "{label}");
        }
    }
}

/// A stream that repeats the same reads three times: every chunk charges
/// its queries in full, and the deterministic snapshot of the streamed
/// classification — host counters, chunk histograms, device model
/// metrics — stays bit-identical across thread counts.
#[test]
fn repeated_read_streams_snapshot_identically() {
    let _session = RecorderSession::begin();
    let ds = dataset();
    let (pass, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 30, 31);
    let reads: Vec<_> = pass.iter().cycle().take(pass.len() * 3).cloned().collect();
    let mut outs = Vec::new();
    let snaps = snapshot_sweep(|threads| {
        let out = HostPipeline::new(device(SieveConfig::type3(8), threads, &ds))
            .classify_stream(&reads, 10)
            .unwrap();
        outs.push(out.report);
    });
    for (i, snap) in snaps.iter().enumerate().skip(1) {
        assert_eq!(
            snap, &snaps[0],
            "threads={}: deterministic snapshot diverged",
            THREAD_SWEEP[i]
        );
    }
    let shards = snaps[0].histogram("shard_queries").unwrap();
    assert_eq!(shards.sum, outs[0].queries);
    assert_eq!(snaps[0].counter("match_hits"), outs[0].hits);
}

/// The batch `classify_reads` path counts as one host chunk and records
/// its k-mer total, so batch and stream ingestion share one metric
/// vocabulary.
#[test]
fn batch_classify_records_chunk_metrics() {
    let _session = RecorderSession::begin();
    let ds = dataset();
    let (reads, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 15, 5);
    let host = HostPipeline::new(device(SieveConfig::type3(8), 2, &ds));
    let out = host.classify_reads(&reads).unwrap();
    let snap = obs::global().snapshot();
    let chunk = snap.histogram("chunk_kmers").unwrap();
    assert_eq!(chunk.count, 1);
    assert_eq!(chunk.sum, out.report.queries);
}

#[test]
fn disabled_recorder_observes_nothing() {
    let _session = RecorderSession::begin();
    obs::global().set_enabled(false);
    let ds = dataset();
    let (reads, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 10, 3);
    HostPipeline::new(device(SieveConfig::type3(8), 2, &ds))
        .classify_reads(&reads)
        .unwrap();
    let snap = obs::global().snapshot();
    assert_eq!(snap.counter("host_reads"), 0);
    assert_eq!(snap.counter("match_hits"), 0);
    assert!(snap.histogram("etm_rows_activated").unwrap().count == 0);
    obs::global().set_enabled(true); // session drop expects to disable
}

/// Builds a histogram from raw values via the public recording path (so
/// bucket placement and min/max all go through the production code).
fn histogram_of(values: &[u64]) -> obs::Histogram {
    let mut h = obs::Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `Histogram::merge` is the reduce step of every deterministic
    /// snapshot, so it must behave like multiset union: commutative and
    /// associative on count/sum/min/max *and* every bucket.
    #[test]
    fn histogram_snapshot_merge_is_commutative_and_associative(
        a in prop::collection::vec(0u64..1u64 << 48, 0..40),
        b in prop::collection::vec(0u64..1u64 << 48, 0..40),
        c in prop::collection::vec(0u64..1u64 << 48, 0..40),
    ) {
        let (sa, sb, sc) = (histogram_of(&a), histogram_of(&b), histogram_of(&c));

        // Commutativity: a ∪ b == b ∪ a (full struct equality covers
        // count, sum, min, max, and every bucket).
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(&ab, &ba);

        // Associativity: (a ∪ b) ∪ c == a ∪ (b ∪ c).
        let mut ab_c = ab.clone();
        ab_c.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut a_bc = sa.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);

        // And the merged result matches recording the concatenation.
        let mut all = a.clone();
        all.extend_from_slice(&b);
        all.extend_from_slice(&c);
        prop_assert_eq!(&ab_c, &histogram_of(&all));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_batches_snapshot_bit_identically(raw in prop::collection::vec(any::<u64>(), 0..300)) {
        let _session = RecorderSession::begin();
        let ds = dataset();
        // Mix of misses (random bits) and hits (stored entries).
        let queries: Vec<Kmer> = raw
            .iter()
            .enumerate()
            .map(|(i, &bits)| {
                if i % 4 == 0 {
                    ds.entries[bits as usize % ds.entries.len()].0
                } else {
                    Kmer::from_u64(bits >> 2, 31).unwrap()
                }
            })
            .collect();
        let snaps = snapshot_sweep(|threads| {
            device(SieveConfig::type3(8), threads, &ds).run(&queries).unwrap();
        });
        for (i, snap) in snaps.iter().enumerate().skip(1) {
            prop_assert_eq!(
                snap,
                &snaps[0],
                "threads={}: counter/histogram snapshot diverged",
                THREAD_SWEEP[i]
            );
        }
        prop_assert_eq!(
            snaps[0].histogram("shard_queries").unwrap().sum,
            queries.len() as u64
        );
    }
}
