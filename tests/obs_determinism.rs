//! Determinism of the observability layer (DESIGN.md §7): the recorder's
//! *model* metrics — every counter and histogram except the `wall.*`
//! spans — are pure functions of the workload, so the deterministic
//! snapshot must be bit-identical across simulator thread counts.
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

/// Runs `work` once per thread count and returns each run's deterministic
/// snapshot (recorder reset between runs).
fn snapshot_sweep(mut work: impl FnMut(usize)) -> Vec<obs::MetricsSnapshot> {
    THREAD_SWEEP
        .iter()
        .map(|&threads| {
            obs::global().reset();
            work(threads);
            obs::global().snapshot().deterministic()
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

/// A forced-imbalance batch — nearly every query in one subarray's shard,
/// split into many match tasks — only moves work between workers, so the
/// deterministic snapshot (model counters + histograms, `wall.*`
/// dropped) must be bit-identical across the full thread sweep.
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

#[test]
fn snapshot_counters_reflect_the_workload() {
    let _session = RecorderSession::begin();
    let ds = dataset();
    let (reads, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 25, 11);
    let host = HostPipeline::new(device(SieveConfig::type3(8), 4, &ds));
    let out = host.classify_stream(&reads, 10).unwrap();
    let snap = obs::global().snapshot();
    assert_eq!(snap.counter("host_reads"), reads.len() as u64);
    assert_eq!(snap.counter("host_chunks"), reads.len().div_ceil(10) as u64);
    assert_eq!(snap.counter("host_kmers"), out.report.queries);
    assert_eq!(snap.counter("match_queries"), out.report.queries);
    assert_eq!(snap.counter("match_hits"), out.report.hits);
    assert_eq!(snap.counter("device_runs"), 3);
    // Every resolved query lands in the ETM-depth histogram, and the
    // model's total row count is exactly the histogram's mass (payload
    // rows are accounted separately by the scheduler).
    let rows = snap.histogram("etm_rows_activated").unwrap();
    assert_eq!(rows.count, out.report.queries);
    assert_eq!(
        rows.sum,
        out.report.row_activations - 2 * out.report.hits,
        "ETM histogram mass must equal Region-1 activations"
    );
    // Shard skew histogram: one sample per resolved shard.
    let shards = snap.histogram("shard_queries").unwrap();
    assert_eq!(shards.count, snap.counter("match_shards"));
    assert_eq!(shards.sum, out.report.queries);
    // Wall spans recorded for every instrumented stage.
    for span in ["wall.host.chunk.ns", "wall.device.match.ns"] {
        assert!(
            snap.histogram(span).is_some_and(|h| h.count > 0),
            "missing span {span}"
        );
    }
}

/// A duplicate-heavy stream must genuinely engage the hot-k-mer cache
/// (the grid test in parallel_determinism.rs would otherwise pass
/// vacuously), replayed chunks must still charge the full modeled
/// quantities, and the deterministic snapshot of a streamed
/// classification — host counters, chunk histograms, device model
/// metrics — must stay bit-identical across thread counts with the cache
/// on or off.
#[test]
fn cached_streams_engage_and_snapshot_identically() {
    let _session = RecorderSession::begin();
    let ds = dataset();
    let (pass, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 30, 31);
    let reads: Vec<_> = pass.iter().cycle().take(pass.len() * 3).cloned().collect();
    let stream = |threads: usize, hot_kmers: usize| {
        let config = SieveConfig::type3(8).with_hot_kmers(hot_kmers);
        HostPipeline::new(device(config, threads, &ds))
            .classify_stream(&reads, 10)
            .unwrap()
    };

    let out = stream(1, 1 << 18);
    let on = obs::global().snapshot();
    assert!(
        on.counter("cache_hits") > 0,
        "repeated chunks never engaged the cache"
    );
    assert!(on.counter("cache_inserts") > 0);
    assert!(on
        .histogram("cache_hit_kmers")
        .is_some_and(|h| h.count > 0 && h.sum == on.counter("cache_hits")));
    // Replays charge the same modeled quantities the device stage would
    // have: the model counters and histograms are cache-oblivious.
    assert_eq!(on.counter("match_queries"), out.report.queries);
    assert_eq!(on.counter("match_hits"), out.report.hits);

    obs::global().reset();
    let off_out = stream(1, 0);
    let off = obs::global().snapshot();
    assert_eq!(off_out.report, out.report, "cache changed the report");
    assert_eq!(off.counter("cache_hits"), 0);
    assert_eq!(off.counter("cache_inserts"), 0);
    assert_eq!(off.counter("match_queries"), on.counter("match_queries"));
    assert_eq!(off.counter("match_hits"), on.counter("match_hits"));
    for hist in ["etm_rows_activated", "shard_queries"] {
        let (a, b) = (on.histogram(hist).unwrap(), off.histogram(hist).unwrap());
        assert_eq!((a.count, a.sum), (b.count, b.sum), "{hist} diverged");
    }

    for hot_kmers in [0usize, 1 << 18] {
        let snaps = snapshot_sweep(|threads| {
            stream(threads, hot_kmers);
        });
        for (i, snap) in snaps.iter().enumerate().skip(1) {
            assert_eq!(
                snap, &snaps[0],
                "hot_kmers={hot_kmers} threads={}: deterministic snapshot diverged",
                THREAD_SWEEP[i]
            );
        }
    }
}

#[test]
fn cluster_runs_snapshot_identically_and_record_skew() {
    let _session = RecorderSession::begin();
    let ds = synth::make_dataset_with(16, 4096, 31, 606);
    let queries: Vec<Kmer> = ds.entries.iter().step_by(29).map(|(k, _)| *k).collect();
    let config = || SieveConfig::type3(8).with_geometry(Geometry::scaled_medium());
    let snaps = snapshot_sweep(|threads| {
        let cluster =
            sieve::core::SieveCluster::new(config().with_threads(threads), 3, ds.entries.clone())
                .unwrap();
        cluster.run(&queries).unwrap();
    });
    for snap in &snaps[1..] {
        assert_eq!(snap, &snaps[0], "cluster snapshot diverged");
    }
    assert_eq!(snaps[0].counter("cluster_runs"), 1);
    assert_eq!(snaps[0].counter("cluster_device_runs"), 3);
    let skew = snaps[0].histogram("cluster_device_queries").unwrap();
    assert_eq!(skew.count, 3);
    assert_eq!(skew.sum, queries.len() as u64);
}

/// Dedup must be invisible to the model metrics: duplicate k-mers charge
/// the cached outcome's row count, so every counter and histogram in the
/// deterministic snapshot is identical with dedup on or off, at any
/// thread count.
#[test]
fn dedup_modes_snapshot_identically() {
    let _session = RecorderSession::begin();
    let ds = dataset();
    // Heavy forced duplication: stored entries and misses, each ×3.
    let mut queries: Vec<Kmer> = Vec::new();
    for i in 0..200u64 {
        let k = if i % 2 == 0 {
            ds.entries[(i as usize * 37) % ds.entries.len()].0
        } else {
            Kmer::from_u64(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 2, 31).unwrap()
        };
        queries.extend([k; 3]);
    }
    for config in [SieveConfig::type1(), SieveConfig::type3(8)] {
        let mut snaps = Vec::new();
        for dedup in [true, false] {
            for threads in [1usize, 4] {
                obs::global().reset();
                device(config.clone().with_dedup(dedup), threads, &ds)
                    .run(&queries)
                    .unwrap();
                snaps.push((dedup, threads, obs::global().snapshot().deterministic()));
            }
        }
        for (dedup, threads, snap) in &snaps[1..] {
            assert_eq!(
                snap,
                &snaps[0].2,
                "{} dedup={dedup} threads={threads}: snapshot diverged",
                config.device.label()
            );
        }
    }
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
    assert_eq!(snap.counter("host_chunks"), 1);
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
    assert_eq!(snap.counter("match_queries"), 0);
    assert!(snap.histogram("etm_rows_activated").unwrap().count == 0);
    obs::global().set_enabled(true); // session drop expects to disable
}

/// Builds a histogram snapshot from raw values via the public recording
/// path (so bucket placement, min/max, and trimming all go through the
/// production code).
fn snapshot_of(values: &[u64]) -> obs::HistogramSnapshot {
    let h = obs::Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `HistogramSnapshot::merge` is the reduce step of every
    /// deterministic snapshot, so it must behave like multiset union:
    /// commutative and associative on count/sum/min/max *and* the bucket
    /// vectors (whose lengths differ when one side saw larger values).
    #[test]
    fn histogram_snapshot_merge_is_commutative_and_associative(
        a in prop::collection::vec(0u64..1u64 << 48, 0..40),
        b in prop::collection::vec(0u64..1u64 << 48, 0..40),
        c in prop::collection::vec(0u64..1u64 << 48, 0..40),
    ) {
        let (sa, sb, sc) = (snapshot_of(&a), snapshot_of(&b), snapshot_of(&c));

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
        prop_assert_eq!(&ab_c, &snapshot_of(&all));
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
        prop_assert_eq!(snaps[0].counter("match_queries"), queries.len() as u64);
    }
}
