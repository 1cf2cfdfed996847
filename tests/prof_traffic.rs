//! Analytic byte-count assertions for the roofline traffic layer
//! (DESIGN.md §10): the plan's counting scatter and the match stage's
//! key-table lookups must charge their closed forms on real device
//! batches, and the host extract phase must charge exactly its k-mer
//! stream.
//!
//! The prof table is process-wide (like the recorder); this file owns
//! both and serializes its tests on a local mutex.

use std::sync::Mutex;

use sieve::core::{obs, prof, HostPipeline, SieveConfig, SieveDevice};
use sieve::dram::Geometry;
use sieve::genomics::{synth, Kmer};

/// Bytes of one planner `(bits, id)` pair: a `u64` key and a `u32` id,
/// packed.
const PAIR_BYTES: u64 = 12;

/// Bytes one key-table lookup reads besides its pair: its bucket's two
/// `u32` offsets and its two `u64` neighbour keys.
const LOOKUP_BYTES: u64 = 24;

/// Bytes of one payload (a `u32` taxon id), read once per hit.
const PAYLOAD_BYTES: u64 = 4;

/// Bytes of one `(id, taxon)` hit record.
const HIT_BYTES: u64 = 8;

/// Serializes tests in this binary around the global recorder + table.
static RECORDER_LOCK: Mutex<()> = Mutex::new(());

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
        prof::reset();
        Self { _guard: guard }
    }
}

impl Drop for RecorderSession<'_> {
    fn drop(&mut self) {
        obs::global().set_enabled(false);
        obs::global().reset();
        prof::reset();
    }
}

fn dataset() -> synth::SyntheticDataset {
    synth::make_dataset_with(8, 2048, 31, 4242)
}

/// A Type-3 device over `ds`: every query in a batch is planned and
/// matched once.
fn device(ds: &synth::SyntheticDataset, threads: usize) -> SieveDevice {
    SieveDevice::new(
        SieveConfig::type3(8)
            .with_geometry(Geometry::scaled_medium())
            .with_threads(threads),
        ds.entries.clone(),
    )
    .expect("dataset fits the scaled geometry")
}

/// Runs `queries` on `device` and returns the prof snapshot it recorded
/// and the run's hit count.
fn run_traffic(device: &SieveDevice, queries: &[Kmer]) -> (prof::ProfSnapshot, u64) {
    obs::global().reset();
    prof::reset();
    let out = device.run(queries).expect("valid batch");
    (prof::snapshot(), out.report.hits)
}

/// The plan's counting scatter: a histogram scan reads every pair, the
/// scatter reads and writes every pair once more — on a real read batch
/// that spans many subarrays, at every thread count, and nothing at all
/// for an empty batch.
#[test]
fn shard_sort_matches_the_closed_form_on_a_pipeline_batch() {
    let _session = RecorderSession::begin();
    let ds = dataset();
    let (reads, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 40, 7);
    let queries: Vec<Kmer> = reads
        .iter()
        .flat_map(|r| r.kmers(31).map(|(_, k)| k))
        .collect();
    let n = queries.len() as u64;
    for threads in [1usize, 4] {
        let (snap, _) = run_traffic(&device(&ds, threads), &queries);
        assert_eq!(
            snap.traffic(prof::Phase::ShardSort),
            prof::Traffic {
                bytes_read: 2 * n * PAIR_BYTES,
                bytes_written: n * PAIR_BYTES,
                items: n
            },
            "threads={threads}"
        );
        assert!(
            obs::global()
                .snapshot()
                .histogram("shard_queries")
                .is_some_and(|h| h.count > 1),
            "the batch must spread over several shards"
        );
    }
    let (snap, _) = run_traffic(&device(&ds, 1), &[]);
    assert_eq!(
        snap.traffic(prof::Phase::ShardSort),
        prof::Traffic::default()
    );
}

/// The match stage's reference side: every lookup reads its pair, its
/// bucket's two offsets and its two neighbour keys; every hit also reads
/// its payload and writes one hit record. Held on a batch whose hit
/// count is known before it runs.
#[test]
fn device_match_charges_its_lookups_and_payloads() {
    let _session = RecorderSession::begin();
    let ds = dataset();
    let stored: Vec<Kmer> = ds.entries.iter().step_by(7).map(|&(k, _)| k).collect();
    let known: std::collections::HashSet<u64> = ds.entries.iter().map(|(k, _)| k.bits()).collect();
    // Distinct absent k-mers: the stored ones' low bit flipped, wherever
    // that lands off the reference set.
    let absent: Vec<Kmer> = stored
        .iter()
        .map(|k| Kmer::from_u64(k.bits() ^ 1, 31).unwrap())
        .filter(|k| !known.contains(&k.bits()))
        .collect();
    assert!(!absent.is_empty());
    let mut queries = stored.clone();
    queries.extend(absent.iter().copied());
    let (n, h) = (queries.len() as u64, stored.len() as u64);
    for threads in [1usize, 4] {
        let (snap, hits) = run_traffic(&device(&ds, threads), &queries);
        assert_eq!(hits, h, "threads={threads}");
        assert_eq!(
            snap.traffic(prof::Phase::DeviceMatch),
            prof::Traffic {
                bytes_read: n * (PAIR_BYTES + LOOKUP_BYTES) + h * PAYLOAD_BYTES,
                bytes_written: h * HIT_BYTES,
                items: n
            },
            "threads={threads}"
        );
    }
}

/// Host extract must charge exactly its stream: one byte per input
/// base read, one `(Kmer, id)` record per produced k-mer written — and
/// the device phases must satisfy their per-record shapes.
#[test]
fn pipeline_phases_charge_their_streams() {
    let _session = RecorderSession::begin();
    let ds = synth::make_dataset_with(8, 2048, 31, 4242);
    let (reads, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 40, 7);
    let device = SieveDevice::new(
        SieveConfig::type3(8)
            .with_geometry(Geometry::scaled_medium())
            .with_threads(2),
        ds.entries.clone(),
    )
    .expect("dataset fits the scaled geometry");
    obs::global().reset();
    prof::reset();
    HostPipeline::new(device).classify_reads(&reads).unwrap();
    let snap = prof::snapshot();
    let metrics = obs::global().snapshot();

    let extract = snap.traffic(prof::Phase::HostExtract);
    let base_bytes: u64 = reads.iter().map(|r| r.len() as u64).sum();
    assert_eq!(extract.bytes_read, base_bytes);
    assert_eq!(extract.items, metrics.counter("host_kmers"));
    // One 16 B Kmer plus one u32 owner id per extracted k-mer.
    assert_eq!(extract.bytes_written, extract.items * 20);

    let matched = snap.traffic(prof::Phase::DeviceMatch);
    assert!(matched.items > 0, "no match tasks ran");
    let reduce = snap.traffic(prof::Phase::DeviceReduce);
    assert_eq!(reduce.bytes_read, reduce.bytes_written);
    // Match writes and reduce moves the same 8 B hit records, one per
    // matched hit; each of those hits read its payload.
    assert_eq!(matched.bytes_written, reduce.bytes_written);
    assert_eq!(reduce.bytes_written, reduce.items * HIT_BYTES);
    assert_eq!(
        matched.bytes_read,
        matched.items * (PAIR_BYTES + LOOKUP_BYTES) + reduce.items * PAYLOAD_BYTES
    );
    let sorted = snap.traffic(prof::Phase::ShardSort);
    assert_eq!(sorted.items, matched.items);
    assert_eq!(sorted.bytes_read, 2 * sorted.bytes_written);
}

/// The simulated transport link charges its transfer sizes: one record
/// per `transfer_ps` call (the deploy-time image push), bytes written
/// only (host → device).
#[test]
fn pcie_transfers_charge_their_sizes() {
    let _session = RecorderSession::begin();
    let ds = synth::make_dataset_with(8, 2048, 31, 4242);
    obs::global().reset();
    prof::reset();
    sieve::core::SieveApi::deploy(
        SieveConfig::type3(8).with_geometry(Geometry::scaled_medium()),
        sieve::core::Transport::pcie_gen4_x16(),
        ds.entries.clone(),
    )
    .expect("type3 deploys on PCIe gen4 x16");
    let snap = prof::snapshot();
    let metrics = obs::global().snapshot();
    let pcie = snap.traffic(prof::Phase::PcieTransfer);
    assert!(pcie.items > 0, "deploy never pushed the device image");
    assert_eq!(pcie.items, metrics.counter("transport_transfers"));
    assert_eq!(pcie.bytes_read, 0);
    assert!(pcie.bytes_written > 0);
}
