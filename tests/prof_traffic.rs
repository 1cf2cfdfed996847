//! Analytic byte-count assertions for the roofline traffic layer
//! (DESIGN.md §10): the device's match pass must charge its closed form
//! on real device batches at every thread count, and the host extract
//! phase must charge exactly its k-mer stream.
//!
//! The prof table is process-wide (like the recorder); this file owns
//! both and serializes its tests on a local mutex.

use std::sync::Mutex;

use sieve::core::{obs, prof, HostPipeline, SieveConfig, SieveDevice};
use sieve::dram::Geometry;
use sieve::genomics::{synth, Kmer};

/// Bytes of one query as the match pass reads it: an 8-byte `2k`-bit
/// word.
const QUERY_BYTES: u64 = 8;

/// Bytes one search of the layout's key column reads besides its query:
/// its bucket's two `u32` offsets and its two `u64` neighbour keys.
const LOOKUP_BYTES: u64 = 24;

/// Bytes of one payload (a `u32` taxon id), read once per hit.
const PAYLOAD_BYTES: u64 = 4;

/// Bytes of one result (an `Option<TaxonId>`), written once per query.
const RESULT_BYTES: u64 = 8;

/// The match pass's closed form for `q` queries with `h` hits.
fn match_traffic(q: u64, h: u64) -> prof::Traffic {
    prof::Traffic {
        bytes_read: q * (QUERY_BYTES + LOOKUP_BYTES) + h * PAYLOAD_BYTES,
        bytes_written: q * RESULT_BYTES,
        items: q,
    }
}

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

/// A Type-3 device over `ds`: every query in a batch is matched once.
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

/// The match pass: every query reads itself, its bucket's two offsets
/// and its two neighbour keys and writes its result; every hit also
/// reads its payload. Held on a batch whose hit count is known before it
/// runs, at one thread and at four, and on an empty batch.
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
            match_traffic(n, h),
            "threads={threads}"
        );
    }
    let (snap, _) = run_traffic(&device(&ds, 1), &[]);
    assert_eq!(
        snap.traffic(prof::Phase::DeviceMatch),
        prof::Traffic::default()
    );
}

/// Host extract must charge exactly its stream: one byte per input
/// base read, one `(word, id)` record per produced k-mer written — and
/// the match pass its closed form over the extracted k-mers, at one
/// thread and at four.
#[test]
fn pipeline_phases_charge_their_streams() {
    let _session = RecorderSession::begin();
    let ds = synth::make_dataset_with(8, 2048, 31, 4242);
    let (reads, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 40, 7);
    for threads in [1usize, 4] {
        obs::global().reset();
        prof::reset();
        let out = HostPipeline::new(device(&ds, threads))
            .classify_reads(&reads)
            .unwrap();
        let snap = prof::snapshot();
        let metrics = obs::global().snapshot();

        let extract = snap.traffic(prof::Phase::HostExtract);
        let base_bytes: u64 = reads.iter().map(|r| r.len() as u64).sum();
        assert_eq!(extract.bytes_read, base_bytes, "threads={threads}");
        assert_eq!(extract.items, metrics.counter("host_kmers"));
        // One 8 B word plus one u32 owner id per extracted k-mer.
        assert_eq!(extract.bytes_written, extract.items * 12);

        assert!(out.report.hits > 0, "the batch must hit");
        assert!(
            metrics
                .histogram("shard_queries")
                .is_some_and(|h| h.count > 1),
            "the batch must spread over several subarrays"
        );
        assert_eq!(
            snap.traffic(prof::Phase::DeviceMatch),
            match_traffic(extract.items, out.report.hits),
            "threads={threads}"
        );
    }
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
