//! Analytic byte-count assertions for the roofline traffic layer
//! (DESIGN.md §10): [`prof::traffic`], read off the recorder's snapshot,
//! must give the match pass's closed form on real device batches at
//! every thread count, the host extract phase exactly its k-mer stream,
//! and the PCIe link exactly the device image a deploy pushes.
//!
//! The recorder is process-wide; this file owns it and serializes its
//! tests on a local mutex.

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

/// Serializes tests in this binary around the global recorder.
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

/// The traffic `phase` moved over the workload the global recorder has
/// seen since its last reset.
fn recorded(phase: prof::Phase) -> prof::Traffic {
    prof::traffic(&obs::global().snapshot(), phase)
}

/// Runs `queries` on `device` and returns the match traffic it recorded
/// and the run's hit count.
fn run_traffic(device: &SieveDevice, queries: &[Kmer]) -> (prof::Traffic, u64) {
    obs::global().reset();
    let out = device.run(queries).expect("valid batch");
    (recorded(prof::Phase::DeviceMatch), out.report.hits)
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
        let (traffic, hits) = run_traffic(&device(&ds, threads), &queries);
        assert_eq!(hits, h, "threads={threads}");
        assert_eq!(traffic, match_traffic(n, h), "threads={threads}");
    }
    let (traffic, _) = run_traffic(&device(&ds, 1), &[]);
    assert_eq!(traffic, prof::Traffic::default());
}

/// Host extract must move exactly its stream: one byte per input base
/// read, one `(word, id)` record per produced k-mer written — and the
/// match pass its closed form over the extracted k-mers, at one thread
/// and at four.
#[test]
fn pipeline_phases_charge_their_streams() {
    let _session = RecorderSession::begin();
    let ds = synth::make_dataset_with(8, 2048, 31, 4242);
    let (reads, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 40, 7);
    let base_bytes: u64 = reads.iter().map(|r| r.len() as u64).sum();
    let kmers: u64 = reads.iter().map(|r| r.kmers(31).count() as u64).sum();
    for threads in [1usize, 4] {
        obs::global().reset();
        let out = HostPipeline::new(device(&ds, threads))
            .classify_reads(&reads)
            .unwrap();
        let metrics = obs::global().snapshot();

        // One 8 B word plus one u32 owner id per extracted k-mer.
        let extract = prof::traffic(&metrics, prof::Phase::HostExtract);
        let expected = prof::Traffic {
            bytes_read: base_bytes,
            bytes_written: kmers * 12,
            items: kmers,
        };
        assert_eq!(extract, expected, "threads={threads}");

        assert!(out.report.hits > 0, "the batch must hit");
        assert!(
            metrics
                .histogram("shard_queries")
                .is_some_and(|h| h.count > 1),
            "the batch must spread over several subarrays"
        );
        assert_eq!(
            prof::traffic(&metrics, prof::Phase::DeviceMatch),
            match_traffic(kmers, out.report.hits),
            "threads={threads}"
        );
    }
}

/// The simulated transport link moves its transfer sizes: a deploy
/// pushes the device image once, host to device, so the link writes
/// exactly the image's bytes in one transfer and reads nothing.
#[test]
fn pcie_transfers_charge_their_sizes() {
    let _session = RecorderSession::begin();
    let ds = synth::make_dataset_with(8, 2048, 31, 4242);
    obs::global().reset();
    let api = sieve::core::SieveApi::deploy(
        SieveConfig::type3(8).with_geometry(Geometry::scaled_medium()),
        sieve::core::Transport::pcie_gen4_x16(),
        ds.entries.clone(),
    )
    .expect("type3 deploys on PCIe gen4 x16");
    let image_bytes = api.load_report().image_bytes;
    assert!(image_bytes > 0, "deploy pushed an empty image");
    assert_eq!(
        recorded(prof::Phase::PcieTransfer),
        prof::Traffic {
            bytes_read: 0,
            bytes_written: image_bytes,
            items: 1,
        }
    );
}
