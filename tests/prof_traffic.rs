//! Analytic byte-count assertions for the roofline traffic layer
//! (DESIGN.md §10): the radix sort's recorded charges must equal the
//! closed forms (12 B per pair per pass-scan, partial-stage drains
//! charged to `sort.flush`), arbitrary inputs must match the
//! differential predictor that replays the planner's decisions from the
//! raw key stream, and the host extract phase must charge exactly its
//! k-mer stream.
//!
//! The prof table is process-wide (like the recorder); this file owns
//! both and serializes its tests on a local mutex.

use std::sync::Mutex;

use sieve::core::{obs, prof, sort_bench, HostPipeline, SieveConfig, SieveDevice};
use sieve::dram::Geometry;
use sieve::genomics::synth;

/// `size_of::<radix::Pair>()` — the layout the closed forms charge per
/// pair per scan. The differential tests below would fail loudly if the
/// layout ever drifted from this constant.
const PAIR_BYTES: u64 = 12;

/// Pairs per write-combining staging line (radix's `STAGE`): each
/// bucket's trailing `count % STAGE` pairs drain through `sort.flush`.
const STAGE: u64 = 8;

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

/// Runs the production sort over `keys` and returns the prof snapshot
/// it recorded.
fn sort_traffic(keys: &[u64], threads: usize) -> prof::ProfSnapshot {
    let mut harness = sort_bench::SortHarness::new(keys);
    obs::global().reset();
    prof::reset();
    harness.run(threads);
    prof::snapshot()
}

/// Deterministic key stream (SplitMix64) without an RNG dependency.
fn splitmix(seed: u64, n: usize) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

/// An 8-bit key span over a batch whose bucket counts are all multiples
/// of the staging line: one global pass, no flush, no local passes —
/// every charge is a closed form in `n` alone.
#[test]
fn single_pass_uniform_batch_matches_the_closed_form() {
    let _session = RecorderSession::begin();
    // 256 buckets × 160 pairs each; 160 ≡ 0 (mod STAGE) → zero drains.
    let n: u64 = 256 * 160;
    let keys: Vec<u64> = (0..n).map(|i| i % 256).collect();
    let snap = sort_traffic(&keys, 1);
    let full = n * PAIR_BYTES;
    assert_eq!(
        snap.traffic(prof::Phase::SortHist),
        prof::Traffic {
            bytes_read: full,
            bytes_written: 0,
            items: n
        }
    );
    assert_eq!(
        snap.traffic(prof::Phase::SortScatter),
        prof::Traffic {
            bytes_read: full,
            bytes_written: full,
            items: n
        }
    );
    assert_eq!(
        snap.traffic(prof::Phase::SortFlush),
        prof::Traffic::default()
    );
    // A single planned pass finishes in the global scatter: no local
    // phase at all.
    assert_eq!(
        snap.traffic(prof::Phase::SortLocal),
        prof::Traffic::default()
    );
}

/// Appending five more pairs to one bucket makes its count 165 ≡ 5
/// (mod STAGE): exactly five pairs must move from the scatter's write
/// charge to the flush phase, regardless of how many workers drained
/// their private staging lines.
#[test]
fn partial_stage_drains_are_charged_to_flush() {
    let _session = RecorderSession::begin();
    let mut keys: Vec<u64> = (0..256u64 * 160).map(|i| i % 256).collect();
    keys.extend([0u64; 5]);
    let n = keys.len() as u64;
    let drains = 165 % STAGE; // bucket 0 holds 165 pairs now
    assert_eq!(drains, 5);
    for threads in [1usize, 4] {
        let snap = sort_traffic(&keys, threads);
        assert_eq!(
            snap.traffic(prof::Phase::SortFlush),
            prof::Traffic {
                bytes_read: 0,
                bytes_written: drains * PAIR_BYTES,
                items: drains
            },
            "threads={threads}"
        );
        assert_eq!(
            snap.traffic(prof::Phase::SortScatter),
            prof::Traffic {
                bytes_read: n * PAIR_BYTES,
                bytes_written: (n - drains) * PAIR_BYTES,
                items: n
            },
            "threads={threads}"
        );
        assert_eq!(
            snap.traffic(prof::Phase::SortHist).bytes_read,
            n * PAIR_BYTES
        );
    }
}

/// Degenerate batches and comparison sorts charge nothing: a comparison
/// sort's traffic is data- and allocator-dependent, so the model refuses
/// to invent a number for it (see the prof module docs).
#[test]
fn comparison_and_degenerate_batches_charge_nothing() {
    let _session = RecorderSession::begin();
    let zero = prof::ProfSnapshot {
        phases: prof::Phase::ALL.map(|p| (p, prof::Traffic::default())),
    };
    // All keys equal: the stable order is the input order, no passes.
    assert_eq!(sort_traffic(&[42u64; 100], 1), zero);
    // Single pair: nothing to sort.
    assert_eq!(sort_traffic(&[7u64], 1), zero);
    // A full-span batch below the cutover sorts by comparison as a whole.
    assert_eq!(sort_traffic(&splitmix(1, 500), 1), zero);
}

/// The differential gate: for arbitrary key distributions — full-width
/// multi-pass, narrow-span, skew-heavy, and one giant bucket — the
/// executed pipeline's recorded charges must equal the predictor's replay
/// of the planner (pass plan, adaptive cutover, per-segment replans), at
/// every thread count. Each distribution also states what it must
/// exercise, so the equality cannot pass vacuously.
#[test]
fn recorded_traffic_matches_the_differential_predictor() {
    let _session = RecorderSession::begin();
    let wide = splitmix(2, 60_000); // 64-bit span: one global pass + segments
    let narrow: Vec<u64> = splitmix(3, 60_000).iter().map(|k| k & 0xF_FFFF).collect();
    let skewed: Vec<u64> = splitmix(4, 60_000)
        .iter()
        .enumerate()
        .map(|(i, &k)| if i % 3 == 0 { k & 0xFFF } else { 1u64 << 40 })
        .collect();
    // ~95% of keys share their top 16 bits and vary in the low 48: the
    // heavy segment sorts on tie-ranked narrow records, the committed
    // workload's shape.
    let giant: Vec<u64> = splitmix(5, 60_000)
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            if i % 20 == 0 {
                k
            } else {
                (k & 0xFFFF_FFFF_FFFF) | 0x3A00_0000_0000_0000
            }
        })
        .collect();
    let all = [
        ("wide", &wide),
        ("narrow", &narrow),
        ("skewed", &skewed),
        ("giant", &giant),
    ];
    for (label, keys) in all {
        let predicted = sort_bench::predict_traffic(keys);
        for threads in [1usize, 2, 4] {
            let recorded = sort_traffic(keys, threads);
            for &(phase, expected) in &predicted {
                assert_eq!(
                    recorded.traffic(phase),
                    expected,
                    "{label} threads={threads}: {} diverged from the predictor",
                    phase.name()
                );
            }
        }
        // Structural invariants of the global pass, on the predictor the
        // recorded side just matched: every pair is read once by the
        // histogram and written exactly once between scatter and flush,
        // and flush bytes are whole records.
        let (hist, scatter, flush) = (predicted[0].1, predicted[1].1, predicted[2].1);
        assert_eq!(hist.bytes_read, keys.len() as u64 * PAIR_BYTES, "{label}");
        assert_eq!(scatter.bytes_written + flush.bytes_written, hist.bytes_read);
        assert_eq!(flush.bytes_written, flush.items * PAIR_BYTES);
    }
    // Non-vacuity: the giant batch must have narrowed its heavy segment
    // (only narrowed segments charge local bytes), and at least one
    // batch must have partial-line drains.
    let giant_local = sort_bench::predict_traffic(&giant)[3].1;
    assert!(
        giant_local.bytes_read > 0,
        "the giant bucket never took the narrowed segment sort"
    );
    let flush_any = all
        .iter()
        .any(|(_, k)| sort_bench::predict_traffic(k)[2].1.items > 0);
    assert!(flush_any, "no batch exercised the flush charge");
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
    assert_eq!(matched.bytes_read, matched.items * PAIR_BYTES);
    let reduce = snap.traffic(prof::Phase::DeviceReduce);
    assert_eq!(reduce.bytes_read, reduce.bytes_written);
    // Match writes and reduce moves the same 8 B hit records.
    assert_eq!(matched.bytes_written, reduce.bytes_written);
    assert_eq!(reduce.bytes_written, reduce.items * 8);
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
