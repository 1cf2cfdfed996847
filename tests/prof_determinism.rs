//! Determinism of the roofline traffic layer (DESIGN.md §10): a
//! [`prof::ProfSnapshot`] is charged analytically from the workload, so
//! for a fixed workload it must be **bit-identical across thread
//! counts** — parallel execution may physically re-scan buffers, but the
//! canonical charge may not move. Unlike the obs grid
//! (tests/obs_determinism.rs), the cache axis is allowed to change the
//! numbers (a replayed query skips the scatter and match it would have
//! been charged for), so references here are held per cache setting.
//!
//! The prof table is process-wide; this file owns it (each integration
//! test file is its own binary) and serializes on a local mutex.

use std::sync::Mutex;

use sieve::core::{obs, prof, HostPipeline, SieveConfig, SieveDevice};
use sieve::dram::Geometry;
use sieve::genomics::synth;

/// The acceptance sweep: sequential, typical cores, oversubscribed.
const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

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

fn device(config: SieveConfig, threads: usize, ds: &synth::SyntheticDataset) -> SieveDevice {
    SieveDevice::new(
        config
            .with_geometry(Geometry::scaled_medium())
            .with_threads(threads),
        ds.entries.clone(),
    )
    .expect("dataset fits the scaled geometry")
}

/// Raw device batches (no host pipeline) across the full thread sweep,
/// including oversubscription, with and without the simulated PCIe link:
/// the whole traffic table — device phases and transfers included — must
/// not move by a byte.
#[test]
fn device_batches_charge_identically_across_the_sweep() {
    let _session = RecorderSession::begin();
    let ds = dataset();
    let queries: Vec<_> = ds.entries.iter().step_by(3).map(|(k, _)| *k).collect();
    for config in [
        SieveConfig::type3(8),
        SieveConfig::type3(8).with_pcie(sieve::core::PcieConfig::gen4_x16()),
    ] {
        let mut reference: Option<prof::ProfSnapshot> = None;
        for threads in THREAD_SWEEP {
            obs::global().reset();
            prof::reset();
            device(config.clone(), threads, &ds).run(&queries).unwrap();
            let snap = prof::snapshot();
            match &reference {
                None => reference = Some(snap),
                Some(base) => assert_eq!(
                    &snap,
                    base,
                    "{} threads={threads}: traffic snapshot diverged",
                    config.device.label()
                ),
            }
        }
    }
}

/// The streamed acceptance grid: threads × hot-k-mer cache. With the
/// cache engaged, replayed chunks change which code path resolves a
/// query, but the cache is deterministic for a fixed chunked stream, so
/// the traffic table still may not vary with the thread count.
#[test]
fn cached_streams_charge_identically_across_threads() {
    let _session = RecorderSession::begin();
    let ds = dataset();
    let (pass, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 30, 31);
    let reads: Vec<_> = pass.iter().cycle().take(pass.len() * 3).cloned().collect();
    for hot_kmers in [0usize, 1 << 18] {
        let mut reference: Option<prof::ProfSnapshot> = None;
        for threads in THREAD_SWEEP {
            obs::global().reset();
            prof::reset();
            let config = SieveConfig::type3(8).with_hot_kmers(hot_kmers);
            HostPipeline::new(device(config, threads, &ds))
                .classify_stream(&reads, 10)
                .unwrap();
            let snap = prof::snapshot();
            match &reference {
                None => reference = Some(snap),
                Some(base) => assert_eq!(
                    &snap, base,
                    "hot_kmers={hot_kmers} threads={threads}: traffic snapshot diverged"
                ),
            }
        }
        // Non-vacuity: every cell extracts and matches.
        let snap = reference.expect("grid ran");
        assert!(snap.traffic(prof::Phase::HostExtract).items > 0);
        assert!(snap.traffic(prof::Phase::DeviceMatch).items > 0);
    }
}
