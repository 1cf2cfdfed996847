//! Roofline attribution for the pipeline's hot phases: bytes-moved
//! accounting layered on the [`crate::obs`] spans, plus the derivation
//! that turns `(bytes, wall ns, calibrated peak)` into a per-phase
//! roofline row.
//!
//! [`crate::obs`] answers *how long* each phase ran; this module answers
//! *how much data it moved* while it ran, so a report can divide the two
//! and say whether a phase is **bandwidth-bound** (achieved GB/s near the
//! machine's calibrated ceiling — optimizing instructions is pointless,
//! only moving fewer bytes helps) or **compute-bound** (far below the
//! ceiling — the kernel, not the memory system, is the limiter). That is
//! the question in-memory-accelerator papers settle with a roofline plot.
//!
//! Traffic is recorded **analytically**, as closed forms in
//! deterministic stream lengths (pairs planned, k-mers extracted, queries
//! matched, hits produced, transfer sizes) — e.g. the plan's counting
//! scatter over `n` 12-byte `(bits, id)` pairs reads `24 n` (histogram
//! scan + scatter read) and writes `12 n`. The
//! contract mirrors the rest of the obs surface: for a fixed workload, a
//! [`ProfSnapshot`] is **bit-identical across thread counts**
//! (`tests/prof_determinism.rs`). The charges are canonical: they count
//! the bytes the algorithm must touch, so extra physical traffic (cache
//! misses, re-reads) shows up where it belongs — as a lower achieved GB/s
//! on the same byte count — rather than as phantom workload growth.
//!
//! The global table is recorded into only while the [`crate::obs`]
//! recorder or the [`crate::trace`] tracer is enabled (the disabled fast
//! path is two relaxed loads); when the tracer is on, every update also
//! emits a cumulative-bytes sample onto a Perfetto counter track
//! (`prof.<phase>.bytes`).
//!
//! # Example
//!
//! ```
//! use sieve_core::{obs, prof};
//!
//! obs::global().set_enabled(true);
//! prof::reset();
//! prof::record(prof::Phase::ShardSort, 2400, 1200, 100);
//! let snap = prof::snapshot();
//! assert_eq!(snap.traffic(prof::Phase::ShardSort).bytes_read, 2400);
//! obs::global().set_enabled(false);
//! ```

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use crate::obs;
use crate::trace;

/// The attributed hot phases, one per instrumented span (plus the PCIe
/// transfer, whose "time" is simulated picoseconds rather than a wall
/// span).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The plan's stable counting scatter by destination subarray: a
    /// histogram scan reads every pair, then the scatter reads every
    /// pair again and writes it to its shard.
    ShardSort = 0,
    /// Read → k-mer extraction on the host.
    HostExtract,
    /// Match-phase k-mer stream into the device model (with the key-table
    /// reads each lookup makes) and hit stream out.
    DeviceMatch,
    /// Deterministic task-order reduce of per-task hit streams.
    DeviceReduce,
    /// Simulated PCIe transfers ([`crate::Transport`]).
    PcieTransfer,
}

impl Phase {
    /// Every phase, in snapshot order.
    pub const ALL: [Self; 5] = [
        Self::ShardSort,
        Self::HostExtract,
        Self::DeviceMatch,
        Self::DeviceReduce,
        Self::PcieTransfer,
    ];

    /// Snapshot name — matches the phase's span name, so
    /// `wall.<name>.ns` is the corresponding wall histogram.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::ShardSort => "shard.sort",
            Self::HostExtract => "host.extract",
            Self::DeviceMatch => "device.match",
            Self::DeviceReduce => "device.reduce",
            Self::PcieTransfer => "pcie.transfer",
        }
    }

    /// Name of this phase's cumulative-bytes Perfetto counter track.
    #[must_use]
    pub fn counter_name(self) -> &'static str {
        match self {
            Self::ShardSort => "prof.shard.sort.bytes",
            Self::HostExtract => "prof.host.extract.bytes",
            Self::DeviceMatch => "prof.device.match.bytes",
            Self::DeviceReduce => "prof.device.reduce.bytes",
            Self::PcieTransfer => "prof.pcie.transfer.bytes",
        }
    }
}

/// One phase's accumulated traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Traffic {
    /// Bytes the phase read (canonical sequential schedule).
    pub bytes_read: u64,
    /// Bytes the phase wrote.
    pub bytes_written: u64,
    /// Work items the bytes amortize over (pairs, k-mers, queries,
    /// transfers — see each recording site).
    pub items: u64,
}

impl Traffic {
    /// Total bytes moved (read + written).
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

/// One phase's slots, cache-line padded so concurrent recorders on
/// different phases never share a line.
#[repr(align(64))]
struct Cell {
    read: AtomicU64,
    written: AtomicU64,
    items: AtomicU64,
}

impl Cell {
    const fn new() -> Self {
        Self {
            read: AtomicU64::new(0),
            written: AtomicU64::new(0),
            items: AtomicU64::new(0),
        }
    }
}

static TABLE: [Cell; Phase::ALL.len()] = [const { Cell::new() }; Phase::ALL.len()];

/// Whether traffic recording is live: true while the global
/// [`crate::obs`] recorder or [`crate::trace`] tracer is enabled. Sites
/// whose byte counts need a non-trivial computation (e.g. summing read
/// lengths) check this first; [`record`] itself is always gated.
#[must_use]
pub fn active() -> bool {
    obs::global().is_enabled() || trace::global().is_enabled()
}

/// Adds one phase's traffic to the global table. No-op unless the global
/// [`crate::obs`] recorder or [`crate::trace`] tracer is enabled (the
/// fast path is two relaxed loads). With the tracer on, also emits the
/// phase's new cumulative byte total onto its Perfetto counter track.
pub fn record(phase: Phase, bytes_read: u64, bytes_written: u64, items: u64) {
    let tracing = trace::global().is_enabled();
    if !obs::global().is_enabled() && !tracing {
        return;
    }
    let cell = &TABLE[phase as usize];
    let prior_read = cell.read.fetch_add(bytes_read, Relaxed);
    let prior_written = cell.written.fetch_add(bytes_written, Relaxed);
    cell.items.fetch_add(items, Relaxed);
    if tracing {
        let total = prior_read + bytes_read + prior_written + bytes_written;
        trace::global().emit_counter(phase.counter_name(), total);
    }
}

/// A point-in-time copy of the global traffic table.
#[must_use]
pub fn snapshot() -> ProfSnapshot {
    ProfSnapshot {
        phases: Phase::ALL.map(|p| {
            let cell = &TABLE[p as usize];
            (
                p,
                Traffic {
                    bytes_read: cell.read.load(Relaxed),
                    bytes_written: cell.written.load(Relaxed),
                    items: cell.items.load(Relaxed),
                },
            )
        }),
    }
}

/// Zeroes the global traffic table (callers pair this with
/// [`crate::obs::Recorder::reset`] around a measured workload).
pub fn reset() {
    for cell in &TABLE {
        cell.read.store(0, Relaxed);
        cell.written.store(0, Relaxed);
        cell.items.store(0, Relaxed);
    }
}

/// Exportable copy of the traffic table: every [`Phase`] with its
/// accumulated [`Traffic`], in [`Phase::ALL`] order. `Eq` on purpose —
/// the determinism grid compares snapshots bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfSnapshot {
    /// `(phase, traffic)` in [`Phase::ALL`] order.
    pub phases: [(Phase, Traffic); Phase::ALL.len()],
}

impl ProfSnapshot {
    /// One phase's traffic.
    #[must_use]
    pub fn traffic(&self, phase: Phase) -> Traffic {
        self.phases[phase as usize].1
    }

    /// Renders the table as a JSON object (hand-rolled; the workspace
    /// builds offline, without serde), one line per phase, phases with no
    /// traffic omitted.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let mut first = true;
        for (phase, t) in &self.phases {
            if t.bytes() == 0 && t.items == 0 {
                continue;
            }
            let sep = if first { "" } else { "," };
            first = false;
            s.push_str(&format!(
                "{sep}\n    \"{}\": {{\"bytes_read\": {}, \"bytes_written\": {}, \"items\": {}}}",
                phase.name(),
                t.bytes_read,
                t.bytes_written,
                t.items
            ));
        }
        s.push_str("\n  }");
        s
    }
}

/// A machine's calibrated sustained bandwidth (from
/// `results/MACHINE.json`, written by `bench_calibrate`), single-core:
/// a streaming read+write copy, the ceiling every host phase is judged
/// against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// `MACHINE.json` schema version, embedded in reports for provenance.
    pub version: u64,
    /// Sustained 1-core streaming copy bandwidth, GB/s (read + write).
    pub copy_gbps: f64,
}

/// Achieved-vs-peak threshold above which a phase is classified
/// bandwidth-bound: at ≥ half the calibrated ceiling, byte count — not
/// instruction count — is what limits the phase.
pub const BANDWIDTH_BOUND_FRAC: f64 = 0.5;

/// One derived roofline row: a phase's traffic joined with its wall time
/// and normalized against the calibrated peak of its traffic class.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflineRow {
    /// Phase name (= span name).
    pub phase: &'static str,
    /// Bytes read (canonical schedule).
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Work items.
    pub items: u64,
    /// Phase wall time, summed ns (`wall.<phase>.ns`); for
    /// [`Phase::PcieTransfer`] this is *simulated* ns from the transport
    /// model.
    pub wall_ns: u64,
    /// Wall ns per item (0 when either side is 0).
    pub ns_per_item: f64,
    /// Achieved bandwidth, GB/s (total bytes / wall ns).
    pub gbps: f64,
    /// The calibrated ceiling this phase is judged against (0 = no
    /// calibrated class, e.g. the simulated PCIe link).
    pub peak_gbps: f64,
    /// `gbps / peak_gbps` (0 when no peak applies).
    pub frac_of_peak: f64,
    /// `"bandwidth"`, `"compute"`, or `"n/a"` (no peak / no traffic /
    /// no wall sample).
    pub bound: &'static str,
}

/// Joins a traffic snapshot with its paired wall metrics and an optional
/// calibration into roofline rows, one per phase with any traffic.
///
/// Every host phase is judged against [`Calibration::copy_gbps`]; the
/// simulated PCIe transfer gets no peak (its "wall" is model time, so a
/// host ceiling would be meaningless).
#[must_use]
pub fn roofline_rows(
    prof: &ProfSnapshot,
    metrics: &obs::MetricsSnapshot,
    cal: Option<&Calibration>,
) -> Vec<RooflineRow> {
    let mut rows = Vec::new();
    for &(phase, t) in &prof.phases {
        if t.bytes() == 0 && t.items == 0 {
            continue;
        }
        let wall_ns = match phase {
            // The transfer's duration is simulated: the model histogram
            // holds picoseconds.
            Phase::PcieTransfer => metrics
                .histogram("transport_transfer_ps")
                .map_or(0, |h| h.sum / 1_000),
            _ => metrics
                .histogram(&format!("wall.{}.ns", phase.name()))
                .map_or(0, |h| h.sum),
        };
        let peak_gbps = match (phase, cal) {
            (Phase::PcieTransfer, _) | (_, None) => 0.0,
            (_, Some(c)) => c.copy_gbps,
        };
        #[allow(clippy::cast_precision_loss)]
        let gbps = if wall_ns == 0 {
            0.0
        } else {
            t.bytes() as f64 / wall_ns as f64
        };
        #[allow(clippy::cast_precision_loss)]
        let ns_per_item = if t.items == 0 || wall_ns == 0 {
            0.0
        } else {
            wall_ns as f64 / t.items as f64
        };
        let frac_of_peak = if peak_gbps > 0.0 {
            gbps / peak_gbps
        } else {
            0.0
        };
        let bound = if peak_gbps <= 0.0 || wall_ns == 0 || t.bytes() == 0 {
            "n/a"
        } else if frac_of_peak >= BANDWIDTH_BOUND_FRAC {
            "bandwidth"
        } else {
            "compute"
        };
        rows.push(RooflineRow {
            phase: phase.name(),
            bytes_read: t.bytes_read,
            bytes_written: t.bytes_written,
            items: t.items,
            wall_ns,
            ns_per_item,
            gbps,
            peak_gbps,
            frac_of_peak,
            bound,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    // Every test here builds snapshots by hand; none touches the global
    // table (other tests in this binary run concurrently, and the global
    // recorder/tracer stay disabled throughout the unit suite).

    fn snap_with(phase: Phase, t: Traffic) -> ProfSnapshot {
        let mut phases = Phase::ALL.map(|p| (p, Traffic::default()));
        phases[phase as usize].1 = t;
        ProfSnapshot { phases }
    }

    fn wall(name: &str, sum: u64) -> obs::MetricsSnapshot {
        let hist = obs::HistogramSnapshot {
            count: 1,
            sum,
            ..Default::default()
        };
        obs::MetricsSnapshot {
            counters: Vec::new(),
            histograms: vec![(name.to_string(), hist)],
        }
    }

    #[test]
    fn disabled_record_is_a_no_op() {
        // Global recorder and tracer are off in the unit binary, so the
        // global table must stay untouched by record().
        record(Phase::ShardSort, 10, 20, 30);
        let t = snapshot().traffic(Phase::ShardSort);
        assert_eq!(t, Traffic::default());
    }

    #[test]
    fn roofline_classifies_by_fraction_of_peak() {
        let cal = Calibration {
            version: 1,
            copy_gbps: 2.0,
        };
        // 16 MB over 8 ms = 2 GB/s = 100% of the copy peak.
        let prof = snap_with(
            Phase::ShardSort,
            Traffic {
                bytes_read: 8_000_000,
                bytes_written: 8_000_000,
                items: 500_000,
            },
        );
        let metrics = wall("wall.shard.sort.ns", 8_000_000);
        let rows = roofline_rows(&prof, &metrics, Some(&cal));
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.phase, "shard.sort");
        assert_eq!(row.wall_ns, 8_000_000);
        assert!((row.gbps - 2.0).abs() < 1e-9);
        assert!((row.frac_of_peak - 1.0).abs() < 1e-9);
        assert_eq!(row.bound, "bandwidth");
        assert!((row.ns_per_item - 16.0).abs() < 1e-9);

        // The same traffic over 10× the wall lands at 10% of peak.
        let metrics = wall("wall.shard.sort.ns", 80_000_000);
        let rows = roofline_rows(&prof, &metrics, Some(&cal));
        assert_eq!(rows[0].bound, "compute");
    }

    #[test]
    fn phases_without_calibration_or_wall_are_not_classified() {
        let prof = snap_with(
            Phase::ShardSort,
            Traffic {
                bytes_read: 1200,
                bytes_written: 0,
                items: 100,
            },
        );
        // No calibration: no peak, no bound.
        let rows = roofline_rows(&prof, &wall("wall.shard.sort.ns", 100), None);
        assert_eq!(rows[0].peak_gbps, 0.0);
        assert_eq!(rows[0].bound, "n/a");
        // No wall sample: no achieved bandwidth either.
        let cal = Calibration {
            version: 1,
            copy_gbps: 8.0,
        };
        let rows = roofline_rows(&prof, &wall("wall.other.ns", 5), Some(&cal));
        assert_eq!(rows[0].wall_ns, 0);
        assert_eq!(rows[0].gbps, 0.0);
        assert_eq!(rows[0].bound, "n/a");
    }

    #[test]
    fn pcie_wall_comes_from_the_model_histogram_in_ns() {
        let prof = snap_with(
            Phase::PcieTransfer,
            Traffic {
                bytes_read: 0,
                bytes_written: 4_000,
                items: 1,
            },
        );
        // 2,000,000 ps of simulated transfer = 2,000 ns; 4 kB over it =
        // 2 GB/s, but the simulated link never gets a host peak.
        let metrics = wall("transport_transfer_ps", 2_000_000);
        let rows = roofline_rows(&prof, &metrics, None);
        assert_eq!(rows[0].wall_ns, 2_000);
        assert!((rows[0].gbps - 2.0).abs() < 1e-9);
        assert_eq!(rows[0].bound, "n/a");
    }

    #[test]
    fn json_renders_only_touched_phases() {
        let prof = snap_with(
            Phase::HostExtract,
            Traffic {
                bytes_read: 100,
                bytes_written: 240,
                items: 12,
            },
        );
        let json = prof.to_json();
        assert!(json.contains(
            "\"host.extract\": {\"bytes_read\": 100, \"bytes_written\": 240, \"items\": 12}"
        ));
        assert!(!json.contains("shard.sort"));
    }
}
