//! Traffic attribution for the pipeline's hot phases: analytic
//! bytes-moved accounting, one charge per phase.
//!
//! A phase's [`crate::trace`] wall span answers *how long* it ran; this
//! module answers *how much data it moved* while it ran, so a report can
//! divide the two and say whether a phase is **bandwidth-bound**
//! (achieved GB/s near the machine's copy ceiling — optimizing
//! instructions is pointless, only moving fewer bytes helps) or
//! **compute-bound** (far below the ceiling — the kernel, not the memory
//! system, is the limiter). That is the question in-memory-accelerator
//! papers settle with a roofline plot.
//!
//! Traffic is recorded **analytically**, as closed forms in
//! deterministic stream lengths (k-mers extracted, queries matched, hits
//! produced, transfer sizes) — e.g. the match pass over `q` queries with
//! `h` hits reads `32 q + 4 h` (each query's 8-byte word with the 24
//! bytes of key column its search must touch, and each hit's 4-byte
//! payload) and writes `8 q` (one result per query). The contract mirrors the rest of the obs surface: for a fixed workload, a
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
//! prof::record(prof::Phase::DeviceMatch, 4000, 800, 100);
//! let snap = prof::snapshot();
//! assert_eq!(snap.traffic(prof::Phase::DeviceMatch).bytes_read, 4000);
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
    /// Read → k-mer extraction on the host.
    HostExtract = 0,
    /// The match pass: the query stream into the device model (with the
    /// key-table reads each search makes and each hit's payload) and one
    /// result per query out.
    DeviceMatch,
    /// Simulated PCIe transfers ([`crate::Transport`]).
    PcieTransfer,
}

impl Phase {
    /// Every phase, in snapshot order.
    pub const ALL: [Self; 3] = [Self::HostExtract, Self::DeviceMatch, Self::PcieTransfer];

    /// Snapshot name — matches the phase's [`crate::trace`] span name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::HostExtract => "host.extract",
            Self::DeviceMatch => "device.match",
            Self::PcieTransfer => "pcie.transfer",
        }
    }

    /// Name of this phase's cumulative-bytes Perfetto counter track.
    #[must_use]
    pub fn counter_name(self) -> &'static str {
        match self {
            Self::HostExtract => "prof.host.extract.bytes",
            Self::DeviceMatch => "prof.device.match.bytes",
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
    /// Work items the bytes amortize over (k-mers, queries, transfers —
    /// see each recording site).
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_record_is_a_no_op() {
        // Global recorder and tracer are off in the unit binary, so the
        // global table must stay untouched by record().
        record(Phase::DeviceMatch, 10, 20, 30);
        let t = snapshot().traffic(Phase::DeviceMatch);
        assert_eq!(t, Traffic::default());
    }
}
