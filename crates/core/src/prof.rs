//! Traffic attribution for the pipeline's hot phases: analytic
//! bytes-moved accounting, one closed form per phase.
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
//! Traffic is **derived**, not recorded: [`traffic`] evaluates each
//! phase's closed form on the deterministic stream lengths an
//! [`crate::obs::MetricsSnapshot`] already holds (bases scanned, k-mers
//! extracted, queries matched, hits produced, bytes transferred) — e.g.
//! the match pass over `q` queries with `h` hits reads `32 q + 4 h`
//! (each query's 8-byte word with the 24 bytes of key column its search
//! must touch, and each hit's 4-byte payload) and writes `8 q` (one
//! result per query). So traffic is bit-identical across thread counts
//! exactly when the snapshot is (`tests/obs_determinism.rs`). The
//! closed forms are canonical: they count the bytes the algorithm must
//! touch, so extra physical traffic (cache misses, re-reads) shows up
//! where it belongs — as a lower achieved GB/s on the same byte count —
//! rather than as phantom workload growth.
//!
//! # Example
//!
//! ```
//! use sieve_core::{obs, prof};
//!
//! let recorder = obs::Recorder::new();
//! recorder.set_enabled(true);
//! recorder.record(obs::HistId::ShardQueries, 100);
//! recorder.add(obs::CounterId::MatchHits, 20);
//! let t = prof::traffic(&recorder.snapshot(), prof::Phase::DeviceMatch);
//! assert_eq!((t.bytes_read, t.bytes_written, t.items), (3280, 800, 100));
//! ```

use std::mem::size_of;

use sieve_genomics::TaxonId;

use crate::obs::{CounterId, HistId, MetricsSnapshot};

/// Bytes extraction writes per k-mer: its `u64` word and its `u32` owner
/// tag.
const KMER_RECORD_BYTES: u64 = (size_of::<u64>() + size_of::<u32>()) as u64;

/// Bytes the match pass reads per query: its `u64` word, with its
/// bucket's two `u32` offsets and its two `u64` neighbour keys.
const QUERY_READ_BYTES: u64 =
    (size_of::<u64>() + 2 * size_of::<u32>() + 2 * size_of::<u64>()) as u64;

/// Bytes the match pass reads per hit: its payload.
const HIT_READ_BYTES: u64 = size_of::<TaxonId>() as u64;

/// Bytes the match pass writes per query: its result.
const RESULT_BYTES: u64 = size_of::<Option<TaxonId>>() as u64;

/// The attributed hot phases, one per instrumented span (plus the PCIe
/// transfer, whose "time" is simulated picoseconds rather than a wall
/// span).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Read → k-mer extraction on the host.
    HostExtract,
    /// The match pass: the query stream into the device model (with the
    /// key-table reads each search makes and each hit's payload) and one
    /// result per query out.
    DeviceMatch,
    /// Simulated PCIe transfers ([`crate::Transport`]).
    PcieTransfer,
}

impl Phase {
    /// Every phase.
    pub const ALL: [Self; 3] = [Self::HostExtract, Self::DeviceMatch, Self::PcieTransfer];

    /// Report name — matches the phase's [`crate::trace`] span name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::HostExtract => "host.extract",
            Self::DeviceMatch => "device.match",
            Self::PcieTransfer => "pcie.transfer",
        }
    }
}

/// One phase's traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Traffic {
    /// Bytes the phase read (canonical sequential schedule).
    pub bytes_read: u64,
    /// Bytes the phase wrote.
    pub bytes_written: u64,
    /// Work items the bytes amortize over (k-mers, queries, transfers —
    /// see [`traffic`]).
    pub items: u64,
}

impl Traffic {
    /// Total bytes moved (read + written).
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

/// The traffic `phase` moved over the workload `snap` recorded:
///
/// | phase | reads | writes | items |
/// |---|---|---|---|
/// | `host.extract` | `host_bases` | 12 B per k-mer | k-mers (the `chunk_kmers` sum) |
/// | `device.match` | `32 q + 4 h` | `8 q` | `q` (the `shard_queries` sum) |
/// | `pcie.transfer` | 0 | `transport_bytes` | transfers (the `transport_transfer_ps` count) |
///
/// where `h` is `match_hits`.
#[must_use]
pub fn traffic(snap: &MetricsSnapshot, phase: Phase) -> Traffic {
    let counter = |id: CounterId| snap.counter(id.name());
    // A histogram's (count, sum); (0, 0) for one the snapshot lacks.
    let hist = |id: HistId| {
        snap.histogram(id.name())
            .map_or((0, 0), |h| (h.count, h.sum))
    };
    match phase {
        Phase::HostExtract => {
            let (_, kmers) = hist(HistId::ChunkKmers);
            Traffic {
                bytes_read: counter(CounterId::HostBases),
                bytes_written: kmers * KMER_RECORD_BYTES,
                items: kmers,
            }
        }
        Phase::DeviceMatch => {
            let (_, q) = hist(HistId::ShardQueries);
            let h = counter(CounterId::MatchHits);
            Traffic {
                bytes_read: q * QUERY_READ_BYTES + h * HIT_READ_BYTES,
                bytes_written: q * RESULT_BYTES,
                items: q,
            }
        }
        Phase::PcieTransfer => Traffic {
            bytes_read: 0,
            bytes_written: counter(CounterId::TransportBytes),
            items: hist(HistId::TransportTransferPs).0,
        },
    }
}
