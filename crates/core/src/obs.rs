//! Observability for the classification pipeline: per-stage counters,
//! fixed-bucket (power-of-two, HDR-style) histograms, and exportable
//! [`MetricsSnapshot`]s.
//!
//! The pipeline (host → match pass → schedulers) records
//! **model metrics**: counters and histograms over *simulated* quantities
//! (queries per subarray, ETM rows activated per lookup, dispatch stall in
//! model picoseconds). These are pure functions of the workload, so a
//! snapshot is **bit-identical across thread counts**: every update is an
//! order-independent integer merge (sums into counters and buckets,
//! min/max into bounds), exactly like the match pass's merge of its
//! ranges (DESIGN.md §6/§7). A match range tallies its lookups in a
//! count array and merges them as one [`Histogram`] when it finishes.
//! Wall-clock time is the tracer's alone: each pipeline phase opens one
//! [`crate::trace::span`].
//!
//! Everything hangs off a process-wide [`Recorder`] ([`global`]) that is
//! **disabled by default**: when disabled, every record path is a single
//! relaxed load and branch (the no-op fast path). When enabled, the
//! metrics are plain integers behind one mutex: the pipeline records on
//! the caller's thread, once per run, chunk or transfer, so nothing
//! contends for it.
//!
//! # Example
//!
//! ```
//! use sieve_core::obs;
//!
//! let recorder = obs::Recorder::new();
//! recorder.set_enabled(true);
//! recorder.add(obs::CounterId::MatchHits, 3);
//! recorder.record(obs::HistId::EtmRowsActivated, 12);
//! let snap = recorder.snapshot();
//! assert_eq!(snap.counter("match_hits"), 3);
//! assert!(snap.to_prometheus().contains("sieve_etm_rows_activated_count 1"));
//! ```

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};

/// Histogram bucket count: bucket 0 holds zeros, bucket `i ≥ 1` holds
/// values in `[2^(i-1), 2^i)` — enough for any `u64`.
pub const BUCKETS: usize = 64;

/// Identifiers of the built-in pipeline counters, all **model metrics**:
/// deterministic functions of the workload. A count or sum that a
/// [`HistId`] histogram already carries is not also a counter: host runs
/// and their k-mers are `chunk_kmers`' count and sum, reached subarrays
/// and their queries are `shard_queries`', and transfers are
/// `transport_transfer_ps`' count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterId {
    /// Reads entering the host pipeline.
    HostReads = 0,
    /// Bases the host scanned for k-mers.
    HostBases,
    /// Device runs, each scheduled once: `SieveDevice::run` calls and
    /// host runs.
    DeviceRuns,
    /// Hits found by the match phase.
    MatchHits,
    /// 64-query batches the schedulers accounted for.
    SchedBatches,
    /// Bytes `Transport::transfer_ps` moved.
    TransportBytes,
}

impl CounterId {
    /// Every counter, in snapshot order.
    pub const ALL: [Self; 6] = [
        Self::HostReads,
        Self::HostBases,
        Self::DeviceRuns,
        Self::MatchHits,
        Self::SchedBatches,
        Self::TransportBytes,
    ];

    /// Snapshot/Prometheus name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::HostReads => "host_reads",
            Self::HostBases => "host_bases",
            Self::DeviceRuns => "device_runs",
            Self::MatchHits => "match_hits",
            Self::SchedBatches => "sched_batches",
            Self::TransportBytes => "transport_bytes",
        }
    }
}

/// Identifiers of the built-in pipeline histograms. All are **model
/// metrics** in model units (rows, queries, picoseconds of simulated time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistId {
    /// Region-1 rows activated per lookup — the live form of the paper's
    /// Expected Shared Prefix distribution (misses die after ~ESP rows;
    /// hits burn all 2k rows).
    EtmRowsActivated = 0,
    /// Queries routed to each subarray that received any (per-subarray
    /// skew).
    ShardQueries,
    /// K-mers per host run (a batch or a `classify_stream` chunk).
    ChunkKmers,
    /// Simulated transport/dispatch stall per run, ps: how much PCIe
    /// queueing stretched the makespan beyond ideal dispatch.
    DispatchStallPs,
    /// Simulated `Transport::transfer_ps` durations, ps.
    TransportTransferPs,
}

impl HistId {
    /// Every histogram, in snapshot order.
    pub const ALL: [Self; 5] = [
        Self::EtmRowsActivated,
        Self::ShardQueries,
        Self::ChunkKmers,
        Self::DispatchStallPs,
        Self::TransportTransferPs,
    ];

    /// Snapshot/Prometheus name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::EtmRowsActivated => "etm_rows_activated",
            Self::ShardQueries => "shard_queries",
            Self::ChunkKmers => "chunk_kmers",
            Self::DispatchStallPs => "dispatch_stall_ps",
            Self::TransportTransferPs => "transport_transfer_ps",
        }
    }
}

/// Bucket index of a value: 0 for 0, else `ilog2(v) + 1` (capped).
#[must_use]
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (value.ilog2() as usize + 1).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last bucket).
#[must_use]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A mergeable, power-of-two-bucket histogram.
///
/// Every update is an order-independent merge (counts and sums add,
/// bounds widen), so the same values recorded in any split and merged in
/// any order give the same state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    buckets: [u64; BUCKETS],
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `value` as if [`Self::record`] were called `n` times —
    /// the fold step for callers that count occurrences of a small value
    /// domain in a direct-indexed array first (cheaper per event than a
    /// histogram update) and convert to a histogram once per batch.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_of(value)] += n;
        self.min = if self.count == 0 {
            value
        } else {
            self.min.min(value)
        };
        self.max = self.max.max(value);
        self.count += n;
        self.sum += value * n;
    }

    /// Merges another histogram in (counts and sums add, bounds widen).
    pub fn merge(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Per-bucket counts, trimmed after the last non-zero bucket; bucket
    /// `i` covers values up to [`bucket_upper_bound`]`(i)`.
    #[must_use]
    pub fn buckets(&self) -> &[u64] {
        let len = self
            .buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| i + 1);
        &self.buckets[..len]
    }

    /// Upper bound of the bucket containing the `p`-quantile
    /// (`0.0 ≤ p ≤ 1.0`); 0 when empty. An HDR-style estimate: exact to
    /// within the bucket's power-of-two resolution.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (p.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets().iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The built-in counters and histograms, in [`CounterId::ALL`] and
/// [`HistId::ALL`] order.
#[derive(Debug)]
struct Metrics {
    counters: [u64; CounterId::ALL.len()],
    hists: [Histogram; HistId::ALL.len()],
}

impl Metrics {
    const fn new() -> Self {
        Self {
            counters: [0; CounterId::ALL.len()],
            hists: [const { Histogram::new() }; HistId::ALL.len()],
        }
    }
}

/// A set of pipeline metrics: the built-in counters and histograms. The
/// process-wide instance is [`global`]; tests and tools can own private
/// instances.
///
/// The metrics are plain integers behind one mutex. The pipeline records
/// on the caller's thread (a run once its ranges merge, a chunk, a
/// transfer), so the lock is uncontended; it only keeps a recorder
/// shared across threads sound.
#[derive(Debug)]
pub struct Recorder {
    enabled: AtomicBool,
    metrics: Mutex<Metrics>,
}

impl Recorder {
    /// A disabled recorder with all metrics at zero.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            enabled: AtomicBool::new(false),
            metrics: Mutex::new(Metrics::new()),
        }
    }

    /// Turns recording on or off. Off (the default) makes every record
    /// path a single relaxed load.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Relaxed);
    }

    /// Whether recording is on.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Relaxed)
    }

    /// The metrics, locked.
    ///
    /// # Panics
    ///
    /// Panics if an update panicked while it held the lock (a count or
    /// sum that overflowed): that update may be half applied.
    fn metrics(&self) -> MutexGuard<'_, Metrics> {
        self.metrics
            .lock()
            .expect("an earlier metric update panicked part way through")
    }

    /// Adds `delta` to a counter (no-op while disabled).
    pub fn add(&self, id: CounterId, delta: u64) {
        if self.is_enabled() {
            self.metrics().counters[id as usize] += delta;
        }
    }

    /// Records `value` into a histogram (no-op while disabled).
    pub fn record(&self, id: HistId, value: u64) {
        if self.is_enabled() {
            self.metrics().hists[id as usize].record(value);
        }
    }

    /// Merges a caller's [`Histogram`] into a built-in one (no-op while
    /// disabled).
    pub fn merge(&self, id: HistId, hist: &Histogram) {
        if self.is_enabled() {
            self.metrics().hists[id as usize].merge(hist);
        }
    }

    /// A point-in-time copy of every metric, in
    /// [`CounterId::ALL`]/[`HistId::ALL`] order.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.metrics();
        MetricsSnapshot {
            counters: CounterId::ALL
                .iter()
                .map(|&id| (id.name().to_string(), metrics.counters[id as usize]))
                .collect(),
            histograms: HistId::ALL
                .iter()
                .map(|&id| (id.name().to_string(), metrics.hists[id as usize].clone()))
                .collect(),
        }
    }

    /// Zeroes every metric (leaves the enabled flag alone).
    pub fn reset(&self) {
        *self.metrics() = Metrics::new();
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

static GLOBAL: Recorder = Recorder::new();

/// The process-wide recorder the pipeline records into. Disabled by
/// default; enable it around a workload, then [`Recorder::snapshot`].
#[must_use]
pub fn global() -> &'static Recorder {
    &GLOBAL
}

/// Exportable copy of a [`Recorder`]'s state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` counters, in [`CounterId::ALL`] order.
    pub counters: Vec<(String, u64)>,
    /// `(name, histogram)` pairs, in [`HistId::ALL`] order.
    pub histograms: Vec<(String, Histogram)>,
}

impl MetricsSnapshot {
    /// Value of a counter by name (0 if absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// A histogram by name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Renders the snapshot as a JSON object (hand-rolled; the workspace
    /// builds offline, without serde). Histograms that never recorded a
    /// value (count = 0) are omitted — their `min`/percentiles would be
    /// meaningless and their empty `buckets` arrays only pad the output.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            s.push_str(&format!("{sep}\n    \"{name}\": {value}"));
        }
        s.push_str("\n  },\n  \"histograms\": {");
        let mut first = true;
        for (name, h) in self.histograms.iter().filter(|(_, h)| h.count > 0) {
            let sep = if first { "" } else { "," };
            first = false;
            let buckets = h
                .buckets()
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(", ");
            s.push_str(&format!(
                "{sep}\n    \"{name}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \
                 \"max\": {}, \"p50\": {}, \"p99\": {}, \"buckets\": [{buckets}]}}",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.percentile(0.50),
                h.percentile(0.99),
            ));
        }
        s.push_str("\n  }\n}");
        s
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (`sieve_`-prefixed, cumulative `_bucket{le=...}` series). Like
    /// [`Self::to_json`], histograms with count = 0 are omitted.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            name.replace('.', "_")
        }
        let mut s = String::new();
        for (name, value) in &self.counters {
            let name = sanitize(name);
            s.push_str(&format!(
                "# TYPE sieve_{name} counter\nsieve_{name} {value}\n"
            ));
        }
        for (name, h) in self.histograms.iter().filter(|(_, h)| h.count > 0) {
            let name = sanitize(name);
            s.push_str(&format!("# TYPE sieve_{name} histogram\n"));
            let mut cumulative = 0u64;
            for (i, &c) in h.buckets().iter().enumerate() {
                cumulative += c;
                let le = bucket_upper_bound(i);
                if le == u64::MAX {
                    continue; // folded into +Inf below
                }
                s.push_str(&format!(
                    "sieve_{name}_bucket{{le=\"{le}\"}} {cumulative}\n"
                ));
            }
            s.push_str(&format!(
                "sieve_{name}_bucket{{le=\"+Inf\"}} {}\nsieve_{name}_sum {}\nsieve_{name}_count {}\n",
                h.count, h.sum, h.count
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A histogram of `values`, recorded one by one.
    fn histogram_of(values: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn record_n_is_n_records() {
        let mut folded = Histogram::new();
        let mut one_by_one = Histogram::new();
        for (value, n) in [(0u64, 3u64), (7, 1), (62, 1000), (1 << 40, 2), (9, 0)] {
            folded.record_n(value, n);
            for _ in 0..n {
                one_by_one.record(value);
            }
        }
        assert_eq!(folded, one_by_one);
        assert_eq!(folded.count, 1006);
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        for i in 1..BUCKETS - 1 {
            // The upper bound of bucket i is the largest value it holds.
            assert_eq!(bucket_of(bucket_upper_bound(i)), i);
            assert_eq!(bucket_of(bucket_upper_bound(i) + 1), i + 1);
        }
        assert_eq!(bucket_upper_bound(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn histogram_records_and_trims_its_buckets() {
        let h = histogram_of(&[0, 1, 5, 5, 1024]);
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1035);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1024);
        let buckets = h.buckets();
        assert_eq!(buckets[0], 1); // the zero
        assert_eq!(buckets[1], 1); // the one
        assert_eq!(buckets[3], 2); // the fives
        assert_eq!(buckets.len(), bucket_of(1024) + 1); // trimmed
        let empty = Histogram::new();
        assert_eq!((empty.count, empty.min, empty.max), (0, 0, 0));
        assert!(empty.buckets().is_empty());
    }

    #[test]
    fn merge_is_order_independent() {
        // Two ranges' histograms merged in either order produce the same
        // state — the deterministic-reduce property.
        let a = histogram_of(&[3, 70, 7]);
        let b = histogram_of(&[900, 0, 12]);
        let mut ab = Histogram::new();
        ab.merge(&a);
        ab.merge(&b);
        let mut ba = Histogram::new();
        ba.merge(&b);
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab, histogram_of(&[3, 70, 7, 900, 0, 12]));
        assert_eq!(ab.count, 6);
    }

    #[test]
    fn percentiles_estimate_within_bucket_resolution() {
        let h = histogram_of(&(1..=100u64).collect::<Vec<_>>());
        // p50 of 1..=100 is 50; its bucket [32, 64) reports 63.
        assert_eq!(h.percentile(0.5), 63);
        // p100 is clamped to the observed max.
        assert_eq!(h.percentile(1.0), 100);
        assert_eq!(h.percentile(0.0), 1);
        assert_eq!(Histogram::default().percentile(0.9), 0);
    }

    #[test]
    fn empty_histogram_percentile_is_zero() {
        // A histogram that never recorded must report inert percentiles,
        // not a phantom min/max.
        let empty = Histogram::new();
        assert_eq!(empty.count, 0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(empty.percentile(q), 0, "p{q}");
        }
    }

    #[test]
    fn recorder_disabled_is_a_no_op() {
        let r = Recorder::new();
        r.add(CounterId::MatchHits, 5);
        r.record(HistId::EtmRowsActivated, 12);
        r.merge(HistId::EtmRowsActivated, &histogram_of(&[3]));
        let snap = r.snapshot();
        assert_eq!(snap.counter("match_hits"), 0);
        assert_eq!(snap.histogram("etm_rows_activated").unwrap().count, 0);
    }

    #[test]
    fn recorder_enabled_records_counters_and_hists() {
        let r = Recorder::new();
        r.set_enabled(true);
        r.add(CounterId::MatchHits, 5);
        r.add(CounterId::MatchHits, 2);
        r.record(HistId::ShardQueries, 40);
        let snap = r.snapshot();
        assert_eq!(snap.counter("match_hits"), 7);
        assert_eq!(snap.histogram("shard_queries").unwrap().count, 1);
        r.reset();
        let snap = r.snapshot();
        assert_eq!(snap.counter("match_hits"), 0);
        assert_eq!(snap.histogram("shard_queries").unwrap().count, 0);
    }

    #[test]
    fn concurrent_updates_sum_in_snapshots() {
        // Deltas recorded from many threads must sum to the same totals
        // a single-threaded recorder shows.
        const THREADS: u64 = 16;
        let r = Recorder::new();
        r.set_enabled(true);
        // Every thread records only once all have started, so their
        // updates overlap.
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    start.wait();
                    r.add(CounterId::MatchHits, 3);
                    r.record(HistId::ShardQueries, 40);
                    r.merge(HistId::EtmRowsActivated, &histogram_of(&[7, 9]));
                });
            }
        });
        let snap = r.snapshot();
        assert_eq!(snap.counter("match_hits"), 3 * THREADS);
        let shard = snap.histogram("shard_queries").unwrap();
        assert_eq!(shard.count, THREADS);
        assert_eq!(shard.sum, 40 * THREADS);
        assert_eq!(shard.min, 40);
        assert_eq!(shard.max, 40);
        let etm = snap.histogram("etm_rows_activated").unwrap();
        assert_eq!(etm.count, 2 * THREADS);
        assert_eq!(etm.min, 7);
        assert_eq!(etm.max, 9);
        r.reset();
        assert_eq!(r.snapshot().counter("match_hits"), 0);
        assert_eq!(r.snapshot().histogram("shard_queries").unwrap().count, 0);
    }

    #[test]
    fn json_and_prometheus_render_all_metrics() {
        let r = Recorder::new();
        r.set_enabled(true);
        r.add(CounterId::DeviceRuns, 1);
        r.record(HistId::EtmRowsActivated, 12);
        r.record(HistId::EtmRowsActivated, 62);
        let snap = r.snapshot();
        let json = snap.to_json();
        assert!(json.contains("\"device_runs\": 1"));
        assert!(json.contains("\"etm_rows_activated\""));
        assert!(json.contains("\"count\": 2"));
        // Histograms that never recorded are omitted entirely, in both
        // exporters — no `"buckets": []` stubs.
        assert!(snap.histogram("chunk_kmers").is_some_and(|h| h.count == 0));
        assert!(!json.contains("chunk_kmers"));
        assert!(!json.contains("\"buckets\": []"));
        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE sieve_device_runs counter"));
        assert!(prom.contains("sieve_device_runs 1"));
        assert!(!prom.contains("sieve_chunk_kmers"));
        assert!(prom.contains("sieve_etm_rows_activated_bucket{le=\"+Inf\"} 2"));
        assert!(prom.contains("sieve_etm_rows_activated_sum 74"));
        // Cumulative buckets are monotone.
        let mut last = 0u64;
        for line in prom
            .lines()
            .filter(|l| l.starts_with("sieve_etm_rows_activated_bucket") && !l.contains("+Inf"))
        {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last);
            last = v;
        }
    }

    #[test]
    fn global_recorder_is_disabled_by_default() {
        // Other tests in this binary never enable the global recorder, so
        // this is race-free: default-off is the documented contract.
        assert!(!global().is_enabled());
    }

    #[test]
    fn histogram_merge_handles_empties() {
        let full = histogram_of(&[9]);
        let mut empty = Histogram::new();
        empty.merge(&full);
        assert_eq!(empty, full);
        let mut full2 = full.clone();
        full2.merge(&Histogram::new());
        assert_eq!(full2, full);
    }
}
