//! Observability for the classification pipeline: lock-free per-stage
//! counters, fixed-bucket (power-of-two, HDR-style) latency histograms,
//! a lightweight span API, and exportable [`MetricsSnapshot`]s.
//!
//! The pipeline (host → shard workers → engine → reduce → cluster) records
//! two kinds of metrics:
//!
//! * **Model metrics** — counters and histograms over *simulated* quantities
//!   (queries per shard, ETM rows activated per lookup, dispatch stall in
//!   model picoseconds). These are pure functions of the workload, so a
//!   snapshot is **bit-identical across thread counts**: every update is an
//!   order-independent integer merge (sums into counters and buckets,
//!   min/max into bounds), exactly like the deterministic timeline reduce
//!   (DESIGN.md §6/§7). Per-shard work is batched in a [`LocalHistogram`]
//!   and merged once, so the hot path stays allocation- and contention-free.
//! * **Wall-clock spans** — [`span`] scopes around real pipeline phases
//!   (`"plan"`, `"match"`, `"reduce"`, `"host.extract"`, …) whose elapsed
//!   nanoseconds land in histograms named `wall.<name>.ns`. These measure
//!   the simulator itself and are inherently non-deterministic;
//!   [`MetricsSnapshot::deterministic`] filters them out for comparisons.
//!
//! Everything hangs off a process-wide [`Recorder`] ([`global`]) that is
//! **disabled by default**: when disabled, every record path is a single
//! relaxed load and branch (the no-op fast path), which keeps the metrics
//! overhead within the ≤ 3 % budget tracked by `bench_classify --json`.
//! When enabled, the hot counter/histogram paths are striped per thread
//! (cache-line-aligned stripes, summed at snapshot time) so the overhead
//! stays flat as workers multiply instead of growing with write-sharing.
//!
//! # Example
//!
//! ```
//! use sieve_core::obs;
//!
//! let recorder = obs::Recorder::new();
//! recorder.set_enabled(true);
//! recorder.add(obs::CounterId::MatchQueries, 3);
//! recorder.record(obs::HistId::EtmRowsActivated, 12);
//! let snap = recorder.snapshot();
//! assert_eq!(snap.counter("match_queries"), 3);
//! assert!(snap.to_prometheus().contains("sieve_etm_rows_activated_count 1"));
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;
use std::time::Instant;

/// Histogram bucket count: bucket 0 holds zeros, bucket `i ≥ 1` holds
/// values in `[2^(i-1), 2^i)` — enough for any `u64`.
pub const BUCKETS: usize = 64;

/// Maximum distinct span names the global table holds; later names fall
/// back to no-op spans.
const MAX_SPANS: usize = 32;

/// Identifiers of the built-in pipeline counters, all **model metrics**:
/// deterministic functions of the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterId {
    /// Chunks processed by `classify_stream`.
    HostChunks = 0,
    /// Reads entering the host pipeline.
    HostReads,
    /// K-mers the host extracted and dispatched.
    HostKmers,
    /// Device `run` invocations.
    DeviceRuns,
    /// Shards resolved by the match phase.
    MatchShards,
    /// Queries resolved by the match phase.
    MatchQueries,
    /// Hits found by the match phase.
    MatchHits,
    /// 64-query batches the schedulers accounted for.
    SchedBatches,
    /// Cluster `run` invocations.
    ClusterRuns,
    /// Per-device runs issued by clusters.
    ClusterDeviceRuns,
    /// `Transport::transfer_ps` invocations.
    TransportTransfers,
    /// Queries resolved by the cross-chunk hot-k-mer cache (multiplicity
    /// weighted, like `MatchQueries`).
    CacheHits,
    /// Unique k-mers that missed the hot-k-mer cache and went to the
    /// device stage.
    CacheMisses,
    /// Entries inserted into the hot-k-mer cache.
    CacheInserts,
}

impl CounterId {
    /// Every counter, in snapshot order.
    pub const ALL: [Self; 14] = [
        Self::HostChunks,
        Self::HostReads,
        Self::HostKmers,
        Self::DeviceRuns,
        Self::MatchShards,
        Self::MatchQueries,
        Self::MatchHits,
        Self::SchedBatches,
        Self::ClusterRuns,
        Self::ClusterDeviceRuns,
        Self::TransportTransfers,
        Self::CacheHits,
        Self::CacheMisses,
        Self::CacheInserts,
    ];

    /// Snapshot/Prometheus name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::HostChunks => "host_chunks",
            Self::HostReads => "host_reads",
            Self::HostKmers => "host_kmers",
            Self::DeviceRuns => "device_runs",
            Self::MatchShards => "match_shards",
            Self::MatchQueries => "match_queries",
            Self::MatchHits => "match_hits",
            Self::SchedBatches => "sched_batches",
            Self::ClusterRuns => "cluster_runs",
            Self::ClusterDeviceRuns => "cluster_device_runs",
            Self::TransportTransfers => "transport_transfers",
            Self::CacheHits => "cache_hits",
            Self::CacheMisses => "cache_misses",
            Self::CacheInserts => "cache_inserts",
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
    /// Queries routed to each shard (per-subarray skew).
    ShardQueries,
    /// K-mers per `classify_stream` chunk.
    ChunkKmers,
    /// Queries routed to each cluster device (per-device skew).
    ClusterDeviceQueries,
    /// Per-device makespan within a cluster run, ps (per-device skew).
    ClusterDeviceMakespanPs,
    /// Simulated transport/dispatch stall per run, ps: how much PCIe
    /// queueing stretched the makespan beyond ideal dispatch.
    DispatchStallPs,
    /// Simulated `Transport::transfer_ps` durations, ps.
    TransportTransferPs,
    /// Cache-resolved queries per device run (how much of each batch the
    /// hot-k-mer cache short-circuited).
    CacheHitKmers,
}

impl HistId {
    /// Every histogram, in snapshot order.
    pub const ALL: [Self; 8] = [
        Self::EtmRowsActivated,
        Self::ShardQueries,
        Self::ChunkKmers,
        Self::ClusterDeviceQueries,
        Self::ClusterDeviceMakespanPs,
        Self::DispatchStallPs,
        Self::TransportTransferPs,
        Self::CacheHitKmers,
    ];

    /// Snapshot/Prometheus name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::EtmRowsActivated => "etm_rows_activated",
            Self::ShardQueries => "shard_queries",
            Self::ChunkKmers => "chunk_kmers",
            Self::ClusterDeviceQueries => "cluster_device_queries",
            Self::ClusterDeviceMakespanPs => "cluster_device_makespan_ps",
            Self::DispatchStallPs => "dispatch_stall_ps",
            Self::TransportTransferPs => "transport_transfer_ps",
            Self::CacheHitKmers => "cache_hit_kmers",
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

/// A lock-free, mergeable, power-of-two-bucket histogram.
///
/// Recording touches one bucket plus sum/min/max with relaxed atomics;
/// because every operation is an order-independent merge (add, min, max),
/// concurrent recorders produce the same final state regardless of
/// interleaving.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    /// `u64::MAX` while empty.
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Relaxed);
        self.sum.fetch_add(value, Relaxed);
        self.min.fetch_min(value, Relaxed);
        self.max.fetch_max(value, Relaxed);
    }

    /// Merges a per-shard local histogram in (one atomic op per non-empty
    /// bucket — the deterministic reduce step).
    pub fn merge_local(&self, local: &LocalHistogram) {
        if local.count == 0 {
            return;
        }
        for (i, &c) in local.buckets.iter().enumerate() {
            if c > 0 {
                self.buckets[i].fetch_add(c, Relaxed);
            }
        }
        self.sum.fetch_add(local.sum, Relaxed);
        self.min.fetch_min(local.min, Relaxed);
        self.max.fetch_max(local.max, Relaxed);
    }

    /// A point-in-time copy.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets: Vec<u64> = self.buckets.iter().map(|b| b.load(Relaxed)).collect();
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        let count = buckets.iter().sum();
        let min = self.min.load(Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Relaxed),
            min: if count == 0 { 0 } else { min },
            max: self.max.load(Relaxed),
            buckets,
        }
    }

    /// Clears all state.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
        self.sum.store(0, Relaxed);
        self.min.store(u64::MAX, Relaxed);
        self.max.store(0, Relaxed);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A plain (non-atomic) histogram for one worker's shard of the work:
/// recorded without synchronization, merged once into the shared
/// [`Histogram`] at reduce time.
#[derive(Debug, Clone)]
pub struct LocalHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl LocalHistogram {
    /// An empty local histogram.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one value (no synchronization).
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
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
        self.count += n;
        self.sum += value * n;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Values recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl Default for LocalHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Immutable copy of one histogram's state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Per-bucket counts, trimmed after the last non-zero bucket; bucket
    /// `i` covers values up to [`bucket_upper_bound`]`(i)`.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Merges another snapshot in (counts and sums add, bounds widen).
    pub fn merge(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
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

    /// Mean of recorded values (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
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
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }
}

/// An RAII wall-clock scope: on drop, the elapsed nanoseconds land in the
/// recorder's `wall.<name>.ns` histogram. Inactive (zero-cost drop) when
/// the recorder is disabled.
#[derive(Debug)]
pub struct Span<'a> {
    active: Option<(Instant, &'a Histogram)>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some((start, hist)) = self.active.take() {
            hist.record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }
}

/// Fixed-capacity name → histogram table for spans. Registration is a
/// lock-free scan: each slot's name is claimed at most once via
/// [`OnceLock`], so lookups are wait-free after first use.
#[derive(Debug)]
struct SpanTable {
    names: [OnceLock<&'static str>; MAX_SPANS],
    hists: [Histogram; MAX_SPANS],
}

impl SpanTable {
    const fn new() -> Self {
        Self {
            names: [const { OnceLock::new() }; MAX_SPANS],
            hists: [const { Histogram::new() }; MAX_SPANS],
        }
    }

    fn resolve(&self, name: &'static str) -> Option<&Histogram> {
        for (slot, hist) in self.names.iter().zip(&self.hists) {
            match slot.get() {
                Some(&n) if n == name => return Some(hist),
                Some(_) => continue,
                None => {
                    // Claim the empty slot; on a lost race, re-check what
                    // the winner installed before moving on.
                    if slot.set(name).is_ok() || slot.get() == Some(&name) {
                        return Some(hist);
                    }
                }
            }
        }
        None
    }

    fn snapshot_into(&self, out: &mut Vec<(String, HistogramSnapshot)>) {
        for (slot, hist) in self.names.iter().zip(&self.hists) {
            if let Some(name) = slot.get() {
                out.push((format!("wall.{name}.ns"), hist.snapshot()));
            }
        }
    }

    fn reset(&self) {
        for hist in &self.hists {
            hist.reset();
        }
    }
}

/// Stripe count for the hot counter/histogram paths. A power of two a
/// little above the thread counts the bench sweeps: enough that workers
/// land on distinct stripes with high probability, small enough that the
/// snapshot merge stays trivial.
const STRIPES: usize = 8;

/// One stripe of the built-in counters, aligned to its own cache line so
/// workers on different stripes never write-share a line — the contention
/// that made obs overhead grow with the thread count when every worker
/// bumped one shared atomic array.
#[repr(align(64))]
#[derive(Debug)]
struct CounterStripe([AtomicU64; CounterId::ALL.len()]);

impl CounterStripe {
    const fn new() -> Self {
        Self([const { AtomicU64::new(0) }; CounterId::ALL.len()])
    }
}

/// This thread's stripe index: assigned round-robin on first use, stable
/// for the thread's lifetime. Which stripe a worker lands on only affects
/// *where* its deltas accumulate; the snapshot sums all stripes, so
/// totals are independent of the assignment.
fn stripe() -> usize {
    use std::cell::Cell;
    use std::sync::atomic::AtomicUsize;
    static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    STRIPE.with(|slot| {
        let mut s = slot.get();
        if s == usize::MAX {
            s = NEXT_STRIPE.fetch_add(1, Relaxed) % STRIPES;
            slot.set(s);
        }
        s
    })
}

/// A set of pipeline metrics: the built-in counters and histograms plus
/// the dynamic span table. The process-wide instance is [`global`]; tests
/// and tools can own private instances.
///
/// Counters and built-in histograms are striped `STRIPES` ways and each
/// thread records into its own stripe; [`Recorder::snapshot`] sums the
/// stripes. Every merge is an order-independent integer sum (or min/max),
/// so the striping is invisible in snapshots — it exists purely to keep
/// concurrent workers off each other's cache lines. The span table stays
/// unstriped: spans fire once per pipeline *phase*, not per query, so
/// they never contend.
#[derive(Debug)]
pub struct Recorder {
    enabled: AtomicBool,
    counters: [CounterStripe; STRIPES],
    hists: [[Histogram; HistId::ALL.len()]; STRIPES],
    spans: SpanTable,
}

impl Recorder {
    /// A disabled recorder with all metrics at zero.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            enabled: AtomicBool::new(false),
            counters: [const { CounterStripe::new() }; STRIPES],
            hists: [const { [const { Histogram::new() }; HistId::ALL.len()] }; STRIPES],
            spans: SpanTable::new(),
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

    /// Adds `delta` to a counter in this thread's stripe (no-op while
    /// disabled).
    pub fn add(&self, id: CounterId, delta: u64) {
        if self.is_enabled() {
            self.counters[stripe()].0[id as usize].fetch_add(delta, Relaxed);
        }
    }

    /// Records `value` into this thread's stripe of a histogram (no-op
    /// while disabled).
    pub fn record(&self, id: HistId, value: u64) {
        if self.is_enabled() {
            self.hists[stripe()][id as usize].record(value);
        }
    }

    /// Merges a worker's [`LocalHistogram`] into this thread's stripe of
    /// a shared histogram (no-op while disabled).
    pub fn merge_local(&self, id: HistId, local: &LocalHistogram) {
        if self.is_enabled() {
            self.hists[stripe()][id as usize].merge_local(local);
        }
    }

    /// Opens a wall-clock span; the guard records its lifetime into
    /// `wall.<name>.ns` on drop. Returns an inactive guard while disabled
    /// (the no-op fast path) or if the span table is full.
    #[must_use]
    pub fn span(&self, name: &'static str) -> Span<'_> {
        if !self.is_enabled() {
            return Span { active: None };
        }
        Span {
            active: self.spans.resolve(name).map(|hist| (Instant::now(), hist)),
        }
    }

    /// A point-in-time copy of every metric, stripes summed. Counters and
    /// built-in histograms come first in [`CounterId::ALL`]/[`HistId::ALL`]
    /// order; wall-span histograms (`wall.*`) follow.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = CounterId::ALL
            .iter()
            .map(|&id| {
                let total = self
                    .counters
                    .iter()
                    .map(|s| s.0[id as usize].load(Relaxed))
                    .sum();
                (id.name().to_string(), total)
            })
            .collect();
        let mut histograms: Vec<(String, HistogramSnapshot)> = HistId::ALL
            .iter()
            .map(|&id| {
                let mut merged = HistogramSnapshot::default();
                for stripe in &self.hists {
                    merged.merge(&stripe[id as usize].snapshot());
                }
                (id.name().to_string(), merged)
            })
            .collect();
        self.spans.snapshot_into(&mut histograms);
        MetricsSnapshot {
            counters,
            histograms,
        }
    }

    /// Zeroes every metric (leaves the enabled flag and span names alone).
    pub fn reset(&self) {
        for stripe in &self.counters {
            for c in &stripe.0 {
                c.store(0, Relaxed);
            }
        }
        for stripe in &self.hists {
            for h in stripe {
                h.reset();
            }
        }
        self.spans.reset();
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

/// Opens a wall-clock span on the [`global`] recorder.
///
/// ```
/// let _guard = sieve_core::obs::span("match");
/// // ... phase body; elapsed ns recorded on drop (when enabled) ...
/// ```
#[must_use]
pub fn span(name: &'static str) -> Span<'static> {
    GLOBAL.span(name)
}

/// Exportable copy of a [`Recorder`]'s state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` counters, in [`CounterId::ALL`] order.
    pub counters: Vec<(String, u64)>,
    /// `(name, histogram)` pairs: built-ins first, then `wall.*` spans.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// The deterministic subset: drops the wall-clock span histograms
    /// (`wall.*`), leaving only model metrics, the part that is
    /// bit-identical across simulator thread counts.
    #[must_use]
    pub fn deterministic(&self) -> Self {
        Self {
            counters: self.counters.clone(),
            histograms: self
                .histograms
                .iter()
                .filter(|(name, _)| !name.starts_with("wall."))
                .cloned()
                .collect(),
        }
    }

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
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Merges another snapshot in: matching counters/histograms add,
    /// unmatched entries append.
    pub fn merge(&mut self, other: &Self) {
        for (name, value) in &other.counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => *mine += value,
                None => self.counters.push((name.clone(), *value)),
            }
        }
        for (name, hist) in &other.histograms {
            match self.histograms.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => mine.merge(hist),
                None => self.histograms.push((name.clone(), hist.clone())),
            }
        }
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
                .buckets
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
            for (i, &c) in h.buckets.iter().enumerate() {
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

    #[test]
    fn record_n_is_n_records() {
        let mut folded = LocalHistogram::new();
        let mut one_by_one = LocalHistogram::new();
        for (value, n) in [(0u64, 3u64), (7, 1), (62, 1000), (1 << 40, 2), (9, 0)] {
            folded.record_n(value, n);
            for _ in 0..n {
                one_by_one.record(value);
            }
        }
        let h = Histogram::new();
        h.merge_local(&folded);
        let via_folded = h.snapshot();
        let h = Histogram::new();
        h.merge_local(&one_by_one);
        assert_eq!(via_folded, h.snapshot());
        assert_eq!(via_folded.count, 1006);
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
    fn histogram_records_and_snapshots() {
        let h = Histogram::new();
        for v in [0u64, 1, 5, 5, 1024] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1035);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1024);
        assert_eq!(s.buckets[0], 1); // the zero
        assert_eq!(s.buckets[1], 1); // the one
        assert_eq!(s.buckets[3], 2); // the fives
        assert_eq!(s.buckets.len(), bucket_of(1024) + 1); // trimmed
        h.reset();
        let empty = h.snapshot();
        assert_eq!(empty.count, 0);
        assert_eq!(empty.min, 0);
        assert!(empty.buckets.is_empty());
    }

    #[test]
    fn local_merge_is_order_independent() {
        // Two workers' local histograms merged in either order produce the
        // same shared state — the deterministic-reduce property.
        let mut a = LocalHistogram::new();
        let mut b = LocalHistogram::new();
        for v in [3u64, 70, 7] {
            a.record(v);
        }
        for v in [900u64, 0, 12] {
            b.record(v);
        }
        let ab = Histogram::new();
        ab.merge_local(&a);
        ab.merge_local(&b);
        let ba = Histogram::new();
        ba.merge_local(&b);
        ba.merge_local(&a);
        assert_eq!(ab.snapshot(), ba.snapshot());
        assert_eq!(ab.snapshot().count, 6);
    }

    #[test]
    fn percentiles_estimate_within_bucket_resolution() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.mean(), 50.5);
        // p50 of 1..=100 is 50; its bucket [32, 64) reports 63.
        assert_eq!(s.percentile(0.5), 63);
        // p100 is clamped to the observed max.
        assert_eq!(s.percentile(1.0), 100);
        assert_eq!(s.percentile(0.0), 1);
        assert_eq!(HistogramSnapshot::default().percentile(0.9), 0);
    }

    #[test]
    fn empty_snapshot_percentile_and_mean_are_zero() {
        // A histogram that never recorded must report inert statistics —
        // not NaN from 0/0, not a phantom min/max.
        let empty = HistogramSnapshot::default();
        assert_eq!(empty.count, 0);
        assert_eq!(empty.mean(), 0.0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(empty.percentile(q), 0, "p{q}");
        }
        // The same holds for a reset (once-used) histogram's snapshot.
        let h = Histogram::new();
        h.record(1234);
        h.reset();
        let s = h.snapshot();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentile(0.5), 0);
    }

    #[test]
    fn recorder_disabled_is_a_no_op() {
        let r = Recorder::new();
        r.add(CounterId::MatchQueries, 5);
        r.record(HistId::EtmRowsActivated, 12);
        {
            let _s = r.span("noop");
        }
        let snap = r.snapshot();
        assert_eq!(snap.counter("match_queries"), 0);
        assert_eq!(snap.histogram("etm_rows_activated").unwrap().count, 0);
        assert!(snap.histogram("wall.noop.ns").is_none());
    }

    #[test]
    fn recorder_enabled_records_counters_hists_and_spans() {
        let r = Recorder::new();
        r.set_enabled(true);
        r.add(CounterId::MatchQueries, 5);
        r.add(CounterId::MatchQueries, 2);
        r.record(HistId::ShardQueries, 40);
        {
            let _s = r.span("phase");
        }
        let snap = r.snapshot();
        assert_eq!(snap.counter("match_queries"), 7);
        assert_eq!(snap.histogram("shard_queries").unwrap().count, 1);
        assert_eq!(snap.histogram("wall.phase.ns").unwrap().count, 1);
        // reset zeroes values but keeps the span registered.
        r.reset();
        let snap = r.snapshot();
        assert_eq!(snap.counter("match_queries"), 0);
        assert_eq!(snap.histogram("wall.phase.ns").unwrap().count, 0);
    }

    #[test]
    fn deterministic_view_drops_wall_spans() {
        let r = Recorder::new();
        r.set_enabled(true);
        r.record(HistId::EtmRowsActivated, 3);
        {
            let _s = r.span("match");
        }
        r.add(CounterId::MatchQueries, 2);
        let snap = r.snapshot();
        assert!(snap.histogram("wall.match.ns").is_some());
        let det = snap.deterministic();
        assert!(det.histogram("wall.match.ns").is_none());
        assert!(det.histogram("etm_rows_activated").is_some());
        // Every counter is a model metric and survives.
        assert_eq!(det.counters, snap.counters);
    }

    #[test]
    fn striped_updates_sum_in_snapshots() {
        // Deltas recorded from many threads — each on its own stripe —
        // must sum to the same totals a single-threaded recorder shows.
        let r = Recorder::new();
        r.set_enabled(true);
        std::thread::scope(|scope| {
            for _ in 0..2 * STRIPES {
                scope.spawn(|| {
                    r.add(CounterId::MatchQueries, 3);
                    r.record(HistId::ShardQueries, 40);
                    let mut local = LocalHistogram::new();
                    local.record(7);
                    local.record(9);
                    r.merge_local(HistId::EtmRowsActivated, &local);
                });
            }
        });
        let snap = r.snapshot();
        assert_eq!(snap.counter("match_queries"), 3 * 2 * STRIPES as u64);
        let shard = snap.histogram("shard_queries").unwrap();
        assert_eq!(shard.count, 2 * STRIPES as u64);
        assert_eq!(shard.sum, 40 * 2 * STRIPES as u64);
        assert_eq!(shard.min, 40);
        assert_eq!(shard.max, 40);
        let etm = snap.histogram("etm_rows_activated").unwrap();
        assert_eq!(etm.count, 4 * STRIPES as u64);
        assert_eq!(etm.min, 7);
        assert_eq!(etm.max, 9);
        r.reset();
        assert_eq!(r.snapshot().counter("match_queries"), 0);
        assert_eq!(r.snapshot().histogram("shard_queries").unwrap().count, 0);
    }

    #[test]
    fn snapshot_merge_adds_and_appends() {
        let r = Recorder::new();
        r.set_enabled(true);
        r.add(CounterId::HostReads, 3);
        r.record(HistId::ChunkKmers, 100);
        let mut a = r.snapshot();
        let b = r.snapshot();
        a.merge(&b);
        assert_eq!(a.counter("host_reads"), 6);
        assert_eq!(a.histogram("chunk_kmers").unwrap().count, 2);
        assert_eq!(a.histogram("chunk_kmers").unwrap().sum, 200);
        // Appending a foreign entry.
        let mut c = MetricsSnapshot::default();
        c.merge(&a);
        assert_eq!(c.counter("host_reads"), 6);
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
    fn span_table_handles_many_names() {
        let r = Recorder::new();
        r.set_enabled(true);
        let names: [&'static str; 3] = ["a", "b", "a"];
        for name in names {
            let _s = r.span(name);
        }
        let snap = r.snapshot();
        assert_eq!(snap.histogram("wall.a.ns").unwrap().count, 2);
        assert_eq!(snap.histogram("wall.b.ns").unwrap().count, 1);
    }

    #[test]
    fn global_recorder_is_disabled_by_default() {
        // Other tests in this binary never enable the global recorder, so
        // this is race-free: default-off is the documented contract.
        assert!(!global().is_enabled());
    }

    #[test]
    fn histogram_snapshot_merge_handles_empties() {
        let mut empty = HistogramSnapshot::default();
        let h = Histogram::new();
        h.record(9);
        let full = h.snapshot();
        empty.merge(&full);
        assert_eq!(empty, full);
        let mut full2 = full.clone();
        full2.merge(&HistogramSnapshot::default());
        assert_eq!(full2, full);
    }
}
