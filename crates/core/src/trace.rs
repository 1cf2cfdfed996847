//! Event-level tracing for the classification pipeline: a bounded,
//! per-worker ring-buffer event log with **two clock domains**, plus
//! exporters for Chrome trace-event JSON (Perfetto-loadable) and folded
//! stacks (flamegraph.pl / inferno input).
//!
//! Where [`crate::obs`] aggregates (*how much*: counters, histograms),
//! `trace` keeps the individual events (*what happened when*), so
//! questions that aggregates cannot answer — which subarray's work
//! dominated a run, which chunk of a stream ran long, where ETM
//! terminated — can be read straight off a timeline. The two domains
//! are:
//!
//! * **Model time** — events stamped in *simulated picoseconds* on a
//!   virtual clock ([`Tracer::model_ps`]) that the pipeline advances by
//!   each run's makespan: per-subarray dispatch and ETM termination
//!   depth, batch issue, Type-1 streams, Column-Finder drain, transport
//!   transfers. Every model event is emitted from the
//!   merged sums of the match → schedule structure, in subarray order,
//!   so the model event stream is
//!   **bit-identical across thread counts**
//!   (`tests/trace_determinism.rs`), exactly like `obs` snapshots.
//! * **Wall clock** — [`TraceSpan`] scopes around real pipeline phases
//!   (extract, device, match and vote for each block of a run; one more
//!   device span and the schedule for each run; each `classify_stream`
//!   chunk),
//!   stamped in nanoseconds since the tracer's epoch on the emitting
//!   worker's own track. Each phase opens one span, and the tracer is the
//!   pipeline's only wall clock. These measure the simulator itself and
//!   are inherently non-deterministic; exporters keep them in a separate
//!   process lane.
//!
//! Storage is a fixed table of per-worker ring buffers (one slot per
//! emitting thread, claimed on first use): recording never allocates
//! beyond the configured bound ([`Tracer::set_capacity`]), never blocks
//! another worker (each slot has its own lock, uncontended in steady
//! state), and overflow overwrites the oldest events while counting the
//! displaced ones. Like the `obs` recorder, the process-wide [`global`]
//! tracer is **disabled by default**: every emission path is gated on a
//! single relaxed load.
//!
//! # Example
//!
//! ```
//! use sieve_core::trace;
//!
//! let tracer = trace::Tracer::new();
//! tracer.set_enabled(true);
//! tracer.emit_model("batch.issue", 3, 0, 1_500, 2, 128);
//! {
//!     let _phase = tracer.span("plan");
//! }
//! let snap = tracer.snapshot();
//! assert_eq!(snap.model.len(), 1);
//! assert_eq!(snap.wall.len(), 1);
//! assert!(snap.to_chrome_json().contains("batch.issue"));
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default per-worker, per-domain event bound (events beyond it overwrite
/// the oldest and are counted as dropped).
pub const DEFAULT_EVENT_CAPACITY: usize = 1 << 16;

/// Worker slots in the fixed ring-buffer table. Threads beyond this many
/// share slots (safe — each slot is individually locked).
const MAX_WORKERS: usize = 64;

/// One structured trace event.
///
/// `ts`/`dur` are picoseconds for model events and nanoseconds for wall
/// events; `track` is the lane within the domain (subarray id for model
/// events, worker slot for wall events); `arg`/`arg2` carry
/// event-specific payloads (query counts, row depths, byte counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event name (a static label like `"batch.issue"`).
    pub name: &'static str,
    /// Lane within the domain's timeline.
    pub track: u32,
    /// Start timestamp (ps for model, ns-since-epoch for wall).
    pub ts: u64,
    /// Duration (0 = instant event).
    pub dur: u64,
    /// Primary argument.
    pub arg: u64,
    /// Secondary argument.
    pub arg2: u64,
    /// Global emission sequence number — the deterministic merge key for
    /// model events (assigned from one atomic counter, so the *relative*
    /// order of model events is the order they were emitted in).
    pub seq: u64,
}

/// A bounded ring of events: filling is a plain push, overflow
/// overwrites the oldest entry and counts the displacement.
#[derive(Debug)]
struct Ring {
    events: Vec<TraceEvent>,
    head: usize,
    dropped: u64,
}

impl Ring {
    const fn new() -> Self {
        Self {
            events: Vec::new(),
            head: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, cap: usize, ev: TraceEvent) {
        if self.events.len() < cap.max(1) {
            self.events.push(ev);
        } else {
            // Ring overwrite of the oldest event (capacity may have been
            // lowered after events were recorded; index modulo the live
            // length keeps the overwrite in bounds either way).
            self.head %= self.events.len();
            self.events[self.head] = ev;
            self.head += 1;
            self.dropped += 1;
        }
    }

    fn clear(&mut self) {
        self.events.clear();
        self.head = 0;
        self.dropped = 0;
    }
}

/// One worker slot: separate model and wall rings, so wall-span traffic
/// (which varies with the thread count) can never displace model events
/// (whose retention must stay deterministic).
#[derive(Debug)]
struct WorkerBuf {
    model: Ring,
    wall: Ring,
}

impl WorkerBuf {
    const fn new() -> Self {
        Self {
            model: Ring::new(),
            wall: Ring::new(),
        }
    }
}

/// Monotonically assigns each emitting thread a worker slot.
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's slot in the worker table (shared by all tracers;
    /// slots are just indices, every tracer has its own buffers).
    static SLOT: usize = NEXT_SLOT.fetch_add(1, Relaxed) % MAX_WORKERS;
}

fn this_slot() -> usize {
    SLOT.with(|s| *s)
}

/// A structured event log with per-worker bounded ring buffers and a
/// model-time virtual clock. The process-wide instance is [`global`];
/// tests and tools can own private instances.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    capacity: AtomicUsize,
    seq: AtomicU64,
    model_ps: AtomicU64,
    epoch: OnceLock<Instant>,
    workers: [Mutex<WorkerBuf>; MAX_WORKERS],
}

impl Tracer {
    /// A disabled tracer with empty buffers and the default capacity.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            enabled: AtomicBool::new(false),
            capacity: AtomicUsize::new(DEFAULT_EVENT_CAPACITY),
            seq: AtomicU64::new(0),
            model_ps: AtomicU64::new(0),
            epoch: OnceLock::new(),
            workers: [const { Mutex::new(WorkerBuf::new()) }; MAX_WORKERS],
        }
    }

    /// Turns tracing on or off. Off (the default) makes every emission
    /// path a single relaxed load.
    pub fn set_enabled(&self, on: bool) {
        if on {
            // Pin the wall epoch before the first span can observe it.
            let _ = self.epoch.get_or_init(Instant::now);
        }
        self.enabled.store(on, Relaxed);
    }

    /// Whether tracing is on.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Relaxed)
    }

    /// Bounds each worker's per-domain ring to `events` entries
    /// (minimum 1). Applies to subsequent emissions.
    pub fn set_capacity(&self, events: usize) {
        self.capacity.store(events.max(1), Relaxed);
    }

    /// Current simulated time, picoseconds.
    #[must_use]
    pub fn model_ps(&self) -> u64 {
        self.model_ps.load(Relaxed)
    }

    /// Advances the model clock by `delta_ps` (a completed run's
    /// makespan). No-op while disabled.
    pub fn advance_model_ps(&self, delta_ps: u64) {
        if self.is_enabled() {
            self.model_ps.fetch_add(delta_ps, Relaxed);
        }
    }

    /// Emits a model-time event (no-op while disabled). `ts`/`dur` are
    /// simulated picoseconds; callers stamp against [`Self::model_ps`].
    pub fn emit_model(
        &self,
        name: &'static str,
        track: u32,
        ts: u64,
        dur: u64,
        arg: u64,
        arg2: u64,
    ) {
        if !self.is_enabled() {
            return;
        }
        let seq = self.seq.fetch_add(1, Relaxed);
        let cap = self.capacity.load(Relaxed);
        if let Ok(mut buf) = self.workers[this_slot()].lock() {
            buf.model.push(
                cap,
                TraceEvent {
                    name,
                    track,
                    ts,
                    dur,
                    arg,
                    arg2,
                    seq,
                },
            );
        }
    }

    /// Opens a wall-clock span; the guard emits a wall event covering its
    /// lifetime on drop. Returns an inactive guard (zero-cost drop) while
    /// disabled.
    #[must_use]
    pub fn span(&self, name: &'static str) -> TraceSpan<'_> {
        if !self.is_enabled() {
            return TraceSpan { active: None };
        }
        let epoch = *self.epoch.get_or_init(Instant::now);
        TraceSpan {
            active: Some((self, name, epoch, Instant::now())),
        }
    }

    fn emit_wall(&self, name: &'static str, ts: u64, dur: u64) {
        if !self.is_enabled() {
            return;
        }
        let seq = self.seq.fetch_add(1, Relaxed);
        let cap = self.capacity.load(Relaxed);
        let slot = this_slot();
        if let Ok(mut buf) = self.workers[slot].lock() {
            buf.wall.push(
                cap,
                TraceEvent {
                    name,
                    track: slot as u32,
                    ts,
                    dur,
                    arg: 0,
                    arg2: 0,
                    seq,
                },
            );
        }
    }

    /// A point-in-time copy of both event streams: model events in
    /// deterministic emission order, wall events grouped by track and
    /// ordered by start time.
    #[must_use]
    pub fn snapshot(&self) -> TraceSnapshot {
        let mut model = Vec::new();
        let mut wall = Vec::new();
        let (mut dropped_model, mut dropped_wall) = (0u64, 0u64);
        for worker in &self.workers {
            if let Ok(buf) = worker.lock() {
                model.extend_from_slice(&buf.model.events);
                wall.extend_from_slice(&buf.wall.events);
                dropped_model += buf.model.dropped;
                dropped_wall += buf.wall.dropped;
            }
        }
        model.sort_unstable_by_key(|e| e.seq);
        wall.sort_unstable_by_key(|e| (e.track, e.ts, e.seq));
        TraceSnapshot {
            model,
            wall,
            dropped_model,
            dropped_wall,
        }
    }

    /// Clears all events, drop counts, the sequence counter, and the
    /// model clock (leaves the enabled flag and wall epoch alone).
    pub fn reset(&self) {
        for worker in &self.workers {
            if let Ok(mut buf) = worker.lock() {
                buf.model.clear();
                buf.wall.clear();
            }
        }
        self.seq.store(0, Relaxed);
        self.model_ps.store(0, Relaxed);
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// An RAII wall-clock scope: on drop, a wall event covering the scope's
/// lifetime lands in the emitting worker's ring. Inactive (zero-cost
/// drop) when the tracer is disabled.
#[derive(Debug)]
pub struct TraceSpan<'a> {
    active: Option<(&'a Tracer, &'static str, Instant, Instant)>,
}

impl Drop for TraceSpan<'_> {
    fn drop(&mut self) {
        if let Some((tracer, name, epoch, start)) = self.active.take() {
            let ts = u64::try_from(start.duration_since(epoch).as_nanos()).unwrap_or(u64::MAX);
            let dur = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            tracer.emit_wall(name, ts, dur);
        }
    }
}

static GLOBAL: Tracer = Tracer::new();

/// The process-wide tracer the pipeline emits into. Disabled by default;
/// enable it around a workload, then [`Tracer::snapshot`].
#[must_use]
pub fn global() -> &'static Tracer {
    &GLOBAL
}

/// Opens a wall-clock span on the [`global`] tracer.
///
/// ```
/// let _guard = sieve_core::trace::span("match");
/// // ... phase body; a wall event is emitted on drop (when enabled) ...
/// ```
#[must_use]
pub fn span(name: &'static str) -> TraceSpan<'static> {
    GLOBAL.span(name)
}

/// Immutable copy of a [`Tracer`]'s event streams.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceSnapshot {
    /// Model-time events, in deterministic emission order.
    pub model: Vec<TraceEvent>,
    /// Wall-clock events, sorted by `(track, ts)`.
    pub wall: Vec<TraceEvent>,
    /// Model events displaced by ring overflow.
    pub dropped_model: u64,
    /// Wall events displaced by ring overflow.
    pub dropped_wall: u64,
}

/// Renders picoseconds as Chrome's microsecond `ts` unit without losing
/// sub-µs precision (Chrome accepts fractional timestamps).
fn ps_as_us(ps: u64) -> String {
    format!("{}.{:06}", ps / 1_000_000, ps % 1_000_000)
}

/// Renders nanoseconds as microseconds, same contract as [`ps_as_us`].
fn ns_as_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

impl TraceSnapshot {
    /// Canonical one-line-per-event rendering of the **model** stream —
    /// the byte-comparable form the determinism tests diff across thread
    /// counts (sequence numbers are excluded: only order, stamps, and
    /// payloads are contractual).
    #[must_use]
    pub fn model_lines(&self) -> String {
        let mut s = String::new();
        for e in &self.model {
            s.push_str(&format!(
                "{} track={} ts={} dur={} arg={} arg2={}\n",
                e.name, e.track, e.ts, e.dur, e.arg, e.arg2
            ));
        }
        s
    }

    /// Renders the streams as Chrome trace-event JSON (load in Perfetto
    /// or `chrome://tracing`). The two clock domains are separate
    /// process lanes: pid 1 = model time (simulated ps rendered as µs),
    /// pid 2 = wall clock. Events with a duration are complete (`"X"`)
    /// events; zero-duration events are instants (`"i"`).
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut entries: Vec<String> = Vec::with_capacity(self.model.len() + self.wall.len() + 8);
        for (pid, label) in [
            (1, "model time (simulated, ps)"),
            (2, "wall clock (host, ns)"),
        ] {
            entries.push(format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"{label}\"}}}}"
            ));
        }
        let mut named: std::collections::BTreeSet<(u32, u32)> = std::collections::BTreeSet::new();
        for (pid, events, lane) in [(1u32, &self.model, "lane"), (2, &self.wall, "worker")] {
            for e in events {
                if named.insert((pid, e.track)) {
                    entries.push(format!(
                        "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\"name\":\"thread_name\",\
                         \"args\":{{\"name\":\"{lane} {}\"}}}}",
                        e.track, e.track
                    ));
                }
            }
        }
        for (pid, events) in [(1u32, &self.model), (2, &self.wall)] {
            for e in events {
                let ts = if pid == 1 {
                    ps_as_us(e.ts)
                } else {
                    ns_as_us(e.ts)
                };
                let common = format!(
                    "\"pid\":{pid},\"tid\":{},\"name\":\"{}\",\"ts\":{ts},\
                     \"args\":{{\"arg\":{},\"arg2\":{}}}",
                    e.track, e.name, e.arg, e.arg2
                );
                if e.dur > 0 {
                    let dur = if pid == 1 {
                        ps_as_us(e.dur)
                    } else {
                        ns_as_us(e.dur)
                    };
                    entries.push(format!("{{\"ph\":\"X\",{common},\"dur\":{dur}}}"));
                } else {
                    entries.push(format!("{{\"ph\":\"i\",\"s\":\"t\",{common}}}"));
                }
            }
        }
        format!(
            "{{\n\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [\n{}\n]\n}}\n",
            entries.join(",\n")
        )
    }

    /// Renders both streams as folded stacks (`path;leaf weight` lines,
    /// the flamegraph.pl / inferno input format), sorted by path.
    ///
    /// Model events fold flat under `model;<name>;lane<track>` with their
    /// duration as weight (instants weigh 1). Wall events are re-nested
    /// per worker track by interval containment — a span strictly inside
    /// another on the same track becomes its child — and each frame's
    /// weight is its *self* time (duration minus children), so the total
    /// weight of a subtree equals its root span's duration.
    #[must_use]
    pub fn to_folded(&self) -> String {
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        for e in &self.model {
            *totals
                .entry(format!("model;{};lane{}", e.name, e.track))
                .or_default() += e.dur.max(1);
        }
        let mut settle = |stack: &mut Vec<(u64, String, u64)>, up_to: u64| {
            while stack.last().is_some_and(|(end, _, _)| *end <= up_to) {
                let (_, path, self_w) = stack.pop().expect("checked non-empty");
                if self_w > 0 {
                    *totals.entry(path).or_default() += self_w;
                }
            }
        };
        let mut i = 0;
        while i < self.wall.len() {
            let track = self.wall[i].track;
            let mut j = i;
            while j < self.wall.len() && self.wall[j].track == track {
                j += 1;
            }
            // Starts ascending; at equal starts, the longer (outer) span
            // first so it becomes the parent.
            let mut events: Vec<&TraceEvent> = self.wall[i..j].iter().collect();
            events.sort_by_key(|e| (e.ts, std::cmp::Reverse(e.dur)));
            // (end, path, self-weight) of the currently open spans.
            let mut stack: Vec<(u64, String, u64)> = Vec::new();
            for e in events {
                settle(&mut stack, e.ts);
                if let Some(parent) = stack.last_mut() {
                    parent.2 = parent.2.saturating_sub(e.dur);
                }
                let path = match stack.last() {
                    Some((_, parent, _)) => format!("{parent};{}", e.name),
                    None => format!("wall;worker{track};{}", e.name),
                };
                stack.push((e.ts + e.dur, path, e.dur.max(1)));
            }
            settle(&mut stack, u64::MAX);
            i = j;
        }
        let mut s = String::new();
        for (path, weight) in &totals {
            s.push_str(&format!("{path} {weight}\n"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, track: u32, ts: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            name,
            track,
            ts,
            dur,
            arg: 0,
            arg2: 0,
            seq: 0,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        t.emit_model("x", 0, 0, 1, 2, 3);
        t.advance_model_ps(500);
        {
            let _s = t.span("noop");
        }
        let snap = t.snapshot();
        assert!(snap.model.is_empty());
        assert!(snap.wall.is_empty());
        assert_eq!(t.model_ps(), 0, "clock must not move while disabled");
    }

    #[test]
    fn enabled_tracer_records_both_domains() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.emit_model("a", 1, 10, 5, 7, 8);
        t.emit_model("b", 2, 20, 0, 0, 0);
        {
            let _s = t.span("phase");
        }
        let snap = t.snapshot();
        assert_eq!(snap.model.len(), 2);
        assert_eq!(snap.model[0].name, "a");
        assert_eq!(snap.model[1].name, "b");
        assert_eq!(snap.wall.len(), 1);
        assert_eq!(snap.wall[0].name, "phase");
        t.reset();
        assert_eq!(t.snapshot(), TraceSnapshot::default());
    }

    #[test]
    fn model_clock_advances_and_resets() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.advance_model_ps(100);
        t.advance_model_ps(50);
        assert_eq!(t.model_ps(), 150);
        t.reset();
        assert_eq!(t.model_ps(), 0);
    }

    #[test]
    fn ring_overflow_overwrites_oldest_and_counts() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.set_capacity(4);
        for i in 0..10u64 {
            t.emit_model("e", 0, i, 0, i, 0);
        }
        let snap = t.snapshot();
        assert_eq!(snap.model.len(), 4);
        assert_eq!(snap.dropped_model, 6);
        // The survivors are the newest four, still in emission order.
        let args: Vec<u64> = snap.model.iter().map(|e| e.arg).collect();
        assert_eq!(args, vec![6, 7, 8, 9]);
        assert_eq!(snap.dropped_wall, 0);
    }

    #[test]
    fn model_lines_exclude_seq_and_render_all_fields() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.emit_model("shard.dispatch", 3, 11, 0, 44, 0);
        let lines = t.snapshot().model_lines();
        assert_eq!(lines, "shard.dispatch track=3 ts=11 dur=0 arg=44 arg2=0\n");
    }

    #[test]
    fn chrome_json_has_two_process_lanes() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.emit_model("batch.issue", 5, 2_500_000, 1_000_000, 64, 0);
        t.emit_model("etm.terminate", 5, 2_500_000, 0, 62, 0);
        {
            let _s = t.span("match");
        }
        let json = t.snapshot().to_chrome_json();
        assert!(json.contains("model time (simulated, ps)"));
        assert!(json.contains("wall clock (host, ns)"));
        // The 2.5 µs model stamp renders fractionally.
        assert!(json.contains("\"ts\":2.500000"));
        assert!(
            json.contains("\"ph\":\"X\""),
            "durations become complete events"
        );
        assert!(json.contains("\"ph\":\"i\""), "zero-dur becomes an instant");
        assert!(json.contains("\"name\":\"match\""));
    }

    #[test]
    fn folded_stacks_nest_by_containment_with_self_weights() {
        // Hand-built wall timeline on one track:
        //   root [0, 100) containing a [10, 40) and b [50, 70).
        let snap = TraceSnapshot {
            model: vec![ev("m", 2, 0, 7)],
            wall: vec![
                ev("root", 1, 0, 100),
                ev("a", 1, 10, 30),
                ev("b", 1, 50, 20),
            ],
            ..Default::default()
        };
        let folded = snap.to_folded();
        let mut lines: Vec<&str> = folded.lines().collect();
        lines.sort_unstable();
        assert_eq!(
            lines,
            vec![
                "model;m;lane2 7",
                "wall;worker1;root 50",
                "wall;worker1;root;a 30",
                "wall;worker1;root;b 20",
            ]
        );
        // Total folded wall weight equals the root span's duration.
        let wall_total: u64 = folded
            .lines()
            .filter(|l| l.starts_with("wall;"))
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(wall_total, 100);
    }

    #[test]
    fn folded_handles_siblings_and_exact_abutment() {
        // Two spans that abut ([0,10) then [10,20)) are siblings, not
        // parent/child.
        let snap = TraceSnapshot {
            model: Vec::new(),
            wall: vec![ev("x", 0, 0, 10), ev("y", 0, 10, 10)],
            ..Default::default()
        };
        let folded = snap.to_folded();
        assert!(folded.contains("wall;worker0;x 10"));
        assert!(folded.contains("wall;worker0;y 10"));
        assert!(!folded.contains("x;y"));
    }

    #[test]
    fn global_tracer_is_disabled_by_default() {
        // Other tests in this binary never enable the global tracer, so
        // this is race-free: default-off is the documented contract.
        assert!(!global().is_enabled());
    }
}
