//! Measuring one workload: timed set-ups, a memory pass, untraced timed
//! calls, traced calls, and the metrics derived from them. Every call runs
//! on a fresh clone of the loaded device (an empty hot-k-mer cache and
//! scratch arena), made before its timer starts, and every call's output
//! is checked against the oracle after its timer stops.

use std::time::Instant;

use sieve_core::trace::{self, TraceEvent};
use sieve_core::{obs, HostPipeline, PipelineOutput, ReadResult, SimReport};

use crate::alloc;
use crate::stats::{median, percentile, quartiles, ratio};
use crate::workload::{self, Inputs, Path, SetupTimes, Spec};

/// Set-ups are spread over the untraced window, so that a burst of host
/// noise cannot cover all of them: after each timed call, the workload
/// sets up again while its set-ups so far took less than this share of
/// its calls' time. `setup_s` is their median.
const SETUP_SHARE: f64 = 0.25;
/// Traced calls per workload, made after the untraced ones.
pub const TRACED_CALLS: usize = 10;

/// Every metric: name, unit, and whether it is end-to-end (else
/// per-layer). `BENCHMARK.json` lists the same names in the same classes.
pub const METRICS: [(&str, &str, bool); 44] = [
    ("reads_per_s", "reads/s", true),
    ("setup_s", "s", true),
    ("peak_heap_mb", "MB", true),
    ("sim_makespan_ms", "ms", true),
    ("sim_nj_per_query", "nJ", true),
    ("bench.ref_ms", "ms", false),
    ("host.call_ms_p50", "ms", false),
    ("host.call_ms_p90", "ms", false),
    ("host.extract_ms", "ms", false),
    ("host.extract_ns_per_kmer", "ns/kmer", false),
    ("host.vote_ms", "ms", false),
    ("host.vote_ns_per_kmer", "ns/kmer", false),
    ("fastq.parse_ms", "ms", false),
    ("fastq.parse_ns_per_base", "ns/base", false),
    ("host.stream_ms", "ms", false),
    ("host.stream_other_ms", "ms", false),
    ("device.run_ms", "ms", false),
    ("device.ns_per_query", "ns/query", false),
    ("radix.sort_ms", "ms", false),
    ("shard.plan_ms", "ms", false),
    ("engine.match_ms", "ms", false),
    ("dedup.ms", "ms", false),
    ("dedup.expand_ms", "ms", false),
    ("cache.probes", "count", false),
    ("cache.hits", "count", false),
    ("cache.hit_ratio", "ratio", false),
    ("device.reduce_ms", "ms", false),
    ("sched.other_ms", "ms", false),
    ("db.build_ms", "ms", false),
    ("layout.load_ms", "ms", false),
    ("engine.queries", "count", false),
    ("engine.hits", "count", false),
    ("etm.rows_per_query", "rows", false),
    ("etm.savings", "ratio", false),
    ("sched.batches", "count", false),
    ("dram.read_bursts", "count", false),
    ("dram.write_bursts", "count", false),
    ("bench.coverage", "ratio", false),
    ("bench.trace_overhead_pct", "%", false),
    ("kmers_per_call", "count", false),
    ("hit_share", "ratio", false),
    ("dup_share", "ratio", false),
    ("ref_kmers", "count", false),
    ("subarrays", "count", false),
];

/// One metric of one workload: the median of its samples, their quartiles
/// and their count.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub end_to_end: bool,
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Keys the reference kernel sorts.
const REFERENCE_KEYS: usize = 1 << 18;
/// The reference kernel's nominal wall. `reads_per_s` and `setup_s` are
/// read on a clock on which each kernel run next to the timed work took
/// exactly this long, so the host's drift cancels out of them.
const REFERENCE_NOMINAL_S: f64 = 0.005;

/// The reference kernel, run after every set-up and untraced call: the
/// wall, in seconds, of sorting a fixed pseudo-random array of
/// [`REFERENCE_KEYS`] `u64`s. It shares no code with the pipeline, so a
/// change to the pipeline cannot move it; it moves with how fast the
/// shared host runs at that moment, which drifted by a quarter within
/// minutes.
fn reference_kernel() -> f64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut keys: Vec<u64> = (0..REFERENCE_KEYS)
        .map(|_| {
            // xorshift64
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    let start = Instant::now();
    keys.sort_unstable();
    let wall = start.elapsed().as_secs_f64();
    std::hint::black_box(&keys);
    wall
}

/// Total duration of the wall spans named `name`, ns.
fn span_ns(wall: &[TraceEvent], name: &str) -> f64 {
    let ns: u64 = wall.iter().filter(|e| e.name == name).map(|e| e.dur).sum();
    ns as f64
}

/// Reads of `got` that differ from `want`, counting missing ones.
pub fn failed_reads(got: &[ReadResult], want: &[ReadResult]) -> u64 {
    let mismatched = want
        .iter()
        .enumerate()
        .filter(|&(i, w)| got.get(i) != Some(w))
        .count();
    mismatched as u64
}

pub struct Run {
    pub spec: Spec,
    inputs: Inputs,
    host: HostPipeline,
    oracle: Vec<ReadResult>,
    setups: Vec<SetupTimes>,
    /// The reference kernel's wall after each set-up, s.
    setup_ref_s: Vec<f64>,
    /// The first checked call's report; every later one must equal it.
    first_report: Option<SimReport>,
    /// Reads checked, and reads that failed the check (in calls that
    /// returned an error, every read fails).
    pub attempted: u64,
    pub failed: u64,
    report_mismatches: u64,
    peak_heap_bytes: u64,
    /// Untraced call walls, s.
    call_s: Vec<f64>,
    /// The reference kernel's wall after each untraced call, s.
    ref_s: Vec<f64>,
    /// Per traced call: its root span's wall (s) and its layer values.
    traced: Vec<(f64, Vec<(&'static str, f64)>)>,
    kmers_per_call: usize,
    dup_share: f64,
}

impl Run {
    /// Generates the inputs, times the first set-up, computes the oracle
    /// and makes the memory pass, which also warms the process up.
    pub fn new(spec: Spec, seed: u64) -> Result<Run, String> {
        let inputs = Inputs::generate(&spec, seed);
        let (host, setup) = workload::set_up(&spec, &inputs)?;
        let (setups, setup_ref_s) = (vec![setup], vec![reference_kernel()]);
        let oracle = inputs.oracle();
        let (kmers, _) = host.extract_kmers(&inputs.reads);
        let mut bits: Vec<u64> = kmers.iter().map(|k| k.bits()).collect();
        bits.sort_unstable();
        bits.dedup();
        let dup_share = 1.0 - ratio(bits.len() as f64, kmers.len() as f64);
        let mut run = Run {
            spec,
            inputs,
            host,
            oracle,
            setups,
            setup_ref_s,
            first_report: None,
            attempted: 0,
            failed: 0,
            report_mismatches: 0,
            peak_heap_bytes: 0,
            call_s: Vec::new(),
            ref_s: Vec::new(),
            traced: Vec::new(),
            kmers_per_call: kmers.len(),
            dup_share,
        };
        let fresh = run.host.clone();
        let (out, peak) = alloc::peak_during(|| workload::call(&run.spec, &run.inputs, &fresh));
        run.peak_heap_bytes = peak;
        run.check(out);
        Ok(run)
    }

    /// Accounts one call's output against the oracle and the first
    /// report.
    fn check(&mut self, out: Result<PipelineOutput, String>) {
        let n = self.oracle.len() as u64;
        self.attempted += n;
        match out {
            Err(e) => {
                eprintln!("{}: call failed: {e}", self.spec.name);
                self.failed += n;
            }
            Ok(out) => {
                self.failed += failed_reads(&out.reads, &self.oracle);
                match &self.first_report {
                    None => self.first_report = Some(out.report),
                    Some(r) if *r != out.report => self.report_mismatches += 1,
                    Some(_) => {}
                }
            }
        }
    }

    /// Outputs matched the oracle and every report equalled the first.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.report_mismatches == 0 && self.first_report.is_some()
    }

    pub fn calls(&self) -> usize {
        self.call_s.len()
    }

    /// One untraced call, timed from entry to return, then the reference
    /// kernel; then a timed set-up if set-ups are behind their share.
    pub fn timed_call(&mut self) -> Result<(), String> {
        let fresh = self.host.clone();
        let start = Instant::now();
        let out = workload::call(&self.spec, &self.inputs, &fresh);
        self.call_s.push(start.elapsed().as_secs_f64());
        self.ref_s.push(reference_kernel());
        self.check(out);
        let setup_s: f64 = self.setups.iter().map(|t| t.build_s + t.load_s).sum();
        if setup_s < SETUP_SHARE * self.call_s.iter().sum::<f64>() {
            let (_, setup) = workload::set_up(&self.spec, &self.inputs)?;
            self.setups.push(setup);
            self.setup_ref_s.push(reference_kernel());
        }
        Ok(())
    }

    /// One traced call: the untraced call itself, under a root span named
    /// after the workload, with the pipeline's tracer and the `obs`
    /// recorder on. Returns the call's wall spans.
    pub fn traced_call(&mut self) -> Vec<TraceEvent> {
        let fresh = self.host.clone();
        let (tracer, rec) = (trace::global(), obs::global());
        tracer.reset();
        rec.reset();
        tracer.set_enabled(true);
        rec.set_enabled(true);
        let out = {
            let _root = trace::span(self.spec.name);
            workload::call(&self.spec, &self.inputs, &fresh)
        };
        tracer.set_enabled(false);
        rec.set_enabled(false);
        let (spans, snap) = (tracer.snapshot(), rec.snapshot());
        tracer.reset();
        rec.reset();
        if spans.dropped_wall > 0 {
            eprintln!(
                "{}: the tracer dropped {} wall spans",
                self.spec.name, spans.dropped_wall
            );
        }
        let queries = out.as_ref().map_or(0, |o| o.report.queries);
        let call_s = span_ns(&spans.wall, self.spec.name) / 1e9;
        let values = self.layer_values(&spans.wall, &snap, queries);
        self.traced.push((call_s, values));
        self.check(out);
        spans.wall
    }

    /// Per-layer values of one traced call: times from the tracer's wall
    /// spans, summed by name; `device.dedup`, which has no tracer span,
    /// and the counters from `obs`.
    fn layer_values(
        &self,
        wall: &[TraceEvent],
        snap: &obs::MetricsSnapshot,
        queries: u64,
    ) -> Vec<(&'static str, f64)> {
        let ns = |name| span_ns(wall, name);
        let call = ns(self.spec.name);
        let parse = ns("fastq.parse");
        let extract = ns("host.extract");
        let run = ns("host.device");
        let chunks = ns("host.chunk");
        // A stream votes inside each chunk, outside its extract and
        // device spans; a batch under its own `host.vote` span.
        let vote = if chunks > 0.0 {
            chunks - extract - run
        } else {
            ns("host.vote")
        };
        let stream = if self.spec.path == Path::Batch {
            0.0
        } else {
            call - parse
        };
        let dedup = snap
            .histogram("wall.device.dedup.ns")
            .map_or(0.0, |h| h.sum as f64);
        let plan = ns("device.plan");
        let sort = ns("shard.sort");
        let matching = ns("device.match");
        let reduce = ns("device.reduce");
        let expand = ns("device.expand");
        let device_spans = dedup + plan + matching + reduce + expand;
        let kmers = self.kmers_per_call as f64;
        let hits = snap.counter("cache_hits") as f64;
        let probes = hits + snap.counter("cache_misses") as f64;
        vec![
            ("host.extract_ms", extract / 1e6),
            ("host.extract_ns_per_kmer", ratio(extract, kmers)),
            ("host.vote_ms", vote / 1e6),
            ("host.vote_ns_per_kmer", ratio(vote, kmers)),
            ("fastq.parse_ms", parse / 1e6),
            (
                "fastq.parse_ns_per_base",
                ratio(parse, self.inputs.bases() as f64),
            ),
            ("host.stream_ms", stream / 1e6),
            (
                "host.stream_other_ms",
                if stream > 0.0 {
                    (stream - device_spans) / 1e6
                } else {
                    0.0
                },
            ),
            ("device.run_ms", run / 1e6),
            ("device.ns_per_query", ratio(run, queries as f64)),
            ("radix.sort_ms", sort / 1e6),
            ("shard.plan_ms", (plan - sort) / 1e6),
            ("engine.match_ms", matching / 1e6),
            ("dedup.ms", dedup / 1e6),
            ("dedup.expand_ms", expand / 1e6),
            ("cache.probes", probes),
            ("cache.hits", hits),
            ("cache.hit_ratio", ratio(hits, probes)),
            ("device.reduce_ms", reduce / 1e6),
            ("sched.other_ms", (run - device_spans) / 1e6),
            ("sched.batches", snap.counter("sched_batches") as f64),
            // The share of the call the pipeline's top-level spans explain.
            ("bench.coverage", ratio(parse + extract + run + vote, call)),
        ]
    }

    /// Every metric the run measured; per-layer metrics only when traced
    /// calls were made.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut values: Vec<(&'static str, Vec<f64>)> = Vec::new();
        let mut put = |name: &'static str, samples: Vec<f64>| values.push((name, samples));
        let reads = self.spec.reads as f64;
        let report = self.first_report.as_ref();
        let field = |f: fn(&SimReport) -> f64| report.map_or(0.0, f);
        // Each wall on the reference clock of the kernel run right after
        // it: the host's drift cancels, the pipeline's cost stays.
        let on_reference_clock = |wall: f64, reference: f64| wall / reference * REFERENCE_NOMINAL_S;
        put(
            "reads_per_s",
            self.call_s
                .iter()
                .zip(&self.ref_s)
                .map(|(&call, &reference)| reads / on_reference_clock(call, reference))
                .collect(),
        );
        put(
            "setup_s",
            self.setups
                .iter()
                .zip(&self.setup_ref_s)
                .map(|(t, &reference)| on_reference_clock(t.build_s + t.load_s, reference))
                .collect(),
        );
        put("peak_heap_mb", vec![self.peak_heap_bytes as f64 / 1e6]);
        put(
            "sim_makespan_ms",
            vec![field(|r| r.makespan_ps as f64 / 1e9)],
        );
        put(
            "sim_nj_per_query",
            vec![field(SimReport::energy_per_query_nj)],
        );
        if !self.traced.is_empty() {
            put("bench.ref_ms", self.ref_s.iter().map(|s| s * 1e3).collect());
            let call_ms: Vec<f64> = self.call_s.iter().map(|s| s * 1e3).collect();
            put("host.call_ms_p50", vec![median(&call_ms)]);
            put("host.call_ms_p90", vec![percentile(&call_ms, 0.9)]);
            for (name, _) in &self.traced[0].1 {
                let samples = self
                    .traced
                    .iter()
                    .filter_map(|(_, v)| v.iter().find(|(n, _)| n == name).map(|(_, x)| *x))
                    .collect();
                put(name, samples);
            }
            put(
                "db.build_ms",
                self.setups.iter().map(|t| t.build_s * 1e3).collect(),
            );
            put(
                "layout.load_ms",
                self.setups.iter().map(|t| t.load_s * 1e3).collect(),
            );
            put("engine.queries", vec![field(|r| r.queries as f64)]);
            put("engine.hits", vec![field(|r| r.hits as f64)]);
            put(
                "etm.rows_per_query",
                vec![field(|r| ratio(r.row_activations as f64, r.queries as f64))],
            );
            put("etm.savings", vec![field(SimReport::etm_savings)]);
            put("dram.read_bursts", vec![field(|r| r.read_bursts as f64)]);
            put("dram.write_bursts", vec![field(|r| r.write_bursts as f64)]);
            let traced_s: Vec<f64> = self.traced.iter().map(|(s, _)| *s).collect();
            put(
                "bench.trace_overhead_pct",
                vec![(ratio(median(&traced_s), median(&self.call_s)) - 1.0) * 100.0],
            );
            put("kmers_per_call", vec![self.kmers_per_call as f64]);
            put(
                "hit_share",
                vec![field(|r| ratio(r.hits as f64, r.queries as f64))],
            );
            put("dup_share", vec![self.dup_share]);
            put("ref_kmers", vec![self.inputs.dataset.entries.len() as f64]);
            put(
                "subarrays",
                vec![self.host.device().layout().occupied_subarrays() as f64],
            );
        }
        METRICS
            .iter()
            .filter_map(|&(name, unit, end_to_end)| {
                let samples = &values.iter().find(|(n, _)| *n == name)?.1;
                let (q1, q3) = quartiles(samples);
                Some(Metric {
                    name,
                    unit,
                    end_to_end,
                    value: median(samples),
                    q1,
                    q3,
                    n: samples.len(),
                })
            })
            .collect()
    }

    /// What each workload is built to stress, read off its traced metrics:
    /// `(claim, holds)`. Reported, not gated: timing shares move with the
    /// host's noise.
    pub fn claims(&self, metrics: &[Metric]) -> Vec<(String, bool)> {
        let get = |name: &str| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value)
        };
        let mut claims = vec![
            (
                "bench.coverage >= 0.95".to_string(),
                get("bench.coverage") >= 0.95,
            ),
            (
                "fastq.parse_ms > 0 only on the FASTQ path".to_string(),
                (get("fastq.parse_ms") > 0.0) == (self.spec.path == Path::FastqStream),
            ),
        ];
        let run = get("device.run_ms");
        match self.spec.name {
            "mg_batch" | "large_ref" => claims.push((
                "radix.sort_ms + engine.match_ms >= 50% of device.run_ms".to_string(),
                get("radix.sort_ms") + get("engine.match_ms") >= 0.5 * run,
            )),
            "t1_batch" => claims.push((
                "sched.other_ms >= 90% of device.run_ms".to_string(),
                get("sched.other_ms") >= 0.9 * run,
            )),
            "hot_stream" => claims.push((
                "cache.hit_ratio >= 0.5".to_string(),
                get("cache.hit_ratio") >= 0.5,
            )),
            "mg_fastq_stream" => {
                claims.push(("cache.probes == 0".to_string(), get("cache.probes") == 0.0))
            }
            _ => {}
        }
        claims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SPECS;

    #[test]
    fn a_tampered_read_counts_as_failed() {
        let _globals = crate::lock_globals();
        let spec = Spec {
            taxa: 1,
            reads: 20,
            ..SPECS[0]
        };
        let mut run = Run::new(spec, 3).expect("tiny workload sets up");
        assert_eq!((run.attempted, run.failed), (20, 0));
        let mut out = workload::call(&run.spec, &run.inputs, &run.host.clone())
            .expect("tiny workload classifies");
        out.reads[5].hit_kmers += 1;
        run.check(Ok(out));
        assert_eq!((run.attempted, run.failed), (40, 1));
        assert!(!run.correct());
        run.check(Err("device error".to_string()));
        assert_eq!((run.attempted, run.failed), (60, 21));
    }

    #[test]
    fn failed_reads_counts_missing_results() {
        let r = ReadResult {
            taxon: None,
            hit_kmers: 0,
            total_kmers: 70,
        };
        let one = std::slice::from_ref(&r);
        assert_eq!(failed_reads(one, &[r.clone(), r.clone()]), 1);
        assert_eq!(failed_reads(one, one), 0);
    }
}
