//! Determinism and export contracts of the tracing subsystem (DESIGN.md
//! §8): the **model-time** event stream — shard dispatch, ETM
//! termination, batch issue, CF drain, Type-1 streams — is a pure function
//! of the workload, so its canonical rendering must be
//! byte-identical across simulator thread counts. Wall-clock spans
//! measure the simulator itself and carry no such contract.
//!
//! The tracer is process-wide; this file owns it (each integration-test
//! file is its own binary) and serializes its tests on a local mutex.

use std::sync::Mutex;

use sieve::core::{trace, HostPipeline, PcieConfig, SieveConfig, SieveDevice};
use sieve::dram::Geometry;
use sieve::genomics::{synth, Kmer};

/// The acceptance sweep from ISSUE 4: `--threads 1/2/4`.
const THREAD_SWEEP: [usize; 3] = [1, 2, 4];

/// Serializes tests in this binary around the global tracer.
static TRACER_LOCK: Mutex<()> = Mutex::new(());

/// Guard: exclusive tracer access, enabled on entry, disabled and cleared
/// on exit (even when an assertion fails mid-test).
struct TracerSession<'a> {
    _guard: std::sync::MutexGuard<'a, ()>,
}

impl TracerSession<'_> {
    fn begin() -> Self {
        let guard = TRACER_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        trace::global().reset();
        trace::global().set_enabled(true);
        Self { _guard: guard }
    }
}

impl Drop for TracerSession<'_> {
    fn drop(&mut self) {
        trace::global().set_enabled(false);
        trace::global().reset();
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

/// Runs `work` once per thread count and returns each run's canonical
/// model-stream rendering plus its snapshot (tracer reset between runs).
fn model_sweep(mut work: impl FnMut(usize)) -> Vec<(String, trace::TraceSnapshot)> {
    THREAD_SWEEP
        .iter()
        .map(|&threads| {
            trace::global().reset();
            work(threads);
            let snap = trace::global().snapshot();
            (snap.model_lines(), snap)
        })
        .collect()
}

/// Duplicate-heavy read workload (every read appears twice, so every
/// k-mer repeats): exercises multi-chunk streaming with repeated k-mers.
fn stream_workload(ds: &synth::SyntheticDataset) -> Vec<sieve::genomics::DnaSequence> {
    let (reads, _) = synth::simulate_reads(ds, synth::ReadSimConfig::default(), 30, 7);
    reads.iter().flat_map(|r| [r.clone(), r.clone()]).collect()
}

#[test]
fn stream_model_trace_is_byte_identical_across_thread_counts() {
    let _session = TracerSession::begin();
    let ds = dataset();
    let reads = stream_workload(&ds);
    let runs = model_sweep(|threads| {
        let host = HostPipeline::new(device(
            SieveConfig::type3(8).with_pcie(PcieConfig::gen4_x16()),
            threads,
            &ds,
        ));
        host.classify_stream(&reads, 25).unwrap();
    });
    let (base_lines, base_snap) = &runs[0];
    assert!(!base_lines.is_empty(), "workload must emit model events");
    assert_eq!(base_snap.dropped_model, 0, "ring must not overflow here");
    for (i, (lines, snap)) in runs.iter().enumerate().skip(1) {
        assert_eq!(
            lines, base_lines,
            "threads={}: model event stream diverged",
            THREAD_SWEEP[i]
        );
        assert_eq!(snap.dropped_model, base_snap.dropped_model);
    }
    // The stream covers every instrumented model layer.
    for name in [
        "shard.dispatch",
        "etm.terminate",
        "batch.issue",
        "dispatch.stall",
        "device.run",
    ] {
        assert!(
            base_snap.model.iter().any(|e| e.name == name),
            "missing model event {name}\n{base_lines}"
        );
    }
    // Streamed chunks advance the model clock run by run: device.run
    // events start at strictly increasing timestamps.
    let starts: Vec<u64> = base_snap
        .model
        .iter()
        .filter(|e| e.name == "device.run")
        .map(|e| e.ts)
        .collect();
    assert!(starts.len() >= 2, "expected one device.run per chunk");
    assert!(starts.windows(2).all(|w| w[0] < w[1]), "{starts:?}");
}

/// The match pass's ranges run on wall-clock workers but never touch
/// model time, so the canonical model-stream rendering must stay
/// byte-identical across worker counts {1,2,4,8}, including on a
/// forced-imbalance batch (nearly every query routed to one subarray).
#[test]
fn skewed_batch_keeps_the_model_trace_byte_identical_across_worker_counts() {
    let _session = TracerSession::begin();
    let ds = dataset();
    let mut queries: Vec<Kmer> = (0..20_000u64)
        .map(|i| {
            let spread = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24;
            Kmer::from_u64((0x2AA << 50) | spread, 31).unwrap()
        })
        .collect();
    queries.extend(ds.entries.iter().map(|&(k, _)| k).take(64));
    let mut reference: Option<String> = None;
    for threads in [1usize, 2, 4, 8] {
        trace::global().reset();
        device(SieveConfig::type3(8), threads, &ds)
            .run(&queries)
            .unwrap();
        let lines = trace::global().snapshot().model_lines();
        assert!(!lines.is_empty());
        match &reference {
            None => reference = Some(lines),
            Some(base) => assert_eq!(&lines, base, "threads={threads}: model stream diverged"),
        }
    }
}

#[test]
fn type1_model_trace_is_byte_identical_across_thread_counts() {
    let _session = TracerSession::begin();
    let ds = dataset();
    let queries: Vec<Kmer> = ds.entries.iter().step_by(17).map(|(k, _)| *k).collect();
    let runs = model_sweep(|threads| {
        device(SieveConfig::type1(), threads, &ds)
            .run(&queries)
            .unwrap();
    });
    for (i, (lines, _)) in runs.iter().enumerate().skip(1) {
        assert_eq!(
            lines, &runs[0].0,
            "threads={}: Type-1 model stream diverged",
            THREAD_SWEEP[i]
        );
    }
    assert!(
        runs[0].1.model.iter().any(|e| e.name == "t1.stream"),
        "Type-1 runs emit per-subarray streaming intervals"
    );
}

/// The tracer is the pipeline's only wall clock: every instrumented phase
/// opens exactly one span per call — per chunk for a stream — on every
/// design point, for batches and streams.
#[test]
fn every_block_opens_its_phase_spans_and_every_run_schedules_once() {
    // Each call, and each chunk of a stream, is one run taken in blocks
    // of whole reads: a block opens one `host.extract`, one
    // `device.match` and one `host.vote` span and one `host.device`
    // around its match, and the run one more `host.device` around its
    // single `device.schedule`. At one thread every run here spans at
    // least three blocks (~70 k-mers per read, 4,096 per block).
    let _session = TracerSession::begin();
    let ds = dataset();
    let (reads, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 400, 11);
    const CHUNK: usize = 200;
    for config in [
        SieveConfig::type1(),
        SieveConfig::type2(16),
        SieveConfig::type3(8),
    ] {
        let label = config.device.label();
        for threads in [1, 4] {
            let host = HostPipeline::new(device(config.clone(), threads, &ds));
            for call in ["batch", "stream"] {
                trace::global().reset();
                let runs = if call == "stream" {
                    host.classify_stream(&reads, CHUNK).unwrap();
                    reads.len().div_ceil(CHUNK)
                } else {
                    host.classify_reads(&reads).unwrap();
                    1
                };
                let wall = trace::global().snapshot().wall;
                let spans = |name: &str| wall.iter().filter(|e| e.name == name).count();
                let at = format!("{label} threads={threads} {call}");
                let blocks = spans("host.extract");
                let floor = if threads == 1 { 3 * runs } else { runs + 1 };
                assert!(blocks >= floor, "{at}: {blocks} blocks for {runs} runs");
                for name in ["device.match", "host.vote"] {
                    assert_eq!(spans(name), blocks, "{at}: {name} spans");
                }
                assert_eq!(
                    spans("host.device"),
                    blocks + runs,
                    "{at}: host.device spans"
                );
                assert_eq!(
                    spans("device.schedule"),
                    runs,
                    "{at}: device.schedule spans"
                );
                let chunks = if call == "stream" { runs } else { 0 };
                assert_eq!(spans("host.chunk"), chunks, "{at}: host.chunk spans");
            }
        }
    }
}

#[test]
fn chrome_export_is_valid_json_with_both_clock_lanes() {
    let _session = TracerSession::begin();
    let ds = dataset();
    let reads = stream_workload(&ds);
    let host = HostPipeline::new(device(SieveConfig::type3(8), 4, &ds));
    host.classify_stream(&reads, 25).unwrap();
    let snap = trace::global().snapshot();
    let json = snap.to_chrome_json();

    let value = json::parse(&json).expect("Chrome export must be valid JSON");
    let json::Value::Object(top) = &value else {
        panic!("top level must be an object");
    };
    assert!(top.iter().any(|(k, _)| k == "displayTimeUnit"));
    let events = top
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .expect("traceEvents array");
    let json::Value::Array(events) = events else {
        panic!("traceEvents must be an array");
    };
    // Both clock domains appear as distinct process lanes, every event
    // carries a phase, and instants carry the required scope field.
    let mut pids = std::collections::BTreeSet::new();
    for ev in events {
        let json::Value::Object(fields) = ev else {
            panic!("every trace event must be an object");
        };
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let Some(json::Value::String(ph)) = get("ph") else {
            panic!("event without ph: {fields:?}");
        };
        if let Some(json::Value::Number(pid)) = get("pid") {
            pids.insert(*pid as i64);
        }
        match ph.as_str() {
            "X" => assert!(get("dur").is_some(), "complete event needs dur"),
            "i" => assert!(
                matches!(get("s"), Some(json::Value::String(s)) if s == "t"),
                "instant needs a scope"
            ),
            "M" => {}
            other => panic!("unexpected phase {other}"),
        }
    }
    assert_eq!(
        pids.into_iter().collect::<Vec<_>>(),
        vec![1, 2],
        "model and wall domains must be separate process lanes"
    );
    // Wall events exist too (pipeline spans) — the second lane is real.
    assert!(!snap.wall.is_empty());
}

#[test]
fn folded_export_round_trips_the_snapshot() {
    let _session = TracerSession::begin();
    let ds = dataset();
    let reads = stream_workload(&ds);
    let host = HostPipeline::new(device(SieveConfig::type3(8), 2, &ds));
    host.classify_stream(&reads, 25).unwrap();
    let snap = trace::global().snapshot();
    let folded = snap.to_folded();

    // Every line parses as `path weight`, paths are rooted in one of the
    // two domains, and no frame repeats (lines are pre-aggregated).
    let mut seen = std::collections::BTreeSet::new();
    let mut model_total = 0u64;
    let mut wall_total = 0u64;
    for line in folded.lines() {
        let (path, weight) = line.rsplit_once(' ').expect("`path weight` shape");
        let weight: u64 = weight.parse().expect("numeric weight");
        assert!(weight > 0, "zero-weight frames are dropped: {line}");
        assert!(seen.insert(path.to_string()), "duplicate frame {path}");
        match path.split(';').next().unwrap() {
            "model" => model_total += weight,
            "wall" => wall_total += weight,
            other => panic!("unknown root {other}"),
        }
    }
    // Round-trip: the folded model weight is exactly the snapshot's model
    // mass (instants weigh 1), and the folded wall weight is exactly the
    // root spans' duration (self times of a subtree sum to the root).
    let model_mass: u64 = snap.model.iter().map(|e| e.dur.max(1)).sum();
    assert_eq!(model_total, model_mass);
    assert!(model_mass > 0);
    let mut root_mass = 0u64;
    for track in snap
        .wall
        .iter()
        .map(|e| e.track)
        .collect::<std::collections::BTreeSet<_>>()
    {
        let mut open_until = 0u64;
        for e in snap.wall.iter().filter(|e| e.track == track) {
            if e.ts >= open_until {
                root_mass += e.dur.max(1);
                open_until = e.ts + e.dur;
            }
        }
    }
    assert_eq!(wall_total, root_mass);
}

#[test]
fn disabled_tracer_stays_out_of_the_pipeline() {
    let _session = TracerSession::begin();
    trace::global().set_enabled(false);
    let ds = dataset();
    let reads = stream_workload(&ds);
    let host = HostPipeline::new(device(SieveConfig::type3(8), 2, &ds));
    host.classify_stream(&reads, 25).unwrap();
    let snap = trace::global().snapshot();
    assert!(snap.model.is_empty());
    assert!(snap.wall.is_empty());
    assert_eq!(trace::global().model_ps(), 0, "clock frozen while disabled");
    trace::global().set_enabled(true); // session drop expects to disable
}

/// Minimal recursive-descent JSON parser — just enough to validate the
/// Chrome export without serde (the workspace builds offline).
mod json {
    #[derive(Debug)]
    pub enum Value {
        Object(Vec<(String, Value)>),
        Array(Vec<Value>),
        String(String),
        Number(f64),
        // The payload is never inspected (the tests only check booleans
        // parse); kept so `parse` accepts every JSON form.
        Bool(#[allow(dead_code)] bool),
        Null,
    }

    pub fn parse(s: &str) -> Result<Value, String> {
        let bytes = s.as_bytes();
        let mut pos = 0usize;
        let v = value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && b[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if b.get(*pos) == Some(&c) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {} at byte {}", c as char, *pos))
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => object(b, pos),
            Some(b'[') => array(b, pos),
            Some(b'"') => Ok(Value::String(string(b, pos)?)),
            Some(b't') => lit(b, pos, "true", Value::Bool(true)),
            Some(b'f') => lit(b, pos, "false", Value::Bool(false)),
            Some(b'n') => lit(b, pos, "null", Value::Null),
            Some(_) => number(b, pos),
            None => Err("unexpected end of input".into()),
        }
    }

    fn lit(b: &[u8], pos: &mut usize, word: &str, v: Value) -> Result<Value, String> {
        if b[*pos..].starts_with(word.as_bytes()) {
            *pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", *pos))
        }
    }

    fn object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'{')?;
        let mut fields = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            skip_ws(b, pos);
            let key = string(b, pos)?;
            skip_ws(b, pos);
            expect(b, pos, b':')?;
            fields.push((key, value(b, pos)?));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected , or }} at byte {}", *pos)),
            }
        }
    }

    fn array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected , or ] at byte {}", *pos)),
            }
        }
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        while let Some(&c) = b.get(*pos) {
            *pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *b.get(*pos).ok_or("unterminated escape")?;
                    *pos += 1;
                    out.push(match esc {
                        b'n' => '\n',
                        b't' => '\t',
                        other => other as char,
                    });
                }
                _ => out.push(c as char),
            }
        }
        Err("unterminated string".into())
    }

    fn number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while b
            .get(*pos)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Number)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}
