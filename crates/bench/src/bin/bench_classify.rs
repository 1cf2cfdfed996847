//! Host classification throughput across simulator thread counts, on a
//! seeded 10,000-read workload. Prints a table; with `--json` also
//! writes machine-readable results to `results/BENCH_classify.json`
//! (reads/sec per thread count, speedup over the sequential run, and the
//! host's core count — speedup beyond the physical cores cannot appear,
//! so record both). The JSON carries the core count twice:
//! `host_cores_detected` is always `std::thread::available_parallelism`,
//! and `host_cores` is the *effective* value the speedup gates key on —
//! identical unless `SIEVE_HOST_CORES=N` overrides it (containers can
//! under-report parallelism; the override lets a known-good box assert
//! its real width without editing scripts). Every result row also
//! carries `"oversubscribed"`: `true` when its thread count exceeds
//! `host_cores_detected`, which tells the check scripts to skip that
//! row's timing gates (an oversubscribed row measures contention, not
//! scaling) while still holding it to bit-identical output.
//!
//! Each measured cell is timed in paired recorder-disabled / enabled
//! runs (order alternated, each state summarized by its median sample —
//! robust to scheduler noise), so the JSON carries a before/after
//! `obs_overhead_pct` per row (clamped at 0: a negative delta is noise,
//! not a speedup), plus the full
//! [`sieve_core::obs::MetricsSnapshot`] of an instrumented
//! *single-thread* run (`metrics` key) — the wall profile DESIGN.md §6
//! quotes. The profile keeps the *quietest* of [`PROFILE_REPS`]
//! instrumented runs (smallest total `wall.*` time): scheduler noise
//! only ever adds wall time, so the cheapest observed run is the best
//! estimate of what the code itself costs, and an unlucky sample
//! can no longer distort the committed roofline. `--prom` additionally
//! writes the snapshot in Prometheus text format to
//! `results/BENCH_classify.prom`.
//!
//! Since `"schema_version": 2` the JSON also carries `provenance` (git
//! SHA, rustc, CPU model), the single-thread `prof` traffic table, the
//! `calibration` peak read from `results/MACHINE.json` (`--machine PATH`
//! overrides; missing file → `null` and unclassified rows; unparseable
//! file → hard error), and the derived `roofline` rows — one object per
//! line so `scripts/roofline_report.sh` and the bench gates can consume
//! them with awk. See DESIGN.md §10 for the methodology.
//!
//! Flags: `--reads N` and `--reps M` scale the workload down for smoke
//! runs (defaults 10,000 / 40), `--chunk C` adds one streamed row per
//! thread count (`classify_stream` with C-read chunks — the pipelined
//! extractor overlap and the per-chunk device runs, which batch rows
//! never exercise; rows carry a `chunk` field, 0 = batch),
//! `--out PATH` redirects the `--json` artifact so quick runs don't
//! clobber the committed results, and `--trace PATH` captures one traced
//! streaming run at the highest thread count, writing `PATH.chrome.json`
//! (load in Perfetto / `chrome://tracing`) and `PATH.folded` (pipe
//! through flamegraph.pl or `inferno-flamegraph`).

use std::time::Instant;

use sieve_bench::machine::{self, Machine};
use sieve_bench::table::Table;
use sieve_core::{obs, prof, HostPipeline, SieveConfig, SieveDevice};
use sieve_dram::Geometry;
use sieve_genomics::synth;

const DEFAULT_READS: usize = 10_000;
const DEFAULT_REPS: usize = 40;
/// Instrumented profile attempts; the one with the smallest total
/// `wall.*` time is kept (noise only adds wall time, so min-of-N is
/// the noise-floor estimate of the code's own cost). Each attempt is
/// one batch (~tens of ms), so a generous N costs ~a second and rides
/// out multi-sample noise bursts on shared boxes.
const PROFILE_REPS: usize = 15;
const DEFAULT_OUT: &str = "results/BENCH_classify.json";
const DEFAULT_MACHINE: &str = "results/MACHINE.json";

/// The top-level JSON schema version. v2 added `provenance`,
/// `calibration`, `prof`, and `roofline`; consumers hard-fail on a
/// missing or unknown version instead of gating on absent keys.
const CLASSIFY_SCHEMA_VERSION: u64 = 2;

/// Value of `--flag N` style arguments, if present.
fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// One measured cell: a thread count running either the batch path
/// (`chunk == 0`) or the streamed path with `chunk`-read chunks.
struct Cell {
    host: usize,
    threads: usize,
    chunk: usize,
}

struct Measurement {
    threads: usize,
    chunk: usize,
    oversubscribed: bool,
    reads_per_sec: f64,
    speedup: f64,
    reads_per_sec_obs: f64,
    obs_overhead_pct: f64,
}

/// Total nanoseconds across every `wall.*` span histogram — the
/// quietness metric for picking the instrumented profile (neutral: it
/// weighs all phases, not just the gated ones).
fn wall_total(snap: &obs::MetricsSnapshot) -> u64 {
    snap.histograms
        .iter()
        .filter(|(name, _)| name.starts_with("wall.") && name.ends_with(".ns"))
        .map(|(_, h)| h.sum)
        .sum()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let emit_json = args.iter().any(|a| a == "--json");
    let emit_prom = args.iter().any(|a| a == "--prom");
    let n_reads: usize = arg_value(&args, "--reads")
        .map_or(DEFAULT_READS, |v| v.parse().expect("--reads takes a count"));
    let reps: usize = arg_value(&args, "--reps")
        .map_or(DEFAULT_REPS, |v| v.parse().expect("--reps takes a count"));
    let chunk_reads: usize =
        arg_value(&args, "--chunk").map_or(0, |v| v.parse().expect("--chunk takes a read count"));
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| DEFAULT_OUT.to_string());
    let machine_path = arg_value(&args, "--machine").unwrap_or_else(|| DEFAULT_MACHINE.to_string());
    let trace_path = arg_value(&args, "--trace");

    let ds = synth::make_dataset_with(16, 8192, 31, 1001);
    let (reads, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), n_reads, 1002);
    let detected = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cores = std::env::var("SIEVE_HOST_CORES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&c| c > 0)
        .unwrap_or(detected);
    println!(
        "classify throughput: {n_reads} reads, median of {reps} runs, \
         {cores} host core(s) ({detected} detected)\n"
    );

    let mut thread_counts = vec![1usize, 2, 4];
    if !thread_counts.contains(&cores) {
        thread_counts.push(cores);
    }
    thread_counts.sort_unstable();

    let hosts: Vec<HostPipeline> = thread_counts
        .iter()
        .map(|&threads| {
            let device = SieveDevice::new(
                SieveConfig::type3(8)
                    .with_geometry(Geometry::scaled_medium())
                    .with_threads(threads),
                ds.entries.clone(),
            )
            .expect("dataset fits the scaled geometry");
            HostPipeline::new(device)
        })
        .collect();

    // Batch rows first, then (with --chunk) one streamed row per thread
    // count: the streamed cells exercise the pipelined extractor overlap
    // and the per-chunk device runs.
    let mut cells: Vec<Cell> = thread_counts
        .iter()
        .enumerate()
        .map(|(host, &threads)| Cell {
            host,
            threads,
            chunk: 0,
        })
        .collect();
    if chunk_reads > 0 {
        cells.extend(
            thread_counts
                .iter()
                .enumerate()
                .map(|(host, &threads)| Cell {
                    host,
                    threads,
                    chunk: chunk_reads,
                }),
        );
    }
    let run_cell = |cell: &Cell| {
        let host = &hosts[cell.host];
        if cell.chunk > 0 {
            host.classify_stream(&reads, cell.chunk)
        } else {
            host.classify_reads(&reads)
        }
        .expect("valid workload")
    };

    // Interleave the repetitions (rep-major, not cell-major) so slow
    // drift in the host's clock or scheduler hits every cell equally
    // instead of biasing whichever runs first.
    // Warm-up pass: untimed, and doubles as the bit-identical check —
    // every cell (parallel, streamed) must match the sequential
    // batch output exactly.
    let mut reference: Option<Vec<sieve_core::ReadResult>> = None;
    for cell in &cells {
        let run = run_cell(cell);
        match &reference {
            None => reference = Some(run.reads),
            Some(expected) => {
                assert_eq!(
                    &run.reads, expected,
                    "threads={} chunk={} diverged",
                    cell.threads, cell.chunk
                );
            }
        }
    }

    // Recorder disabled (the shipping default / "before") vs. enabled
    // ("after"), toggled back to back inside every (rep, cell), with
    // the order alternated per rep so second-run warmth can't bias one
    // state. Scheduler noise on a shared host is strictly additive with a
    // heavy upper tail, so each state's speed is summarized by its
    // *median* sample: immune to preempted outliers, and — unlike a
    // fastest-quartile mean — never decided by a handful of lucky
    // extremes, which is what produced noise-negative overhead readings.
    let recorder = obs::global();
    assert!(!recorder.is_enabled(), "recorder must start disabled");
    let mut samples = vec![[Vec::with_capacity(reps), Vec::with_capacity(reps)]; cells.len()];
    for rep in 0..reps {
        for (i, cell) in cells.iter().enumerate() {
            let order = if rep % 2 == 0 {
                [false, true]
            } else {
                [true, false]
            };
            for enabled in order {
                recorder.set_enabled(enabled);
                let start = Instant::now();
                run_cell(cell);
                samples[i][usize::from(enabled)].push(start.elapsed().as_secs_f64());
            }
        }
    }
    let median = |times: &mut Vec<f64>| -> f64 {
        times.sort_by(f64::total_cmp);
        let n = times.len();
        if n % 2 == 1 {
            times[n / 2]
        } else {
            (times[n / 2 - 1] + times[n / 2]) / 2.0
        }
    };
    let (mut best, mut best_obs) = (Vec::new(), Vec::new());
    for pair in &mut samples {
        best.push(median(&mut pair[0]));
        best_obs.push(median(&mut pair[1]));
    }

    // Capture a clean instrumented snapshot of a *single-thread batch*
    // run (the loops above already warmed everything): its wall.device.*
    // spans are the canonical single-thread device-stage profile the
    // regression gates and DESIGN.md track. Each attempt costs one batch
    // (~tens of ms), so PROFILE_REPS attempts are cheap; the quietest —
    // smallest total wall.* time — is kept, paired with its own traffic
    // table (the roofline input: canonical bytes / summed span ns).
    let mut quietest: Option<(u64, obs::MetricsSnapshot, prof::ProfSnapshot)> = None;
    for _ in 0..PROFILE_REPS {
        recorder.set_enabled(true);
        recorder.reset();
        prof::reset();
        hosts
            .first()
            .expect("at least one host")
            .classify_reads(&reads)
            .expect("valid workload");
        let snap = recorder.snapshot();
        let total = wall_total(&snap);
        if quietest.as_ref().is_none_or(|q| total < q.0) {
            quietest = Some((total, snap, prof::snapshot()));
        }
    }
    let (_, snapshot, prof_snapshot) = quietest.expect("PROFILE_REPS > 0");
    // And one at the *highest thread count* (same batch workload): its
    // wall spans against the single-thread snapshot above show how the
    // match and schedule fan-outs scale.
    let mut quietest_mt: Option<(u64, obs::MetricsSnapshot)> = None;
    for _ in 0..PROFILE_REPS {
        recorder.set_enabled(true);
        recorder.reset();
        hosts
            .last()
            .expect("at least one host")
            .classify_reads(&reads)
            .expect("valid workload");
        let snap = recorder.snapshot();
        let total = wall_total(&snap);
        if quietest_mt.as_ref().is_none_or(|q| total < q.0) {
            quietest_mt = Some((total, snap));
        }
    }
    let (_, snapshot_mt) = quietest_mt.expect("PROFILE_REPS > 0");
    recorder.set_enabled(false);
    recorder.reset();
    prof::reset();

    // Calibrated peaks, if `bench_calibrate` has run on this machine. A
    // *missing* file degrades to uncalibrated rows (bound = "n/a"); a
    // file that exists but fails to parse is a hard error — silently
    // dropping the efficiency gates is exactly what schema versioning
    // is there to prevent.
    let machine_cal: Option<Machine> = match std::fs::read_to_string(&machine_path) {
        Ok(text) => Some(
            Machine::parse(&text)
                .unwrap_or_else(|e| panic!("unusable calibration file {machine_path}: {e}")),
        ),
        Err(_) => {
            eprintln!("note: no calibration file at {machine_path}; roofline rows will be unclassified (run bench_calibrate)");
            None
        }
    };

    // One traced *streaming* run at the highest thread count (chunked, so
    // the Chrome timeline shows the extract/device stage overlap), after
    // all timing: tracing never contaminates the measurements above.
    if let Some(trace_path) = &trace_path {
        let tracer = sieve_core::trace::global();
        tracer.reset();
        tracer.set_enabled(true);
        hosts
            .last()
            .expect("at least one host")
            .classify_stream(&reads, (n_reads / 10).max(1))
            .expect("valid workload");
        let trace_snap = tracer.snapshot();
        tracer.set_enabled(false);
        tracer.reset();
        if let Some(dir) = std::path::Path::new(trace_path)
            .parent()
            .filter(|d| !d.as_os_str().is_empty())
        {
            std::fs::create_dir_all(dir).expect("create trace output directory");
        }
        let chrome = format!("{trace_path}.chrome.json");
        let folded = format!("{trace_path}.folded");
        std::fs::write(&chrome, trace_snap.to_chrome_json()).expect("write the Chrome trace");
        std::fs::write(&folded, trace_snap.to_folded()).expect("write the folded stacks");
        println!(
            "wrote {chrome} and {folded} ({} model + {} wall events, {} dropped)",
            trace_snap.model.len(),
            trace_snap.wall.len(),
            trace_snap.dropped_model + trace_snap.dropped_wall,
        );
    }

    let mut measurements: Vec<Measurement> = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let reads_per_sec = n_reads as f64 / best[i];
        let reads_per_sec_obs = n_reads as f64 / best_obs[i];
        // Speedup relative to the 1-thread row of the same mode (batch
        // rows against batch, streamed against streamed).
        let speedup = measurements
            .iter()
            .find(|m: &&Measurement| m.chunk == cell.chunk)
            .map_or(1.0, |base| reads_per_sec / base.reads_per_sec);
        measurements.push(Measurement {
            threads: cell.threads,
            chunk: cell.chunk,
            // More simulator threads than the container exposes: the row
            // still runs (and must stay bit-identical), but its timing
            // measures oversubscription, not scaling, so the check
            // scripts skip it for speedup/regression gating.
            oversubscribed: cell.threads > detected,
            reads_per_sec,
            speedup,
            reads_per_sec_obs,
            // Clamped at 0: observation cannot speed the pipeline up, so
            // a negative delta is measurement noise, not information.
            obs_overhead_pct: ((best_obs[i] / best[i] - 1.0) * 100.0).max(0.0),
        });
    }

    let mut t = Table::new([
        "threads",
        "chunk",
        "reads/sec",
        "speedup vs 1 thread",
        "reads/sec (obs on)",
        "obs overhead",
    ]);
    for m in &measurements {
        t.row([
            m.threads.to_string(),
            if m.chunk == 0 {
                "batch".to_string()
            } else {
                m.chunk.to_string()
            },
            format!("{:.0}", m.reads_per_sec),
            format!("{:.2}x", m.speedup),
            format!("{:.0}", m.reads_per_sec_obs),
            format!("{:+.1}%", m.obs_overhead_pct),
        ]);
    }
    println!("{}", t.render());

    if emit_json {
        if let Some(dir) = std::path::Path::new(&out_path)
            .parent()
            .filter(|d| !d.as_os_str().is_empty())
        {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
        let mt_threads = *thread_counts.last().expect("at least one thread count");
        std::fs::write(
            &out_path,
            render_json(
                n_reads,
                reps,
                cores,
                detected,
                mt_threads,
                &measurements,
                &snapshot,
                &snapshot_mt,
                &prof_snapshot,
                machine_cal.as_ref(),
            ),
        )
        .expect("write the --out JSON file");
        println!("wrote {out_path}");
    }
    if emit_prom {
        let path = "results/BENCH_classify.prom";
        std::fs::create_dir_all("results").expect("create results/");
        std::fs::write(path, snapshot.to_prometheus()).expect("write results/BENCH_classify.prom");
        println!("wrote {path}");
    }
}

/// Hand-rolled JSON (the workspace builds offline, without serde).
#[allow(clippy::too_many_arguments)]
fn render_json(
    n_reads: usize,
    reps: usize,
    cores: usize,
    detected: usize,
    mt_threads: usize,
    measurements: &[Measurement],
    snapshot: &obs::MetricsSnapshot,
    snapshot_mt: &obs::MetricsSnapshot,
    prof_snapshot: &prof::ProfSnapshot,
    machine_cal: Option<&Machine>,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!(
        "  \"schema_version\": {CLASSIFY_SCHEMA_VERSION},\n"
    ));
    s.push_str("  \"benchmark\": \"classify_throughput\",\n");
    s.push_str(&format!("  \"reads\": {n_reads},\n"));
    s.push_str(&format!("  \"reps\": {reps},\n"));
    s.push_str(&format!("  \"host_cores\": {cores},\n"));
    s.push_str(&format!("  \"host_cores_detected\": {detected},\n"));
    s.push_str("  \"device\": \"T3.8SA\",\n");
    // Where this artifact came from: enough to tell two committed runs
    // apart without trusting the commit that carries them.
    s.push_str("  \"provenance\": {\n");
    s.push_str(&format!("    \"git_sha\": \"{}\",\n", machine::git_sha()));
    s.push_str(&format!(
        "    \"rustc\": \"{}\",\n",
        machine::rustc_version()
    ));
    s.push_str(&format!(
        "    \"cpu_model\": \"{}\",\n",
        machine::cpu_model()
    ));
    s.push_str(&format!("    \"host_cores_detected\": {detected},\n"));
    s.push_str(&format!(
        "    \"calibration_schema_version\": {}\n",
        machine_cal.map_or(0, |m| m.schema_version)
    ));
    s.push_str("  },\n");
    s.push_str("  \"results\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"threads\": {}, \"chunk\": {}, \"oversubscribed\": {}, \
             \"reads_per_sec\": {:.1}, \
             \"speedup_vs_1_thread\": {:.3}, \
             \"reads_per_sec_obs\": {:.1}, \"obs_overhead_pct\": {:.2}}}{}\n",
            m.threads,
            m.chunk,
            m.oversubscribed,
            m.reads_per_sec,
            m.speedup,
            m.reads_per_sec_obs,
            m.obs_overhead_pct,
            if i + 1 == measurements.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n");
    // The calibrated peaks this run was judged against (null when
    // bench_calibrate has not run here), the single-thread traffic
    // table, and the derived roofline rows — one JSON object per line,
    // so check scripts can gate on them with awk.
    match machine_cal.and_then(Machine::calibration) {
        Some(cal) => s.push_str(&format!(
            "  \"calibration\": {{\"schema_version\": {}, \"copy_gbps_1t\": {:.3}}},\n",
            cal.version, cal.copy_gbps
        )),
        None => s.push_str("  \"calibration\": null,\n"),
    }
    let prof_json = prof_snapshot.to_json().replace('\n', "\n  ");
    s.push_str(&format!("  \"prof\": {prof_json},\n"));
    s.push_str("  \"roofline\": [\n");
    let cal = machine_cal.and_then(Machine::calibration);
    let rows = prof::roofline_rows(prof_snapshot, snapshot, cal.as_ref());
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"phase\": \"{}\", \"bytes_read\": {}, \"bytes_written\": {}, \
             \"items\": {}, \"wall_ns\": {}, \"ns_per_item\": {:.2}, \"gbps\": {:.3}, \
             \"peak_gbps\": {:.3}, \"frac_of_peak\": {:.3}, \"bound\": \"{}\"}}{}\n",
            r.phase,
            r.bytes_read,
            r.bytes_written,
            r.items,
            r.wall_ns,
            r.ns_per_item,
            r.gbps,
            r.peak_gbps,
            r.frac_of_peak,
            r.bound,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n");
    // Two instrumented runs' full snapshots, reindented: "metrics" is
    // the canonical single-thread batch profile, "metrics_mt" the same
    // workload at the table's highest thread count (for the per-stage
    // scaling comparison).
    let metrics = snapshot.to_json().replace('\n', "\n  ");
    s.push_str(&format!("  \"metrics\": {metrics},\n"));
    s.push_str(&format!("  \"metrics_mt_threads\": {mt_threads},\n"));
    let metrics_mt = snapshot_mt.to_json().replace('\n', "\n  ");
    s.push_str(&format!("  \"metrics_mt\": {metrics_mt}\n"));
    s.push_str("}\n");
    s
}
