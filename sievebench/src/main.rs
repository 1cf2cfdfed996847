//! sievebench: end-to-end and per-layer benchmark of the Sieve host
//! pipeline. See README.md for the workloads, the metrics and the
//! measurement window.
//!
//! ```text
//! sievebench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!            [--out REPORT.json] [--trace-out PREFIX]
//! sievebench --compare A.json[,A2.json...] B.json[,B2.json...]
//! ```
//!
//! Without `--workload`, every workload runs, interleaved round-robin. The
//! last line of standard output is one JSON object: `correct`,
//! `attempted` and `failed` reads, and the end-to-end metrics (`--trace 0`)
//! or the per-layer metrics (`--trace 1`).

mod alloc;
mod compare;
mod json;
mod measure;
mod stats;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use json::{quote, Json};
use measure::{Run, TRACED_CALLS};
use sieve_core::trace::TraceSnapshot;
use workload::{Spec, SPECS};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Held by every test that runs the pipeline: traced calls read the
/// process-wide tracer and `obs` recorder, which a concurrent call would
/// write into.
#[cfg(test)]
static GLOBALS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
fn lock_globals() -> std::sync::MutexGuard<'static, ()> {
    GLOBALS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct Options {
    specs: Vec<Spec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    trace_out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        specs: SPECS.to_vec(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        out: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} takes {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                opts.specs = vec![Spec::by_name(value).ok_or_else(|| {
                    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
                    bad(&format!("one of {}", names.join(", ")))
                })?];
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
            }
            "--out" => opts.out = Some(value.clone()),
            "--trace-out" => {
                opts.trace_out = Some(value.clone());
                opts.trace = true;
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(opts)
}

/// Measures `opts.specs`: set-ups and memory passes first, then untraced
/// calls round-robin until `opts.seconds` have passed (at least one round),
/// then [`TRACED_CALLS`] traced rounds, whose wall spans it returns.
fn measure(opts: &Options) -> Result<(Vec<Run>, usize, TraceSnapshot), String> {
    let mut runs: Vec<Run> = opts
        .specs
        .iter()
        .map(|&spec| Run::new(spec, opts.seed))
        .collect::<Result<_, _>>()?;
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut rounds = 0;
    while rounds == 0 || Instant::now() < deadline {
        for run in &mut runs {
            run.timed_call()?;
        }
        rounds += 1;
    }
    // Wall stamps count from the tracer's fixed epoch, so the calls' spans
    // line up on one timeline. Model events are left out: the model clock
    // restarts with every call.
    let mut spans = TraceSnapshot::default();
    if opts.trace {
        for _ in 0..TRACED_CALLS {
            for run in &mut runs {
                spans.wall.extend(run.traced_call());
            }
        }
    }
    spans.wall.sort_by_key(|e| (e.track, e.ts));
    Ok((runs, rounds, spans))
}

/// The last line of output. Its metrics are the end-to-end ones without
/// tracing and the per-layer ones with it.
fn result_line(runs: &[Run], trace: bool) -> String {
    let single = runs.len() == 1;
    let mut entries = Vec::new();
    for run in runs {
        for m in run.metrics().iter().filter(|m| m.end_to_end != trace) {
            let key = if single {
                m.name.to_string()
            } else {
                format!("{}/{}", run.spec.name, m.name)
            };
            entries.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&key),
                m.value,
                quote(m.unit)
            ));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        runs.iter().all(Run::correct),
        runs.iter().map(|r| r.attempted).sum::<u64>(),
        runs.iter().map(|r| r.failed).sum::<u64>(),
        entries.join(", ")
    )
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The saved report: provenance, then every measured metric of every
/// workload with its quartiles and sample count.
fn report_json(opts: &Options, runs: &[Run], rounds: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut s = String::from("{\n  \"provenance\": {");
    s.push_str(&format!(
        "\"git\": {}, \"rustc\": {}, \"cpu\": {}, \"nproc\": {nproc}, \"seed\": {}, \
         \"seconds\": {}, \"rounds\": {rounds}, \"traced_calls\": {}, \
         \"threads\": 1, \"loop\": \"closed, one caller, fresh device per call\"}},\n",
        quote(&command_line("git", &["describe", "--always", "--dirty"])),
        quote(&command_line("rustc", &["-V"])),
        quote(&cpu_model()),
        opts.seed,
        opts.seconds,
        if opts.trace { TRACED_CALLS } else { 0 },
    ));
    s.push_str("  \"workloads\": {\n");
    let blocks: Vec<String> = runs
        .iter()
        .map(|run| {
            let metrics: Vec<String> = run
                .metrics()
                .iter()
                .map(|m| {
                    format!(
                        "      {}: {{\"value\": {}, \"unit\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                        quote(m.name),
                        m.value,
                        quote(m.unit),
                        m.q1,
                        m.q3,
                        m.n
                    )
                })
                .collect();
            format!(
                "    {}: {{\"calls\": {}, \"attempted\": {}, \"failed\": {}, \"failed_frac\": {}, \
                 \"correct\": {}, \"metrics\": {{\n{}\n    }}}}",
                quote(run.spec.name),
                run.calls(),
                run.attempted,
                run.failed,
                stats::ratio(run.failed as f64, run.attempted as f64),
                run.correct(),
                metrics.join(",\n")
            )
        })
        .collect();
    s.push_str(&blocks.join(",\n"));
    s.push_str("\n  }\n}\n");
    s
}

fn read_reports(list: &str) -> Result<Vec<Json>, String> {
    list.split(',')
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Json::parse(&text).map_err(|e| format!("{path}: {e}"))
        })
        .collect()
}

fn run_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("--compare takes two report lists: A.json[,A2.json...] B.json[,...]".into());
    };
    let bench = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let none_worse = compare::compare(&bench, &read_reports(a)?, &read_reports(b)?)?;
    Ok(if none_worse {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_bench(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_args(args)?;
    let (runs, rounds, spans) = measure(&opts)?;
    for run in &runs {
        let metrics = run.metrics();
        println!(
            "# {}: {} untraced calls, {} of {} reads failed",
            run.spec.name,
            run.calls(),
            run.failed,
            run.attempted
        );
        for m in &metrics {
            println!("{} {} {} {}", run.spec.name, m.name, m.value, m.unit);
        }
        if opts.trace {
            for (claim, holds) in run.claims(&metrics) {
                let verdict = if holds { "holds" } else { "MISSED" };
                println!("# {} claim: {claim}: {verdict}", run.spec.name);
            }
        }
    }
    if let Some(path) = &opts.out {
        std::fs::write(path, report_json(&opts, &runs, rounds))
            .map_err(|e| format!("{path}: {e}"))?;
        println!("# wrote {path}");
    }
    if let Some(prefix) = &opts.trace_out {
        for (path, text) in [
            (format!("{prefix}.chrome.json"), spans.to_chrome_json()),
            (format!("{prefix}.folded"), spans.to_folded()),
        ] {
            std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))?;
            println!("# wrote {path}");
        }
    }
    println!("{}", result_line(&runs, opts.trace));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    alloc::retain_freed_memory();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--compare") => run_compare(&args[1..]),
        _ => run_bench(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("sievebench: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    /// `(name, unit)` of a `BENCHMARK.json` metric class.
    fn declared(doc: &Json, class: &str) -> Vec<(String, String)> {
        doc.get(class)
            .expect("metric class present")
            .as_arr()
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_measured_metrics() {
        let doc = benchmark_json();
        for (class, end_to_end) in [("end_to_end", true), ("per_layer", false)] {
            let ours: Vec<(String, String)> = measure::METRICS
                .iter()
                .filter(|m| m.2 == end_to_end)
                .map(|m| (m.0.to_string(), m.1.to_string()))
                .collect();
            assert_eq!(declared(&doc, class), ours, "{class}");
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .expect("workloads")
            .as_arr()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse_args(&args("--workload t1_batch --seed 5 --seconds 2 --trace 1"))
            .expect("valid arguments");
        assert_eq!(
            (o.specs.len(), o.seed, o.seconds, o.trace),
            (1, 5, 2.0, true)
        );
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--trace 2",
            "--seed",
            "--x 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    /// Every workload at a tiny size, traced: no read fails, every metric
    /// `BENCHMARK.json` names is measured, and the deterministic claims
    /// hold.
    #[test]
    fn tiny_run_of_every_workload() {
        let _globals = lock_globals();
        let opts = Options {
            specs: SPECS
                .iter()
                .map(|s| Spec {
                    taxa: (s.taxa / 8).max(1),
                    reads: (s.reads / 50).max(10),
                    ..*s
                })
                .collect(),
            seed: 2,
            seconds: 0.01,
            trace: true,
            out: None,
            trace_out: None,
        };
        let (runs, rounds, spans) = measure(&opts).expect("tiny workloads run");
        assert!(rounds >= 1);
        let doc = benchmark_json();
        let declared: Vec<String> = ["end_to_end", "per_layer"]
            .iter()
            .flat_map(|c| declared(&doc, c))
            .map(|(name, _)| name)
            .collect();
        for run in &runs {
            assert!(run.correct(), "{}", run.spec.name);
            assert_eq!(run.failed, 0, "{}", run.spec.name);
            let metrics = run.metrics();
            for name in &declared {
                assert!(
                    metrics
                        .iter()
                        .any(|m| m.name == name && m.value.is_finite()),
                    "{} lacks {name}",
                    run.spec.name
                );
            }
            for (claim, holds) in run.claims(&metrics) {
                if claim.starts_with("fastq") || claim.starts_with("cache.probes") {
                    assert!(holds, "{}: {claim}", run.spec.name);
                }
            }
        }
        let line = Json::parse(&result_line(&runs, true)).expect("result line is JSON");
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert!(Json::parse(&spans.to_chrome_json()).is_ok());
        // Each workload's calls fold under a root frame of its own name.
        let folded = spans.to_folded();
        for run in &runs {
            let root = format!(";{};", run.spec.name);
            assert!(folded.contains(&root), "{root} missing from\n{folded}");
        }
        assert!(Json::parse(&report_json(&opts, &runs, rounds)).is_ok());
    }
}
