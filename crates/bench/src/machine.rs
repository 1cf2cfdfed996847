//! The machine calibration file (`results/MACHINE.json`) and run
//! provenance.
//!
//! `bench_calibrate` measures the host's sustained copy bandwidth and
//! writes it here; `bench_classify` and the check scripts
//! read them back to normalize achieved phase bandwidth against the
//! machine's actual ceiling (a roofline fraction travels between machines;
//! an absolute GB/s does not). The file is versioned: parsers reject a
//! missing or unknown `schema_version` loudly instead of gating on
//! garbage.
//!
//! The provenance helpers ([`git_sha`], [`rustc_version`], [`cpu_model`])
//! stamp generated artifacts with where they came from; each degrades to
//! `"unknown"` rather than failing, so artifact generation works in
//! stripped-down containers.

use std::process::Command;

use sieve_core::prof;

/// The `MACHINE.json` schema version this crate writes. Version 3 keeps
/// only the copy ceiling; version-1 and version-2 files also carry a
/// radix-scatter probe (`scatter_gbps`, and `scatter8_gbps` in some
/// version-2 files) for a plan sort that no longer exists. Parsers ignore
/// those fields, so every accepted version reads alike.
pub const MACHINE_SCHEMA_VERSION: u64 = 3;

/// The oldest `MACHINE.json` schema version parsers still accept.
pub const MACHINE_SCHEMA_MIN_VERSION: u64 = 1;

/// One measured thread count's sustained bandwidth, GB/s counting both
/// directions (a copy of `b` bytes moves `2b`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthRow {
    /// Worker threads driving the measurement.
    pub threads: usize,
    /// Streaming copy bandwidth (read + write), GB/s.
    pub copy_gbps: f64,
}

/// A parsed (or to-be-written) `MACHINE.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    /// File schema version ([`MACHINE_SCHEMA_VERSION`] when written by
    /// this crate).
    pub schema_version: u64,
    /// Host CPU model string (from `/proc/cpuinfo`), `"unknown"` when
    /// unavailable.
    pub cpu_model: String,
    /// Detected host core count at calibration time.
    pub host_cores: usize,
    /// Measured bandwidths, one row per thread count, ascending.
    pub rows: Vec<BandwidthRow>,
}

impl Machine {
    /// The single-threaded copy bandwidth, if a 1-thread row exists.
    #[must_use]
    pub fn copy_gbps_1t(&self) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.threads == 1)
            .map(|r| r.copy_gbps)
    }

    /// The [`prof::Calibration`] the roofline derivation consumes: the
    /// single-core peak (phase walls are summed spans, so the 1-thread
    /// ceiling is the honest denominator). `None` without a 1-thread row.
    #[must_use]
    pub fn calibration(&self) -> Option<prof::Calibration> {
        Some(prof::Calibration {
            version: self.schema_version,
            copy_gbps: self.copy_gbps_1t()?,
        })
    }

    /// Renders the file (hand-rolled JSON; the workspace builds offline,
    /// without serde). The 1-thread peak is lifted to a flat top-level
    /// key so `awk`-based scripts can grab it without a JSON parser.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema_version\": {},\n", self.schema_version));
        s.push_str("  \"benchmark\": \"machine_calibration\",\n");
        s.push_str(&format!(
            "  \"cpu_model\": \"{}\",\n",
            sanitize(&self.cpu_model)
        ));
        s.push_str(&format!("  \"host_cores\": {},\n", self.host_cores));
        s.push_str(&format!(
            "  \"copy_gbps_1t\": {:.3},\n",
            self.copy_gbps_1t().unwrap_or(0.0)
        ));
        s.push_str("  \"bandwidth\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"threads\": {}, \"copy_gbps\": {:.3}}}{}\n",
                r.threads,
                r.copy_gbps,
                if i + 1 == self.rows.len() { "" } else { "," }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parses a `MACHINE.json`, rejecting missing or unknown schema
    /// versions loudly.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the schema version is
    /// missing, outside `[MACHINE_SCHEMA_MIN_VERSION,
    /// MACHINE_SCHEMA_VERSION]`, or the 1-thread peak is absent —
    /// callers are expected to *fail*, not silently skip gates.
    pub fn parse(text: &str) -> Result<Self, String> {
        let version = json_u64(text, "schema_version")
            .ok_or("MACHINE.json has no parseable \"schema_version\"")?;
        if !(MACHINE_SCHEMA_MIN_VERSION..=MACHINE_SCHEMA_VERSION).contains(&version) {
            return Err(format!(
                "MACHINE.json schema_version {version} unsupported (accepted: \
                 {MACHINE_SCHEMA_MIN_VERSION}..={MACHINE_SCHEMA_VERSION})"
            ));
        }
        let mut rows = Vec::new();
        for line in text.lines() {
            if !line.contains("\"threads\":") {
                continue;
            }
            let threads =
                json_u64(line, "threads").ok_or_else(|| format!("bad bandwidth row: {line}"))?;
            let copy_gbps = json_f64(line, "copy_gbps")
                .ok_or_else(|| format!("bandwidth row missing copy_gbps: {line}"))?;
            rows.push(BandwidthRow {
                threads: usize::try_from(threads).map_err(|e| e.to_string())?,
                copy_gbps,
            });
        }
        let machine = Self {
            schema_version: version,
            cpu_model: json_str(text, "cpu_model").unwrap_or_else(|| "unknown".to_string()),
            host_cores: json_u64(text, "host_cores")
                .and_then(|v| usize::try_from(v).ok())
                .unwrap_or(0),
            rows,
        };
        if machine.calibration().is_none() {
            return Err("MACHINE.json has no 1-thread bandwidth row".to_string());
        }
        Ok(machine)
    }
}

/// Strips characters that would break the hand-rolled JSON string.
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c == '"' || c == '\\' || c.is_control() {
                ' '
            } else {
                c
            }
        })
        .collect()
}

/// The number following `"key":` in `text`, as raw digits/sign/exponent.
fn json_token<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    Some(&rest[..end]).filter(|t| !t.is_empty())
}

fn json_u64(text: &str, key: &str) -> Option<u64> {
    json_token(text, key)?.parse().ok()
}

fn json_f64(text: &str, key: &str) -> Option<f64> {
    json_token(text, key)?.parse().ok()
}

/// The string following `"key": "` up to the closing quote.
fn json_str(text: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\": \"");
    let at = text.find(&needle)? + needle.len();
    let rest = &text[at..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Runs `cmd args...` and returns its trimmed stdout on success.
fn run_capture(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8_lossy(&out.stdout).trim().to_string();
    Some(s).filter(|s| !s.is_empty())
}

/// The repo's current commit (short SHA), `"unknown"` outside a checkout.
#[must_use]
pub fn git_sha() -> String {
    run_capture("git", &["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "unknown".into())
}

/// The building/running `rustc --version`, `"unknown"` when absent.
#[must_use]
pub fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    run_capture(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into())
}

/// The host CPU model string from `/proc/cpuinfo`, `"unknown"` elsewhere.
#[must_use]
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Machine {
        Machine {
            schema_version: MACHINE_SCHEMA_VERSION,
            cpu_model: "Example CPU @ 2.0GHz".to_string(),
            host_cores: 4,
            rows: vec![
                BandwidthRow {
                    threads: 1,
                    copy_gbps: 4.125,
                },
                BandwidthRow {
                    threads: 4,
                    copy_gbps: 9.5,
                },
            ],
        }
    }

    #[test]
    fn render_parse_round_trips() {
        let m = sample();
        let parsed = Machine::parse(&m.render_json()).unwrap();
        assert_eq!(parsed, m);
        let cal = parsed.calibration().unwrap();
        assert_eq!(cal.version, MACHINE_SCHEMA_VERSION);
        assert!((cal.copy_gbps - 4.125).abs() < 1e-9);
    }

    #[test]
    fn flat_1t_keys_are_awk_greppable() {
        let json = sample().render_json();
        assert!(json.contains("\"copy_gbps_1t\": 4.125,"));
        assert!(!json.contains("scatter"));
    }

    #[test]
    fn scatter_carrying_v1_and_v2_files_still_parse() {
        // A literal v1 file, and a v2 file with the retired 8-byte probe;
        // both carry the retired radix-scatter probe.
        let v1 = "{\n  \"schema_version\": 1,\n  \"cpu_model\": \"Old CPU\",\n  \
                  \"host_cores\": 2,\n  \"copy_gbps_1t\": 4.000,\n  \
                  \"scatter_gbps_1t\": 2.000,\n  \"bandwidth\": [\n    \
                  {\"threads\": 1, \"copy_gbps\": 4.000, \"scatter_gbps\": 2.000}\n  ]\n}\n";
        let v2 = v1
            .replace("\"schema_version\": 1", "\"schema_version\": 2")
            .replace("2.000}", "2.000, \"scatter8_gbps\": 1.500}");
        for (text, version) in [(v1.to_string(), 1), (v2, 2)] {
            let m = Machine::parse(&text).unwrap();
            assert_eq!(m.schema_version, version);
            let cal = m.calibration().unwrap();
            assert!((cal.copy_gbps - 4.0).abs() < 1e-9);
        }
    }

    #[test]
    fn missing_or_unknown_schema_version_is_rejected() {
        let err = Machine::parse("{\"copy_gbps_1t\": 4.0}").unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
        let err = Machine::parse("{\"schema_version\": 999}").unwrap_err();
        assert!(err.contains("999"), "{err}");
        // Garbled version token: also a loud error, not a silent skip.
        let err = Machine::parse("{\"schema_version\": \"one\"}").unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn missing_1t_row_is_rejected() {
        let mut m = sample();
        m.rows.retain(|r| r.threads != 1);
        let err = Machine::parse(&m.render_json()).unwrap_err();
        assert!(err.contains("1-thread"), "{err}");
    }

    #[test]
    fn cpu_model_with_quotes_cannot_break_the_json() {
        let mut m = sample();
        m.cpu_model = "weird \"quoted\" \\ model\n".to_string();
        let parsed = Machine::parse(&m.render_json()).unwrap();
        assert!(!parsed.cpu_model.contains('"'));
        assert!(!parsed.cpu_model.contains('\\'));
    }

    #[test]
    fn provenance_helpers_never_panic() {
        // Values are environment-dependent; the contract is non-empty.
        assert!(!git_sha().is_empty());
        assert!(!rustc_version().is_empty());
        assert!(!cpu_model().is_empty());
    }
}
