//! `--compare A B`: judges two sets of saved reports against the bounds in
//! `BENCHMARK.json`, per workload and end-to-end metric.

use crate::json::Json;
use crate::stats::{median, quartiles, ratio};

/// A bounded end-to-end metric from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = Json::parse(benchmark_json)?;
    let metrics = doc
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end")?;
    metrics
        .as_arr()
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without a name")?
                    .to_string(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// One side's reading of a metric: the median over its reports and its
/// spread (quartile distance over median). With one report, the spread is
/// that run's own per-sample quartile distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub median: f64,
    pub spread: f64,
    /// Every report's value, for the all-better test.
    lo: f64,
    hi: f64,
}

fn side(reports: &[Json], workload: &str, metric: &str) -> Option<Side> {
    let entries: Vec<&Json> = reports
        .iter()
        .map(|r| {
            r.get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)
        })
        .collect::<Option<_>>()?;
    let values: Vec<f64> = entries
        .iter()
        .map(|e| e.get("value").and_then(Json::as_f64))
        .collect::<Option<_>>()?;
    let med = median(&values);
    let (q1, q3) = if let [single] = entries.as_slice() {
        let q = |k| single.get(k).and_then(Json::as_f64);
        (q("q1")?, q("q3")?)
    } else {
        quartiles(&values)
    };
    Some(Side {
        median: med,
        spread: ratio(q3 - q1, med.abs()),
        lo: values.iter().copied().fold(f64::INFINITY, f64::min),
        hi: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    })
}

/// `ok`, `worse` or `unresolved` for B against A. A spread wider than the
/// bound leaves the metric unresolved unless every B run beats every A run.
pub fn verdict(bound: &Bound, a: Side, b: Side) -> (&'static str, f64) {
    let worse_by = if bound.lower_is_better {
        ratio(b.median - a.median, a.median)
    } else {
        ratio(a.median - b.median, a.median)
    };
    let all_better = if bound.lower_is_better {
        b.hi < a.lo
    } else {
        b.lo > a.hi
    };
    let v = if a.spread.max(b.spread) > bound.bound && !all_better {
        "unresolved"
    } else if worse_by > bound.bound {
        "worse"
    } else {
        "ok"
    };
    (v, worse_by)
}

/// Prints one row per (workload, end-to-end metric); `Ok(true)` when none
/// is worse.
pub fn compare(benchmark_json: &str, a: &[Json], b: &[Json]) -> Result<bool, String> {
    let bounds = bounds(benchmark_json)?;
    let first = a.first().ok_or("no reports on side A")?;
    let workloads: Vec<&str> = first
        .get("workloads")
        .ok_or("report has no workloads")?
        .as_obj()
        .iter()
        .map(|(w, _)| w.as_str())
        .collect();
    println!("workload metric median_a median_b worse_by_pct bound_pct spread_pct verdict");
    let mut none_worse = true;
    for w in workloads {
        for bound in &bounds {
            let (Some(sa), Some(sb)) = (side(a, w, &bound.name), side(b, w, &bound.name)) else {
                println!("{w} {} - - - - - missing", bound.name);
                none_worse = false;
                continue;
            };
            let (v, worse_by) = verdict(bound, sa, sb);
            none_worse &= v != "worse";
            println!(
                "{w} {} {} {} {:.2} {:.2} {:.2} {v}",
                bound.name,
                sa.median,
                sb.median,
                worse_by * 100.0,
                bound.bound * 100.0,
                sa.spread.max(sb.spread) * 100.0,
            );
        }
    }
    Ok(none_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(value: f64, q1: f64, q3: f64) -> Json {
        Json::parse(&format!(
            r#"{{"workloads": {{"w": {{"metrics": {{"reads_per_s":
                {{"value": {value}, "unit": "reads/s", "q1": {q1}, "q3": {q3}, "n": 9}}}}}}}}}}"#
        ))
        .expect("valid report")
    }

    const BENCH: &str = r#"{"end_to_end": [
        {"name": "reads_per_s", "unit": "reads/s", "better": "higher", "bound": 0.1}]}"#;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let b = &bounds(BENCH).expect("valid bounds")[0];
        let one = |v, q1, q3| side(&[report(v, q1, q3)], "w", "reads_per_s").expect("present");
        // 5% slower, quiet: ok.
        assert_eq!(
            verdict(b, one(100.0, 99.0, 101.0), one(95.0, 94.0, 96.0)).0,
            "ok"
        );
        // 20% slower, quiet: worse.
        assert_eq!(
            verdict(b, one(100.0, 99.0, 101.0), one(80.0, 79.0, 81.0)).0,
            "worse"
        );
        // 20% slower, but A's own spread is 30%: unresolved.
        assert_eq!(
            verdict(b, one(100.0, 85.0, 115.0), one(80.0, 79.0, 81.0)).0,
            "unresolved"
        );
        // Noisy, but every B run beats every A run: ok.
        let many = |vs: &[f64]| {
            let reports: Vec<Json> = vs.iter().map(|&v| report(v, v, v)).collect();
            side(&reports, "w", "reads_per_s").expect("present")
        };
        let a = many(&[60.0, 100.0, 140.0, 80.0]);
        let bb = many(&[150.0, 200.0, 300.0, 160.0]);
        assert!(a.spread > 0.1);
        assert_eq!(verdict(b, a, bb).0, "ok");
    }

    #[test]
    fn a_missing_metric_fails_the_comparison() {
        let other = Json::parse(r#"{"workloads": {"w": {"metrics": {}}}}"#).expect("valid");
        assert_eq!(
            compare(BENCH, &[report(1.0, 1.0, 1.0)], &[other]),
            Ok(false)
        );
    }
}
