//! `act-benchmark compare A B`: two sets of runs, one verdict per
//! (end-to-end metric, workload).
//!
//! The rule, with the bounds in `BENCHMARK.json`:
//!
//! * **better** — at least 10 pairs, B wins at least 9 in 10 of them
//!   (ties count for neither side), and the medians differ by more than
//!   A's own interquartile range;
//! * **unresolved** — otherwise, when A's spread (IQR ÷ median) is wider
//!   than the bound, unless every B run reads better than every A run;
//! * **worse** — B's median is worse than A's by more than the bound;
//! * **unchanged** — everything else.
//!
//! A and B are record files: one JSON object per line,
//! `{"workload": "...", "result": {...the run's result line...}}`, as the
//! benchmark's `--record FILE` option appends them. The i-th record of a
//! workload in A is paired with the i-th in B, so alternate the two sides
//! when recording.

use std::fmt::Write as _;
use std::path::Path;

use act_json::JsonValue;

use crate::metrics::Better;
use crate::stats::{median, quartiles, relative_iqr};

/// One end-to-end metric's gate from `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Gate {
    /// Metric name.
    pub name: String,
    /// Direction of improvement.
    pub better: Better,
    /// Largest tolerated worsening, as a share of A's median.
    pub bound: f64,
}

/// The end-to-end gates listed in a `BENCHMARK.json` document.
///
/// # Errors
///
/// A message when the document lacks a well-formed `end_to_end` list.
pub fn gates(doc: &JsonValue) -> Result<Vec<Gate>, String> {
    let list =
        doc.get("end_to_end").and_then(JsonValue::as_array).ok_or("no end_to_end list")?;
    list.iter()
        .map(|entry| {
            let name =
                entry.get("name").and_then(JsonValue::as_str).ok_or("metric without name")?;
            let better = match entry.get("better").and_then(JsonValue::as_str) {
                Some("higher") => Better::Higher,
                Some("lower") => Better::Lower,
                _ => return Err(format!("{name}: `better` is not higher/lower")),
            };
            let bound = entry
                .get("bound")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("{name}: no numeric bound"))?;
            Ok(Gate { name: name.to_owned(), better, bound })
        })
        .collect()
}

/// The verdict for one (metric, workload).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B improves on A by the rule in the module documentation.
    Better,
    /// Within the bound and A repeats within it.
    Unchanged,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A's spread is wider than the bound, so no claim either way.
    Unresolved,
}

impl Verdict {
    /// Lower-case name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Better => "better",
            Self::Unchanged => "unchanged",
            Self::Worse => "worse",
            Self::Unresolved => "unresolved",
        }
    }
}

/// Applies the rule to paired runs `a[i]` / `b[i]`.
#[must_use]
pub fn classify(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    if n == 0 {
        return Verdict::Unresolved;
    }
    let improves = |x: f64, y: f64| match better {
        Better::Higher => y > x,
        Better::Lower => y < x,
    };
    let (ma, mb) = (median(a), median(b));
    let wins = a.iter().zip(b).filter(|(x, y)| improves(**x, **y)).count();
    let iqr = quartiles(a).map_or(f64::INFINITY, |(q1, q3)| q3 - q1);
    if n >= 10 && wins * 10 >= 9 * n && improves(ma, mb) && (mb - ma).abs() > iqr {
        return Verdict::Better;
    }
    let all_better = a.iter().all(|x| b.iter().all(|y| improves(*x, *y)));
    let spread = relative_iqr(a).unwrap_or(f64::INFINITY);
    if spread > bound && !all_better {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Higher => (ma - mb) / ma.abs(),
        Better::Lower => (mb - ma) / ma.abs(),
    };
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

/// One run record.
#[derive(Clone, Debug)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// The run's result object.
    pub result: JsonValue,
}

/// Parses a record file.
///
/// # Errors
///
/// A message naming the first malformed line.
pub fn parse_records(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            let doc = JsonValue::parse(line).map_err(|err| format!("line {}: {err}", i + 1))?;
            let workload = doc.get("workload").and_then(JsonValue::as_str);
            match (workload, doc.get("result")) {
                (Some(workload), Some(result)) => {
                    Ok(Record { workload: workload.to_owned(), result: result.clone() })
                }
                _ => Err(format!("line {}: needs `workload` and `result`", i + 1)),
            }
        })
        .collect()
}

fn metric(record: &Record, name: &str) -> Option<f64> {
    record.result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn count(records: &[&Record], key: &str) -> u64 {
    records.iter().filter_map(|r| r.result.get(key).and_then(JsonValue::as_u64)).sum()
}

/// The comparison report, and whether any pair came out worse.
#[must_use]
pub fn report(gates: &[Gate], a: &[Record], b: &[Record]) -> (String, bool) {
    let mut workloads: Vec<&str> = Vec::new();
    for record in a.iter().chain(b) {
        if !workloads.contains(&record.workload.as_str()) {
            workloads.push(&record.workload);
        }
    }
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<18} {:<8} {:<11} {:>14} {:>14} {:>8} {:>9} {:>6} {:>5}",
        "metric",
        "workload",
        "verdict",
        "median A",
        "median B",
        "change",
        "spread A",
        "bound",
        "pairs"
    );
    for workload in &workloads {
        let side = |records: &[Record]| -> Vec<Record> {
            records.iter().filter(|r| r.workload == *workload).cloned().collect()
        };
        let (ra, rb) = (side(a), side(b));
        let pairs = ra.len().min(rb.len());
        for gate in gates {
            let values = |records: &[Record]| -> Vec<f64> {
                records[..pairs].iter().filter_map(|r| metric(r, &gate.name)).collect()
            };
            let (va, vb) = (values(&ra), values(&rb));
            let verdict = if va.len() == pairs && vb.len() == pairs {
                classify(&va, &vb, gate.better, gate.bound)
            } else {
                Verdict::Unresolved
            };
            any_worse |= verdict == Verdict::Worse;
            let (ma, mb) = (median(&va), median(&vb));
            let _ = writeln!(
                out,
                "{:<18} {:<8} {:<11} {:>14.6} {:>14.6} {:>7.2}% {:>8.2}% {:>5.1}% {:>5}",
                gate.name,
                workload,
                verdict.as_str(),
                ma,
                mb,
                (mb - ma) / ma.abs() * 100.0,
                relative_iqr(&va).unwrap_or(f64::NAN) * 100.0,
                gate.bound * 100.0,
                pairs
            );
        }
    }
    for (label, records) in [("A", a), ("B", b)] {
        let all: Vec<&Record> = records.iter().collect();
        let (attempted, failed) = (count(&all, "attempted"), count(&all, "failed"));
        let _ = writeln!(
            out,
            "failure share {label}: {failed}/{attempted} ({:.4}%)",
            failed as f64 / attempted.max(1) as f64 * 100.0
        );
    }
    (out, any_worse)
}

/// Runs the subcommand: reads `BENCHMARK.json` under `root` and the two
/// record files, prints the report; `Ok(false)` when some pair is worse.
///
/// # Errors
///
/// A message when a file cannot be read or parsed.
pub fn run(root: &Path, a: &Path, b: &Path) -> Result<bool, String> {
    let read = |path: &Path| {
        std::fs::read_to_string(path).map_err(|err| format!("{}: {err}", path.display()))
    };
    let bench = JsonValue::parse(&read(&root.join("BENCHMARK.json"))?)
        .map_err(|err| format!("BENCHMARK.json: {err}"))?;
    let gates = gates(&bench)?;
    let (a, b) = (parse_records(&read(a)?)?, parse_records(&read(b)?)?);
    let (text, any_worse) = report(&gates, &a, &b);
    print!("{text}");
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, n: usize) -> Vec<f64> {
        // A deterministic ±1 % wobble.
        (0..n).map(|i| center * (1.0 + ((i * 7) % 5) as f64 / 200.0 - 0.01)).collect()
    }

    #[test]
    fn clear_gain_over_ten_pairs_is_better() {
        let a = around(100.0, 10);
        let b = around(80.0, 10);
        assert_eq!(classify(&a, &b, Better::Lower, 0.1), Verdict::Better);
        assert_eq!(classify(&b, &a, Better::Higher, 0.1), Verdict::Better);
    }

    #[test]
    fn fewer_than_ten_pairs_cannot_be_better() {
        let a = around(100.0, 9);
        let b = around(80.0, 9);
        assert_eq!(classify(&a, &b, Better::Lower, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn a_loss_beyond_the_bound_is_worse() {
        let a = around(100.0, 10);
        let b = around(120.0, 10);
        assert_eq!(classify(&a, &b, Better::Lower, 0.1), Verdict::Worse);
        assert_eq!(classify(&a, &b, Better::Lower, 0.25), Verdict::Unchanged);
        assert_eq!(classify(&b, &a, Better::Higher, 0.1), Verdict::Worse);
    }

    #[test]
    fn same_distribution_is_unchanged() {
        let a = around(100.0, 10);
        let mut b = a.clone();
        b.reverse();
        assert_eq!(classify(&a, &b, Better::Lower, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let a = vec![50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0];
        let b: Vec<f64> = a.iter().map(|x| x * 1.05).collect();
        assert_eq!(classify(&a, &b, Better::Lower, 0.1), Verdict::Unresolved);
        let much_better = vec![10.0; 10];
        assert_eq!(classify(&a, &much_better, Better::Lower, 0.1), Verdict::Better);
        let all_better_few = vec![10.0; 5];
        assert_eq!(classify(&a[..5], &all_better_few, Better::Lower, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn ties_count_for_neither_side() {
        let a = vec![100.0; 10];
        let b = vec![100.0; 10];
        assert_eq!(classify(&a, &b, Better::Lower, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn gates_and_records_parse_and_report() {
        let bench = JsonValue::parse(
            r#"{"end_to_end": [{"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let gates = gates(&bench).unwrap();
        assert_eq!(
            gates,
            vec![Gate { name: "p50_ms".into(), better: Better::Lower, bound: 0.1 }]
        );
        let line = |w: &str, v: f64| {
            format!(
                r#"{{"workload": "{w}", "result": {{"correct": true, "attempted": 10, "failed": 0, "metrics": {{"p50_ms": {{"value": {v}, "unit": "ms"}}}}}}}}"#
            )
        };
        let a_text: String =
            (0..10).map(|i| line("sweep", 100.0 + f64::from(i % 3)) + "\n").collect();
        let b_text: String =
            (0..10).map(|i| line("sweep", 130.0 + f64::from(i % 3)) + "\n").collect();
        let (a, b) = (parse_records(&a_text).unwrap(), parse_records(&b_text).unwrap());
        let (text, any_worse) = report(&gates, &a, &b);
        assert!(any_worse);
        assert!(text.contains("p50_ms") && text.contains("worse"), "{text}");
        assert!(text.contains("failure share A: 0/100"), "{text}");
        let (text, any_worse) = report(&gates, &b, &a);
        assert!(!any_worse);
        assert!(text.contains("better"), "{text}");
        assert!(parse_records("{\"workload\": 1}").is_err());
    }
}
