//! `act-benchmark` — the repository benchmark (see `README.md`).
//!
//! ```text
//! act-benchmark [--seed N] [--seconds S] [--trace 0|1] [--record FILE]
//!     every workload, each in a fresh process; a summary at the end
//! act-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--record FILE]
//!     one workload; the last stdout line is its result object
//! act-benchmark compare A B
//!     verdicts between two record files
//! ```
//!
//! Exit codes: 0 when every output checked, 1 on a failed check, 2 for a
//! usage error.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use act_benchmark::metrics::{result_json, END_TO_END};
use act_benchmark::{
    build_act, child_main, repo_root, run_workload, RunConfig, Workload, DEFAULT_SECONDS,
    DEFAULT_SEED,
};
use act_json::{JsonObject, JsonValue, ToJson};

const USAGE: &str = "usage: act-benchmark [--workload sweep|fleet|serve|paper] [--seed N] \
                     [--seconds S] [--trace 0|1] [--record FILE]\n       \
                     act-benchmark compare A B";

struct Args {
    workload: Option<Workload>,
    child: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        child: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        record: None,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(
                    Workload::parse(name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                parsed.seed = value()?.parse().map_err(|_| "--seed needs an integer")?
            }
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--record" => parsed.record = Some(PathBuf::from(value()?)),
            "--child" => parsed.child = Some(value()?.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("compare needs two record files\n{USAGE}");
            return ExitCode::from(2);
        };
        return match act_benchmark::compare::run(&repo_root(), Path::new(a), Path::new(b)) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(err) => {
                eprintln!("compare: {err}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(kind) = &args.child {
        return match child_main(kind, args.seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(err) => {
                eprintln!("child {kind}: {err}");
                ExitCode::from(1)
            }
        };
    }
    let result = match args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(err) => {
            eprintln!("act-benchmark: {err}");
            ExitCode::from(1)
        }
    }
}

/// The benchmark executable and the release `act` binary next to it
/// (same target directory). Every run builds `act` (a no-op once fresh),
/// so the first run in a checkout pays the build whichever workload it is.
fn config(args: &Args) -> Result<RunConfig, String> {
    let self_exe = std::env::current_exe().map_err(|err| format!("locating self: {err}"))?;
    let root = repo_root();
    let target = self_exe
        .parent()
        .and_then(Path::parent)
        .ok_or("the benchmark executable is not inside a target directory")?;
    let act_exe = build_act(&root, target, true)?;
    Ok(RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        trace_dir: root.join("benchmark").join("out"),
        self_exe,
        act_exe,
    })
}

fn append_record(
    path: &Path,
    workload: Workload,
    seed: u64,
    trace: bool,
    result: &JsonValue,
) -> Result<(), String> {
    let record = JsonObject::new()
        .with("workload", workload.name().to_json())
        .with("seed", seed.to_json())
        .with("trace", trace.to_json())
        .with("result", result.clone());
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|err| format!("{}: {err}", path.display()))?;
    writeln!(file, "{}", JsonValue::Object(record).render_compact())
        .map_err(|err| format!("{}: {err}", path.display()))
}

/// One workload in this process; prints its report, then the result line.
fn run_one(workload: Workload, args: &Args) -> Result<bool, String> {
    let config = config(args)?;
    let outcome = run_workload(workload, &config);
    let result = result_json(&outcome, args.trace);
    let name = workload.name();
    for line in &outcome.lines {
        println!("{line}");
    }
    println!("{name} output_digest {:016x}", outcome.digest);
    println!("{name} ops {} ops_failed {}", outcome.attempted, outcome.failed);
    if args.trace {
        for metric in END_TO_END {
            if let Some(value) = outcome.end_to_end.get(metric.name) {
                println!("{name} traced {} {value:.6} {}", metric.name, metric.unit);
            }
        }
    }
    if let Some(path) = &args.record {
        append_record(path, workload, args.seed, args.trace, &result)?;
    }
    println!("{}", result.render_compact());
    Ok(result.get("correct").and_then(JsonValue::as_bool) == Some(true))
}

/// Runs `--workload <w>` in a fresh process, echoing its report; returns
/// its result line.
fn run_child_workload(
    workload: Workload,
    args: &Args,
    trace: bool,
) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|err| format!("locating self: {err}"))?;
    let mut child = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|err| format!("spawning the {} workload: {err}", workload.name()))?;
    let stdout = child.stdout.take().ok_or("workload stdout was not piped")?;
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|err| err.to_string())?;
        println!("{line}");
        last = line;
    }
    child.wait().map_err(|err| err.to_string())?;
    JsonValue::parse(&last)
        .map_err(|err| format!("{} printed no result: {err}", workload.name()))
}

/// Every workload, each in a fresh process, with a summary. With
/// `--trace 1` each workload also runs traced, and the summary gives the
/// tracing overhead of every end-to-end metric.
fn run_all(args: &Args) -> Result<bool, String> {
    config(args)?;
    let mut all_correct = true;
    let mut summary = Vec::new();
    for workload in Workload::ALL {
        let result = run_child_workload(workload, args, false)?;
        if let Some(path) = &args.record {
            append_record(path, workload, args.seed, false, &result)?;
        }
        all_correct &= result.get("correct").and_then(JsonValue::as_bool) == Some(true);
        let traced =
            if args.trace { Some(run_child_workload(workload, args, true)?) } else { None };
        summary.push((workload, result, traced));
    }
    println!("== summary (seed {}, {} s per workload)", args.seed, args.seconds);
    for (workload, result, traced) in &summary {
        let count = |key: &str| result.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        println!(
            "{:<6} correct {} ops {} ops_failed {}",
            workload.name(),
            result.get("correct").and_then(JsonValue::as_bool) == Some(true),
            count("attempted"),
            count("failed")
        );
        for metric in END_TO_END {
            let value = result
                .get("metrics")
                .and_then(|m| m.get(metric.name))
                .and_then(|m| m.get("value"))
                .and_then(JsonValue::as_f64)
                .unwrap_or(f64::NAN);
            let overhead = traced
                .as_ref()
                .and_then(|t| {
                    t.get("metrics")?
                        .get(&format!("traced.{}", metric.name))?
                        .get("value")?
                        .as_f64()
                })
                .map(|t| {
                    format!(
                        "  (traced {t:.6}, tracing changed it by {:+.2}%)",
                        (t - value) / value * 100.0
                    )
                })
                .unwrap_or_default();
            println!(
                "{:<6}   {:<17} {value:>16.6} {}{overhead}",
                workload.name(),
                metric.name,
                metric.unit
            );
        }
    }
    Ok(all_correct)
}
