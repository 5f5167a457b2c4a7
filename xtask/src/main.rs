//! `cargo xtask` — workspace maintenance commands.
//!
//! ```text
//! cargo xtask analyze             # run the ACT static-analysis rules
//! cargo xtask analyze --json F    # also write a machine-readable report
//! cargo xtask soak                # seeded chaos run against `act serve`
//! ```
//!
//! Exit codes: `0` clean, `1` violations (or stale allowlist entries),
//! `2` usage or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    "xtask — ACT workspace static analysis & service soak\n\n\
     usage: cargo xtask analyze [--root DIR] [--json FILE]\n\
            cargo xtask analyze --file F [--as PATH]   (one file, no allowlist)\n\
            cargo xtask soak [--root DIR] [--quick] [--seed N]\n\n\
     Rules (see crates/analyze/src/lib.rs for the catalogue):\n\
       ACT001  no `.base()` raw-f64 escape outside act-units/act-data\n\
       ACT002  no unwrap()/expect() in library code (CLI main + tests exempt)\n\
       ACT003  no unit-conversion f64 literals outside act-units/act-data\n\
       ACT004  no infallible `from_base` outside act-units/act-data\n\
       ACT005  no dbg!/todo!/unimplemented! anywhere\n\
       ACT006  obj! keys must be unique\n\
       ACT007  no kernel loop (eval/try_eval/eval_block/block-kernel param)\n\
               without an EvalBudget check in dse/server\n\
       ACT008  no Instant/SystemTime/sleep/env reads in library crates\n\
       ACT009  no Mutex/RwLock guard held across I/O or a callback (server)\n\
       ACT010  no raw f64 comparators without total_cmp in dse order statistics\n\
       ACT011  no indexing/slicing/unwrap in server route handlers\n\
       ACT012  no raw thread::spawn/scope outside the act-dse worker pool\n\
       ACT014  no unsafe/target_feature/feature detection outside pool and wide\n\
       ACT015  every fn a wide::Body::run reaches is #[inline(always)]\n\
       ACT016  every wide::Body type is named in a cross-instance #[test]\n\n\
     Allowlist: xtask/lint.allow, lines of\n\
       RULE|path-suffix|line-substring|justification\n\n\
     analyze tokenizes every workspace source once and applies all fifteen\n\
     rules to the token stream: ACT001-ACT005, ACT008, ACT012 and ACT014\n\
     match token runs, ACT006, ACT007 and ACT009-ACT011 read items, loops,\n\
     closures and lets off a bracket partner table, and ACT015-ACT016\n\
     read every file at once. --json FILE\n\
     additionally writes a machine-readable findings report (schema\n\
     act-analyze-findings/2).\n\n\
     soak builds the workspace in release mode, starts `act serve` with a\n\
     seeded fault plan (slow reads, malformed bodies, worker panics and\n\
     kills, delays) and drives a deterministic mix of good and hostile\n\
     traffic at it — including malformed scenario/fleet documents POSTed\n\
     to /v1/scenario and /v1/fleet, which must come back as clean 400s —\n\
     and several requests on reused (kept-alive) connections, ending with\n\
     a SIGTERM delivered mid-traffic while a kept connection sits idle. It\n\
     fails unless: every client operation completes within its timeout\n\
     (zero hangs), at least one forced panic is answered with a 500 and at\n\
     least one killed worker is respawned, at least one request reuses a\n\
     kept connection, shutdown closes the idle one, the drain leaves\n\
     in_flight=0 and queued=0 with accepted == finished (zero leaked\n\
     connections), and the server exits 0.\n\
       --quick       ~80 connections instead of ~320 (CI smoke)\n\
       --seed N      master seed for the traffic mix and fault plan\n\n\
     exit codes: 0 clean, 1 violations, 2 usage/I-O error or a soak\n\
     contract violation"
        .to_owned()
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    match command.as_str() {
        "-h" | "--help" => {
            println!("{}", usage());
            ExitCode::SUCCESS
        }
        "analyze" => {
            let mut root = PathBuf::from(".");
            let mut json_out: Option<PathBuf> = None;
            let mut file: Option<PathBuf> = None;
            let mut file_as: Option<String> = None;
            let mut rest = args;
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--root" => match rest.next() {
                        Some(dir) => root = PathBuf::from(dir),
                        None => {
                            eprintln!("--root needs a directory\n\n{}", usage());
                            return ExitCode::from(2);
                        }
                    },
                    "--json" => match rest.next() {
                        Some(file) => json_out = Some(PathBuf::from(file)),
                        None => {
                            eprintln!("--json needs a file path\n\n{}", usage());
                            return ExitCode::from(2);
                        }
                    },
                    "--file" => match rest.next() {
                        Some(path) => file = Some(PathBuf::from(path)),
                        None => {
                            eprintln!("--file needs a source path\n\n{}", usage());
                            return ExitCode::from(2);
                        }
                    },
                    "--as" => match rest.next() {
                        Some(path) => file_as = Some(path),
                        None => {
                            eprintln!("--as needs a repo-relative path\n\n{}", usage());
                            return ExitCode::from(2);
                        }
                    },
                    other => {
                        eprintln!("unknown argument `{other}`\n\n{}", usage());
                        return ExitCode::from(2);
                    }
                }
            }
            match file {
                Some(file) => run_analyze_file(&file, file_as.as_deref()),
                None => run_analyze(&root, json_out.as_deref()),
            }
        }
        "soak" => {
            let mut config = xtask::service::ServiceConfig::new(PathBuf::from("."));
            let mut rest = args;
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--root" => match rest.next() {
                        Some(dir) => config.root = PathBuf::from(dir),
                        None => {
                            eprintln!("--root needs a directory\n\n{}", usage());
                            return ExitCode::from(2);
                        }
                    },
                    "--quick" => config.quick = true,
                    "--seed" => match rest.next().and_then(|s| s.parse().ok()) {
                        Some(seed) => config.seed = seed,
                        None => {
                            eprintln!("--seed needs an unsigned integer\n\n{}", usage());
                            return ExitCode::from(2);
                        }
                    },
                    other => {
                        eprintln!("unknown argument `{other}`\n\n{}", usage());
                        return ExitCode::from(2);
                    }
                }
            }
            run_soak(&config)
        }
        other => {
            eprintln!("unknown command `{other}`\n\n{}", usage());
            ExitCode::from(2)
        }
    }
}

fn run_soak(config: &xtask::service::ServiceConfig) -> ExitCode {
    match xtask::service::run_soak(config) {
        Ok(report) => {
            eprintln!(
                "soak: {} connection(s) — {} ok, {} rejected, {} dropped, {} on reused \
                 connections; server caught {} panic(s), respawned {} worker(s), accepted == \
                 finished == {}; clean drain, exit 0",
                report.connections,
                report.ok_responses,
                report.error_responses,
                report.dropped,
                report.reused_responses,
                report.server_panics_caught,
                report.server_workers_respawned,
                report.server_finished
            );
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("soak: FAILED — {err}");
            ExitCode::from(2)
        }
    }
}

/// `analyze --file F [--as PATH]`: run the full rule catalogue over one
/// file, classifying it as `PATH` for the path-scoped rules. No allowlist
/// is applied — this mode exists for fixtures and ad-hoc rule debugging.
fn run_analyze_file(file: &std::path::Path, file_as: Option<&str>) -> ExitCode {
    let src = match std::fs::read_to_string(file) {
        Ok(src) => src,
        Err(err) => {
            eprintln!("error: cannot read {}: {err}", file.display());
            return ExitCode::from(2);
        }
    };
    let path =
        file_as.map(str::to_owned).unwrap_or_else(|| file.to_string_lossy().into_owned());
    let findings = xtask::analyze_source(&path, &src);
    for finding in &findings {
        println!("{finding}");
    }
    eprintln!("analyze: 1 file scanned (as `{path}`), {} violation(s)", findings.len());
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn run_analyze(root: &std::path::Path, json_out: Option<&std::path::Path>) -> ExitCode {
    let report = match xtask::analyze_workspace(root) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::from(2);
        }
    };
    for finding in &report.findings {
        println!("{finding}");
    }
    for entry in &report.stale {
        println!(
            "xtask/lint.allow: stale entry `{}|{}|{}` matches nothing — remove it",
            entry.rule, entry.path_suffix, entry.line_substring
        );
    }
    if let Some(path) = json_out {
        let body = xtask::render_json_report(&report);
        if let Err(err) = std::fs::write(path, body) {
            eprintln!("error: cannot write {}: {err}", path.display());
            return ExitCode::from(2);
        }
    }
    let clean = report.findings.is_empty() && report.stale.is_empty();
    eprintln!(
        "analyze: {} file(s) scanned, {} violation(s), {} suppressed, {} stale allow \
         entr(y/ies)",
        report.files_scanned,
        report.findings.len(),
        report.suppressed.len(),
        report.stale.len()
    );
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
