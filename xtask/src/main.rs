//! `cargo xtask` — workspace maintenance commands.
//!
//! ```text
//! cargo xtask analyze             # run the ACT static-analysis rules
//! cargo xtask analyze --json F    # also write a machine-readable report
//! cargo xtask lint                # alias for `analyze` (the PR 2 name)
//! cargo xtask bench               # wall-clock trajectory -> BENCH_results.json
//! cargo xtask bench --quick       # CI-sized run (1 repeat, small sweep)
//! cargo xtask soak                # seeded chaos run against `act serve`
//! cargo xtask loadtest            # p50/p99 latency record -> BENCH_results.json
//! ```
//!
//! Exit codes: `0` clean, `1` violations (or stale allowlist entries),
//! `2` usage or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    "xtask — ACT workspace static analysis & benchmarking\n\n\
     usage: cargo xtask analyze [--root DIR] [--json FILE]\n\
            cargo xtask analyze --file F [--as PATH]   (one file, no allowlist)\n\
            cargo xtask lint    [--root DIR] [--json FILE]   (alias)\n\
            cargo xtask bench [--root DIR] [--out FILE] [--quick] [--criterion]\n\
            cargo xtask soak [--root DIR] [--quick] [--seed N]\n\
            cargo xtask loadtest [--root DIR] [--out FILE] [--quick] [--label NAME]\n\n\
     Rules (see crates/analyze/src/lib.rs for the catalogue):\n\
       ACT001  no `.base()` raw-f64 escape outside act-units/act-data\n\
       ACT002  no unwrap()/expect() in library code (CLI main + tests exempt)\n\
       ACT003  no unit-conversion f64 literals outside act-units/act-data\n\
       ACT004  no infallible `from_base` outside act-units/act-data\n\
       ACT005  no dbg!/todo!/unimplemented! anywhere\n\
       ACT006  JSON impl/obj! field lists must match the struct (no drift)\n\
       ACT007  no budget-blind `CompiledFootprint::eval` loops in dse/server\n\
       ACT008  no Instant/SystemTime/sleep/env reads in library crates\n\
       ACT009  no Mutex/RwLock guard held across I/O or a callback (server)\n\
       ACT010  no raw f64 comparators without total_cmp in Pareto/stats code\n\
       ACT011  no indexing/slicing/unwrap in server route handlers\n\
       ACT012  no raw thread::spawn/scope outside the act-dse worker pool\n\n\
     Allowlist: xtask/lint.allow, lines of\n\
       RULE|path-suffix|line-substring|justification\n\n\
     analyze parses every workspace source with the in-tree Rust-subset\n\
     parser and applies all twelve rules; --json FILE additionally writes\n\
     a machine-readable findings report (schema act-analyze-findings/1).\n\n\
     bench builds the workspace in release mode, times every experiment\n\
     via the `act` binary (best of N repeats), measures the parallel vs\n\
     --serial `act all` speedup and the naive-vs-block-compiled sweep\n\
     throughput, and APPENDS one timestamped record to a JSON trajectory\n\
     (default BENCH_results.json, schema act-bench-trajectory/2; a legacy\n\
     v1 file is wrapped on first append). When both the trajectory and the\n\
     new record carry a `compiled_block` points/sec reading, the run fails\n\
     with exit 2 if throughput regressed more than 30% — the record is\n\
     still appended so the regression stays visible. A 100k-point gate\n\
     sweep then enforces that the calibrated compiled-parallel leg does\n\
     not lose to the serial block leg: exit 2 on failure (soft-warns with\n\
     1 hardware thread). Outside --quick a million-point compiled sweep is recorded\n\
     too, and every run captures a 100k-sample `act fleet-bench` record\n\
     (`fleet_serial`/`fleet_parallel` throughput of the scenario fleet\n\
     Monte-Carlo, invisible to the compiled-sweep guard). When the release build is unavailable (offline), a degraded\n\
     record with null timings and an `error` field is appended instead of\n\
     aborting; a later complete run tags those records `superseded` so\n\
     trend tooling skips their null timings.\n\
       --out FILE    trajectory path\n\
       --quick       1 repeat + smaller sweep, no million-point leg (CI\n\
                     smoke; the 100k gate still runs)\n\
       --criterion   also run `cargo bench --workspace -- --test`\n\
       --label NAME  tag the appended record (e.g. a PR or commit name)\n\n\
     soak builds the workspace in release mode, starts `act serve` with a\n\
     seeded fault plan (slow reads, malformed bodies, worker panics and\n\
     kills, delays) and drives a deterministic mix of good and hostile\n\
     traffic at it — including malformed scenario/fleet documents POSTed\n\
     to /v1/scenario and /v1/fleet, which must come back as clean 400s —\n\
     ending with a SIGTERM delivered mid-traffic. It fails\n\
     unless: every client operation completes within its timeout (zero\n\
     hangs), at least one forced panic is answered with a 500 and at least\n\
     one killed worker is respawned, the drain leaves in_flight=0 and\n\
     queued=0 with accepted == finished (zero leaked connections), and the\n\
     server exits 0.\n\
       --quick       ~80 connections instead of ~320 (CI smoke)\n\
       --seed N      master seed for the traffic mix and fault plan\n\n\
     loadtest starts a fault-free `act serve`, measures sequential\n\
     POST /v1/footprint latency (p50/p99) and request throughput after a\n\
     warmup, and APPENDS a labeled record to the same trajectory file as\n\
     bench. Loadtest records carry a `server` block instead of `compiled_block`\n\
     readings, so the bench throughput regression guard ignores them.\n\
       --quick       100 measured requests instead of 400\n\n\
     exit codes: 0 clean, 1 violations, 2 usage/I-O error, bench\n\
     throughput regression, or a soak/loadtest contract violation"
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
        "analyze" | "lint" => {
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
        "bench" => {
            let mut config = xtask::bench::BenchConfig::new(PathBuf::from("."));
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
                    "--out" => match rest.next() {
                        Some(file) => config.out = PathBuf::from(file),
                        None => {
                            eprintln!("--out needs a file path\n\n{}", usage());
                            return ExitCode::from(2);
                        }
                    },
                    "--quick" => config.quick(),
                    "--criterion" => config.criterion_smoke = true,
                    "--label" => match rest.next() {
                        Some(label) => config.label = Some(label),
                        None => {
                            eprintln!("--label needs a name\n\n{}", usage());
                            return ExitCode::from(2);
                        }
                    },
                    other => {
                        eprintln!("unknown argument `{other}`\n\n{}", usage());
                        return ExitCode::from(2);
                    }
                }
            }
            run_bench(&config)
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
        "loadtest" => {
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
                    "--out" => match rest.next() {
                        Some(file) => config.out = PathBuf::from(file),
                        None => {
                            eprintln!("--out needs a file path\n\n{}", usage());
                            return ExitCode::from(2);
                        }
                    },
                    "--quick" => config.quick = true,
                    "--label" => match rest.next() {
                        Some(label) => config.label = Some(label),
                        None => {
                            eprintln!("--label needs a name\n\n{}", usage());
                            return ExitCode::from(2);
                        }
                    },
                    other => {
                        eprintln!("unknown argument `{other}`\n\n{}", usage());
                        return ExitCode::from(2);
                    }
                }
            }
            run_loadtest(&config)
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
                "soak: {} connection(s) — {} ok, {} rejected, {} dropped; server caught \
                 {} panic(s), respawned {} worker(s), accepted == finished == {}; clean drain, \
                 exit 0",
                report.connections,
                report.ok_responses,
                report.error_responses,
                report.dropped,
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

fn run_loadtest(config: &xtask::service::ServiceConfig) -> ExitCode {
    match xtask::service::run_loadtest(config) {
        Ok(report) => {
            eprintln!(
                "loadtest: {} request(s) to /v1/footprint — p50 {:.2} ms, p99 {:.2} ms, \
                 {:.0} req/s; record appended -> {}",
                report.requests,
                report.p50_ms,
                report.p99_ms,
                report.req_per_sec,
                config.out.display()
            );
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("loadtest: FAILED — {err}");
            ExitCode::from(2)
        }
    }
}

fn run_bench(config: &xtask::bench::BenchConfig) -> ExitCode {
    let report = match xtask::bench::run_bench(config) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::from(2);
        }
    };
    let record = xtask::bench::render_record(&report);
    let mut existing = std::fs::read_to_string(&config.out).unwrap_or_default();
    if report.error.is_none() {
        // This complete run supersedes any degraded (build-unavailable)
        // records still in the trajectory: tag them so trend tooling skips
        // their null timings instead of charting them.
        existing = xtask::bench::tag_superseded_degraded(&existing);
    }
    let regression = xtask::bench::guard_regression(&existing, &record);
    let body = xtask::bench::append_record(&existing, &record);
    if let Err(err) = std::fs::write(&config.out, &body) {
        eprintln!("error: cannot write {}: {err}", config.out.display());
        return ExitCode::from(2);
    }
    if let Some(error) = &report.error {
        eprintln!(
            "bench: degraded run ({error}); null-timing record appended -> {} ({} record(s))",
            config.out.display(),
            xtask::bench::record_count(&body)
        );
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "bench: {} experiment(s), `act all` speedup {:.2}x, record appended -> {} ({} record(s))",
        report.figures.len(),
        report.all_speedup(),
        config.out.display(),
        xtask::bench::record_count(&body)
    );
    if let Some((baseline, current)) = regression {
        eprintln!(
            "bench: REGRESSION — compiled_block sweep throughput {current:.0} points/s is below \
             {:.0}% of the trajectory baseline {baseline:.0} points/s",
            xtask::bench::GUARD_RETAIN_FRACTION * 100.0
        );
        return ExitCode::from(2);
    }
    let failed = match xtask::bench::gate_parallel_win(&report.sweep_gate) {
        xtask::bench::GateOutcome::Pass { speedup, threads } => {
            eprintln!(
                "bench: 100k parallel gate PASSED — compiled parallel {speedup:.2}x serial \
                 on {threads} worker(s)"
            );
            false
        }
        xtask::bench::GateOutcome::SingleCore { machine } => {
            eprintln!(
                "bench: 100k parallel gate SKIPPED (warning) — {machine} hardware thread(s); \
                 parallel cannot win on this host, rerun on >= 2 cores to enforce it"
            );
            false
        }
        xtask::bench::GateOutcome::Fail { speedup, threads } => {
            eprintln!(
                "bench: 100k parallel gate FAILED — compiled parallel only {speedup:.2}x \
                 serial on {threads} worker(s) (needs >= {:.2}x); the calibrated engine \
                 must not lose to serial at this size",
                xtask::bench::GATE_MIN_SPEEDUP
            );
            true
        }
        xtask::bench::GateOutcome::Unreadable => {
            eprintln!(
                "bench: 100k parallel gate UNREADABLE (warning) — the gate sweep record \
                 carried no compiled_block/compiled_parallel timings"
            );
            false
        }
    };
    if failed {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
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
         entr(y/ies), {} parse recover(y/ies)",
        report.files_scanned,
        report.findings.len(),
        report.suppressed.len(),
        report.stale.len(),
        report.parse_recoveries
    );
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
