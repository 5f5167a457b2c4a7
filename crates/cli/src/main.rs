//! `act` — run ACT paper experiments from the shell.
//!
//! ```text
//! act list            # list experiment IDs
//! act fig12           # reproduce Figure 12
//! act table4 fig9     # several at once (evaluated in parallel)
//! act --json fig12    # typed result as JSON
//! act --json all      # every result as one JSON array
//! act all             # everything, in paper order
//! act all --serial    # same output, single-threaded
//! act scenario f.json # compile a JSON scenario: embodied + device footprint
//! act fleet f.json    # fleet Monte-Carlo over a scenario's fleet block
//! act serve           # NDJSON model service on 127.0.0.1 (act-server)
//! ```
//!
//! Requested experiments evaluate **in parallel** by default, while output
//! stays in request/paper order and is byte-identical to a serial run. All
//! requested IDs, `all` included, become one job list on the workers: one
//! job per simulated over-provisioning point (fig15's seven, which the
//! ablations share; most of the time), heaviest first, and one per other
//! experiment. `--serial` disables threading entirely; `ACT_THREADS=N`
//! caps the worker count.
//!
//! Experiments are fault-isolated: a failing or unknown experiment prints
//! a structured error to stderr and the remaining requested experiments
//! still run. Pass `--strict` to stop at the first failure instead.
//!
//! Exit codes: `0` on success, `1` if any experiment failed, `2` for usage
//! errors (unknown flags).

use std::process::ExitCode;

use act_dse::Parallelism;
use act_experiments::{
    par_try_render_experiments, try_render_experiment, ExperimentError, OutputFormat,
    EXPERIMENT_IDS,
};

/// Exit code for a run where at least one experiment failed.
const EXIT_EXPERIMENT_FAILED: u8 = 1;
/// Exit code for a malformed invocation (unknown flag).
const EXIT_USAGE: u8 = 2;

fn usage() -> String {
    format!(
        "act — ACT (ISCA 2022) experiment runner\n\n\
         usage: act [--json] [--strict] [--serial] <experiment>...\n\
                act list\n\
                act scenario <file.json>\n\
                act fleet <file.json>\n\
                act serve [--addr HOST:PORT] [--workers N] [--queue N]\n\
                          [--deadline-ms N] [--drain-ms N] [--faults SPEC]\n\
                          [--allow-remote-shutdown]  (see `act serve --help`)\n\n\
         options:\n\
           --json     emit typed results as JSON\n\
           --strict   stop at the first failing experiment\n\
           --serial   evaluate single-threaded (parallel is the default)\n\n\
         environment:\n\
           ACT_THREADS=N  cap the parallel evaluation workers at N\n\n\
         scenario compiles a JSON scenario file (chips, memory, storage,\n\
         optional fab/workload sections) and prints the embodied breakdown\n\
         plus — when a workload is present — the single-device footprint.\n\
         fleet runs the scenario's `fleet` block as a seeded Monte-Carlo\n\
         over N devices and prints per-device stats and the fleet total;\n\
         the result is bit-identical for any thread count.\n\n\
         exit codes: 0 success, 1 experiment failure, 2 usage error\n\n\
         experiments: {}",
        EXPERIMENT_IDS.join(", ")
    )
}

/// Prints one experiment error to stderr, as a JSON object in `--json` mode
/// so scripted consumers can parse failures alongside results.
fn report_error(err: &ExperimentError, json: bool) {
    if json {
        let (kind, id, message) = match err {
            ExperimentError::UnknownId(id) => ("unknown-id", id.as_str(), err.to_string()),
            ExperimentError::Failed { id, .. } => ("failed", id.as_str(), err.to_string()),
            // `ExperimentError` is non-exhaustive: report future variants
            // generically instead of failing to compile against them.
            other => ("error", "", other.to_string()),
        };
        let body = act_json::obj! {
            "error": act_json::obj! { "kind": kind, "id": id, "message": message },
        };
        eprintln!("{body}");
    } else {
        eprintln!("error: {err}");
    }
}

/// Reads and compiles a scenario file, folding every failure into one
/// stderr line plus the experiment-failed exit code.
fn load_scenario(path: &str) -> Result<act_scenario::CompiledScenario, ExitCode> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("scenario: cannot read `{path}`: {err}");
            return Err(ExitCode::from(EXIT_EXPERIMENT_FAILED));
        }
    };
    match act_scenario::Scenario::parse(&text).and_then(|s| s.compile()) {
        Ok(compiled) => Ok(compiled),
        Err(err) => {
            eprintln!("scenario: `{path}`: {err}");
            Err(ExitCode::from(EXIT_EXPERIMENT_FAILED))
        }
    }
}

/// `act scenario <file.json>`: compile the scenario and print one JSON
/// line — the same shape `POST /v1/scenario` serves, so shell pipelines
/// and the server are interchangeable.
fn run_scenario(path: Option<&str>) -> ExitCode {
    let Some(path) = path else {
        eprintln!("scenario needs a file path\n\n{}", usage());
        return ExitCode::from(EXIT_USAGE);
    };
    let compiled = match load_scenario(path) {
        Ok(compiled) => compiled,
        Err(code) => return code,
    };
    let mut obj = act_json::JsonObject::new()
        .with("name", act_json::JsonValue::String(compiled.name().to_owned()))
        .with("embodied_g", act_json::ToJson::to_json(&compiled.embodied_grams()))
        .with("embodied", act_json::ToJson::to_json(compiled.embodied()));
    if let Some(device) = compiled.device() {
        obj = obj.with("device", act_json::ToJson::to_json(device));
    }
    println!("{}", act_json::JsonValue::Object(obj).render_compact());
    ExitCode::SUCCESS
}

/// `act fleet <file.json>`: run the scenario's fleet block and print the
/// per-device statistics plus the fleet total as one JSON line. Honors
/// `--serial`; otherwise the calibrated engine picks the thread count
/// (the summary is bit-identical either way).
fn run_fleet(path: Option<&str>, serial_only: bool) -> ExitCode {
    let Some(path) = path else {
        eprintln!("fleet needs a file path\n\n{}", usage());
        return ExitCode::from(EXIT_USAGE);
    };
    let compiled = match load_scenario(path) {
        Ok(compiled) => compiled,
        Err(code) => return code,
    };
    let Some(fleet) = compiled.fleet() else {
        eprintln!("fleet: `{path}` has no `fleet` block");
        return ExitCode::from(EXIT_EXPERIMENT_FAILED);
    };
    let threads =
        if serial_only { 1 } else { Parallelism::Auto.resolve_for(fleet.samples()).workers };
    let mut buf = act_dse::McBuffer::new();
    match fleet.run(threads, &mut buf, &act_dse::EvalBudget::unlimited()) {
        Ok((outcome, _)) => {
            let body = act_json::obj! {
                "name": compiled.name(),
                "devices": fleet.devices(),
                "seed": fleet.seed(),
                "stats": outcome.stats,
                "rejected": outcome.rejected,
                "fleet_total_g": fleet.fleet_total_grams(&outcome),
                "threads": threads,
            };
            println!("{body}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("fleet: `{path}`: {err}");
            ExitCode::from(EXIT_EXPERIMENT_FAILED)
        }
    }
}

/// The `act serve --help` text.
fn serve_usage() -> &'static str {
    "act serve — NDJSON carbon-model service (act-server)\n\n\
     usage: act serve [options]\n\n\
     options:\n\
       --addr HOST:PORT         bind address (default 127.0.0.1:0 = ephemeral;\n\
                                the actual address is printed as the first\n\
                                NDJSON line on stdout)\n\
       --workers N              worker threads (default 4)\n\
       --queue N                admission-queue capacity; beyond it requests\n\
                                are shed with 503 + Retry-After (default 64)\n\
       --deadline-ms N          per-request wall-clock budget (default 10000)\n\
       --drain-ms N             graceful-shutdown drain budget (default 15000)\n\
       --max-body-bytes N       largest accepted request body (default 1 MiB)\n\
       --faults SPEC            deterministic fault injection, e.g.\n\
                                seed=42,p_slow=0.2,slow_read_ms=50,p_panic=0.05\n\
                                (also read from ACT_FAULTS when unset)\n\
       --allow-remote-shutdown  honor POST /admin/shutdown (harness use)\n\n\
     endpoints: GET /healthz /v1/stats /v1/params/reference /v1/experiments[/<id>]\n\
                POST /v1/footprint /v1/scenario /v1/fleet /v1/sweep\n\n\
     SIGINT/SIGTERM stop accepting, drain in-flight requests under the drain\n\
     budget, then print a final {\"shutdown\":true,\"stats\":{...}} line."
}

/// Installs SIGINT/SIGTERM handlers that flip the server's shutdown flag.
/// The handler only stores an atomic, which is async-signal-safe.
#[cfg(unix)]
mod signals {
    use std::sync::OnceLock;

    use act_server::ShutdownHandle;

    /// SIGINT (ctrl-c).
    const SIGINT: i32 = 2;
    /// SIGTERM (kill default).
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    static HANDLE: OnceLock<ShutdownHandle> = OnceLock::new();

    extern "C" fn on_signal(_signum: i32) {
        if let Some(handle) = HANDLE.get() {
            handle.request();
        }
    }

    /// Registers the handlers for `handle` (first caller wins).
    pub fn install(handle: ShutdownHandle) {
        let _ = HANDLE.set(handle);
        // SAFETY: `signal(2)` with a function pointer that only performs
        // async-signal-safe work (two atomic loads and a store).
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod signals {
    use act_server::ShutdownHandle;

    /// No-op off Unix: `/admin/shutdown` remains the stop mechanism.
    pub fn install(_handle: ShutdownHandle) {}
}

/// `act serve [options]`: run the hardened NDJSON model service until a
/// signal (or an authorized `/admin/shutdown`) stops it.
fn run_serve(args: &[String]) -> ExitCode {
    use std::io::Write;

    let mut config = act_server::ServerConfig::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut numeric = |what: &str| -> Result<u64, ExitCode> {
            match iter.next().and_then(|raw| raw.parse::<u64>().ok()) {
                Some(value) => Ok(value),
                None => {
                    eprintln!("serve: {what} needs an integer value\n\n{}", serve_usage());
                    Err(ExitCode::from(EXIT_USAGE))
                }
            }
        };
        match arg.as_str() {
            "-h" | "--help" => {
                println!("{}", serve_usage());
                return ExitCode::SUCCESS;
            }
            "--addr" => {
                let Some(addr) = iter.next().and_then(|raw| raw.parse().ok()) else {
                    eprintln!("serve: --addr needs HOST:PORT\n\n{}", serve_usage());
                    return ExitCode::from(EXIT_USAGE);
                };
                config.addr = addr;
            }
            "--workers" => match numeric("--workers") {
                Ok(n) => config.workers = (n as usize).max(1),
                Err(code) => return code,
            },
            "--queue" => match numeric("--queue") {
                Ok(n) => config.queue_capacity = (n as usize).max(1),
                Err(code) => return code,
            },
            "--deadline-ms" => match numeric("--deadline-ms") {
                Ok(n) => config.request_deadline = std::time::Duration::from_millis(n),
                Err(code) => return code,
            },
            "--drain-ms" => match numeric("--drain-ms") {
                Ok(n) => config.drain_deadline = std::time::Duration::from_millis(n),
                Err(code) => return code,
            },
            "--max-body-bytes" => match numeric("--max-body-bytes") {
                Ok(n) => config.max_body_bytes = n as usize,
                Err(code) => return code,
            },
            "--faults" => {
                let Some(spec) = iter.next() else {
                    eprintln!("serve: --faults needs a spec\n\n{}", serve_usage());
                    return ExitCode::from(EXIT_USAGE);
                };
                match act_server::faults::FaultPlan::parse(spec) {
                    Ok(plan) => config.faults = Some(plan),
                    Err(err) => {
                        eprintln!("serve: {err}\n\n{}", serve_usage());
                        return ExitCode::from(EXIT_USAGE);
                    }
                }
            }
            "--allow-remote-shutdown" => config.allow_remote_shutdown = true,
            other => {
                eprintln!("serve: unknown argument `{other}`\n\n{}", serve_usage());
                return ExitCode::from(EXIT_USAGE);
            }
        }
    }
    if config.faults.is_none() {
        if let Ok(spec) = std::env::var("ACT_FAULTS") {
            match act_server::faults::FaultPlan::parse(&spec) {
                Ok(plan) => config.faults = Some(plan),
                Err(err) => {
                    eprintln!("serve: ACT_FAULTS: {err}");
                    return ExitCode::from(EXIT_USAGE);
                }
            }
        }
    }

    let workers = config.workers.max(1);
    let server = match act_server::Server::bind(config) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("serve: bind failed: {err}");
            return ExitCode::from(EXIT_EXPERIMENT_FAILED);
        }
    };
    signals::install(server.shutdown_handle());

    // Readiness line: one NDJSON object the harness can parse for the
    // actual address. Flush explicitly — stdout is block-buffered when
    // piped, and the harness waits on this line.
    let ready = act_json::obj! {
        "listening": server.local_addr().to_string(),
        "workers": workers,
        "pid": u64::from(std::process::id()),
    };
    println!("{ready}");
    let _ = std::io::stdout().flush();

    match server.serve() {
        Ok(stats) => {
            let line = act_json::obj! { "shutdown": true, "stats": stats };
            println!("{line}");
            let _ = std::io::stdout().flush();
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("serve: accept loop failed: {err}");
            ExitCode::from(EXIT_EXPERIMENT_FAILED)
        }
    }
}

/// Tells the user — once per process — when an `ACT_THREADS` override is
/// set but unusable, so a typo'd value degrades loudly to the machine
/// default instead of silently running on an unexpected worker count.
fn warn_once_on_ignored_threads_override() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        if let Some(warning) = Parallelism::Auto.resolve().warning {
            eprintln!("warning: {warning}");
        }
    });
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `serve` owns its own flag grammar; dispatch before the experiment
    // flag loop so `--addr` & co. aren't rejected as unknown flags.
    if args.first().map(String::as_str) == Some("serve") {
        return run_serve(&args[1..]);
    }
    let mut json = false;
    let mut strict = false;
    let mut serial = false;
    let mut ids = Vec::new();
    for arg in args {
        match arg.as_str() {
            "-h" | "--help" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            "--json" => json = true,
            "--strict" => strict = true,
            "--serial" => serial = true,
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag `{flag}`\n\n{}", usage());
                return ExitCode::from(EXIT_USAGE);
            }
            _ => ids.push(arg),
        }
    }
    if !serial {
        warn_once_on_ignored_threads_override();
    }
    if ids.is_empty() {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    if ids.len() == 1 && ids[0] == "list" {
        for id in EXPERIMENT_IDS {
            println!("{id}");
        }
        eprintln!(
            "(requested experiments evaluate in parallel by default, as one \
             job list for all of them: one job per simulated over-provisioning \
             point of fig15, shared with ablations, heaviest first, beside one \
             job per other experiment; --serial disables threads, \
             ACT_THREADS=N caps workers)"
        );
        return ExitCode::SUCCESS;
    }
    if ids[0] == "scenario" {
        if ids.len() > 2 {
            eprintln!("scenario takes exactly one file path\n\n{}", usage());
            return ExitCode::from(EXIT_USAGE);
        }
        return run_scenario(ids.get(1).map(String::as_str));
    }
    if ids[0] == "fleet" {
        if ids.len() > 2 {
            eprintln!("fleet takes exactly one file path\n\n{}", usage());
            return ExitCode::from(EXIT_USAGE);
        }
        return run_fleet(ids.get(1).map(String::as_str), serial);
    }

    let format = if json { OutputFormat::Json } else { OutputFormat::Text };
    // Failures are reported through `report_error`, not the default panic
    // hook; silence the hook so caught panics don't also splat a backtrace
    // banner between experiment outputs.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut failures = 0u32;
    if serial {
        // The original streaming path: evaluate and print one experiment at
        // a time; `--strict` stops before evaluating anything further.
        for id in &ids {
            match try_render_experiment(id, format) {
                Ok(text) => print_rendered(&text, json),
                Err(err) => {
                    failures += 1;
                    report_error(&err, json);
                    if strict {
                        break;
                    }
                }
            }
        }
    } else {
        // Parallel path: every requested experiment's jobs share one pool
        // pass; results print in request order.
        for result in par_try_render_experiments(&ids, format, Parallelism::Auto) {
            match result {
                Ok(text) => print_rendered(&text, json),
                Err(err) => {
                    failures += 1;
                    report_error(&err, json);
                    if strict {
                        break;
                    }
                }
            }
        }
    }
    std::panic::set_hook(default_hook);

    if failures > 0 {
        ExitCode::from(EXIT_EXPERIMENT_FAILED)
    } else {
        ExitCode::SUCCESS
    }
}

/// Prints one successfully rendered experiment, newline-terminating JSON
/// bodies exactly as the serial runner always has.
fn print_rendered(text: &str, json: bool) {
    print!("{text}");
    if json {
        println!();
    }
}
