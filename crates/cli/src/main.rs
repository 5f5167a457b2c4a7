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
//! act bench-sweep     # synthetic 10k-point sweep throughput probe (JSON)
//! act scenario f.json # compile a JSON scenario: embodied + device footprint
//! act fleet f.json    # fleet Monte-Carlo over a scenario's fleet block
//! act fleet-bench     # fleet MC throughput probe (JSON, for xtask bench)
//! act serve           # NDJSON model service on 127.0.0.1 (act-server)
//! ```
//!
//! Requested experiments evaluate **in parallel** by default, while output
//! stays in request/paper order and is byte-identical to a serial run.
//! Inside `all` the experiments run one after another, and the FTL
//! simulations of fig15 and ablations — most of its time — spread over the
//! workers. `--serial` disables threading entirely; `ACT_THREADS=N` caps
//! the worker count.
//!
//! Model sub-terms are memoized by default (`act_core::memo`); `--naive`
//! disables the caches for A/B timing. Cached values are bit-identical to
//! the direct computation, so output never depends on the flag.
//!
//! Experiments are fault-isolated: a failing or unknown experiment prints
//! a structured error to stderr and the remaining requested experiments
//! still run. Pass `--strict` to stop at the first failure instead.
//!
//! Exit codes: `0` on success, `1` if any experiment failed, `2` for usage
//! errors (unknown flags).

use std::process::ExitCode;
use std::time::Instant;

use act_core::{CompiledFootprint, FreeAxis, ModelParams};
use act_dse::{par_map_ordered, BatchOutput, Parallelism, PointBatch};
use act_experiments::{
    par_try_render_experiment, try_render_experiment, ExperimentError, OutputFormat,
    EXPERIMENT_IDS,
};

/// Exit code for a run where at least one experiment failed.
const EXIT_EXPERIMENT_FAILED: u8 = 1;
/// Exit code for a malformed invocation (unknown flag).
const EXIT_USAGE: u8 = 2;

/// Default point count for `act bench-sweep`.
const BENCH_SWEEP_POINTS: usize = 10_000;
/// Point count for `act bench-sweep --million`.
const BENCH_SWEEP_MILLION_POINTS: usize = 1_000_000;

fn usage() -> String {
    format!(
        "act — ACT (ISCA 2022) experiment runner\n\n\
         usage: act [--json] [--strict] [--serial] [--naive] <experiment>...\n\
                act list\n\
                act bench-sweep [points] [--million]\n\
                act scenario <file.json>\n\
                act fleet <file.json>\n\
                act fleet-bench [samples]\n\
                act serve [--addr HOST:PORT] [--workers N] [--queue N]\n\
                          [--deadline-ms N] [--drain-ms N] [--faults SPEC]\n\
                          [--allow-remote-shutdown]  (see `act serve --help`)\n\n\
         options:\n\
           --json     emit typed results as JSON\n\
           --strict   stop at the first failing experiment\n\
           --serial   evaluate single-threaded (parallel is the default)\n\
           --naive    disable the memoized/compiled fast paths (A/B timing;\n\
                      output is bit-identical either way)\n\n\
         environment:\n\
           ACT_THREADS=N  cap the parallel evaluation workers at N\n\n\
         bench-sweep runs a synthetic parameter sweep serially and in\n\
         parallel, then times the ACT footprint model per-point (naive)\n\
         versus as a compiled block kernel — serial and through the calibrated\n\
         parallel engine — and prints throughput/speedup as JSON (the\n\
         `cargo xtask bench` trajectory harness consumes it). --million\n\
         runs the compiled kernel legs only, over 1,000,000 points.\n\n\
         scenario compiles a JSON scenario file (chips, memory, storage,\n\
         optional fab/workload sections) and prints the embodied breakdown\n\
         plus — when a workload is present — the single-device footprint.\n\
         fleet runs the scenario's `fleet` block as a seeded Monte-Carlo\n\
         over N devices and prints per-device stats and the fleet total;\n\
         the result is bit-identical for any thread count. fleet-bench\n\
         times a built-in fleet serially and in parallel (JSON record for\n\
         the xtask trajectory harness).\n\n\
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

/// The synthetic per-point model for `bench-sweep`: a few hundred
/// transcendental ops, the cost shape of one embodied-carbon evaluation.
fn bench_sweep_model(x: &f64) -> f64 {
    let mut acc = *x;
    for _ in 0..256 {
        acc = (acc + 1.0).sqrt() + (acc + 2.0).ln();
    }
    acc
}

/// `act bench-sweep [points] [--million]`: times the same sweep serially
/// and in parallel, then times the real footprint model per-point (naive)
/// versus as a compiled block kernel — serial and through the calibrated
/// parallel engine — verifies every pair of paths is bitwise identical,
/// and prints a JSON throughput record.
///
/// `--million` is the scale mode: 1,000,000 points through the compiled
/// kernel legs only. The synthetic closure sweep and the naive per-point
/// model are skipped there — both cost seconds per million points and
/// measure nothing the 10k run doesn't already cover, while the compiled
/// serial-vs-parallel A/B is exactly what changes at scale.
fn run_bench_sweep(points_arg: Option<&str>, serial_only: bool, million: bool) -> ExitCode {
    let points = match points_arg {
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) if n >= 2 => n,
            _ => {
                eprintln!("bench-sweep needs a point count >= 2, got `{raw}`\n\n{}", usage());
                return ExitCode::from(EXIT_USAGE);
            }
        },
        None if million => BENCH_SWEEP_MILLION_POINTS,
        None => BENCH_SWEEP_POINTS,
    };

    let parallelism = if serial_only { Parallelism::Serial } else { Parallelism::Auto };
    // Length-aware resolution: surfaces the calibrated break-even decision
    // (parallel above threshold / serial fallback) alongside the worker
    // count, its source, and what the machine could have offered — so a
    // ≈1× "speedup" on a 1-CPU host reads as correct behavior instead of
    // a silent misconfiguration.
    let resolved = parallelism.resolve_for(points);
    let cal = act_dse::calibration();

    let mut synthetic = None;
    if !million {
        let inputs = act_dse::logspace(1.0, 1000.0, points);

        let serial_start = Instant::now();
        let serial_results = act_dse::sweep(inputs.clone(), bench_sweep_model);
        let serial_ms = serial_start.elapsed().as_secs_f64() * 1e3;

        let parallel_start = Instant::now();
        let parallel_results = act_dse::par_sweep_with(parallelism, inputs, bench_sweep_model);
        let parallel_ms = parallel_start.elapsed().as_secs_f64() * 1e3;

        let serial_sum: f64 = serial_results.iter().map(|(_, r)| r).sum();
        let parallel_sum: f64 = parallel_results.iter().map(|(_, r)| r).sum();
        if serial_sum.to_bits() != parallel_sum.to_bits() {
            eprintln!("bench-sweep: parallel results diverged from serial (engine bug)");
            return ExitCode::from(EXIT_EXPERIMENT_FAILED);
        }
        synthetic = Some((serial_ms, parallel_ms, parallel_sum));
    }

    // The model A/B: the mobile reference footprint swept over the SoC-area
    // axis, once through the full per-point pipeline (fab scenario + system
    // spec rebuilt for every point) and once through the compiled kernel's
    // block plan. The serial legs run single-threaded so the ratio isolates
    // per-point cost; the compiled-parallel leg goes through the calibrated
    // engine.
    let params = ModelParams::mobile_reference();
    let areas = act_dse::logspace(10.0, 1000.0, points);

    let naive = if million {
        None
    } else {
        let naive_start = Instant::now();
        let naive_results = act_dse::sweep(areas.clone(), |area| {
            let mut point = params.clone();
            point.soc_area_mm2 = *area;
            point.footprint().as_grams()
        });
        let naive_ms = naive_start.elapsed().as_secs_f64() * 1e3;
        Some((naive_ms, naive_results))
    };

    let kernel = match CompiledFootprint::try_compile(&params, &[FreeAxis::SocArea]) {
        Ok(kernel) => kernel,
        Err(err) => {
            eprintln!("bench-sweep: compiling the footprint kernel failed: {err}");
            return ExitCode::from(EXIT_EXPERIMENT_FAILED);
        }
    };
    // The block plan reads the SoA columns directly in LANES-wide blocks.
    let plan = kernel.plan();
    let batch = PointBatch::single_axis(areas);
    let mut block_out = BatchOutput::new();
    let block_start = Instant::now();
    act_dse::sweep_compiled_block(
        &batch,
        |cols, range, out| plan.eval_block(cols, range, out),
        &mut block_out,
    );
    let block_ms = block_start.elapsed().as_secs_f64() * 1e3;

    // The compiled path must agree with the naive path to the last bit,
    // point for point — and the parallel batch path with the serial one.
    if let Some((_, naive_results)) = &naive {
        for ((_, naive), block) in naive_results.iter().zip(block_out.values()) {
            if naive.to_bits() != block.to_bits() {
                eprintln!(
                    "bench-sweep: compiled kernel diverged from per-point model (engine bug)"
                );
                return ExitCode::from(EXIT_EXPERIMENT_FAILED);
            }
        }
    }

    let mut par_out = BatchOutput::new();
    let par_compiled_start = Instant::now();
    act_dse::par_sweep_compiled_block_with(
        parallelism,
        &batch,
        |cols, range, out| plan.eval_block(cols, range, out),
        &mut par_out,
    );
    let par_compiled_ms = par_compiled_start.elapsed().as_secs_f64() * 1e3;
    if par_out.values() != block_out.values() {
        eprintln!("bench-sweep: parallel compiled sweep diverged from serial (engine bug)");
        return ExitCode::from(EXIT_EXPERIMENT_FAILED);
    }

    let model_checksum: f64 = block_out.values().iter().sum();
    let block_pps = points as f64 / (block_ms / 1e3).max(1e-12);
    let par_compiled_pps = points as f64 / (par_compiled_ms / 1e3).max(1e-12);

    // Both legs run the block plan, so the serial baseline for the
    // parallel speedup is the serial block leg — apples to apples.
    let compiled_parallel = act_json::obj! {
        "ms": par_compiled_ms,
        "points_per_sec": par_compiled_pps,
        "speedup_vs_serial": block_ms / par_compiled_ms.max(1e-9),
    };
    // Through `ToJson`, which encodes the `usize::MAX` single-core pin as
    // `null` instead of a garbage f64-rounded integer.
    let calibration = act_json::ToJson::to_json(&cal);

    let body = match (synthetic, naive) {
        (Some((serial_ms, parallel_ms, parallel_sum)), Some((naive_ms, _))) => {
            let speedup = serial_ms / parallel_ms.max(1e-9);
            let evals_per_sec = points as f64 / (parallel_ms / 1e3).max(1e-12);
            let naive_pps = points as f64 / (naive_ms / 1e3).max(1e-12);
            act_json::obj! {
                "points": points,
                "threads": resolved.workers,
                "threads_source": resolved.source.as_str(),
                "machine_threads": resolved.machine,
                "decision": resolved.decision.as_str(),
                "calibration": calibration,
                "serial_ms": serial_ms,
                "parallel_ms": parallel_ms,
                "speedup": speedup,
                "evals_per_sec": evals_per_sec,
                "checksum": parallel_sum,
                "naive": act_json::obj! {
                    "ms": naive_ms,
                    "points_per_sec": naive_pps,
                },
                "compiled_block": act_json::obj! {
                    "ms": block_ms,
                    "points_per_sec": block_pps,
                    "speedup_vs_naive": naive_ms / block_ms.max(1e-9),
                },
                "compiled_parallel": compiled_parallel,
                "model_checksum": model_checksum,
            }
        }
        _ => act_json::obj! {
            "points": points,
            "mode": "million",
            "threads": resolved.workers,
            "threads_source": resolved.source.as_str(),
            "machine_threads": resolved.machine,
            "decision": resolved.decision.as_str(),
            "calibration": calibration,
            "compiled_block": act_json::obj! {
                "ms": block_ms,
                "points_per_sec": block_pps,
            },
            "compiled_parallel": compiled_parallel,
            "model_checksum": model_checksum,
        },
    };
    println!("{body}");
    ExitCode::SUCCESS
}

/// Built-in server-class scenario for `act fleet-bench`: a Dell
/// R740-shaped system under a datacenter workload with uncertain
/// lifetime, grid, and utilization. The sample count is overridden by
/// the CLI argument.
const FLEET_BENCH_SCENARIO: &str = r#"{
  "name": "fleet-bench (server class)",
  "chips": [
    {"name": "Xeon CPUs", "node": "N14", "area_mm2": 1388.0, "count": 2},
    {"name": "Chipset + NICs + BMC", "node": "N28", "area_mm2": 400.0, "count": 6}
  ],
  "dram": [{"technology": "Ddr4_10nm", "capacity_gb": 576.0}],
  "ssd": [{"technology": "V3NandTlc", "capacity_gb": 31744.0}],
  "packaged_ic_count": 40,
  "workload": {
    "power_w": 350.0, "utilization": 0.6,
    "lifetime_years": 4.0, "use_intensity_g_per_kwh": 380.0
  },
  "fleet": {
    "devices": 100000, "samples": 200000, "seed": 2022,
    "lifetime_years": {"dist": "triangular", "low": 2.0, "mode": 4.0, "high": 7.0},
    "use_intensity_g_per_kwh": {"dist": "normal", "mean": 380.0, "std_dev": 60.0},
    "utilization": {"dist": "uniform", "low": 0.3, "high": 0.9}
  }
}"#;

/// Default `act fleet-bench` sample count.
const FLEET_BENCH_SAMPLES: usize = 200_000;

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
    let threads = if serial_only {
        1
    } else {
        Parallelism::Auto.resolve_for(fleet.samples()).workers.min(fleet.samples().max(1))
    };
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

/// `act fleet-bench [samples]`: times the built-in server-class fleet
/// serially and through the calibrated parallel engine, verifies the two
/// summaries agree to the bit, and prints a JSON throughput record for
/// the `cargo xtask bench` trajectory harness. The record deliberately
/// avoids the exact key `"compiled_block"` — the trajectory guard scrapes
/// the last such object out of the bench file, and that must remain the
/// sweep record's.
fn run_fleet_bench(samples_arg: Option<&str>, serial_only: bool) -> ExitCode {
    let samples = match samples_arg {
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) if n >= 2 => n,
            _ => {
                eprintln!("fleet-bench needs a sample count >= 2, got `{raw}`\n\n{}", usage());
                return ExitCode::from(EXIT_USAGE);
            }
        },
        None => FLEET_BENCH_SAMPLES,
    };
    let mut scenario = match act_scenario::Scenario::parse(FLEET_BENCH_SCENARIO) {
        Ok(scenario) => scenario,
        Err(err) => {
            eprintln!("fleet-bench: built-in scenario failed to parse: {err}");
            return ExitCode::from(EXIT_EXPERIMENT_FAILED);
        }
    };
    if let Some(fleet) = scenario.fleet.as_mut() {
        fleet.samples = samples;
    }
    let compiled = match scenario.compile() {
        Ok(compiled) => compiled,
        Err(err) => {
            eprintln!("fleet-bench: built-in scenario failed to compile: {err}");
            return ExitCode::from(EXIT_EXPERIMENT_FAILED);
        }
    };
    let Some(fleet) = compiled.fleet() else {
        eprintln!("fleet-bench: built-in scenario lost its fleet block (CLI bug)");
        return ExitCode::from(EXIT_EXPERIMENT_FAILED);
    };
    let budget = act_dse::EvalBudget::unlimited();
    let resolved = if serial_only {
        Parallelism::Serial.resolve_for(samples)
    } else {
        Parallelism::Auto.resolve_for(samples)
    };
    let threads = resolved.workers.min(samples.max(1));

    let mut serial_buf = act_dse::McBuffer::new();
    let serial_start = Instant::now();
    let serial = fleet.run(1, &mut serial_buf, &budget);
    let serial_ms = serial_start.elapsed().as_secs_f64() * 1e3;
    let (serial_outcome, _) = match serial {
        Ok(result) => result,
        Err(err) => {
            eprintln!("fleet-bench: serial run failed: {err}");
            return ExitCode::from(EXIT_EXPERIMENT_FAILED);
        }
    };

    let mut par_buf = act_dse::McBuffer::new();
    let par_start = Instant::now();
    let par = fleet.run(threads, &mut par_buf, &budget);
    let par_ms = par_start.elapsed().as_secs_f64() * 1e3;
    let (par_outcome, _) = match par {
        Ok(result) => result,
        Err(err) => {
            eprintln!("fleet-bench: parallel run failed: {err}");
            return ExitCode::from(EXIT_EXPERIMENT_FAILED);
        }
    };
    if serial_outcome.stats.mean.to_bits() != par_outcome.stats.mean.to_bits()
        || serial_outcome.rejected != par_outcome.rejected
    {
        eprintln!("fleet-bench: parallel summary diverged from serial (engine bug)");
        return ExitCode::from(EXIT_EXPERIMENT_FAILED);
    }

    let serial_sps = samples as f64 / (serial_ms / 1e3).max(1e-12);
    let par_sps = samples as f64 / (par_ms / 1e3).max(1e-12);
    let body = act_json::obj! {
        "samples": samples,
        "devices": fleet.devices(),
        "seed": fleet.seed(),
        "threads": threads,
        "threads_source": resolved.source.as_str(),
        "machine_threads": resolved.machine,
        "fleet_serial": act_json::obj! {
            "ms": serial_ms,
            "samples_per_sec": serial_sps,
        },
        "fleet_parallel": act_json::obj! {
            "ms": par_ms,
            "samples_per_sec": par_sps,
            "speedup_vs_serial": serial_ms / par_ms.max(1e-9),
        },
        "mean_g": serial_outcome.stats.mean,
        "rejected": serial_outcome.rejected,
        "fleet_total_g": fleet.fleet_total_grams(&serial_outcome),
    };
    println!("{body}");
    ExitCode::SUCCESS
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
     endpoints: GET /healthz /v1/stats /v1/experiments /v1/experiments/<id>\n\
                POST /v1/footprint /v1/scenario /v1/fleet /v1/sweep /v1/montecarlo\n\n\
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
        if let (_, Some(warning)) = Parallelism::Auto.resolve() {
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
    let mut million = false;
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
            "--million" => million = true,
            "--naive" => act_core::memo::set_enabled(false),
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
            "(requested experiments evaluate in parallel by default, and the \
             FTL runs of fig15 and ablations spread over the workers, also \
             inside `all`; --serial disables threads, ACT_THREADS=N caps workers)"
        );
        return ExitCode::SUCCESS;
    }
    if ids[0] == "bench-sweep" {
        if ids.len() > 2 {
            eprintln!("bench-sweep takes at most one point count\n\n{}", usage());
            return ExitCode::from(EXIT_USAGE);
        }
        return run_bench_sweep(ids.get(1).map(String::as_str), serial, million);
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
    if ids[0] == "fleet-bench" {
        if ids.len() > 2 {
            eprintln!("fleet-bench takes at most one sample count\n\n{}", usage());
            return ExitCode::from(EXIT_USAGE);
        }
        return run_fleet_bench(ids.get(1).map(String::as_str), serial);
    }
    if million {
        eprintln!("--million only applies to bench-sweep\n\n{}", usage());
        return ExitCode::from(EXIT_USAGE);
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
        // Parallel path: requested experiments evaluate concurrently, and a
        // lone fig15, ablations or `all` spreads its FTL runs over the
        // pool instead; results print in request order.
        let rendered = par_map_ordered(Parallelism::Auto, &ids, |_, id| {
            par_try_render_experiment(id, format, Parallelism::Auto)
        });
        for result in rendered {
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
