//! Reconstructed per-layer measurements: the traced run's separate phase
//! that times layers in isolation on the workloads' own inputs — act-rng
//! draws, `EvalPlan::eval_block` called directly, act-json parse and
//! render of the serve bodies, scenario parse/compile, footprint compile
//! and plan, the calibration of a fresh process, per-figure times of
//! fresh processes, and a fresh `act serve` under a second of `lo`
//! traffic.
//!
//! These do not depend on the workload being traced, so every traced run
//! reports every per-layer metric; a workload's own values replace them
//! where it has them.

use std::hint::black_box;
use std::time::Instant;

use act_core::{CompiledFootprint, ModelParams};
use act_dse::{
    mc_sample_seed, try_triangular, BatchOutput, EvalBudget, McBuffer, Parallelism, PointBatch,
};
use act_experiments::concrete_experiment_ids;
use act_json::{format_float, FromJson, JsonValue, ToJson};
use act_rng::{Rng, UniformU64};
use act_scenario::Scenario;

use crate::metrics::{Outcome, Values};
use crate::stats::median;
use crate::workloads::{fleet, serve, sweep};
use crate::{run_child, signal_ready, RunConfig};

/// Draws per act-rng probe.
const DRAWS: usize = 1 << 20;
/// Repetitions of each probe; the median is reported.
const REPS: usize = 5;
/// Fresh processes per child-process probe (calibration, figures, `all`).
const CHILD_PROBES: usize = 3;

/// Median over [`REPS`] runs of `f`, in nanoseconds per call of `f`.
fn time_ns(mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    median(&times)
}

/// Nanoseconds per draw of `draw`.
fn per_draw_ns(mut draw: impl FnMut(&mut Rng) -> f64) -> f64 {
    let mut rng = Rng::seed_from_u64(7);
    time_ns(|| {
        let mut acc = 0.0;
        for _ in 0..DRAWS {
            acc += draw(&mut rng);
        }
        black_box(acc);
    }) / DRAWS as f64
}

/// `--child calibrate`: times the first `act_dse::calibration()` of a
/// fresh process; prints `{"ms": .., "threshold_points": ..}`.
pub(crate) fn calibrate_child() -> Result<(), String> {
    signal_ready().map_err(|err| err.to_string())?;
    let start = Instant::now();
    let calibration = act_dse::calibration();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let line = act_json::obj! {
        "ms": ms,
        // An unbounded (single-core) threshold reports as 0.
        "threshold_points": if calibration.threshold_points == usize::MAX { 0 } else { calibration.threshold_points },
    };
    println!("{line}");
    Ok(())
}

/// Runs every reconstruction and returns its per-layer values; adds the
/// per-figure times to `outcome`'s report.
///
/// # Errors
///
/// A message when an input cannot be built or a child fails.
pub fn reconstruct(config: &RunConfig, outcome: &mut Outcome) -> Result<Values, String> {
    let mut values = Values::default();
    rng_probes(&mut values)?;
    engine_probes(config.seed, &mut values)?;
    json_probes(config.seed, &mut values)?;
    scenario_probes(config.seed, &mut values)?;
    footprint_probes(config.seed, &mut values)?;
    let calibrations = child_results(config, "calibrate", CHILD_PROBES)?;
    values.set("dse.calibration_ms", median_field(&calibrations, "ms"));
    values.set(
        "dse.calibration_threshold_points",
        median_field(&calibrations, "threshold_points"),
    );
    experiment_probes(config, &mut values, outcome)?;
    values.extend(&serve::server_probe(config)?);
    Ok(values)
}

/// The parsed result lines of `count` fresh `--child <kind>` runs.
fn child_results(
    config: &RunConfig,
    kind: &str,
    count: usize,
) -> Result<Vec<JsonValue>, String> {
    (0..count).map(|_| run_child(&config.self_exe, kind, config.seed)?.result()).collect()
}

/// Median of a numeric field over child results (NaN when absent).
fn median_field(results: &[JsonValue], key: &str) -> f64 {
    median(
        &results
            .iter()
            .filter_map(|r| r.get(key).and_then(JsonValue::as_f64))
            .collect::<Vec<_>>(),
    )
}

/// Per-figure times of fresh processes rendering serially (median per
/// figure), how a cold parallel `all` compares with their sum and with its
/// longest figure, and the memo counters of that cold `all`.
fn experiment_probes(
    config: &RunConfig,
    values: &mut Values,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let figures = child_results(config, "figures", CHILD_PROBES)?;
    let colds = child_results(config, "paper", CHILD_PROBES)?;
    let all_ms = median_field(&colds, "all_ms");
    values.set("core.memo_hits", median_field(&colds, "memo_hits"));
    values.set("core.memo_misses", median_field(&colds, "memo_misses"));
    let ids = concrete_experiment_ids();
    let figure_ms: Vec<f64> = ids.iter().map(|id| median_field(&figures, id)).collect();
    let ms_of = |id: &str| ids.iter().position(|i| *i == id).map_or(f64::NAN, |k| figure_ms[k]);
    let serial_ms: f64 = figure_ms.iter().sum();
    let longest = figure_ms.iter().copied().fold(0.0, f64::max);
    let (fig15, ablations) = (ms_of("fig15"), ms_of("ablations"));
    values.set("experiments.fig15_ms", fig15);
    values.set("experiments.ablations_ms", ablations);
    values.set("experiments.rest_ms", serial_ms - fig15 - ablations);
    values.set("experiments.serial_ms", serial_ms);
    values.set("experiments.parallel_speedup", serial_ms / all_ms);
    values.set("experiments.critical_path_frac", longest / all_ms);
    outcome.line(format!(
        "reconstructed figures (cold, serial, median of {CHILD_PROBES}): {}",
        ids.iter()
            .zip(&figure_ms)
            .map(|(id, ms)| format!("{id} {ms:.2} ms"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    Ok(())
}

fn rng_probes(values: &mut Values) -> Result<(), String> {
    let normal = per_draw_ns(|rng| rng.normal_with(380.0, 60.0));
    let uniform = per_draw_ns(|rng| rng.gen_range(0.3..0.9));
    let triangular = per_draw_ns(|rng| try_triangular(rng, 2.0, 4.0, 7.0).unwrap_or(f64::NAN));
    let bounded = UniformU64::new(1_000_003);
    let uniform_u64 = per_draw_ns(|rng| bounded.sample(rng) as f64);
    let mut index = 0u64;
    let reseed = per_draw_ns(|_| {
        index += 1;
        Rng::seed_from_u64(mc_sample_seed(2022, index)).next_u64() as f64
    });
    values.set("rng.normal_ns", normal);
    values.set("rng.uniform_ns", uniform);
    values.set("rng.triangular_ns", triangular);
    values.set("rng.uniform_u64_ns", uniform_u64);
    values.set("rng.reseed_ns", reseed);

    // Share of a serial server-class fleet run that its draws account
    // for: one reseed plus a triangular, a normal and a uniform draw per
    // sample (the document's distribution mix).
    let docs = fleet::documents(2022, fleet::SAMPLES)?;
    let mut buf = McBuffer::new();
    let tracer = crate::trace::Tracer::new(false);
    let serial_ns = time_ns(|| {
        black_box(
            fleet::run_document(&docs[0], 1, &mut buf, &tracer, 0).map(|a| a.total_g).ok(),
        );
    });
    let draws_ns = (reseed + triangular + normal + uniform) * fleet::SAMPLES as f64;
    values.set("rng.share_of_run", draws_ns / serial_ns);
    Ok(())
}

fn engine_probes(seed: u64, values: &mut Values) -> Result<(), String> {
    let run = sweep::Sweep::new(seed, &crate::trace::Tracer::new(false))?;
    let n = sweep::POINTS;
    let columns = run.batch.column_slices();
    let mut slots = vec![0.0; n];
    let eval_ns = time_ns(|| run.plan.eval_block(&columns, 0..n, &mut slots));
    let mut out = BatchOutput::new();
    let serial_ns = time_ns(|| run.pass(Parallelism::Serial, &mut out));
    let auto_ns = time_ns(|| run.pass(Parallelism::Auto, &mut out));
    values.set("core.eval_block_mpts_s", n as f64 / eval_ns * 1e3);
    values.set("dse.serial_mpts_s", n as f64 / serial_ns * 1e3);
    values.set("dse.engine_overhead_frac", 1.0 - eval_ns / serial_ns);
    values.set("dse.parallel_speedup", serial_ns / auto_ns);
    values.set("dse.threads", Parallelism::Auto.resolve_for(n).workers as f64);

    // Monte-Carlo over the same axes with a uniform sampler.
    let samples = fleet::SAMPLES;
    let sampler = |rng: &mut Rng, k: usize, cols: &mut [Vec<f64>]| {
        cols[0][k] = rng.gen_range(10.0..1000.0);
        cols[1][k] = rng.gen_range(20.0..900.0);
    };
    let mut buf = McBuffer::new();
    let mc_ns = time_ns(|| {
        let outcome = act_dse::par_monte_carlo_compiled_block_with(
            Parallelism::Auto,
            samples,
            seed,
            2,
            sampler,
            |cols, range, slot| run.plan.eval_block(cols, range, slot),
            &mut buf,
        );
        black_box(outcome.ok());
    });
    values.set("dse.mc_msamples_s", samples as f64 / mc_ns * 1e3);
    Ok(())
}

fn json_probes(seed: u64, values: &mut Values) -> Result<(), String> {
    // The serve bodies: a footprint document, the six fixtures, a 16k
    // two-axis sweep and the fleet documents.
    let base = ModelParams::mobile_reference();
    let columns = sweep::columns(seed, 16_384);
    let axis = |name: &str, values: &[f64]| act_json::obj! { "axis": name, "values": values };
    let sweep_body = act_json::obj! {
        "params": &base,
        "axes": [axis("soc_area_mm2", &columns[0]), axis("use_intensity_g_per_kwh", &columns[1])],
    }
    .render_compact();
    let mut bodies = vec![base.to_json().render_compact(), sweep_body];
    bodies.extend(act_data::scenarios::ALL.iter().map(|text| (*text).to_owned()));
    bodies.extend(fleet::documents(seed, fleet::SAMPLES)?);
    let bytes: usize = bodies.iter().map(String::len).sum();
    let parse_ns = time_ns(|| {
        for body in &bodies {
            black_box(JsonValue::parse(body).ok());
        }
    });
    values.set("json.parse_mb_s", bytes as f64 / parse_ns * 1e3);

    // NDJSON lines of a 16k-point sweep response, as the server writes them.
    let kernel =
        CompiledFootprint::try_compile(&base, &sweep::AXES).map_err(|err| err.to_string())?;
    let batch = PointBatch::try_from_columns(columns).map_err(|err| err.to_string())?;
    let mut out = BatchOutput::new();
    let plan = kernel.plan();
    act_dse::sweep_compiled_block(&batch, |c, r, o| plan.eval_block(c, r, o), &mut out);
    let mut rendered = 0;
    let render_ns = time_ns(|| {
        let mut buf = String::with_capacity(64);
        rendered = 0;
        for (i, value) in out.values().iter().enumerate() {
            buf.clear();
            buf.push_str(&format!("{{\"i\":{i},\"gco2\":{}}}", format_float(*value)));
            buf.push('\n');
            rendered += buf.len();
            black_box(&buf);
        }
    });
    values.set("json.render_mb_s", rendered as f64 / render_ns * 1e3);
    Ok(())
}

fn scenario_probes(seed: u64, values: &mut Values) -> Result<(), String> {
    let docs = fleet::documents(seed, fleet::SAMPLES)?;
    let texts: Vec<&str> =
        docs.iter().map(String::as_str).chain(act_data::scenarios::ALL).collect();
    let parsed: Vec<Scenario> = texts
        .iter()
        .map(|text| Scenario::parse(text).map_err(|err| err.to_string()))
        .collect::<Result<_, _>>()?;
    let parse_ns = time_ns(|| {
        for text in &texts {
            black_box(Scenario::parse(text).ok());
        }
    });
    let compile_ns = time_ns(|| {
        for scenario in &parsed {
            black_box(scenario.compile().ok());
        }
    });
    values.set("scenario.parse_us", parse_ns / texts.len() as f64 / 1e3);
    values.set("scenario.compile_us", compile_ns / parsed.len() as f64 / 1e3);

    let compiled = parsed[0].compile().map_err(|err| err.to_string())?;
    let kernel = compiled.fleet().ok_or("the server-class document has no fleet block")?;
    let threads = Parallelism::Auto.resolve_for(kernel.samples()).workers.min(kernel.samples());
    let mut buf = McBuffer::new();
    let mut rejected = 0;
    let run_ns = time_ns(|| {
        if let Ok((outcome, _)) = kernel.run(threads, &mut buf, &EvalBudget::unlimited()) {
            rejected = outcome.rejected;
        }
    });
    values.set("scenario.run_ms", run_ns / 1e6);
    values.set("scenario.rejected_frac", rejected as f64 / kernel.samples() as f64);
    Ok(())
}

fn footprint_probes(seed: u64, values: &mut Values) -> Result<(), String> {
    let mut rng = Rng::seed_from_u64(seed);
    let docs: Vec<ModelParams> = (0..64)
        .map(|_| {
            let mut params = ModelParams::mobile_reference();
            params.soc_area_mm2 = rng.gen_range(20.0..400.0);
            params.use_intensity_g_per_kwh = rng.gen_range(50.0..800.0);
            ModelParams::from_json(&params.to_json()).map_err(|err| err.to_string())
        })
        .collect::<Result<_, _>>()?;
    let compile_ns = time_ns(|| {
        for params in &docs {
            black_box(CompiledFootprint::try_compile(params, &[]).ok());
        }
    });
    let kernel = CompiledFootprint::try_compile(&docs[0], &sweep::AXES)
        .map_err(|err| err.to_string())?;
    let plan_ns = time_ns(|| {
        for _ in 0..64 {
            black_box(kernel.plan());
        }
    });
    values.set("core.compile_us", compile_ns / docs.len() as f64 / 1e3);
    values.set("core.plan_us", plan_ns / 64.0 / 1e3);
    Ok(())
}
