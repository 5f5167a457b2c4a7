//! `paper`: what a reproducer runs — `act_experiments::
//! par_try_render_experiment("all", Json, Auto)`, once per fresh process,
//! so memo caches, calibration and the pool all start cold.
//!
//! fig15's FTL simulation (act-ssd + act-rng) is the critical path; the
//! rest are many tiny compiles fanned out by `par_map_ordered` over the
//! figures — act-core and the pool used very differently from `sweep`.

use std::time::Instant;

use act_dse::Parallelism;
use act_experiments::{
    concrete_experiment_ids, par_try_render_experiment, try_render_experiment, OutputFormat,
};
use act_json::{JsonObject, JsonValue, ToJson};

use super::sweep::memo_counts;
use super::{fast_rate, finish, rate_line, EndToEnd};
use crate::metrics::{Outcome, Values};
use crate::stats::{describe_ms, fnv1a, median};
use crate::trace::Tracer;
use crate::{procfs, run_child, signal_ready, RunConfig, Workload};

/// `--child paper`: one cold render; prints its time, output digest and
/// length, peak memory, CPU time and memo counters as one JSON line.
pub(crate) fn render_child() -> Result<(), String> {
    signal_ready().map_err(|err| err.to_string())?;
    let memo_before = memo_counts();
    let start = Instant::now();
    let rendered = par_try_render_experiment("all", OutputFormat::Json, Parallelism::Auto)
        .map_err(|err| err.to_string())?;
    let all_ms = start.elapsed().as_secs_f64() * 1e3;
    let memo_after = memo_counts();
    let line = act_json::obj! {
        "all_ms": all_ms,
        "digest": format!("{:016x}", fnv1a(rendered.as_bytes())),
        "bytes": rendered.len(),
        "rss_mb": procfs::peak_rss_mb(None).unwrap_or(f64::NAN),
        "cpu_s": procfs::cpu_seconds(None).unwrap_or(f64::NAN),
        "memo_hits": memo_after.0 - memo_before.0,
        "memo_misses": memo_after.1 - memo_before.1,
    };
    println!("{line}");
    Ok(())
}

/// `--child figures`: each concrete experiment rendered serially, cold,
/// timed one by one; prints `{id: ms, ...}`.
pub(crate) fn figures_child() -> Result<(), String> {
    signal_ready().map_err(|err| err.to_string())?;
    let mut times = JsonObject::new();
    for id in concrete_experiment_ids() {
        let start = Instant::now();
        try_render_experiment(id, OutputFormat::Json).map_err(|err| err.to_string())?;
        times.insert(id, (start.elapsed().as_secs_f64() * 1e3).to_json());
    }
    println!("{}", JsonValue::Object(times).render_compact());
    Ok(())
}

/// One cold render as the parent saw it.
struct Cold {
    ready_s: f64,
    all_ms: f64,
    rss_mb: f64,
    cpu_s: f64,
    memo: (f64, f64),
}

fn field(doc: &JsonValue, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("child result lacks `{key}`"))
}

pub(crate) fn run(config: &RunConfig) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let tracer = Tracer::new(config.trace);
    let reference = try_render_experiment("all", OutputFormat::Json)
        .map_err(|err| format!("serial reference render: {err}"))?;
    outcome.digest = fnv1a(reference.as_bytes());
    let (want_digest, want_len) = (format!("{:016x}", outcome.digest), reference.len());

    let mut colds = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < config.seconds {
        let req = outcome.attempted;
        outcome.attempted += 1;
        let spawned = Instant::now();
        let cold = run_child(&config.self_exe, "paper", config.seed).and_then(|run| {
            let doc = run.result()?;
            let digest = doc.get("digest").and_then(JsonValue::as_str);
            let bytes = doc.get("bytes").and_then(JsonValue::as_u64);
            if digest != Some(want_digest.as_str()) || bytes != Some(want_len as u64) {
                return Err("the parallel render differs from the serial render".to_owned());
            }
            let cold = Cold {
                ready_s: run.ready_s,
                all_ms: field(&doc, "all_ms")?,
                rss_mb: field(&doc, "rss_mb")?,
                cpu_s: field(&doc, "cpu_s")?,
                memo: (field(&doc, "memo_hits")?, field(&doc, "memo_misses")?),
            };
            let parent =
                tracer.record("paper.child", 0, req, spawned, spawned + secs(run.total_s));
            let ready = spawned + secs(run.ready_s);
            tracer.record("paper.spawn_to_ready", parent, req, spawned, ready);
            tracer.record(
                "experiments.all",
                parent,
                req,
                ready,
                ready + secs(cold.all_ms / 1e3),
            );
            Ok(cold)
        });
        match cold {
            Ok(cold) => colds.push(cold),
            Err(err) => outcome.fail(format!("paper: cold render {req}: {err}")),
        }
    }
    let elapsed_s = start.elapsed().as_secs_f64();

    let all_ms: Vec<f64> = colds.iter().map(|c| c.all_ms).collect();
    let renders_per_s = fast_rate(1.0, &all_ms);
    outcome.line(format!(
        "paper all_ms {} per cold `all` render ({:.3} processes/s with process start)",
        describe_ms(&all_ms, 99.0),
        colds.len() as f64 / elapsed_s
    ));
    outcome.line(rate_line(
        Workload::Paper,
        "renders_per_s",
        renders_per_s,
        "renders/s",
        "cold `all` render",
        &all_ms,
    ));
    let mut layers = Values::default();
    let pick = |f: fn(&Cold) -> f64| median(&colds.iter().map(f).collect::<Vec<_>>());
    layers.set("core.memo_hits", pick(|c| c.memo.0));
    layers.set("core.memo_misses", pick(|c| c.memo.1));
    layers.set("proc.cpu_s", colds.iter().map(|c| c.cpu_s).sum());
    let e2e = EndToEnd {
        setup_s: colds.iter().map(|c| c.ready_s).collect(),
        peak_rss_mb: colds.iter().map(|c| c.rss_mb).collect(),
        throughput_per_s: renders_per_s,
        throughput_unit: "cold `all` renders/s",
    };
    finish(Workload::Paper, config, &tracer, &mut outcome, &e2e, &layers)?;
    Ok(outcome)
}

fn secs(s: f64) -> std::time::Duration {
    std::time::Duration::from_secs_f64(s.max(0.0))
}
