//! The four workloads and what they share: the timed rounds with their
//! fresh-process set-up probes, the end-to-end summary, and the
//! traced-run epilogue.

pub mod fleet;
pub mod paper;
pub mod serve;
pub mod sweep;

use std::time::Instant;

use crate::metrics::{Outcome, Values};
use crate::stats::{describe_ms, median, percentile};
use crate::trace::{self_time_by_name, Tracer};
use crate::{probes, run_child, RunConfig, Workload};

/// Slices the timed phase of `sweep` and `fleet` is cut into. Set-up
/// probes run before every slice, so set-up and timed work sample the
/// same stretch of host conditions instead of its first second.
pub const ROUNDS: usize = 5;
/// Fresh-process set-ups measured before each slice; `setup_s` is the
/// median of all of them.
pub const SETUP_PROBES_PER_ROUND: usize = 3;
/// Share of the run's seconds spent warming up, untimed, before the
/// timed phase of `sweep` and `fleet`.
pub const WARM_UP_SHARE: f64 = 0.1;
/// Percentile of operation time the `sweep`, `fleet` and `paper` rates
/// are taken at. Interference from the shared host only ever adds time,
/// so the fastest tenth of operations is what repeats between runs; the
/// median and the tail are reported beside it.
pub const FAST_PERCENTILE: f64 = 10.0;

/// Seconds from spawn to `ready` of `count` fresh `--child <kind>` runs.
pub(crate) fn setup_samples(
    config: &RunConfig,
    kind: &str,
    count: usize,
) -> Result<Vec<f64>, String> {
    (0..count)
        .map(|_| run_child(&config.self_exe, kind, config.seed).map(|run| run.ready_s))
        .collect()
}

/// Runs `op` back to back for `config.seconds`, in [`ROUNDS`] slices each
/// preceded by [`SETUP_PROBES_PER_ROUND`] fresh `--child <kind>` set-ups.
/// `op` receives its index. Returns the set-up seconds and each
/// operation's milliseconds.
pub(crate) fn timed_rounds(
    config: &RunConfig,
    kind: &str,
    mut op: impl FnMut(u64),
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let slice_s = config.seconds / ROUNDS as f64;
    let (mut setup_s, mut op_ms) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        setup_s.extend(setup_samples(config, kind, SETUP_PROBES_PER_ROUND)?);
        let slice = Instant::now();
        while slice.elapsed().as_secs_f64() < slice_s {
            let start = Instant::now();
            op(op_ms.len() as u64);
            op_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    Ok((setup_s, op_ms))
}

/// `work` per operation at the fast-decile operation time, per second.
pub(crate) fn fast_rate(work: f64, op_ms: &[f64]) -> f64 {
    work / (percentile(op_ms, FAST_PERCENTILE) / 1e3)
}

/// The report line of a rate taken at the fast-decile operation time.
pub(crate) fn rate_line(
    workload: Workload,
    metric: &str,
    rate: f64,
    unit: &str,
    op_name: &str,
    op_ms: &[f64],
) -> String {
    format!(
        "{} {metric} {rate:.6e} {unit} (at the p{FAST_PERCENTILE} {op_name}, {:.4} ms; {})",
        workload.name(),
        percentile(op_ms, FAST_PERCENTILE),
        describe_ms(op_ms, 99.0)
    )
}

/// The raw material of the end-to-end metrics.
pub(crate) struct EndToEnd {
    /// Set-up times of fresh processes, seconds.
    pub setup_s: Vec<f64>,
    /// Peak resident set of each working process, MiB.
    pub peak_rss_mb: Vec<f64>,
    /// Work units per second.
    pub throughput_per_s: f64,
    /// What a work unit is, for the report line.
    pub throughput_unit: &'static str,
}

/// Fills the end-to-end values and their report lines; in a traced run
/// also the reconstructed and traced per-layer values (`layers` are the
/// workload's own values, which win over reconstructed ones), and writes
/// the span file.
pub(crate) fn finish(
    workload: Workload,
    config: &RunConfig,
    tracer: &Tracer,
    outcome: &mut Outcome,
    e2e: &EndToEnd,
    layers: &Values,
) -> Result<(), String> {
    let setup_s = median(&e2e.setup_s);
    let peak_rss_mb = median(&e2e.peak_rss_mb);
    let values = &mut outcome.end_to_end;
    values.set("setup_s", setup_s);
    values.set("peak_rss_mb", peak_rss_mb);
    values.set("throughput_per_s", e2e.throughput_per_s);
    let name = workload.name();
    outcome.line(format!(
        "{name} setup_s {setup_s:.6} s (median of {} fresh set-ups)",
        e2e.setup_s.len()
    ));
    outcome.line(format!(
        "{name} peak_rss_mb {peak_rss_mb:.3} MB (median of {} processes)",
        e2e.peak_rss_mb.len()
    ));
    outcome.line(format!(
        "{name} throughput_per_s {:.6e} 1/s ({})",
        e2e.throughput_per_s, e2e.throughput_unit
    ));
    if !config.trace {
        return Ok(());
    }

    let mut all = probes::reconstruct(config, outcome)?;
    all.extend(layers);
    all.set("traced.setup_s", setup_s);
    all.set("traced.peak_rss_mb", peak_rss_mb);
    all.set("traced.throughput_per_s", e2e.throughput_per_s);
    let spans = tracer.spans();
    all.set("traced.span_count", spans.len() as f64);
    outcome.layers = all;
    let path = config.trace_path(workload);
    tracer
        .write_json(name, &path)
        .map_err(|err| format!("writing {}: {err}", path.display()))?;
    outcome.line(format!("{name} trace: {} spans -> {}", spans.len(), path.display()));
    for (span, self_ns) in self_time_by_name(&spans).into_iter().take(6) {
        outcome.line(format!("{name} trace self time {span}: {:.3} ms", self_ns as f64 / 1e6));
    }
    Ok(())
}
