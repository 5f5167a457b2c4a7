//! The metric catalogue and the result each workload run produces.
//!
//! `END_TO_END` and `PER_LAYER` are the single source of truth for metric
//! names, units and direction; a test checks `BENCHMARK.json` against
//! them. Every end-to-end metric is defined on every workload (each
//! workload has a set-up, a working set and a rate of work), so one run
//! reports all of them. Every per-layer metric is measured in every
//! traced run: layers a workload does not reach are timed by the traced
//! run's reconstructed phase (see `probes`).

use act_json::{JsonObject, JsonValue, ToJson};

/// Whether a larger value is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (rates, speed-ups, hits).
    Higher,
    /// Smaller is better (times, memory, failures).
    Lower,
}

impl Better {
    /// `"higher"` / `"lower"`, as written in `BENCHMARK.json`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Higher => "higher",
            Self::Lower => "lower",
        }
    }
}

/// One metric's identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every workload with tracing off.
///
/// | metric | sweep | fleet | serve | paper |
/// |---|---|---|---|---|
/// | `setup_s` (median) | spawn → warm pass | spawn → both documents warm | spawn `act serve` → one warm request per route | spawn → child ready |
/// | `peak_rss_mb` | working process | working process | median warm `act serve` | median cold child |
/// | `throughput_per_s` | points/s | samples/s | closed-loop capacity, req/s | cold `all` renders/s |
///
/// The rates of `sweep`, `fleet` and `paper` are taken at the fast-decile
/// operation time: on a shared host interference only ever adds time, so
/// the fastest tenth of operations is what repeats from run to run. The
/// median and tail of every operation are printed beside it.
pub const END_TO_END: [MetricDef; 3] = [
    def("setup_s", "s", Lower),
    def("peak_rss_mb", "MB", Lower),
    def("throughput_per_s", "1/s", Higher),
];

/// Per-layer metrics, reported by the traced run (`--trace 1`). Layers are
/// named after the crates; `gen`, `proc` and `traced` are the benchmark's
/// own load generator, process accounting and traced end-to-end values.
pub const PER_LAYER: [MetricDef; 49] = [
    def("json.parse_mb_s", "MB/s", Higher),
    def("json.render_mb_s", "MB/s", Higher),
    def("scenario.parse_us", "us", Lower),
    def("scenario.compile_us", "us", Lower),
    def("scenario.run_ms", "ms", Lower),
    def("scenario.rejected_frac", "fraction", Lower),
    def("core.compile_us", "us", Lower),
    def("core.plan_us", "us", Lower),
    def("core.eval_block_mpts_s", "Mpoints/s", Higher),
    def("core.memo_hits", "count", Higher),
    def("core.memo_misses", "count", Lower),
    def("dse.serial_mpts_s", "Mpoints/s", Higher),
    def("dse.engine_overhead_frac", "fraction", Lower),
    def("dse.parallel_speedup", "x", Higher),
    def("dse.threads", "count", Higher),
    def("dse.mc_msamples_s", "Msamples/s", Higher),
    def("dse.calibration_ms", "ms", Lower),
    def("dse.calibration_threshold_points", "points", Lower),
    def("rng.normal_ns", "ns", Lower),
    def("rng.uniform_ns", "ns", Lower),
    def("rng.triangular_ns", "ns", Lower),
    def("rng.reseed_ns", "ns", Lower),
    def("rng.uniform_u64_ns", "ns", Lower),
    def("rng.share_of_run", "fraction", Lower),
    def("server.connect_us", "us", Lower),
    def("server.small_ttfb_ms", "ms", Lower),
    def("server.overhead_ms", "ms", Lower),
    def("server.conns_per_req", "ratio", Lower),
    def("server.batch_ttfb_ms", "ms", Lower),
    def("server.transfer_ms", "ms", Lower),
    def("server.batch_threads", "count", Higher),
    def("server.shed", "count", Lower),
    def("server.timeouts", "count", Lower),
    def("server.bad_requests", "count", Lower),
    def("server.deadline_trailers", "count", Lower),
    def("server.cpu_s", "s", Lower),
    def("server.loaded_rss_mb", "MB", Lower),
    def("gen.late_p99_ms", "ms", Lower),
    def("experiments.fig15_ms", "ms", Lower),
    def("experiments.ablations_ms", "ms", Lower),
    def("experiments.rest_ms", "ms", Lower),
    def("experiments.serial_ms", "ms", Lower),
    def("experiments.parallel_speedup", "x", Higher),
    def("experiments.critical_path_frac", "fraction", Lower),
    def("proc.cpu_s", "s", Lower),
    def("traced.setup_s", "s", Lower),
    def("traced.peak_rss_mb", "MB", Lower),
    def("traced.throughput_per_s", "1/s", Higher),
    def("traced.span_count", "count", Higher),
];

/// Named values collected during a run, in insertion order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Sets `name` (replacing an earlier value).
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value of `name`, if set.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The names set so far.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.iter().map(|(name, _)| *name)
    }

    /// Copies every value of `other` in, overriding.
    pub fn extend(&mut self, other: &Values) {
        for (name, value) in &other.0 {
            self.set(name, *value);
        }
    }
}

/// What one workload run produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phases.
    pub attempted: u64,
    /// Operations that failed or whose output did not check.
    pub failed: u64,
    /// FNV-1a digest of the checked outputs.
    pub digest: u64,
    /// End-to-end values (untraced run) — or the traced run's values,
    /// which only feed `traced.*`.
    pub end_to_end: Values,
    /// Per-layer values (traced run only).
    pub layers: Values,
    /// Human-readable report lines: the workload's own named metrics with
    /// units and sample counts.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Adds a report line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Records one failed check with its reason.
    pub fn fail(&mut self, reason: impl Into<String>) {
        self.failed += 1;
        self.line(format!("FAILED: {}", reason.into()));
    }
}

/// The result object printed as the last line of a run:
/// `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
/// With `traced`, the metrics are every per-layer metric; otherwise every
/// end-to-end metric. A metric that is missing or non-finite, or an
/// end-to-end metric that is not positive, makes the result incorrect.
#[must_use]
pub fn result_json(outcome: &Outcome, traced: bool) -> JsonValue {
    let mut correct = outcome.failed == 0;
    let mut metrics = JsonObject::new();
    let (defs, values): (&[MetricDef], &Values) =
        if traced { (&PER_LAYER, &outcome.layers) } else { (&END_TO_END, &outcome.end_to_end) };
    for metric in defs {
        let value = match values.get(metric.name) {
            Some(value) if value.is_finite() && (traced || value > 0.0) => value,
            _ => {
                correct = false;
                0.0
            }
        };
        metrics.insert(
            metric.name,
            JsonValue::Object(
                JsonObject::new()
                    .with("value", value.to_json())
                    .with("unit", metric.unit.to_json()),
            ),
        );
    }
    JsonValue::Object(
        JsonObject::new()
            .with("correct", correct.to_json())
            .with("attempted", outcome.attempted.max(1).to_json())
            .with("failed", outcome.failed.to_json())
            .with("metrics", JsonValue::Object(metrics)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_benchmark_json_alphabet() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (i, metric) in all.iter().enumerate() {
            assert!(metric.name.len() <= 64 && metric.unit.len() <= 16, "{metric:?}");
            assert!(metric.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(metric
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
            assert!(
                metric
                    .unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric()
                        || matches!(c, '_' | '/' | '%' | '.' | '-'))
            );
            assert!(all[..i].iter().all(|earlier| earlier.name != metric.name), "{metric:?}");
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn result_line_carries_every_metric_of_its_kind() {
        let mut outcome = Outcome { attempted: 3, ..Outcome::default() };
        for metric in END_TO_END {
            outcome.end_to_end.set(metric.name, 1.5);
        }
        let doc = result_json(&outcome, false);
        assert_eq!(doc.get("correct").and_then(JsonValue::as_bool), Some(true));
        let metrics = doc.get("metrics").and_then(JsonValue::as_object).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics
                .get("throughput_per_s")
                .and_then(|m| m.get("unit"))
                .and_then(JsonValue::as_str),
            Some("1/s")
        );

        // A traced run lists every per-layer metric, and may read 0; a
        // missing metric of either kind is an incorrect result.
        for metric in PER_LAYER {
            outcome.layers.set(metric.name, 0.0);
        }
        let traced = result_json(&outcome, true);
        assert_eq!(traced.get("correct").and_then(JsonValue::as_bool), Some(true));
        let listed = traced.get("metrics").and_then(JsonValue::as_object).unwrap();
        assert_eq!(listed.len(), PER_LAYER.len());
        let empty = result_json(&Outcome::default(), true);
        assert_eq!(empty.get("correct").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(empty.get("attempted").and_then(JsonValue::as_u64), Some(1));
        outcome.end_to_end = Values::default();
        let broken = result_json(&outcome, false);
        assert_eq!(broken.get("correct").and_then(JsonValue::as_bool), Some(false));
    }
}
