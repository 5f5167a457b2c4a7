//! `fleet`: scenario documents in, fleet totals out — `Scenario::parse`
//! → `compile` → `FleetKernel::run` (calibrated threads) →
//! `fleet_total_grams`.
//!
//! It runs the same block engine as `sweep`, but per-sample reseeding and
//! distribution draws (act-rng) dominate, so a sampler change shows here
//! and must not move `sweep`. Two seeded documents alternate: the
//! server-class `act fleet-bench` scenario and a phone-class one built
//! from the iPhone 11 fixture with a different distribution mix. One
//! operation is the pair, which keeps its latency distribution unimodal.

use std::time::Instant;

use act_dse::{EvalBudget, McBuffer, McOutcome, Parallelism};
use act_json::{JsonObject, JsonValue, ToJson};
use act_rng::Rng;
use act_scenario::Scenario;

use super::sweep::memo_counts;
use super::{fast_rate, finish, rate_line, timed_rounds, EndToEnd, WARM_UP_SHARE};
use crate::metrics::{Outcome, Values};
use crate::stats::{describe_ms, median, Fnv};
use crate::trace::Tracer;
use crate::{procfs, signal_ready, RunConfig, Workload};

/// Monte-Carlo samples per document.
pub const SAMPLES: usize = 200_000;

/// `{"dist": kind, key: value, ...}`.
fn dist(kind: &str, params: &[(&str, f64)]) -> JsonValue {
    let mut obj = JsonObject::new().with("dist", kind.to_json());
    for (key, value) in params {
        obj.insert(*key, value.to_json());
    }
    JsonValue::Object(obj)
}

/// Rounds to a short decimal so the documents read like hand-written ones.
fn round2(value: f64) -> f64 {
    (value * 100.0).round() / 100.0
}

/// The two seeded documents: server class, then phone class.
///
/// # Errors
///
/// A message when the iPhone 11 fixture does not parse.
pub fn documents(seed: u64, samples: usize) -> Result<[String; 2], String> {
    let mut rng = Rng::seed_from_u64(seed ^ 0xf1ee_7000);
    let mut jitter = |base: f64, spread: f64| round2(base + rng.gen_range(-spread..spread));

    let server = JsonObject::new()
        .with("name", "fleet (server class)".to_json())
        .with(
            "chips",
            JsonValue::parse(
                r#"[{"name": "Xeon CPUs", "node": "N14", "area_mm2": 1388.0, "count": 2},
                    {"name": "Chipset + NICs + BMC", "node": "N28", "area_mm2": 400.0, "count": 6}]"#,
            )
            .map_err(|err| err.to_string())?,
        )
        .with(
            "dram",
            JsonValue::parse(r#"[{"technology": "Ddr4_10nm", "capacity_gb": 576.0}]"#)
                .map_err(|err| err.to_string())?,
        )
        .with(
            "ssd",
            JsonValue::parse(r#"[{"technology": "V3NandTlc", "capacity_gb": 31744.0}]"#)
                .map_err(|err| err.to_string())?,
        )
        .with("packaged_ic_count", 40u64.to_json())
        .with(
            "workload",
            act_json::obj! {
                "power_w": jitter(350.0, 30.0), "utilization": 0.6,
                "lifetime_years": 4.0, "use_intensity_g_per_kwh": 380.0,
            },
        )
        .with(
            "fleet",
            act_json::obj! {
                "devices": 100_000u64, "samples": samples, "seed": rng_seed(seed, 1),
                "lifetime_years": dist("triangular", &[("low", 2.0), ("mode", jitter(4.0, 0.5)), ("high", 7.0)]),
                "use_intensity_g_per_kwh": dist("normal", &[("mean", jitter(380.0, 40.0)), ("std_dev", 60.0)]),
                "utilization": dist("uniform", &[("low", 0.3), ("high", jitter(0.9, 0.05))]),
            },
        );

    let mut phone = match JsonValue::parse(act_data::scenarios::IPHONE_11) {
        Ok(JsonValue::Object(obj)) => obj,
        _ => return Err("the iPhone 11 fixture is not a JSON object".to_owned()),
    };
    phone.insert("name", "fleet (phone class)".to_json());
    phone.insert(
        "workload",
        act_json::obj! {
            "power_w": jitter(1.5, 0.3), "utilization": 0.2,
            "lifetime_years": 3.0, "use_intensity_g_per_kwh": 380.0,
        },
    );
    phone.insert(
        "fleet",
        act_json::obj! {
            "devices": 100_000_000u64, "samples": samples, "seed": rng_seed(seed, 2),
            "lifetime_years": dist("uniform", &[("low", 1.5), ("high", jitter(5.0, 0.5))]),
            "use_intensity_g_per_kwh": dist("triangular", &[("low", 30.0), ("mode", jitter(380.0, 60.0)), ("high", 900.0)]),
            "utilization": dist("normal", &[("mean", jitter(0.2, 0.05)), ("std_dev", 0.08)]),
        },
    );
    Ok([JsonValue::Object(server).render_compact(), JsonValue::Object(phone).render_compact()])
}

/// A document seed that survives JSON integers exactly.
fn rng_seed(seed: u64, doc: u64) -> u64 {
    act_rng::split_seed(seed, doc) >> 12
}

/// One document's answer.
pub struct Answer {
    /// The Monte-Carlo summary.
    pub outcome: McOutcome,
    /// Fleet total, grams CO₂.
    pub total_g: f64,
}

/// Document in, answer out, with `threads` (0 = calibrated `Auto`).
///
/// # Errors
///
/// A message for a parse, compile or run failure.
pub fn run_document(
    text: &str,
    threads: usize,
    buf: &mut McBuffer,
    tracer: &Tracer,
    req: u64,
) -> Result<Answer, String> {
    tracer.span("fleet.document", 0, req, |parent| {
        let scenario = tracer
            .span("scenario.parse", parent, req, |_| Scenario::parse(text))
            .map_err(|err| format!("parse: {err}"))?;
        let compiled = tracer
            .span("scenario.compile", parent, req, |_| scenario.compile())
            .map_err(|err| format!("compile: {err}"))?;
        let fleet = compiled.fleet().ok_or("document has no fleet block")?;
        let threads = if threads == 0 {
            Parallelism::Auto.resolve_for(fleet.samples()).workers.min(fleet.samples().max(1))
        } else {
            threads
        };
        let (outcome, _) = tracer
            .span("scenario.run", parent, req, |_| {
                fleet.run(threads, buf, &EvalBudget::unlimited())
            })
            .map_err(|err| format!("run: {err}"))?;
        let total_g = fleet.fleet_total_grams(&outcome);
        Ok(Answer { outcome, total_g })
    })
}

/// Bit pattern of everything an answer reports.
fn answer_bits(answer: &Answer) -> [u64; 7] {
    let stats = &answer.outcome.stats;
    [
        stats.mean.to_bits(),
        stats.p05.to_bits(),
        stats.p50.to_bits(),
        stats.p95.to_bits(),
        stats.samples as u64,
        answer.outcome.rejected as u64,
        answer.total_g.to_bits(),
    ]
}

/// `--child fleet-setup`: a fresh process's set-up — both documents
/// generated, then each run once (parse, compile, calibration, pool).
pub(crate) fn setup_child(seed: u64) -> Result<(), String> {
    let docs = documents(seed, SAMPLES)?;
    let mut buf = McBuffer::new();
    for doc in &docs {
        run_document(doc, 0, &mut buf, &Tracer::new(false), 0)?;
    }
    signal_ready().map_err(|err| err.to_string())
}

pub(crate) fn run(config: &RunConfig) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let tracer = Tracer::new(config.trace);
    let docs = documents(config.seed, SAMPLES)?;
    let mut buf = McBuffer::new();
    let mut first = Vec::new();
    for doc in &docs {
        first.push(answer_bits(&run_document(doc, 0, &mut buf, &Tracer::new(false), 0)?));
    }
    let warm_up = Instant::now();
    while warm_up.elapsed().as_secs_f64() < WARM_UP_SHARE * config.seconds {
        for doc in &docs {
            run_document(doc, 0, &mut buf, &Tracer::new(false), 0)?;
        }
    }

    let memo_before = memo_counts();
    let cpu_before = procfs::cpu_seconds(None);
    let mut doc_ms = [Vec::new(), Vec::new()];
    let mut rejected = 0usize;
    let (setup_s, pair_ms) = timed_rounds(config, "fleet-setup", |_| {
        for (i, doc) in docs.iter().enumerate() {
            let req = outcome.attempted;
            outcome.attempted += 1;
            let t0 = Instant::now();
            match run_document(doc, 0, &mut buf, &tracer, req) {
                Ok(answer) => {
                    doc_ms[i].push(t0.elapsed().as_secs_f64() * 1e3);
                    rejected += answer.outcome.rejected;
                    if answer_bits(&answer) != first[i] {
                        outcome.fail(format!(
                            "fleet: document {i} answered differently on run {req}"
                        ));
                    }
                }
                Err(err) => outcome.fail(format!("fleet: document {i}: {err}")),
            }
        }
    })?;
    let cpu_s = procfs::cpu_seconds(None).zip(cpu_before).map(|(after, before)| after - before);
    let memo_after = memo_counts();

    // Outside the timed region: one thread and the calibrated thread count
    // give the same answer, bit for bit.
    let mut digest = Fnv::default();
    for (i, doc) in docs.iter().enumerate() {
        let serial = answer_bits(&run_document(doc, 1, &mut buf, &Tracer::new(false), 0)?);
        if serial != first[i] {
            outcome.fail(format!("fleet: document {i} differs between 1 thread and Auto"));
        }
        serial.iter().for_each(|bits| digest.write(&bits.to_le_bytes()));
    }
    outcome.digest = digest.finish();

    let samples_per_s = fast_rate(2.0 * SAMPLES as f64, &pair_ms);
    outcome.line(rate_line(
        Workload::Fleet,
        "samples_per_s",
        samples_per_s,
        "samples/s",
        &format!("document pair ({SAMPLES} samples each)"),
        &pair_ms,
    ));
    outcome.line(format!(
        "fleet document_ms server-class {}; phone-class {}",
        describe_ms(&doc_ms[0], 99.0),
        describe_ms(&doc_ms[1], 99.0)
    ));
    let mut layers = Values::default();
    let us = |name: &str| median(&tracer.durations_ms(name)) * 1e3;
    if config.trace {
        layers.set("scenario.parse_us", us("scenario.parse"));
        layers.set("scenario.compile_us", us("scenario.compile"));
        layers.set("scenario.run_ms", median(&tracer.durations_ms("scenario.run")));
    }
    let drawn = (SAMPLES as u64 * outcome.attempted) as f64;
    layers.set("scenario.rejected_frac", rejected as f64 / drawn);
    layers.set("core.memo_hits", (memo_after.0 - memo_before.0) as f64);
    layers.set("core.memo_misses", (memo_after.1 - memo_before.1) as f64);
    if let Some(cpu_s) = cpu_s {
        layers.set("proc.cpu_s", cpu_s);
    }
    let e2e = EndToEnd {
        setup_s,
        peak_rss_mb: procfs::peak_rss_mb(None).into_iter().collect(),
        throughput_per_s: samples_per_s,
        throughput_unit: "samples/s",
    };
    finish(Workload::Fleet, config, &tracer, &mut outcome, &e2e, &layers)?;
    Ok(outcome)
}
