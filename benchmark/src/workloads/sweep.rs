//! `sweep`: a two-axis design-space sweep of the mobile reference device
//! through the calibrated block engine, repeated warm.
//!
//! Nearly all time goes to `act_core::EvalPlan::eval_block` and the
//! `act_dse` chunk engine and pool: no sampling, JSON or I/O. The batch
//! (2^20 points) is at the top of the calibration clamp, so the parallel
//! decision is the same on every run.

use std::time::Instant;

use act_core::{memo, CompiledFootprint, EvalPlan, FreeAxis, ModelParams};
use act_dse::{BatchOutput, Parallelism, PointBatch};
use act_rng::Rng;

use super::{fast_rate, finish, rate_line, timed_rounds, EndToEnd, WARM_UP_SHARE};
use crate::metrics::{Outcome, Values};
use crate::stats::Fnv;
use crate::trace::Tracer;
use crate::{procfs, signal_ready, RunConfig, Workload};

/// Points per pass.
pub const POINTS: usize = 1 << 20;
/// The free axes, in column order.
pub const AXES: [FreeAxis; 2] = [FreeAxis::SocArea, FreeAxis::UseIntensity];
/// Interpreted-model spot checks per run.
const SPOT_CHECKS: usize = 2048;

/// The seeded columns: SoC area in [10, 1000) mm² and use-phase grid
/// intensity in [20, 900) g/kWh — inside Table 1's ranges, so no point
/// is rejected.
#[must_use]
pub fn columns(seed: u64, points: usize) -> Vec<Vec<f64>> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x5eed_5eed);
    let area = (0..points).map(|_| rng.gen_range(10.0..1000.0)).collect();
    let intensity = (0..points).map(|_| rng.gen_range(20.0..900.0)).collect();
    vec![area, intensity]
}

/// The compiled sweep, ready to run.
pub struct Sweep {
    /// The reference device the axes vary.
    pub params: ModelParams,
    /// The kernel over [`AXES`].
    pub kernel: CompiledFootprint,
    /// Its block plan.
    pub plan: EvalPlan,
    /// The seeded points.
    pub batch: PointBatch,
}

impl Sweep {
    /// Builds the sweep for `seed`: columns, compile, plan.
    ///
    /// # Errors
    ///
    /// A message when the kernel or the batch cannot be built.
    pub fn new(seed: u64, tracer: &Tracer) -> Result<Self, String> {
        let params = ModelParams::mobile_reference();
        let kernel = tracer
            .span("core.try_compile", 0, 0, |_| CompiledFootprint::try_compile(&params, &AXES))
            .map_err(|err| format!("compiling the sweep kernel: {err}"))?;
        let plan = tracer.span("core.plan", 0, 0, |_| kernel.plan());
        let batch = PointBatch::try_from_columns(columns(seed, POINTS))
            .map_err(|err| format!("building the sweep batch: {err}"))?;
        Ok(Self { params, kernel, plan, batch })
    }

    /// One pass under `parallelism`.
    pub fn pass(&self, parallelism: Parallelism, out: &mut BatchOutput) {
        act_dse::par_sweep_compiled_block_with(
            parallelism,
            &self.batch,
            |cols, range, slot| self.plan.eval_block(cols, range, slot),
            out,
        );
    }
}

/// `--child sweep-setup`: the set-up a fresh process pays before its
/// first timed pass — columns, compile, plan, calibration, one warm pass.
pub(crate) fn setup_child(seed: u64) -> Result<(), String> {
    let sweep = Sweep::new(seed, &Tracer::new(false))?;
    sweep.pass(Parallelism::Auto, &mut BatchOutput::new());
    signal_ready().map_err(|err| err.to_string())
}

pub(crate) fn run(config: &RunConfig) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let tracer = Tracer::new(config.trace);
    let sweep = Sweep::new(config.seed, &tracer)?;
    let mut out = BatchOutput::new();
    let warm_up = Instant::now();
    while warm_up.elapsed().as_secs_f64() < WARM_UP_SHARE * config.seconds {
        sweep.pass(Parallelism::Auto, &mut out);
    }
    let threads = Parallelism::Auto.resolve_for(POINTS).workers;

    let memo_before = memo_counts();
    let cpu_before = procfs::cpu_seconds(None);
    let (setup_s, pass_ms) = timed_rounds(config, "sweep-setup", |req| {
        tracer.span("dse.par_sweep_compiled_block", 0, req, |_| {
            sweep.pass(Parallelism::Auto, &mut out);
        });
    })?;
    let cpu_s = procfs::cpu_seconds(None).zip(cpu_before).map(|(after, before)| after - before);
    let memo_after = memo_counts();
    outcome.attempted = pass_ms.len() as u64;

    check(&sweep, &out, config.seed, &mut outcome);
    let mut digest = Fnv::default();
    out.values().iter().for_each(|v| digest.write_f64(*v));
    outcome.digest = digest.finish();

    let points_per_s = fast_rate(POINTS as f64, &pass_ms);
    outcome.line(rate_line(
        Workload::Sweep,
        "points_per_s",
        points_per_s,
        "points/s",
        &format!("{POINTS}-point pass on {threads} threads"),
        &pass_ms,
    ));
    let mut layers = Values::default();
    layers.set("core.memo_hits", (memo_after.0 - memo_before.0) as f64);
    layers.set("core.memo_misses", (memo_after.1 - memo_before.1) as f64);
    if let Some(cpu_s) = cpu_s {
        layers.set("proc.cpu_s", cpu_s);
    }
    let e2e = EndToEnd {
        setup_s,
        peak_rss_mb: procfs::peak_rss_mb(None).into_iter().collect(),
        throughput_per_s: points_per_s,
        throughput_unit: "points/s",
    };
    finish(Workload::Sweep, config, &tracer, &mut outcome, &e2e, &layers)?;
    Ok(outcome)
}

/// Hits and misses of both model caches so far.
pub(crate) fn memo_counts() -> (u64, u64) {
    let (cpa, storage) = (memo::cpa_stats(), memo::storage_stats());
    (cpa.hits + storage.hits, cpa.misses + storage.misses)
}

/// Outside the timed region: the Auto pass equals a serial pass bit for
/// bit, and seeded spot checks equal the interpreted model.
fn check(sweep: &Sweep, auto: &BatchOutput, seed: u64, outcome: &mut Outcome) {
    let mut serial = BatchOutput::new();
    sweep.pass(Parallelism::Serial, &mut serial);
    let same = serial.values().len() == auto.values().len()
        && serial.values().iter().zip(auto.values()).all(|(a, b)| a.to_bits() == b.to_bits());
    if !same {
        outcome.fail("sweep: the Auto pass differs from the serial pass");
    }
    if !auto.is_clean() {
        outcome.fail(format!("sweep: {} points rejected", auto.rejected_count()));
    }
    let mut rng = Rng::seed_from_u64(seed ^ 0xc4ec_c4ec);
    let (area, intensity) = (sweep.batch.column(0), sweep.batch.column(1));
    for _ in 0..SPOT_CHECKS {
        let i = rng.gen_range(0..POINTS);
        let mut point = sweep.params.clone();
        point.soc_area_mm2 = area[i];
        point.use_intensity_g_per_kwh = intensity[i];
        match point.try_footprint() {
            Ok(grams) if grams.as_grams().to_bits() == auto.values()[i].to_bits() => {}
            Ok(grams) => {
                outcome.fail(format!(
                    "sweep: point {i} is {} but the interpreted model gives {}",
                    auto.values()[i],
                    grams.as_grams()
                ));
                return;
            }
            Err(err) => {
                outcome.fail(format!("sweep: interpreted model rejected point {i}: {err}"));
                return;
            }
        }
    }
}
