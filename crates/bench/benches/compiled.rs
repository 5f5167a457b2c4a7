//! Compiled-kernel benchmarks: the per-point footprint pipeline versus
//! [`CompiledFootprint`]'s block plan through the `act_dse` block engine,
//! over a 10k-point single-axis sweep and a 20k-sample Monte-Carlo, a
//! 200k-sample server-class fleet document on the calibrated thread
//! count and that document's Monte-Carlo tail on its own, plus bare [`EvalPlan::eval_block`](act_core::EvalPlan::eval_block)
//! calls on three plan shapes and the `sweep` shape through the serial
//! engine, and the fleet sampler's pass 1 (`act_rng::uniform_columns`)
//! in each `act_core::wide` instance. The
//! benches only time: that the block path is bit-identical to the
//! per-point one is a tier-1 test
//! (`tests/cross_crate.rs::compiled_block_sweep_matches_the_per_point_pipeline`).

use std::cell::RefCell;
use std::ops::Range;

use act_bench::{black_box, Harness};
use act_core::wide::{run_wide, Baseline, Body, Instance};
use act_core::{memo, CompiledFootprint, FreeAxis, ModelParams};
use act_dse::{
    logspace, mc_sample_seed, par_monte_carlo_compiled_block_with, sweep_compiled_block,
    BatchOutput, EvalBudget, McBuffer, Parallelism, PointBatch,
};
use act_rng::{uniform_columns, Rng};
use act_scenario::Scenario;

/// Point count for the headline single-axis sweep.
const SWEEP_POINTS: usize = 10_000;

/// Point count for each bare `eval_block` plan-shape case.
const SHAPE_POINTS: usize = 1 << 16;

/// A bench name, a two-axis plan and each axis's sampling range.
type PlanShape = (&'static str, [FreeAxis; 2], [Range<f64>; 2]);

/// One plan shape per instruction kind a lane-width change reaches: the
/// `sweep` workload's `AreaScaled` plus eq. 2 product, a `Cpa` with a
/// free yield, and the `T / LT` `Ratio`. Each axis is sampled uniformly
/// from a range inside Table 1.
const PLAN_SHAPES: [PlanShape; 3] = [
    (
        "eval_block_sweep_shape_64k",
        [FreeAxis::SocArea, FreeAxis::UseIntensity],
        [10.0..1000.0, 20.0..900.0],
    ),
    (
        "eval_block_cpa_shape_64k",
        [FreeAxis::FabYield, FreeAxis::SocArea],
        [0.5..1.0, 10.0..1000.0],
    ),
    (
        "eval_block_ratio_shape_64k",
        [FreeAxis::Lifetime, FreeAxis::Energy],
        [0.5..10.0, 100.0..100_000.0],
    ),
];

/// Samples per pass-1 case: one block of the Monte-Carlo engine.
const PASS1_SAMPLES: usize = 4096;

/// Raw uniforms per sample in the pass-1 cases: the fleet fixture's
/// triangular, normal and uniform draws take one, two and one.
const PASS1_UNIFORMS: usize = 4;

/// The fleet sampler's pass 1 on its own, as a `wide::Body`: seed one
/// generator per sample and write its uniforms column by column, with
/// the seeding loop the fleet body picks for instance `I`.
struct Pass1<'a> {
    seed: u64,
    columns: &'a mut [f64],
}

impl Body for Pass1<'_> {
    type Output = ();

    #[inline(always)]
    fn run<I: Instance>(self) {
        let Self { seed, columns } = self;
        let seed_of = |k: usize| mc_sample_seed(seed, k as u64);
        if I::LANE_MUL64 {
            uniform_columns::<true>(seed_of, columns, PASS1_SAMPLES);
        } else {
            uniform_columns::<false>(seed_of, columns, PASS1_SAMPLES);
        }
    }
}

/// The swept axis: SoC area in mm2 across a mobile-to-server range.
fn area_axis() -> Vec<f64> {
    logspace(10.0, 1000.0, SWEEP_POINTS)
}

/// Per-point reference evaluation: clone the params, substitute the axis
/// value, run the full pipeline.
fn naive_eval(params: &ModelParams, area_mm2: f64) -> f64 {
    let mut point = params.clone();
    point.soc_area_mm2 = area_mm2;
    point.footprint().as_grams()
}

fn main() {
    let mut h = Harness::from_env();
    let params = ModelParams::mobile_reference();
    let areas = area_axis();

    // The per-point path: full `ModelParams` pipeline per evaluation (fab
    // scenario, system spec, component vector rebuilt every point),
    // uncached.
    memo::set_enabled(false);
    h.bench("footprint_sweep_per_point_10k", || {
        let mut total = 0.0;
        for area in &areas {
            total += naive_eval(&params, *area);
        }
        black_box(total)
    });

    // The memoized per-point path (cache hot): measures how much of the
    // gap interning alone closes without compiling.
    memo::set_enabled(true);
    h.bench("footprint_sweep_memoized_10k", || {
        let mut total = 0.0;
        for area in &areas {
            total += naive_eval(&params, *area);
        }
        black_box(total)
    });

    // The compiled block path: partial evaluation once, lowered to a flat
    // plan, then `LANES`-point blocks (16 points) read straight from the
    // SoA columns with zero heap allocation per point.
    let plan = CompiledFootprint::compile(&params, &[FreeAxis::SocArea]).plan();
    let kernel = |cols: &[&[f64]], range: Range<usize>, out: &mut [f64]| {
        plan.eval_block(cols, range, out);
    };
    let batch = PointBatch::single_axis(areas.clone());
    let mut out = BatchOutput::new();
    h.bench("footprint_sweep_block_10k", || {
        sweep_compiled_block(&batch, kernel, &mut out);
        black_box(out.values().last().copied())
    });

    // Block Monte-Carlo: uncertain fab yield through a two-axis plan,
    // sampling straight into the buffer's reusable columns.
    let mc_plan =
        CompiledFootprint::compile(&params, &[FreeAxis::SocArea, FreeAxis::FabYield]).plan();
    let mut buf = McBuffer::new();
    h.bench("footprint_mc_block_20k", || {
        let result = par_monte_carlo_compiled_block_with(
            Parallelism::Serial,
            20_000,
            42,
            2,
            |rng, k, columns| {
                columns[0][k] = rng.gen_range(60.0..120.0);
                columns[1][k] = rng.gen_range(0.7..1.0);
            },
            |cols, range, out| mc_plan.eval_block(cols, range, out),
            &mut buf,
        );
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(err) => panic!("mobile reference stays finite: {err}"),
        };
        black_box(outcome.stats.mean)
    });

    // The server-class fleet document at 200k samples through
    // `FleetKernel::run` on the `Auto` thread count: on a multi-core host
    // several workers write the order keys and p05/p95 are selected side
    // by side.
    let doc = include_str!("../../cli/tests/fixtures/fleet_server.json")
        .replace("\"samples\": 20000", "\"samples\": 200000");
    let compiled = match Scenario::parse(&doc).map(|scenario| scenario.compile()) {
        Ok(Ok(compiled)) => compiled,
        Ok(Err(err)) => panic!("the fleet fixture compiles: {err}"),
        Err(err) => panic!("the fleet fixture parses: {err}"),
    };
    let Some(fleet) = compiled.fleet() else { panic!("the fleet fixture has a fleet block") };
    let threads = Parallelism::Auto.resolve_for(fleet.samples()).workers;
    h.bench("fleet_document_200k_auto", || {
        let outcome = match fleet.run(threads, &mut buf, &EvalBudget::unlimited()) {
            Ok((outcome, _)) => outcome,
            Err(err) => panic!("the fleet fixture has finite draws: {err}"),
        };
        black_box(outcome.stats.mean)
    });

    // The tail of that document on its own: the keys of one run, copied
    // back into a reused buffer outside the timing before each
    // iteration, then summarized on the same threads (the mean beside the
    // bracket gather, then the percentile selections).
    let mut keys = McBuffer::new();
    if let Err(err) = fleet.run(threads, &mut keys, &EvalBudget::unlimited()) {
        panic!("the fleet fixture has finite draws: {err}");
    }
    let tail = RefCell::new(McBuffer::new());
    h.bench_with_setup(
        "mc_summarize_200k",
        || {
            let mut buf = tail.borrow_mut();
            buf.clone_from(&keys);
            buf
        },
        |mut buf| match buf.summarize(Parallelism::threads(threads)) {
            Ok(outcome) => outcome.stats.p50,
            Err(err) => panic!("the fleet fixture has finite draws: {err}"),
        },
    );

    // Pass 1 of the fleet sampler over one 4096-sample block: once in
    // the instance `run_wide` picks on this host, once in the baseline
    // instance that hosts without AVX-512 run.
    let mut uniforms = vec![0.0; PASS1_UNIFORMS * PASS1_SAMPLES];
    h.bench("pass1_uniform_columns_4096x4_run_wide", || {
        run_wide(Pass1 { seed: 2022, columns: &mut uniforms });
        black_box(uniforms.last().copied())
    });
    h.bench("pass1_uniform_columns_4096x4_baseline", || {
        Pass1 { seed: 2022, columns: &mut uniforms }.run::<Baseline>();
        black_box(uniforms.last().copied())
    });

    // One `eval_block` call over 2^16 points per plan shape, with no
    // engine, pool or chunking around it, so the per-block cost of each
    // instruction kind shows on its own.
    let mut rng = Rng::seed_from_u64(2022);
    for (name, axes, ranges) in PLAN_SHAPES {
        let plan = CompiledFootprint::compile(&params, &axes).plan();
        let columns: Vec<Vec<f64>> = ranges
            .into_iter()
            .map(|range| (0..SHAPE_POINTS).map(|_| rng.gen_range(range.clone())).collect())
            .collect();
        let views: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
        let mut out = vec![0.0; SHAPE_POINTS];
        h.bench(name, || {
            plan.eval_block(&views, 0..SHAPE_POINTS, &mut out);
            black_box(out.last().copied())
        });
        // The `sweep` shape's points again through the serial block
        // engine: its gap to the bare call above is the engine's own cost
        // (chunking, the rejection scan, the output buffer).
        if name == PLAN_SHAPES[0].0 {
            let batch = PointBatch::from_columns(columns.clone());
            let mut out = BatchOutput::new();
            h.bench("sweep_engine_serial_2p16", || {
                sweep_compiled_block(&batch, |c, r, o| plan.eval_block(c, r, o), &mut out);
                black_box(out.values().last().copied())
            });
        }
    }

    h.finish();
}
