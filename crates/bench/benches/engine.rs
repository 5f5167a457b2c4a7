//! Parallel-engine benchmarks: one sweep under `Serial` vs `Auto`,
//! Monte-Carlo on `Auto`, and the skyline `pareto_indices` against the
//! quadratic reference.

use act_bench::{black_box, Harness};
use act_dse::{monte_carlo, pareto_indices, pareto_indices_reference, sweep, Parallelism};
use act_rng::Rng;

/// Point count for the headline sweep comparison.
const SWEEP_POINTS: usize = 10_000;
/// Monte-Carlo sample count.
const MC_SAMPLES: usize = 20_000;
/// Point-cloud size where the quadratic reference is still affordable.
const PARETO_POINTS: usize = 5_000;
/// Larger cloud for the skyline-only scaling measurement.
const PARETO_POINTS_LARGE: usize = 50_000;

/// A deliberately arithmetic-heavy per-point model, shaped like one
/// embodied-carbon evaluation (hundreds of flops, no allocation).
fn heavy_model(x: &f64) -> f64 {
    let mut acc = *x;
    for _ in 0..256 {
        acc = (acc + 1.0).sqrt() + (acc + 2.0).ln();
    }
    acc
}

/// Deterministic 2-D point cloud from a splitmix-style generator so the
/// pareto benches measure the same input every run.
fn point_cloud(n: usize) -> Vec<Vec<f64>> {
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let mantissa = (state >> 11) as f64;
        mantissa / (1u64 << 53) as f64
    };
    (0..n).map(|_| vec![next(), next()]).collect()
}

fn main() {
    let mut h = Harness::from_env();

    let inputs = act_dse::logspace(1.0, 1_000.0, SWEEP_POINTS);
    h.bench("sweep_10k/serial", || {
        black_box(sweep(Parallelism::Serial, inputs.clone(), heavy_model))
    });
    h.bench("sweep_10k/parallel", || {
        black_box(sweep(Parallelism::Auto, inputs.clone(), heavy_model))
    });

    let model = |rng: &mut Rng| {
        let yield_fraction: f64 = rng.gen_range(0.5..1.0);
        let energy: f64 = rng.gen_range(10.0..100.0);
        energy / yield_fraction
    };
    h.bench("monte_carlo_20k/parallel", || {
        black_box(monte_carlo(Parallelism::Auto, MC_SAMPLES, 7, model))
    });

    let cloud = point_cloud(PARETO_POINTS);
    let large = point_cloud(PARETO_POINTS_LARGE);
    h.bench("pareto/reference_quadratic_5k", || black_box(pareto_indices_reference(&cloud)));
    h.bench("pareto/skyline_5k", || black_box(pareto_indices(&cloud)));
    h.bench("pareto/skyline_50k", || black_box(pareto_indices(&large)));

    h.finish();
}
