//! Equivalence and determinism properties of the block-vectorized batch
//! engine: the `_block` entry points must reproduce the interpreted
//! per-point oracle (`sweep_finite` / `try_monte_carlo` under
//! `Parallelism::Serial`) bit for bit — same values, same rejection
//! log, same Monte-Carlo summaries — for any batch length, thread count,
//! and budget, with cut-offs landing on identical completed prefixes.
//!
//! The kernels here are plain closures (act-dse is model-agnostic); the
//! `act_core::EvalPlan::eval_block` pairing is pinned by the property
//! suite in `act-core` itself.

use std::ops::Range;
use std::time::{Duration, Instant};

use act_dse::{
    par_monte_carlo_compiled_block_with, par_sweep_compiled_block_budgeted,
    par_sweep_compiled_block_with, sweep_compiled_block, sweep_finite, try_monte_carlo,
    BatchOutput, BatchRun, BatchShapeError, EvalBudget, McBuffer, Parallelism, PointBatch,
};
use act_rng::Rng;

/// Batch lengths straddling the worker, budget-block (1024 default check
/// interval) and chunk boundaries, including a ragged tail.
const SIZES: [usize; 7] = [0, 1, 63, 64, 65, 1024, 5000];

/// Worker counts covering serial, two-way and oversubscribed pools.
const WORKERS: [usize; 4] = [1, 2, 5, 8];

/// The reference model: two axes, a pole along `x == 0` so rejection
/// slots are exercised, evaluated with one exact per-point chain.
fn model(x: f64, y: f64) -> f64 {
    (y.mul_add(3.0, 1.0) / x).sqrt() + x * y
}

fn block_kernel(cols: &[&[f64]], range: Range<usize>, out: &mut [f64]) {
    let xs = &cols[0][range.clone()];
    let ys = &cols[1][range];
    for ((slot, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
        *slot = model(x, y);
    }
}

/// A seeded two-column batch with exact zeros injected on the pole axis.
fn batch(seed: u64, n: usize) -> PointBatch {
    let mut rng = Rng::seed_from_u64(seed);
    let mut xs: Vec<f64> = (0..n).map(|_| rng.gen_range(-4.0..4.0)).collect();
    for slot in xs.iter_mut().step_by(7) {
        *slot = 0.0;
    }
    let ys = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
    PointBatch::from_columns(vec![xs, ys])
}

/// Sweeps `batch` through the interpreted oracle, one point at a time,
/// and lays the outcome out like a [`BatchOutput`]: NaN in rejected slots.
fn oracle(batch: &PointBatch) -> (Vec<f64>, Vec<act_dse::RejectedPoint>) {
    let (xs, ys) = (batch.column(0), batch.column(1));
    let outcome = sweep_finite(Parallelism::Serial, 0..batch.len(), |&i| model(xs[i], ys[i]));
    let mut values = vec![f64::NAN; batch.len()];
    for (i, v) in outcome.results {
        values[i] = v;
    }
    (values, outcome.rejected)
}

fn assert_bitwise_eq(a: &[f64], b: &[f64], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{context}: bit divergence at point {i}");
    }
}

#[test]
fn block_sweep_equals_per_point_sweep_bitwise() {
    for (i, n) in SIZES.into_iter().enumerate() {
        let batch = batch(i as u64, n);
        let (values, rejected) = oracle(&batch);
        let mut block = BatchOutput::new();
        sweep_compiled_block(&batch, block_kernel, &mut block);
        assert_bitwise_eq(&values, block.values(), &format!("n={n}"));
        assert_eq!(rejected.as_slice(), block.rejected(), "n={n}: rejection logs differ");
    }
}

#[test]
fn par_block_sweep_is_thread_count_invariant() {
    for (i, n) in SIZES.into_iter().enumerate() {
        let batch = batch(100 + i as u64, n);
        let mut serial = BatchOutput::new();
        sweep_compiled_block(&batch, block_kernel, &mut serial);
        for workers in WORKERS {
            let mut parallel = BatchOutput::new();
            par_sweep_compiled_block_with(
                Parallelism::threads(workers),
                &batch,
                block_kernel,
                &mut parallel,
            );
            let context = format!("n={n}, workers={workers}");
            assert_bitwise_eq(serial.values(), parallel.values(), &context);
            assert_eq!(serial.rejected(), parallel.rejected(), "{context}: rejection logs");
        }
    }
}

#[test]
fn budgeted_block_cutoff_is_a_bit_identical_prefix_for_any_thread_count() {
    let n = 5000;
    let batch = batch(7, n);
    let mut reference = BatchOutput::new();
    sweep_compiled_block(&batch, block_kernel, &mut reference);
    // A deadline a few hundred microseconds out: the run may finish or be
    // cut anywhere, but whatever prefix completed must match the
    // unbudgeted bits and every untouched slot must hold NaN.
    for workers in WORKERS {
        let budget = EvalBudget::with_deadline(Instant::now() + Duration::from_micros(300));
        let mut out = BatchOutput::new();
        let run = par_sweep_compiled_block_budgeted(
            Parallelism::threads(workers),
            &batch,
            block_kernel,
            &mut out,
            &budget,
        );
        let completed = match run {
            BatchRun::Completed => n,
            BatchRun::DeadlineExceeded { completed } => completed,
        };
        assert!(completed <= n);
        let context = format!("workers={workers}, completed={completed}");
        assert_bitwise_eq(
            &reference.values()[..completed],
            &out.values()[..completed],
            &context,
        );
        for (i, v) in out.values()[completed..].iter().enumerate() {
            assert!(
                v.is_nan(),
                "{context}: slot {} past the prefix must be NaN",
                completed + i
            );
        }
        // Every logged rejection belongs to the completed prefix and
        // matches the reference log's order for that prefix.
        let expected: Vec<_> =
            reference.rejected().iter().filter(|r| r.index < completed).cloned().collect();
        assert_eq!(expected.as_slice(), out.rejected(), "{context}: rejection prefix");
    }
}

#[test]
fn expired_budget_reports_an_empty_block_prefix() {
    let batch = batch(11, 512);
    let budget = EvalBudget::with_deadline(Instant::now() - Duration::from_millis(1));
    let mut out = BatchOutput::new();
    let run = par_sweep_compiled_block_budgeted(
        Parallelism::Serial,
        &batch,
        block_kernel,
        &mut out,
        &budget,
    );
    assert_eq!(run, BatchRun::DeadlineExceeded { completed: 0 });
    assert!(out.values().iter().all(|v| v.is_nan()));
    assert!(out.rejected().is_empty());
}

#[test]
fn block_monte_carlo_matches_per_point_monte_carlo_bitwise() {
    let ranges = [(-4.0_f64, 4.0_f64), (-2.0, 2.0)];
    let per_point_model = |rng: &mut Rng| {
        let x = rng.gen_range(ranges[0].0..ranges[0].1);
        let y = rng.gen_range(ranges[1].0..ranges[1].1);
        model(x, y)
    };
    let block_sampler = |rng: &mut Rng, k: usize, columns: &mut [Vec<f64>]| {
        for (column, (low, high)) in columns.iter_mut().zip(&ranges) {
            column[k] = rng.gen_range(*low..*high);
        }
    };
    for seed in [0, 42, 0xAC70, u64::MAX] {
        for samples in [1, 63, 64, 65, 1024, 3000] {
            let context = format!("seed={seed}, samples={samples}");
            let per_point =
                try_monte_carlo(Parallelism::Serial, samples, seed, per_point_model);
            let mut serial_buf = McBuffer::default();
            let serial = par_monte_carlo_compiled_block_with(
                Parallelism::Serial,
                samples,
                seed,
                2,
                block_sampler,
                block_kernel,
                &mut serial_buf,
            );
            assert_eq!(per_point, serial, "{context}: summaries diverged");
            // The pooled block engine is invariant under thread count too,
            // down to the per-sample draws.
            for workers in [2, 5, 8] {
                let mut par_buf = McBuffer::default();
                let parallel = par_monte_carlo_compiled_block_with(
                    Parallelism::threads(workers),
                    samples,
                    seed,
                    2,
                    block_sampler,
                    block_kernel,
                    &mut par_buf,
                );
                let context = format!("{context}, workers={workers}");
                assert_eq!(serial, parallel, "{context}");
                assert_bitwise_eq(serial_buf.draws(), par_buf.draws(), &context);
            }
        }
    }
}

#[test]
fn try_from_columns_rejects_malformed_shapes() {
    assert_eq!(PointBatch::try_from_columns(Vec::new()), Err(BatchShapeError::Empty));
    let ragged = PointBatch::try_from_columns(vec![vec![1.0, 2.0], vec![3.0]]);
    assert_eq!(ragged, Err(BatchShapeError::Ragged { axis: 1, len: 1, expected: 2 }));
    let err = ragged.expect_err("ragged columns must be rejected");
    assert_eq!(err.to_string(), "axis column 1 has 1 points but column 0 has 2");
    assert_eq!(
        BatchShapeError::Empty.to_string(),
        "a point batch needs at least one axis column"
    );
    let ok = PointBatch::try_from_columns(vec![vec![1.0, 2.0], vec![3.0, 4.0]])
        .expect("well-formed columns");
    assert_eq!(ok.len(), 2);
    assert_eq!(ok.axis_count(), 2);
}
