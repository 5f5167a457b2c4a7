//! Equivalence and determinism properties of the block-vectorized batch
//! engine: the `_block` entry points must reproduce a plain serial
//! per-point loop bit for bit — same values, same rejection log, same
//! Monte-Carlo draws from `Rng::seed_from_u64(mc_sample_seed(seed, i))` —
//! for any batch length, thread count, and budget, with cut-offs landing
//! on identical completed prefixes. The oracles share no code with the
//! engine: not its worker pool, its chunking, nor its summary statistics.
//!
//! The kernels here are plain closures (act-dse is model-agnostic); the
//! `act_core::EvalPlan::eval_block` pairing is pinned by the property
//! suite in `act-core` itself.

use std::ops::Range;
use std::time::{Duration, Instant};

use act_dse::{
    mc_sample_seed, par_monte_carlo_compiled_block_with, par_sweep_compiled_block_budgeted,
    par_sweep_compiled_block_with, sweep_compiled_block, BatchOutput, BatchRun,
    BatchShapeError, EvalBudget, McBuffer, McError, Parallelism, PointBatch, RejectedPoint,
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

/// Evaluates `model` on every point of `batch` in a plain loop and lays
/// the outcome out like a [`BatchOutput`]: NaN in rejected slots, one
/// [`RejectedPoint`] per non-finite result, reason spelled out here.
fn oracle(batch: &PointBatch) -> (Vec<f64>, Vec<RejectedPoint>) {
    let (xs, ys) = (batch.column(0), batch.column(1));
    let mut values = Vec::with_capacity(batch.len());
    let mut rejected = Vec::new();
    for (index, (&x, &y)) in xs.iter().zip(ys).enumerate() {
        let v = model(x, y);
        if v.is_finite() {
            values.push(v);
        } else {
            values.push(f64::NAN);
            let reason = format!("model produced a non-finite result ({v})");
            rejected.push(RejectedPoint { index, reason });
        }
    }
    (values, rejected)
}

/// The two Monte-Carlo axes: `x` on the pole axis, then `y`.
const MC_RANGES: [(f64, f64); 2] = [(-4.0, 4.0), (-2.0, 2.0)];

/// Sample `i` of a run keyed by `seed` in a plain loop: its own
/// `Rng::seed_from_u64(mc_sample_seed(seed, i))`, one draw per axis in
/// axis order, then `model`. Non-finite draws read NaN, as in
/// [`McBuffer::draws`], which holds the same draws in no particular
/// order.
fn oracle_draws(seed: u64, samples: usize) -> Vec<f64> {
    (0..samples as u64)
        .map(|i| {
            let mut rng = Rng::seed_from_u64(mc_sample_seed(seed, i));
            let x = rng.gen_range(MC_RANGES[0].0..MC_RANGES[0].1);
            let y = rng.gen_range(MC_RANGES[1].0..MC_RANGES[1].1);
            let v = model(x, y);
            if v.is_finite() {
                v
            } else {
                f64::NAN
            }
        })
        .collect()
}

/// Neumaier-compensated sum of `values` in slice order: the mean's
/// reference, in sample order, bit for bit.
fn compensated_sum(values: &[f64]) -> f64 {
    let (mut sum, mut compensation) = (0.0_f64, 0.0_f64);
    for &v in values {
        let t = sum + v;
        compensation += if sum.abs() >= v.abs() { (sum - t) + v } else { (v - t) + sum };
        sum = t;
    }
    if sum.is_finite() {
        sum + compensation
    } else {
        sum
    }
}

/// Asserts that `got` holds exactly the draws `want` as a multiset, bit
/// for bit.
fn assert_same_draws(want: &[f64], got: impl Iterator<Item = f64>, context: &str) {
    let mut want: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
    let mut got: Vec<u64> = got.map(f64::to_bits).collect();
    want.sort_unstable();
    got.sort_unstable();
    assert_eq!(want, got, "{context}: the draws differ");
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
    let block_sampler = |rng: &mut Rng, k: usize, columns: &mut [Vec<f64>]| {
        for (column, (low, high)) in columns.iter_mut().zip(&MC_RANGES) {
            column[k] = rng.gen_range(*low..*high);
        }
    };
    for seed in [0, 42, 0xAC70, u64::MAX] {
        for samples in [1, 63, 64, 65, 1024, 3000] {
            let context = format!("seed={seed}, samples={samples}");
            let draws = oracle_draws(seed, samples);
            let mut finite: Vec<f64> = draws.iter().copied().filter(|v| !v.is_nan()).collect();
            let rejected = samples - finite.len();
            let mean = compensated_sum(&finite) / finite.len() as f64;
            // Percentiles by full sort and `round((n - 1) * q)`.
            finite.sort_by(f64::total_cmp);
            let at =
                |q: f64| finite[((finite.len() - 1) as f64 * q).round() as usize].to_bits();
            for workers in WORKERS {
                let mut buf = McBuffer::default();
                let result = par_monte_carlo_compiled_block_with(
                    Parallelism::threads(workers),
                    samples,
                    seed,
                    2,
                    block_sampler,
                    block_kernel,
                    &mut buf,
                );
                let context = format!("{context}, workers={workers}");
                assert_same_draws(&draws, buf.draws(), &context);
                if finite.is_empty() {
                    assert_eq!(result, Err(McError::AllRejected { rejected }), "{context}");
                    continue;
                }
                let outcome = result.expect("some draws are finite");
                assert_eq!(outcome.rejected, rejected, "{context}");
                let stats = outcome.stats;
                assert_eq!(stats.samples, finite.len(), "{context}");
                let got = [stats.p05, stats.p50, stats.p95].map(f64::to_bits);
                assert_eq!(got, [at(0.05), at(0.5), at(0.95)], "{context}");
                assert_eq!(stats.mean.to_bits(), mean.to_bits(), "{context}");
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

/// The engine never refills a reused buffer's values, so these pin what
/// makes that safe: a cut-off run wipes every slot a previous sweep
/// wrote, and a shorter sweep after a longer one leaves nothing behind.
#[test]
fn a_reused_buffer_holds_nothing_from_its_previous_sweep() {
    let expired =
        || EvalBudget::with_deadline(Instant::now() - Duration::from_millis(1)).check_every(1);
    let (long, short) = (batch(21, 5000), batch(22, 1500));
    for workers in WORKERS {
        let context = format!("workers={workers}");
        let parallelism = Parallelism::threads(workers);
        let mut out = BatchOutput::new();
        par_sweep_compiled_block_with(parallelism, &long, block_kernel, &mut out);
        assert!(!out.is_clean(), "{context}: the pole axis must log rejections");
        let run = par_sweep_compiled_block_budgeted(
            parallelism,
            &long,
            block_kernel,
            &mut out,
            &expired(),
        );
        assert_eq!(run, BatchRun::DeadlineExceeded { completed: 0 }, "{context}");
        assert_eq!(out.values().len(), long.len(), "{context}");
        assert!(out.values().iter().all(|v| v.is_nan()), "{context}: a stale slot survived");
        assert!(out.rejected().is_empty(), "{context}: a stale rejection survived");

        for batch in [&long, &short, &long] {
            let context = format!("{context}, n={}", batch.len());
            par_sweep_compiled_block_with(parallelism, batch, block_kernel, &mut out);
            let mut fresh = BatchOutput::new();
            par_sweep_compiled_block_with(parallelism, batch, block_kernel, &mut fresh);
            assert_bitwise_eq(fresh.values(), out.values(), &context);
            assert_eq!(fresh.rejected(), out.rejected(), "{context}: rejection logs");
        }
    }
}

/// The clean-chunk test in front of the rejection scan must not miss an
/// offender anywhere in a chunk: a lone ±∞ or NaN in the last slot of a
/// serial chunk (4096 points at most) is still poisoned to NaN and logged
/// with its raw value.
#[test]
fn a_lone_non_finite_result_in_a_chunks_last_slot_is_logged() {
    let copy = |cols: &[&[f64]], range: Range<usize>, out: &mut [f64]| {
        out.copy_from_slice(&cols[0][range]);
    };
    for len in [1, 16, 4095, 4096, 4097] {
        for at in [len.min(4096) - 1, len - 1] {
            for (bad, raw) in
                [(f64::INFINITY, "inf"), (f64::NEG_INFINITY, "-inf"), (f64::NAN, "NaN")]
            {
                let mut xs: Vec<f64> = (0..len).map(|i| i as f64).collect();
                xs[at] = bad;
                let batch = PointBatch::single_axis(xs);
                let want = [RejectedPoint {
                    index: at,
                    reason: format!("model produced a non-finite result ({raw})"),
                }];
                for workers in [1, 2] {
                    let context = format!("len={len}, at={at}, {raw}, workers={workers}");
                    let mut out = BatchOutput::new();
                    par_sweep_compiled_block_with(
                        Parallelism::threads(workers),
                        &batch,
                        copy,
                        &mut out,
                    );
                    assert_eq!(out.rejected(), want.as_slice(), "{context}");
                    assert!(out.values()[at].is_nan(), "{context}");
                    let finite = out.values().iter().filter(|v| v.is_finite()).count();
                    assert_eq!(finite, len - 1, "{context}");
                }
            }
        }
    }
}
