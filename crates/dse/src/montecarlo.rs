//! Monte-Carlo propagation of parameter uncertainty through a model.
//!
//! Carbon accounting is built on uncertain inputs — yields, grid
//! intensities, abatement effectiveness. Sampling the model under a
//! distribution of inputs turns a point estimate into a defensible range.
//!
//! The closure-based entry points here take one sample at a time. For
//! compiled-kernel hot loops, the block-vectorized entry points in
//! [`batch`](crate::batch) —
//! [`crate::par_monte_carlo_compiled_block_with`] and its budgeted
//! twin — sample straight into reusable structure-of-arrays columns and
//! evaluate whole blocks per kernel call, with the same per-sample
//! seed-splitting and therefore bit-identical [`McStats`].

use act_rng::Rng;

use crate::parallel::{par_map_range, Parallelism};

/// Summary statistics of a Monte-Carlo run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct McStats {
    /// Sample mean.
    pub mean: f64,
    /// 5th percentile.
    pub p05: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Number of samples.
    pub samples: usize,
}

act_json::impl_to_json!(McStats { mean, p05, p50, p95, samples });
act_json::impl_from_json!(McStats { mean, p05, p50, p95, samples });

impl McStats {
    /// The p05–p95 spread relative to the magnitude of the mean — a
    /// unitless uncertainty indicator.
    ///
    /// Never returns NaN: a zero spread is `0.0` regardless of the mean
    /// (even an all-zero run is "perfectly certain"), and a nonzero spread
    /// over a mean too small to normalize by (`|mean| <
    /// f64::MIN_POSITIVE`, or a non-finite mean from poisoned statistics)
    /// reports `f64::INFINITY` — "infinitely uncertain" — instead of
    /// dividing by ~zero. The divisor is `|mean|`, so the indicator is
    /// non-negative for negative-mean models too.
    #[must_use]
    pub fn relative_spread(&self) -> f64 {
        let spread = self.p95 - self.p05;
        if spread == 0.0 {
            return 0.0;
        }
        let scale = self.mean.abs();
        if spread.is_nan() || !scale.is_finite() || scale < f64::MIN_POSITIVE {
            return f64::INFINITY;
        }
        spread / scale
    }
}

/// Error returned by [`try_monte_carlo`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum McError {
    /// `samples` was zero.
    NoSamples,
    /// Every draw produced a non-finite value; no statistics exist.
    AllRejected {
        /// Number of rejected draws (equals the requested sample count).
        rejected: usize,
    },
}

impl std::fmt::Display for McError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoSamples => write!(f, "Monte-Carlo run needs at least one sample"),
            Self::AllRejected { rejected } => {
                write!(f, "all {rejected} Monte-Carlo draws were non-finite")
            }
        }
    }
}

impl std::error::Error for McError {}

/// The result of a fault-tolerant Monte-Carlo run: statistics over the
/// finite draws plus the count of rejected (non-finite) ones.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct McOutcome {
    /// Statistics over the finite samples.
    pub stats: McStats,
    /// Number of draws discarded because the model returned NaN or ±∞.
    pub rejected: usize,
}

act_json::impl_to_json!(McOutcome { stats, rejected });
act_json::impl_from_json!(McOutcome { stats, rejected });

/// Derives the independent RNG seed for sample `index` of a run keyed by
/// `master` — the seed-splitting scheme behind [`monte_carlo`].
///
/// This is the SplitMix64 output function evaluated at position
/// `index + 1` of the stream seeded by `master`: every sample gets its own
/// statistically independent `Rng`, no RNG state is shared between
/// samples, and the draw for sample `i` depends only on `(master, i)` —
/// never on which thread evaluated it or in what order. That is the whole
/// determinism argument: every thread count sees bit-identical draws.
#[must_use]
pub fn mc_sample_seed(master: u64, index: u64) -> u64 {
    const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut z = master.wrapping_add(index.wrapping_add(1).wrapping_mul(GOLDEN_GAMMA));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `samples` evaluations of `model` under a [`Parallelism`] policy,
/// each fed its own RNG-driven input draw, and summarizes the outputs.
///
/// Sample `i` gets its own `Rng` seeded with
/// [`mc_sample_seed`]`(seed, i)`, so sample values depend only on
/// `(seed, i)` and the returned statistics are **bit-for-bit identical**
/// for any thread count, including [`Parallelism::Serial`] — pinned by
/// property tests.
///
/// # Panics
///
/// Panics if `samples` is zero or the model produces non-finite outputs.
///
/// # Examples
///
/// ```
/// use act_dse::{monte_carlo, Parallelism};
///
/// // Footprint = area x CPA where yield is uncertain in [0.7, 1.0].
/// let stats = monte_carlo(Parallelism::Auto, 2_000, 42, |rng| {
///     let y: f64 = rng.gen_range(0.7..1.0);
///     0.9 * 1370.0 / y
/// });
/// assert!(stats.p05 < stats.mean && stats.mean < stats.p95);
/// ```
pub fn monte_carlo(
    parallelism: Parallelism,
    samples: usize,
    seed: u64,
    model: impl Fn(&mut Rng) -> f64 + Sync,
) -> McStats {
    assert!(samples > 0, "need at least one sample");
    let values = par_map_range(parallelism, samples, |i| {
        let mut rng = Rng::seed_from_u64(mc_sample_seed(seed, i as u64));
        let v = model(&mut rng);
        assert!(v.is_finite(), "model produced a non-finite sample");
        v
    });
    summarize(values)
}

/// Fault-tolerant variant of [`monte_carlo`]: draws that evaluate to NaN or
/// ±∞ are skipped and counted instead of panicking, and the statistics are
/// computed over the remaining finite samples. Seeded per sample exactly
/// like [`monte_carlo`], so the outcome is bit-for-bit identical for any
/// thread count.
///
/// # Errors
///
/// Returns [`McError::NoSamples`] if `samples` is zero and
/// [`McError::AllRejected`] if every draw was non-finite.
///
/// # Examples
///
/// ```
/// use act_dse::{try_monte_carlo, Parallelism};
///
/// // A model with a pole: some yield draws divide by zero.
/// let outcome = try_monte_carlo(Parallelism::Auto, 1_000, 42, |rng| {
///     let y: f64 = rng.gen_range(-0.1..1.0);
///     1370.0 / y.max(0.0) // y <= 0 -> +inf, rejected
/// })?;
/// assert!(outcome.rejected > 0);
/// assert_eq!(outcome.stats.samples + outcome.rejected, 1_000);
/// # Ok::<(), act_dse::McError>(())
/// ```
pub fn try_monte_carlo(
    parallelism: Parallelism,
    samples: usize,
    seed: u64,
    model: impl Fn(&mut Rng) -> f64 + Sync,
) -> Result<McOutcome, McError> {
    if samples == 0 {
        return Err(McError::NoSamples);
    }
    let draws = par_map_range(parallelism, samples, |i| {
        let mut rng = Rng::seed_from_u64(mc_sample_seed(seed, i as u64));
        model(&mut rng)
    });
    let mut values = Vec::with_capacity(samples);
    let mut rejected = 0usize;
    for v in draws {
        if v.is_finite() {
            values.push(v);
        } else {
            rejected += 1;
        }
    }
    if values.is_empty() {
        return Err(McError::AllRejected { rejected });
    }
    Ok(McOutcome { stats: summarize(values), rejected })
}

/// Extracts the summary statistics of the finite samples; see
/// [`summarize_slice`].
fn summarize(mut values: Vec<f64>) -> McStats {
    summarize_slice(&mut values)
}

/// Slice-borrowing core of [`summarize`], so the batch path can summarize
/// a reusable buffer without reallocating. Runs in O(n) with no sort:
///
/// - the mean is a Neumaier-compensated sum taken in **input order**
///   before anything is reordered. Every caller passes draws in sample
///   order, which seed-splitting fixes for any thread count, so the mean
///   is thread-count invariant without an order-normalizing sort;
/// - p50 is selected with `select_nth_unstable_by(f64::total_cmp)`, then
///   p05 from the partition left of it and p95 from the one right of it.
///   `total_cmp` is a total order on bit patterns, so each order statistic
///   is unique and bit-identical to `sorted[round((n - 1) * q)]`.
///
/// `values` is left permuted. It must be non-empty and finite.
pub(crate) fn summarize_slice(values: &mut [f64]) -> McStats {
    let samples = values.len();
    let mean = compensated_sum(values) / samples as f64;
    let rank = |q: f64| ((samples - 1) as f64 * q).round() as usize;
    let (i05, i50, i95) = (rank(0.05), rank(0.5), rank(0.95));
    let (left, p50, right) = values.select_nth_unstable_by(i50, f64::total_cmp);
    let p50 = *p50;
    let p05 =
        if i05 == i50 { p50 } else { *left.select_nth_unstable_by(i05, f64::total_cmp).1 };
    let p95 = if i95 == i50 {
        p50
    } else {
        *right.select_nth_unstable_by(i95 - i50 - 1, f64::total_cmp).1
    };
    McStats { mean, p05, p50, p95, samples }
}

/// Neumaier-compensated sum of `values` in slice order: the running
/// compensation recovers the low-order bits each addition rounds away, so
/// the result is within an ulp or so of the exact sum regardless of
/// magnitude ordering. An overflowing sum returns the plain (infinite)
/// running sum rather than the `inf - inf` NaN the compensation would add.
fn compensated_sum(values: &[f64]) -> f64 {
    let mut sum = 0.0_f64;
    let mut compensation = 0.0_f64;
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

/// Error returned by [`try_triangular`] for parameters that do not define
/// a triangular distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TriangularError {
    /// The rejected lower bound.
    pub low: f64,
    /// The rejected mode.
    pub mode: f64,
    /// The rejected upper bound.
    pub high: f64,
}

impl std::fmt::Display for TriangularError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid triangular parameters: need finite low < high with low <= mode <= high, \
             got low={}, mode={}, high={}",
            self.low, self.mode, self.high
        )
    }
}

impl std::error::Error for TriangularError {}

/// Fallible twin of [`triangular`]: draws a triangular-distributed value
/// on `[low, high]` with the given mode, rejecting bad parameters with a
/// typed error instead of panicking — the form user-supplied fleet
/// distributions must go through, so a hostile payload becomes a 400
/// instead of a caught-panic 500.
///
/// The RNG is only advanced when the parameters are valid, so a rejected
/// draw consumes no randomness. A valid draw is
/// [`act_rng::unit_to_triangular`] of one uniform.
///
/// # Errors
///
/// Returns [`TriangularError`] unless all three parameters are finite,
/// `low < high`, and `low <= mode <= high`.
pub fn try_triangular(
    rng: &mut Rng,
    low: f64,
    mode: f64,
    high: f64,
) -> Result<f64, TriangularError> {
    let valid = low.is_finite()
        && mode.is_finite()
        && high.is_finite()
        && low < high
        && (low..=high).contains(&mode);
    if !valid {
        return Err(TriangularError { low, mode, high });
    }
    Ok(act_rng::unit_to_triangular(rng.gen(), low, mode, high))
}

/// Draws a triangular-distributed value on `[low, high]` with the given
/// mode — the standard shape for expert-judgment parameters like yield.
/// Delegates to [`try_triangular`]; use that form directly when the
/// parameters come from untrusted input.
///
/// # Panics
///
/// Panics unless `low <= mode <= high` and `low < high` (all finite).
pub fn triangular(rng: &mut Rng, low: f64, mode: f64, high: f64) -> f64 {
    match try_triangular(rng, low, mode, high) {
        Ok(value) => value,
        Err(err) => panic!("{err}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_ordered_and_deterministic() {
        let f = |rng: &mut Rng| rng.gen_range(0.0..1.0);
        let a = monte_carlo(Parallelism::Serial, 5_000, 7, f);
        let b = monte_carlo(Parallelism::Serial, 5_000, 7, f);
        assert_eq!(a, b);
        assert!(a.p05 <= a.p50 && a.p50 <= a.p95);
        assert!((a.mean - 0.5).abs() < 0.02);
        assert_eq!(a.samples, 5_000);
    }

    #[test]
    fn constant_model_has_zero_spread() {
        let s = monte_carlo(Parallelism::Serial, 100, 0, |_| 42.0);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.relative_spread(), 0.0);
    }

    #[test]
    fn triangular_respects_bounds_and_mode() {
        let mut rng = Rng::seed_from_u64(3);
        let mut below = 0;
        let n = 20_000;
        for _ in 0..n {
            let v = triangular(&mut rng, 0.5, 0.9, 1.0);
            assert!((0.5..=1.0).contains(&v));
            if v < 0.9 {
                below += 1;
            }
        }
        // P(X < mode) = (mode-low)/(high-low) = 0.8 for the triangular.
        let frac = f64::from(below) / f64::from(n);
        assert!((frac - 0.8).abs() < 0.02, "fraction below mode {frac}");
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_rejected() {
        let _ = monte_carlo(Parallelism::Serial, 0, 0, |_| 1.0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_model_rejected() {
        let _ = monte_carlo(Parallelism::Serial, 10, 0, |_| f64::NAN);
    }

    #[test]
    #[should_panic(expected = "triangular")]
    fn bad_triangular_rejected() {
        let mut rng = Rng::seed_from_u64(0);
        let _ = triangular(&mut rng, 1.0, 0.5, 0.9);
    }

    #[test]
    fn try_triangular_rejects_bad_parameters_with_typed_error() {
        let mut rng = Rng::seed_from_u64(0);
        // Mode outside [low, high].
        let err = try_triangular(&mut rng, 1.0, 0.5, 0.9).unwrap_err();
        assert_eq!(err, TriangularError { low: 1.0, mode: 0.5, high: 0.9 });
        assert!(err.to_string().contains("triangular"));
        // Degenerate interval (low == high) and inverted bounds.
        assert!(try_triangular(&mut rng, 1.0, 1.0, 1.0).is_err());
        assert!(try_triangular(&mut rng, 2.0, 1.5, 1.0).is_err());
        // Non-finite parameters never reach the sampling arithmetic.
        assert!(try_triangular(&mut rng, f64::NAN, 0.5, 1.0).is_err());
        assert!(try_triangular(&mut rng, 0.0, 0.5, f64::INFINITY).is_err());
        // A rejected draw consumes no randomness: the next valid draw
        // matches a fresh RNG's first draw bit for bit.
        let mut fresh = Rng::seed_from_u64(0);
        let after_rejects = try_triangular(&mut rng, 0.0, 0.5, 1.0).unwrap();
        let first = try_triangular(&mut fresh, 0.0, 0.5, 1.0).unwrap();
        assert_eq!(after_rejects.to_bits(), first.to_bits());
    }

    #[test]
    fn try_triangular_matches_panicking_variant_on_valid_parameters() {
        let mut a = Rng::seed_from_u64(9);
        let mut b = Rng::seed_from_u64(9);
        for _ in 0..1_000 {
            let x = triangular(&mut a, 0.5, 0.9, 1.0);
            let y = try_triangular(&mut b, 0.5, 0.9, 1.0).unwrap();
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn try_monte_carlo_matches_panicking_variant_on_clean_models() {
        let f = |rng: &mut Rng| rng.gen_range(0.0..1.0);
        let outcome = try_monte_carlo(Parallelism::Serial, 2_000, 7, f).unwrap();
        assert_eq!(outcome.rejected, 0);
        assert_eq!(outcome.stats, monte_carlo(Parallelism::Serial, 2_000, 7, f));
    }

    #[test]
    fn try_monte_carlo_skips_and_counts_poisoned_draws() {
        let f = |rng: &mut Rng| {
            let v: f64 = rng.gen_range(0.0..1.0);
            if v < 0.25 {
                f64::NAN
            } else {
                v
            }
        };
        let outcome = try_monte_carlo(Parallelism::Serial, 4_000, 11, f).unwrap();
        assert!(outcome.rejected > 0, "expected some rejections");
        assert_eq!(outcome.stats.samples + outcome.rejected, 4_000);
        assert!(outcome.stats.p05 >= 0.25);
    }

    #[test]
    fn relative_spread_is_nan_free() {
        // Zero spread, zero mean: certain, not NaN.
        let zero = McStats { mean: 0.0, p05: 0.0, p50: 0.0, p95: 0.0, samples: 10 };
        assert_eq!(zero.relative_spread(), 0.0);
        // Nonzero spread around a zero mean: infinitely uncertain.
        let centered = McStats { mean: 0.0, p05: -1.0, p50: 0.0, p95: 1.0, samples: 10 };
        assert_eq!(centered.relative_spread(), f64::INFINITY);
        // Near-zero (subnormal-adjacent) mean: still no blow-up into NaN.
        let tiny = McStats { mean: 1e-320, p05: 0.0, p50: 1e-320, p95: 1.0, samples: 10 };
        assert_eq!(tiny.relative_spread(), f64::INFINITY);
        // Negative mean: indicator stays non-negative.
        let negative = McStats { mean: -2.0, p05: -3.0, p50: -2.0, p95: -1.0, samples: 10 };
        assert_eq!(negative.relative_spread(), 1.0);
        // Poisoned stats never produce NaN either.
        let poisoned = McStats { mean: f64::NAN, p05: 0.0, p50: 1.0, p95: 2.0, samples: 10 };
        assert_eq!(poisoned.relative_spread(), f64::INFINITY);
    }

    #[test]
    fn par_monte_carlo_is_thread_count_invariant() {
        let f = |rng: &mut Rng| rng.gen_range(0.0..1.0);
        let serial = monte_carlo(Parallelism::Serial, 5_000, 7, f);
        let two = monte_carlo(Parallelism::threads(2), 5_000, 7, f);
        let eight = monte_carlo(Parallelism::threads(8), 5_000, 7, f);
        assert_eq!(serial, two);
        assert_eq!(serial, eight);
        assert!((serial.mean - 0.5).abs() < 0.02);
    }

    #[test]
    fn par_monte_carlo_matches_manual_seed_split_loop() {
        let f = |rng: &mut Rng| rng.gen_range(0.0..1.0);
        let parallel = monte_carlo(Parallelism::threads(4), 2_000, 11, f);
        let values: Vec<f64> = (0..2_000u64)
            .map(|i| {
                let mut rng = Rng::seed_from_u64(mc_sample_seed(11, i));
                f(&mut rng)
            })
            .collect();
        let reference = summarize(values);
        assert_eq!(parallel, reference);
    }

    #[test]
    fn par_try_monte_carlo_is_thread_count_invariant() {
        let f = |rng: &mut Rng| {
            let v: f64 = rng.gen_range(0.0..1.0);
            if v < 0.25 {
                f64::NAN
            } else {
                v
            }
        };
        let serial = try_monte_carlo(Parallelism::Serial, 4_000, 13, f).unwrap();
        let parallel = try_monte_carlo(Parallelism::threads(8), 4_000, 13, f).unwrap();
        assert_eq!(serial, parallel);
        assert!(parallel.rejected > 0);
        assert_eq!(parallel.stats.samples + parallel.rejected, 4_000);
    }

    #[test]
    fn par_try_monte_carlo_reports_degenerate_runs() {
        let auto = Parallelism::Auto;
        assert_eq!(try_monte_carlo(auto, 0, 0, |_| 1.0), Err(McError::NoSamples));
        assert_eq!(
            try_monte_carlo(auto, 10, 0, |_| f64::INFINITY),
            Err(McError::AllRejected { rejected: 10 })
        );
    }

    /// p05/p50/p95 by full sort and `round((n - 1) * q)` indexing, as bits.
    fn sorted_percentile_bits(values: &[f64]) -> [u64; 3] {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize].to_bits();
        [at(0.05), at(0.5), at(0.95)]
    }

    #[test]
    fn selected_percentiles_match_sorted_index_bitwise() {
        // Duplicates, signed zeros, negatives and subnormals: the values
        // `total_cmp` orders by bit pattern rather than by `==`.
        const POOL: [f64; 10] =
            [0.0, -0.0, 1.0, 1.0, -1.0, 5e-324, -5e-324, 2.2e-308, -7.25, 1e300];
        // n = 1 has i05 == i50 == i95 and n = 2 has i95 == i50, so the
        // skip-the-second-selection branches are exercised too.
        for n in [1usize, 2, 3, 19, 20, 21, 64, 1000] {
            for trial in 0..16u64 {
                let values: Vec<f64> = (0..n as u64)
                    .map(|i| {
                        let h = mc_sample_seed(trial, i);
                        if trial % 2 == 0 || h & 1 == 0 {
                            POOL[(h >> 1) as usize % POOL.len()]
                        } else {
                            (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5
                        }
                    })
                    .collect();
                let stats = summarize(values.clone());
                assert_eq!(stats.samples, n);
                assert_eq!(
                    [stats.p05.to_bits(), stats.p50.to_bits(), stats.p95.to_bits()],
                    sorted_percentile_bits(&values),
                    "n = {n}, trial = {trial}"
                );
            }
        }
    }

    #[test]
    fn compensated_mean_is_exact_where_a_plain_sum_drifts() {
        // A plain left-to-right (or sorted) sum gives 0.09999999999999999.
        assert_eq!(summarize(vec![0.1; 10]).mean, 0.1);
        // A plain sum loses both 1.0s to the 1e100 and gives 0.0.
        assert_eq!(summarize(vec![1.0, 1e100, 1.0, -1e100]).mean, 0.5);
        // An overflowing sum stays infinite instead of turning NaN.
        assert_eq!(summarize(vec![f64::MAX, f64::MAX]).mean, f64::INFINITY);
    }

    #[test]
    fn sample_seeds_are_well_spread() {
        // Consecutive indices and nearby masters must not collide.
        let mut seen = std::collections::HashSet::new();
        for master in 0..8u64 {
            for index in 0..1_000u64 {
                assert!(seen.insert(mc_sample_seed(master, index)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn par_zero_samples_rejected() {
        let _ = monte_carlo(Parallelism::Auto, 0, 0, |_| 1.0);
    }

    #[test]
    fn try_monte_carlo_reports_degenerate_runs() {
        assert_eq!(
            try_monte_carlo(Parallelism::Serial, 0, 0, |_| 1.0),
            Err(McError::NoSamples)
        );
        assert_eq!(
            try_monte_carlo(Parallelism::Serial, 10, 0, |_| f64::INFINITY),
            Err(McError::AllRejected { rejected: 10 })
        );
        let err = try_monte_carlo(Parallelism::Serial, 10, 0, |_| f64::NAN).unwrap_err();
        assert!(err.to_string().contains("non-finite"));
    }
}
