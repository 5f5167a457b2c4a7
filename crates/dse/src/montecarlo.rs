//! Monte-Carlo propagation of parameter uncertainty through a model.
//!
//! Carbon accounting is built on uncertain inputs — yields, grid
//! intensities, abatement effectiveness. Sampling the model under a
//! distribution of inputs turns a point estimate into a defensible range.
//!
//! The sampling loops live in [`batch`](crate::batch):
//! [`crate::par_monte_carlo_compiled_block_with`] and its budgeted twin
//! draw straight into reusable structure-of-arrays columns and evaluate
//! whole blocks per kernel call. This module holds what they share: the
//! per-sample seed split ([`mc_sample_seed`]), the summary statistics
//! ([`McStats`], [`McOutcome`], [`McError`]), and the validating
//! triangular draw ([`try_triangular`]).
//!
//! It also holds how a run gets from draws to statistics in 8 bytes per
//! sample. A run's buffer holds no draws, only their `f64::total_cmp`
//! order keys: each worker evaluates a block into its own scratch and
//! writes the block's keys ([`encode_draws`]) straight into its chunk of
//! the buffer. When the pool joins, [`summarize`] takes the sample-order
//! mean in one pass over the keys and then selects the percentiles on
//! them in place.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use act_core::wide::{run_wide, Body, Instance};
use act_rng::Rng;

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

/// Error returned by the block Monte-Carlo entry points.
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
/// `master` — the seed-splitting scheme behind every block Monte-Carlo
/// run ([`crate::par_monte_carlo_compiled_block_with`] and its budgeted
/// twin).
///
/// This is the SplitMix64 output function evaluated at position
/// `index + 1` of the stream seeded by `master`: every sample gets its own
/// statistically independent `Rng`, no RNG state is shared between
/// samples, and the draw for sample `i` depends only on `(master, i)` —
/// never on which thread evaluated it or in what order. That is the whole
/// determinism argument: every thread count sees bit-identical draws.
#[inline(always)]
#[must_use]
pub fn mc_sample_seed(master: u64, index: u64) -> u64 {
    const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut z = master.wrapping_add(index.wrapping_add(1).wrapping_mul(GOLDEN_GAMMA));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Neumaier-compensated sum of the finite draws behind `keys` in slice
/// order, skipping the rejected ones (`u64::MAX`), with their count. The
/// running compensation recovers the low-order bits each addition rounds
/// away, so the result is within an ulp or so of the exact sum regardless
/// of magnitude ordering; every caller passes keys in sample order, which
/// seed-splitting fixes for any thread count, so the mean is thread-count
/// invariant without an order-normalizing sort. An overflowing sum
/// returns the plain (infinite) running sum rather than the `inf - inf`
/// NaN the compensation would add.
fn sample_order_sum(keys: &[u64]) -> (f64, usize) {
    let (mut sum, mut compensation, mut finite) = (0.0_f64, 0.0_f64, 0);
    for &key in keys {
        if key == u64::MAX {
            continue;
        }
        let v = from_order_key(key);
        let t = sum + v;
        compensation += if sum.abs() >= v.abs() { (sum - t) + v } else { (v - t) + sum };
        sum = t;
        finite += 1;
    }
    (if sum.is_finite() { sum + compensation } else { sum }, finite)
}

/// Writes the order key of each of `draws` into the same slot of `keys`:
/// [`order_key`] for a finite draw, `u64::MAX` for a rejected (non-finite)
/// one. That is the whole canonicalization a rejected draw gets: every
/// finite key sorts below `u64::MAX`, and the key decodes as NaN.
pub(crate) fn encode_draws(draws: &[f64], keys: &mut [u64]) {
    run_wide(EncodeDraws { draws, keys });
}

/// [`encode_draws`]'s loop as a [`Body`]: `as i64 >> 63` has no SSE2
/// form, so the baseline instance runs it a value at a time.
struct EncodeDraws<'a> {
    draws: &'a [f64],
    keys: &'a mut [u64],
}

impl Body for EncodeDraws<'_> {
    type Output = ();

    #[inline(always)]
    fn run<I: Instance>(self) {
        for (key, &v) in self.keys.iter_mut().zip(self.draws) {
            *key = if v.is_finite() { order_key(v) } else { u64::MAX };
        }
    }
}

/// The draw behind a key written by [`encode_draws`]: the finite draw,
/// or NaN for a rejected one.
pub(crate) fn decode_draw(key: u64) -> f64 {
    if key == u64::MAX {
        f64::NAN
    } else {
        from_order_key(key)
    }
}

/// The tail of every block Monte-Carlo run: statistics over the completed
/// prefix `keys` ([`encode_draws`] form, in sample order) plus the count
/// of rejected draws. One serial pass takes the sample-order mean and the
/// finite count ([`sample_order_sum`]) before anything permutes the keys;
/// then the percentiles are selected in place: p50 first, then p05 among
/// the keys below it and p95 among those above it — disjoint halves, so
/// the two selections run side by side on the pool with the run's
/// `workers` (inline on the caller when `workers <= 1`). A rejected
/// draw's key is `u64::MAX`, above every finite key, so every rank below
/// the finite count lands on a finite draw. The key order is
/// `f64::total_cmp`'s, so each order statistic is bit-identical to
/// `sorted[round((n - 1) * q)]` over the `n` finite draws. The selections
/// leave `keys` permuted.
///
/// # Errors
///
/// [`McError::AllRejected`] when no draw is finite.
pub(crate) fn summarize(keys: &mut [u64], workers: usize) -> Result<McOutcome, McError> {
    let (sum, samples) = sample_order_sum(keys);
    let rejected = keys.len() - samples;
    if samples == 0 {
        return Err(McError::AllRejected { rejected });
    }
    let rank = |q: f64| ((samples - 1) as f64 * q).round() as usize;
    let (i05, i50, i95) = (rank(0.05), rank(0.5), rank(0.95));
    let (below, &mut p50, above) = keys.select_nth_unstable(i50);
    // Each tail: its keys, the rank to select there (none when the
    // percentile's rank is p50's), and the key found, p50's until then.
    let tails = [
        Mutex::new((below, (i05 < i50).then_some(i05), p50)),
        Mutex::new((above, (i95 > i50).then(|| i95 - i50 - 1), p50)),
    ];
    let cursor = AtomicUsize::new(0);
    crate::pool::run(workers.min(2), &|| {
        while let Some(tail) = tails.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            let mut tail = tail.lock().unwrap_or_else(PoisonError::into_inner);
            let (keys, rank, key) = &mut *tail;
            if let Some(rank) = *rank {
                *key = *keys.select_nth_unstable(rank).1;
            }
        }
    });
    // Every participant drains the cursor, so both selections ran before
    // `pool::run` returned (a panic in either resumes on this thread).
    let [p05, p95] =
        tails.map(|tail| tail.into_inner().unwrap_or_else(PoisonError::into_inner).2);
    let [p05, p50, p95] = [p05, p50, p95].map(from_order_key);
    let stats = McStats { mean: sum / samples as f64, p05, p50, p95, samples };
    Ok(McOutcome { stats, rejected })
}

/// `v`'s position in the `f64::total_cmp` order as an unsigned key: the
/// bits of a non-negative value with the sign bit set, and the bits of a
/// negative one inverted. Keys compare as `u64` exactly as the values
/// compare under `total_cmp`, and [`from_order_key`] inverts the map.
#[inline(always)]
fn order_key(v: f64) -> u64 {
    let bits = v.to_bits();
    bits ^ (((bits as i64 >> 63) as u64) | 1 << 63)
}

/// The value whose [`order_key`] is `key`.
fn from_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 { key & !(1 << 63) } else { !key })
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

/// Draws a triangular-distributed value on `[low, high]` with the given
/// mode — the standard shape for expert-judgment parameters like yield —
/// rejecting bad parameters with a typed error instead of panicking. It
/// is the form user-supplied fleet distributions go through, so a hostile
/// payload becomes a 400 instead of a caught-panic 500.
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// `n` uniform draws in `0..1`, sample `i` from its own split seed.
    fn uniform_draws(seed: u64, n: u64) -> Vec<f64> {
        (0..n)
            .map(|i| Rng::seed_from_u64(mc_sample_seed(seed, i)).gen_range(0.0..1.0))
            .collect()
    }

    /// The reduction of `draws` as a run performs it: encoded to keys,
    /// then summarized on `workers` threads.
    pub(crate) fn summarize_draws(draws: &[f64], workers: usize) -> Result<McOutcome, McError> {
        let mut keys = vec![0; draws.len()];
        encode_draws(draws, &mut keys);
        summarize(&mut keys, workers)
    }

    /// [`summarize_draws`]'s statistics on one thread.
    fn stats_of(values: &[f64]) -> McStats {
        summarize_draws(values, 1).unwrap().stats
    }

    #[test]
    fn stats_are_ordered_and_deterministic() {
        let a = stats_of(&uniform_draws(7, 5_000));
        let b = stats_of(&uniform_draws(7, 5_000));
        assert_eq!(a, b);
        assert!(a.p05 <= a.p50 && a.p50 <= a.p95);
        assert!((a.mean - 0.5).abs() < 0.02);
        assert_eq!(a.samples, 5_000);
    }

    #[test]
    fn constant_model_has_zero_spread() {
        let s = stats_of(&[42.0; 100]);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.relative_spread(), 0.0);
    }

    #[test]
    fn triangular_respects_bounds_and_mode() {
        let mut rng = Rng::seed_from_u64(3);
        let mut below = 0;
        let n = 20_000;
        for _ in 0..n {
            let v = try_triangular(&mut rng, 0.5, 0.9, 1.0).unwrap();
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
    fn try_triangular_is_one_uniform_through_unit_to_triangular() {
        let mut a = Rng::seed_from_u64(9);
        let mut b = Rng::seed_from_u64(9);
        for _ in 0..1_000 {
            let x = try_triangular(&mut a, 0.5, 0.9, 1.0).unwrap();
            let y = act_rng::unit_to_triangular(b.gen(), 0.5, 0.9, 1.0);
            assert_eq!(x.to_bits(), y.to_bits());
        }
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

    /// p05/p50/p95 by full sort and `round((n - 1) * q)` indexing, as bits.
    fn sorted_percentile_bits(values: &[f64]) -> [u64; 3] {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize].to_bits();
        [at(0.05), at(0.5), at(0.95)]
    }

    /// Neumaier-compensated sum of the finite `values` in slice order: the
    /// reference the run's mean must match bit for bit, written out on
    /// draws rather than keys, independently of `sample_order_sum`.
    fn compensated_sum(values: &[f64]) -> f64 {
        let mut sum = 0.0_f64;
        let mut compensation = 0.0_f64;
        for &v in values.iter().filter(|v| v.is_finite()) {
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

    /// Asserts that `outcome` is the reduction of `draws` by definition:
    /// the finite draws compacted in sample order, their compensated mean
    /// and their percentiles from a full sort, all compared as bits.
    pub(crate) fn assert_reference(
        outcome: Result<McOutcome, McError>,
        draws: &[f64],
        case: &str,
    ) {
        let finite: Vec<f64> = draws.iter().copied().filter(|v| v.is_finite()).collect();
        let rejected = draws.len() - finite.len();
        if finite.is_empty() {
            assert_eq!(outcome, Err(McError::AllRejected { rejected }), "{case}");
            return;
        }
        let outcome = outcome.unwrap_or_else(|err| panic!("{case}: {err}"));
        let stats = outcome.stats;
        assert_eq!((stats.samples, outcome.rejected), (finite.len(), rejected), "{case}");
        let mean = compensated_sum(&finite) / finite.len() as f64;
        assert_eq!(stats.mean.to_bits(), mean.to_bits(), "mean, {case}");
        assert_eq!(
            [stats.p05.to_bits(), stats.p50.to_bits(), stats.p95.to_bits()],
            sorted_percentile_bits(&finite),
            "percentiles, {case}"
        );
    }

    /// `n` values from the split seeds of `trial`: by `trial % 3`,
    /// duplicates, signed zeros, negatives and subnormals; those mixed
    /// with uniform noise; or `+b, noise, -b` triples with `b` up to
    /// ~1.8e16, whose cancellation leaves the compensated mean's last bits
    /// dependent on the summation order.
    pub(crate) fn mixed_values(trial: u64, n: usize) -> Vec<f64> {
        // The values `total_cmp` orders by bit pattern rather than by `==`.
        const POOL: [f64; 10] =
            [0.0, -0.0, 1.0, 1.0, -1.0, 5e-324, -5e-324, 2.2e-308, -7.25, 1e300];
        let noise = |h: u64| (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        (0..n as u64)
            .map(|i| {
                let h = mc_sample_seed(trial, i);
                match (trial % 3, i % 3) {
                    (0, _) => POOL[(h >> 1) as usize % POOL.len()],
                    (1, _) if h & 1 == 0 => POOL[(h >> 1) as usize % POOL.len()],
                    (1, _) | (_, 1) => noise(h),
                    (_, k) => {
                        let b = (mc_sample_seed(trial, i - k) >> 10) as f64;
                        if k == 0 {
                            b
                        } else {
                            -b
                        }
                    }
                }
            })
            .collect()
    }

    /// Where the non-finite draws of a case go.
    const PLACEMENTS: [&str; 5] = ["none", "first", "last", "interleaved", "all but one"];

    /// `values` with non-finite draws planted per `placement`. Canonical
    /// NaN is what the engine hands over; ±∞ and negative NaN show that
    /// the reduction does not lean on that.
    fn with_non_finite(mut values: Vec<f64>, placement: &str) -> Vec<f64> {
        const BAD: [f64; 4] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -f64::NAN];
        let n = values.len();
        for (i, slot) in values.iter_mut().enumerate() {
            let poisoned = match placement {
                "first" => i == 0,
                "last" => i == n - 1,
                "interleaved" => i % 3 == 1,
                "all but one" => i != n / 2,
                _ => false,
            };
            if poisoned {
                *slot = BAD[i % BAD.len()];
            }
        }
        values
    }

    #[test]
    fn selected_percentiles_match_sorted_index_bitwise() {
        // n = 1 has i05 == i50 == i95 and n = 2 has i95 == i50, so the
        // skip-the-second-selection branches are exercised too.
        for n in [1usize, 2, 3, 19, 20, 21, 64, 1000] {
            for trial in 0..16u64 {
                for placement in PLACEMENTS {
                    let draws = with_non_finite(mixed_values(trial, n), placement);
                    for workers in [1, 2] {
                        let case = format!("n = {n}, trial = {trial}, {placement}, {workers}w");
                        assert_reference(summarize_draws(&draws, workers), &draws, &case);
                    }
                }
            }
        }
    }

    #[test]
    fn compensated_mean_is_exact_where_a_plain_sum_drifts() {
        // A plain left-to-right (or sorted) sum gives 0.09999999999999999.
        assert_eq!(stats_of(&[0.1; 10]).mean, 0.1);
        // A plain sum loses both 1.0s to the 1e100 and gives 0.0.
        assert_eq!(stats_of(&[1.0, 1e100, 1.0, -1e100]).mean, 0.5);
        // An overflowing sum stays infinite instead of turning NaN.
        assert_eq!(stats_of(&[f64::MAX, f64::MAX]).mean, f64::INFINITY);
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
}
