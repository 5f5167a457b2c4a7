//! Parameter-sweep helpers.

use crate::parallel::{par_map_ordered, Parallelism};

/// Streaming variant of [`powers_of_two`]: yields the powers of two from
/// `lo` to `hi` inclusive without allocating, for use directly inside hot
/// sweep loops.
///
/// # Panics
///
/// Panics if `lo` is zero or `lo > hi`.
///
/// # Examples
///
/// ```
/// use act_dse::powers_of_two_iter;
/// assert_eq!(powers_of_two_iter(64, 512).collect::<Vec<_>>(), vec![64, 128, 256, 512]);
/// ```
pub fn powers_of_two_iter(lo: u32, hi: u32) -> impl Iterator<Item = u32> {
    assert!(lo > 0, "lower bound must be positive");
    assert!(lo <= hi, "lower bound {lo} exceeds upper bound {hi}");
    std::iter::successors(Some(lo), |v| v.checked_mul(2)).take_while(move |v| *v <= hi)
}

/// Powers of two from `lo` to `hi` inclusive (the paper's MAC-count axis).
///
/// # Panics
///
/// Panics if `lo` is zero or `lo > hi`.
///
/// # Examples
///
/// ```
/// use act_dse::powers_of_two;
/// assert_eq!(powers_of_two(64, 512), vec![64, 128, 256, 512]);
/// ```
#[must_use]
pub fn powers_of_two(lo: u32, hi: u32) -> Vec<u32> {
    powers_of_two_iter(lo, hi).collect()
}

/// Streaming variant of [`linspace`]: yields `n` evenly spaced values from
/// `start` to `end` inclusive without allocating.
///
/// # Panics
///
/// Panics if `n < 2`.
///
/// # Examples
///
/// ```
/// use act_dse::linspace_iter;
/// assert_eq!(linspace_iter(0.0, 1.0, 3).collect::<Vec<_>>(), vec![0.0, 0.5, 1.0]);
/// ```
pub fn linspace_iter(start: f64, end: f64, n: usize) -> impl Iterator<Item = f64> {
    assert!(n >= 2, "linspace needs at least two points");
    let step = (end - start) / (n - 1) as f64;
    (0..n).map(move |i| start + step * i as f64)
}

/// `n` evenly spaced values from `start` to `end` inclusive.
///
/// # Panics
///
/// Panics if `n < 2`.
///
/// # Examples
///
/// ```
/// use act_dse::linspace;
/// assert_eq!(linspace(0.0, 1.0, 3), vec![0.0, 0.5, 1.0]);
/// ```
#[must_use]
pub fn linspace(start: f64, end: f64, n: usize) -> Vec<f64> {
    linspace_iter(start, end, n).collect()
}

/// Streaming variant of [`logspace`]: yields `n` logarithmically spaced
/// values from `start` to `end` inclusive without allocating.
///
/// # Panics
///
/// Panics if `n < 2` or either endpoint is not positive.
///
/// # Examples
///
/// ```
/// use act_dse::logspace_iter;
/// let v: Vec<f64> = logspace_iter(1.0, 100.0, 3).collect();
/// assert!((v[1] - 10.0).abs() < 1e-9);
/// ```
pub fn logspace_iter(start: f64, end: f64, n: usize) -> impl Iterator<Item = f64> {
    assert!(start > 0.0 && end > 0.0, "logspace endpoints must be positive");
    linspace_iter(start.ln(), end.ln(), n).map(f64::exp)
}

/// `n` logarithmically spaced values from `start` to `end` inclusive.
///
/// # Panics
///
/// Panics if `n < 2` or either endpoint is not positive.
///
/// # Examples
///
/// ```
/// use act_dse::logspace;
/// let v = logspace(1.0, 100.0, 3);
/// assert!((v[1] - 10.0).abs() < 1e-9);
/// ```
#[must_use]
pub fn logspace(start: f64, end: f64, n: usize) -> Vec<f64> {
    logspace_iter(start, end, n).collect()
}

/// Evaluates `f` on every parameter under a [`Parallelism`] policy,
/// pairing inputs with results.
///
/// Results come back in input order, so for any pure model the output is
/// the same for every policy — [`Parallelism::Serial`] runs the plain loop
/// on the calling thread, [`Parallelism::Auto`] is the usual choice.
///
/// # Examples
///
/// ```
/// use act_dse::{sweep, Parallelism};
/// let squares = sweep(Parallelism::Serial, [1, 2, 3], |x| x * x);
/// assert_eq!(squares, vec![(1, 1), (2, 4), (3, 9)]);
/// assert_eq!(sweep(Parallelism::threads(4), [1, 2, 3], |x| x * x), squares);
/// ```
pub fn sweep<P, R>(
    parallelism: Parallelism,
    params: impl IntoIterator<Item = P>,
    f: impl Fn(&P) -> R + Sync,
) -> Vec<(P, R)>
where
    P: Sync,
    R: Send,
{
    let params: Vec<P> = params.into_iter().collect();
    let results = par_map_ordered(parallelism, &params, |_, p| f(p));
    params.into_iter().zip(results).collect()
}

/// One design point a fallible sweep rejected, with its position in the
/// original parameter sequence and the model's reason.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RejectedPoint {
    /// Zero-based index of the point in the swept parameter sequence.
    pub index: usize,
    /// The model error, rendered.
    pub reason: String,
}

act_json::impl_to_json!(RejectedPoint { index, reason });

/// The result of a fallible sweep: the design points that evaluated cleanly
/// plus a record of every rejected one.
///
/// A sweep over mixed valid/invalid configurations never aborts: invalid
/// points are skipped and recorded so the driver can report them instead of
/// silently dropping (or crashing on) them.
#[derive(Clone, Debug)]
pub struct SweepOutcome<P, R> {
    /// Parameter/result pairs for the points that evaluated successfully,
    /// in sweep order.
    pub results: Vec<(P, R)>,
    /// The rejected points, in sweep order.
    pub rejected: Vec<RejectedPoint>,
}

impl<P, R> SweepOutcome<P, R> {
    /// Total number of points the sweep visited.
    #[must_use]
    pub fn total_points(&self) -> usize {
        self.results.len() + self.rejected.len()
    }

    /// Number of rejected points.
    #[must_use]
    pub fn rejected_count(&self) -> usize {
        self.rejected.len()
    }

    /// `true` when no point was rejected.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.rejected.is_empty()
    }

    /// One-line summary suitable for a report footer, e.g.
    /// `"18/20 points evaluated, 2 rejected"`.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{}/{} points evaluated, {} rejected",
            self.results.len(),
            self.total_points(),
            self.rejected_count()
        )
    }
}

/// Fallible variant of [`sweep`]: evaluates `f` on every parameter under
/// a [`Parallelism`] policy, collecting successes and recording failures
/// instead of aborting — successes in sweep order, rejections carrying
/// their original sweep index and rendered reason, for every policy.
///
/// # Examples
///
/// ```
/// use act_dse::{try_sweep, Parallelism};
///
/// let outcome = try_sweep(Parallelism::Auto, [1.0_f64, -1.0, 4.0], |x| {
///     if *x >= 0.0 { Ok(x.sqrt()) } else { Err("negative input") }
/// });
/// assert_eq!(outcome.results.len(), 2);
/// assert_eq!(outcome.rejected_count(), 1);
/// assert_eq!(outcome.rejected[0].index, 1);
/// ```
pub fn try_sweep<P, R, E>(
    parallelism: Parallelism,
    params: impl IntoIterator<Item = P>,
    f: impl Fn(&P) -> Result<R, E> + Sync,
) -> SweepOutcome<P, R>
where
    P: Sync,
    R: Send,
    E: std::fmt::Display,
{
    let params: Vec<P> = params.into_iter().collect();
    let evaluated =
        par_map_ordered(parallelism, &params, |_, p| f(p).map_err(|e| e.to_string()));
    let mut results = Vec::new();
    let mut rejected = Vec::new();
    for (index, (p, outcome)) in params.into_iter().zip(evaluated).enumerate() {
        match outcome {
            Ok(r) => results.push((p, r)),
            Err(reason) => rejected.push(RejectedPoint { index, reason }),
        }
    }
    SweepOutcome { results, rejected }
}

/// Convenience over [`try_sweep`] for infallible scalar models: evaluates
/// `f` on every parameter under a [`Parallelism`] policy and rejects
/// points whose result is NaN or infinite.
///
/// # Examples
///
/// ```
/// use act_dse::{sweep_finite, Parallelism};
///
/// let outcome = sweep_finite(Parallelism::Auto, [4.0, 0.0, 1.0], |x| 1.0 / x);
/// assert_eq!(outcome.results.len(), 2);
/// assert_eq!(outcome.rejected[0].index, 1);
/// ```
pub fn sweep_finite<P>(
    parallelism: Parallelism,
    params: impl IntoIterator<Item = P>,
    f: impl Fn(&P) -> f64 + Sync,
) -> SweepOutcome<P, f64>
where
    P: Sync,
{
    try_sweep(parallelism, params, |p| {
        let v = f(p);
        if v.is_finite() {
            Ok(v)
        } else {
            Err(format!("model produced a non-finite result ({v})"))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn powers_of_two_covers_paper_range() {
        assert_eq!(powers_of_two(64, 2048), vec![64, 128, 256, 512, 1024, 2048]);
    }

    #[test]
    fn powers_of_two_single_value() {
        assert_eq!(powers_of_two(8, 8), vec![8]);
    }

    #[test]
    fn powers_of_two_from_non_power_start() {
        assert_eq!(powers_of_two(3, 20), vec![3, 6, 12]);
    }

    #[test]
    #[should_panic(expected = "exceeds upper bound")]
    fn powers_of_two_rejects_inverted_range() {
        let _ = powers_of_two(16, 8);
    }

    #[test]
    fn powers_of_two_handles_overflow() {
        let v = powers_of_two(1 << 30, u32::MAX);
        assert_eq!(v, vec![1 << 30, 1 << 31]);
    }

    #[test]
    fn linspace_endpoints_exact() {
        let v = linspace(1.0, 10.0, 10);
        assert_eq!(v.len(), 10);
        assert!((v[0] - 1.0).abs() < 1e-12);
        assert!((v[9] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn logspace_is_geometric() {
        let v = logspace(1.0, 16.0, 5);
        for pair in v.windows(2) {
            assert!((pair[1] / pair[0] - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn sweep_preserves_order() {
        let results = sweep(Parallelism::Serial, powers_of_two(1, 8), |m| *m * 10);
        assert_eq!(results, vec![(1, 10), (2, 20), (4, 40), (8, 80)]);
    }

    #[test]
    fn try_sweep_partitions_points() {
        let outcome = try_sweep(Parallelism::Serial, 0..6, |i| {
            if i % 2 == 0 {
                Ok(i * 10)
            } else {
                Err("odd")
            }
        });
        assert_eq!(outcome.results, vec![(0, 0), (2, 20), (4, 40)]);
        assert_eq!(outcome.rejected_count(), 3);
        assert_eq!(outcome.rejected.iter().map(|r| r.index).collect::<Vec<_>>(), vec![1, 3, 5]);
        assert_eq!(outcome.total_points(), 6);
        assert!(!outcome.is_clean());
        assert_eq!(outcome.summary(), "3/6 points evaluated, 3 rejected");
    }

    #[test]
    fn try_sweep_clean_when_all_succeed() {
        let outcome = try_sweep(Parallelism::Serial, 0..4, |i| Ok::<_, String>(i + 1));
        assert!(outcome.is_clean());
        assert_eq!(outcome.rejected_count(), 0);
        assert_eq!(outcome.summary(), "4/4 points evaluated, 0 rejected");
    }

    #[test]
    fn sweep_finite_rejects_poisoned_results() {
        let outcome = sweep_finite(Parallelism::Serial, [1.0, 0.0, -1.0, 2.0], |x| 1.0 / x);
        // 1/0 = inf is rejected; 1/-1 is finite and kept.
        assert_eq!(outcome.results.len(), 3);
        assert_eq!(outcome.rejected_count(), 1);
        assert_eq!(outcome.rejected[0].index, 1);
        assert!(outcome.rejected[0].reason.contains("non-finite"));
    }

    #[test]
    fn rejected_points_serialize() {
        use act_json::ToJson;
        let outcome = sweep_finite(Parallelism::Serial, [0.0], |x| 1.0 / x);
        let json = outcome.rejected.to_json().render_compact();
        assert!(json.contains("\"index\":0"));
    }

    #[test]
    fn iterator_variants_match_vec_variants() {
        assert_eq!(powers_of_two_iter(3, 20).collect::<Vec<_>>(), powers_of_two(3, 20));
        assert_eq!(powers_of_two_iter(8, 8).collect::<Vec<_>>(), vec![8]);
        let overflow: Vec<u32> = powers_of_two_iter(1 << 30, u32::MAX).collect();
        assert_eq!(overflow, vec![1 << 30, 1 << 31]);
        assert_eq!(linspace_iter(1.0, 10.0, 10).collect::<Vec<_>>(), linspace(1.0, 10.0, 10));
        assert_eq!(logspace_iter(1.0, 16.0, 5).collect::<Vec<_>>(), logspace(1.0, 16.0, 5));
    }

    #[test]
    #[should_panic(expected = "exceeds upper bound")]
    fn powers_of_two_iter_rejects_inverted_range() {
        let _ = powers_of_two_iter(16, 8);
    }

    #[test]
    fn par_sweep_matches_serial_sweep() {
        let params = powers_of_two(1, 1 << 20);
        let serial = sweep(Parallelism::Serial, params.clone(), |m| u64::from(*m) * 3);
        let parallel = sweep(Parallelism::threads(4), params, |m| u64::from(*m) * 3);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn par_try_sweep_matches_serial_try_sweep() {
        let check = |i: &i32| if i % 3 == 0 { Ok(i * 10) } else { Err("not divisible") };
        let serial = try_sweep(Parallelism::Serial, 0..50, check);
        let parallel = try_sweep(Parallelism::threads(4), 0..50, check);
        assert_eq!(serial.results, parallel.results);
        assert_eq!(serial.rejected, parallel.rejected);
    }

    #[test]
    fn par_sweep_finite_matches_serial_reasons() {
        let model = |x: &f64| 1.0 / x;
        let params = [1.0, 0.0, -2.0, f64::NAN];
        let serial = sweep_finite(Parallelism::Serial, params, model);
        let parallel = sweep_finite(Parallelism::threads(3), params, model);
        assert_eq!(serial.results, parallel.results);
        assert_eq!(serial.rejected, parallel.rejected);
        assert_eq!(parallel.rejected[0].reason, "model produced a non-finite result (inf)");
    }
}
