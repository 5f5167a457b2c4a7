//! Sweep axes and the record of a point a sweep rejected.

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

/// `n` evenly spaced values from `start` to `end` inclusive: the
/// exponents [`logspace`] maps back through `exp`.
///
/// # Panics
///
/// Panics if `n < 2`.
fn evenly_spaced(start: f64, end: f64, n: usize) -> impl Iterator<Item = f64> {
    assert!(n >= 2, "logspace needs at least two points");
    let step = (end - start) / (n - 1) as f64;
    (0..n).map(move |i| start + step * i as f64)
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
    assert!(start > 0.0 && end > 0.0, "logspace endpoints must be positive");
    evenly_spaced(start.ln(), end.ln(), n).map(f64::exp).collect()
}

/// One design point a block sweep rejected, with its position in the
/// batch and the reason.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RejectedPoint {
    /// Zero-based index of the point in the swept batch.
    pub index: usize,
    /// Why the point was rejected, rendered.
    pub reason: String,
}

act_json::impl_to_json!(RejectedPoint { index, reason });

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
        let v: Vec<f64> = evenly_spaced(1.0, 10.0, 10).collect();
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
    fn rejected_points_serialize() {
        use act_json::ToJson;
        let rejected = vec![RejectedPoint { index: 0, reason: "pole".to_owned() }];
        let json = rejected.to_json().render_compact();
        assert_eq!(json, r#"[{"index":0,"reason":"pole"}]"#);
    }

    #[test]
    fn iterator_variants_match_vec_variants() {
        assert_eq!(powers_of_two_iter(3, 20).collect::<Vec<_>>(), powers_of_two(3, 20));
        assert_eq!(powers_of_two_iter(8, 8).collect::<Vec<_>>(), vec![8]);
        let overflow: Vec<u32> = powers_of_two_iter(1 << 30, u32::MAX).collect();
        assert_eq!(overflow, vec![1 << 30, 1 << 31]);
    }

    #[test]
    #[should_panic(expected = "exceeds upper bound")]
    fn powers_of_two_iter_rejects_inverted_range() {
        let _ = powers_of_two_iter(16, 8);
    }
}
