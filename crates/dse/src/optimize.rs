//! Constrained selection: the cheapest design that meets a requirement.

/// Index of the cheapest item satisfying `feasible` — the QoS- and
/// area-constrained optimization of Figure 13. Returns `None` when nothing
/// is feasible.
///
/// # Examples
///
/// ```
/// use act_dse::argmin_feasible;
/// // Cheapest design achieving at least 30 FPS.
/// let designs = [(10.0_f64, 8.0_f64), (16.0, 33.0), (53.0, 270.0)];
/// let best = argmin_feasible(&designs, |d| d.0, |d| d.1 >= 30.0);
/// assert_eq!(best, Some(1));
/// ```
pub fn argmin_feasible<T>(
    items: &[T],
    mut cost: impl FnMut(&T) -> f64,
    mut feasible: impl FnMut(&T) -> bool,
) -> Option<usize> {
    items
        .iter()
        .enumerate()
        .filter(|(_, item)| feasible(item))
        .filter_map(|(i, item)| {
            let c = cost(item);
            c.is_finite().then_some((i, c))
        })
        .min_by(|(_, a), (_, b)| a.total_cmp(b))
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The unconstrained argmin: every item is feasible.
    fn argmin(values: &[f64]) -> Option<usize> {
        argmin_feasible(values, |x| *x, |_| true)
    }

    #[test]
    fn argmin_skips_nan() {
        assert_eq!(argmin(&[f64::NAN, 2.0, 1.0]), Some(2));
    }

    #[test]
    fn argmin_empty_is_none() {
        assert_eq!(argmin(&[]), None);
    }

    #[test]
    fn argmin_all_nan_is_none() {
        assert_eq!(argmin(&[f64::NAN, f64::NAN]), None);
    }

    #[test]
    fn constrained_argmin_ignores_infeasible_cheap_points() {
        // The cheapest overall design misses the QoS bar.
        let designs = [(1.0_f64, 10.0_f64), (5.0, 40.0), (3.0, 35.0)];
        assert_eq!(argmin_feasible(&designs, |d| d.0, |d| d.1 >= 30.0), Some(2));
    }

    #[test]
    fn constrained_argmin_none_when_infeasible() {
        let designs = [(1.0_f64, 10.0_f64)];
        assert_eq!(argmin_feasible(&designs, |d| d.0, |d| d.1 >= 30.0), None);
    }
}
