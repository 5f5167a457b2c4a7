//! Time-varying carbon intensity and carbon-aware scheduling.
//!
//! The paper's appendix notes that "while these are average values, carbon
//! intensity can fluctuate over time", and its renewable-energy discussion
//! builds on carbon-aware computing (zero-carbon cloud, carbon-aware
//! datacenters). This module provides the primitive those use cases need:
//! an hourly intensity profile and window selection over it.

use act_units::{CarbonIntensity, Energy, MassCo2};

act_json::json_struct! {
    [ToJson]
    /// A 24-hour carbon-intensity profile with hourly resolution.
    ///
    /// # Examples
    ///
    /// ```
    /// use act_core::IntensityProfile;
    /// use act_units::{CarbonIntensity, Energy};
    ///
    /// let grid = IntensityProfile::solar_grid(
    ///     CarbonIntensity::grams_per_kwh(500.0),
    ///     0.6,
    /// );
    /// // Midday is cleaner than midnight on a solar-heavy grid.
    /// assert!(grid.at_hour(13) < grid.at_hour(0));
    ///
    /// // Schedule a 4-hour job in its cleanest window.
    /// let start = grid.cleanest_window_start(4);
    /// let best = grid.window_footprint(start, 4, Energy::kilowatt_hours(1.0));
    /// let worst = grid.window_footprint(0, 4, Energy::kilowatt_hours(1.0));
    /// assert!(best <= worst);
    /// ```
    #[derive(Clone, Debug, PartialEq)]
    pub struct IntensityProfile {
        hourly: [CarbonIntensity; 24],
    }
}

impl IntensityProfile {
    /// A flat profile (the paper's average-value assumption).
    #[must_use]
    pub fn constant(intensity: CarbonIntensity) -> Self {
        Self { hourly: [intensity; 24] }
    }

    /// A stylized solar-heavy grid: the baseline intensity is displaced by
    /// solar generation following a half-sine between 06:00 and 18:00,
    /// scaled so that at peak (noon) a `solar_share` fraction of demand is
    /// solar-served at 41 g CO₂/kWh.
    ///
    /// # Panics
    ///
    /// Panics if `solar_share` is outside `[0, 1]`.
    #[must_use]
    pub fn solar_grid(baseline: CarbonIntensity, solar_share: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&solar_share),
            "solar share must be in [0, 1], got {solar_share}"
        );
        let solar = CarbonIntensity::grams_per_kwh(41.0);
        let mut hourly = [baseline; 24];
        for (hour, slot) in hourly.iter_mut().enumerate() {
            let h = hour as f64;
            if (6.0..=18.0).contains(&h) {
                let elevation = ((h - 6.0) / 12.0 * std::f64::consts::PI).sin();
                *slot = baseline.blended_with(solar, solar_share * elevation);
            }
        }
        Self { hourly }
    }

    /// The intensity at an hour of day (wraps modulo 24).
    #[must_use]
    pub fn at_hour(&self, hour: usize) -> CarbonIntensity {
        self.hourly[hour % 24]
    }

    /// Demand-weighted daily average (uniform demand).
    #[must_use]
    pub fn daily_average(&self) -> CarbonIntensity {
        let sum: f64 = self.hourly.iter().map(|c| c.as_grams_per_kwh()).sum();
        CarbonIntensity::grams_per_kwh(sum / 24.0)
    }

    /// Footprint of consuming `energy` uniformly over a window of
    /// `duration_hours` starting at `start_hour` (wrapping past midnight).
    ///
    /// # Panics
    ///
    /// Panics if `duration_hours` is zero.
    #[must_use]
    pub fn window_footprint(
        &self,
        start_hour: usize,
        duration_hours: usize,
        energy: Energy,
    ) -> MassCo2 {
        assert!(duration_hours > 0, "a job needs a positive duration");
        let per_hour = energy / duration_hours as f64;
        (0..duration_hours).map(|h| self.at_hour(start_hour + h) * per_hour).sum()
    }

    /// The start hour minimizing the footprint of a `duration_hours` job —
    /// the core move of carbon-aware scheduling.
    ///
    /// # Panics
    ///
    /// Panics if `duration_hours` is zero.
    #[must_use]
    pub fn cleanest_window_start(&self, duration_hours: usize) -> usize {
        let probe = Energy::kilowatt_hours(1.0);
        (0..24)
            .min_by(|&a, &b| {
                self.window_footprint(a, duration_hours, probe)
                    .total_cmp(&self.window_footprint(b, duration_hours, probe))
            })
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solar() -> IntensityProfile {
        IntensityProfile::solar_grid(CarbonIntensity::grams_per_kwh(500.0), 0.6)
    }

    /// Share of a `hours`-long midnight job's footprint saved by moving it
    /// to the profile's cleanest window.
    fn saving_from_midnight(p: &IntensityProfile, hours: usize) -> f64 {
        let probe = Energy::kilowatt_hours(1.0);
        let best = p.window_footprint(p.cleanest_window_start(hours), hours, probe);
        1.0 - best.ratio(p.window_footprint(0, hours, probe))
    }

    #[test]
    fn constant_profile_is_flat() {
        let p = IntensityProfile::constant(CarbonIntensity::grams_per_kwh(300.0));
        for h in 0..24 {
            assert_eq!(p.at_hour(h), CarbonIntensity::grams_per_kwh(300.0));
        }
        assert_eq!(p.daily_average(), CarbonIntensity::grams_per_kwh(300.0));
        assert_eq!(saving_from_midnight(&p, 4), 0.0);
    }

    #[test]
    fn solar_grid_dips_at_noon() {
        let p = solar();
        assert!(p.at_hour(12) < p.at_hour(9));
        assert!(p.at_hour(12) < p.at_hour(17));
        assert_eq!(p.at_hour(0), CarbonIntensity::grams_per_kwh(500.0));
        assert_eq!(p.at_hour(23), CarbonIntensity::grams_per_kwh(500.0));
        // Peak displacement: 60 % solar at 41 g.
        let noon = p.at_hour(12).as_grams_per_kwh();
        assert!((noon - (0.4 * 500.0 + 0.6 * 41.0)).abs() < 6.0, "noon {noon}");
    }

    #[test]
    fn hour_wraps_modulo_24() {
        let p = solar();
        assert_eq!(p.at_hour(26), p.at_hour(2));
    }

    #[test]
    fn cleanest_window_straddles_noon() {
        let start = solar().cleanest_window_start(4);
        assert!((9..=12).contains(&start), "start {start}");
    }

    #[test]
    fn window_footprint_sums_hours() {
        let p = IntensityProfile::constant(CarbonIntensity::grams_per_kwh(100.0));
        let m = p.window_footprint(5, 3, Energy::kilowatt_hours(3.0));
        assert!((m.as_grams() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn scheduling_saves_real_carbon_on_solar_grids() {
        let benefit = saving_from_midnight(&solar(), 4);
        assert!((0.2..0.7).contains(&benefit), "benefit {benefit}");
    }

    #[test]
    fn longer_jobs_benefit_less_from_shifting() {
        let p = solar();
        assert!(saving_from_midnight(&p, 2) > saving_from_midnight(&p, 12));
        assert!(saving_from_midnight(&p, 24).abs() < 1e-9);
    }

    #[test]
    fn daily_average_sits_between_extremes() {
        let p = solar();
        let avg = p.daily_average();
        assert!(avg < p.at_hour(0));
        assert!(avg > p.at_hour(12));
    }

    #[test]
    #[should_panic(expected = "positive duration")]
    fn zero_duration_rejected() {
        let _ = solar().window_footprint(0, 0, Energy::kilowatt_hours(1.0));
    }

    #[test]
    #[should_panic(expected = "solar share")]
    fn invalid_share_rejected() {
        let _ = IntensityProfile::solar_grid(CarbonIntensity::grams_per_kwh(500.0), 1.5);
    }
}
