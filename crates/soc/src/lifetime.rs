//! The Figure 14 (right) replacement model: how hardware lifetime trades
//! embodied against operational emissions over a deployment horizon.

use act_units::UnitError;

act_json::json_struct! {
    [ToJson]
    /// Models a user who always owns one device over a fixed horizon, replacing
    /// it every `lifetime` years with the then-current generation. Longer
    /// lifetimes amortize embodied carbon over more years but forfeit the
    /// annual energy-efficiency improvements of newer hardware.
    ///
    /// Footprints are expressed relative to the first device's first-year
    /// operational carbon, so only the ratio between embodied-per-device and
    /// that quantity matters.
    ///
    /// # Examples
    ///
    /// ```
    /// use act_soc::ReplacementModel;
    ///
    /// let model = ReplacementModel::mobile_study(1.21);
    /// // The paper finds the optimum around 5 years over a 10-year horizon.
    /// assert_eq!(model.optimal_lifetime_years(), 5);
    /// ```
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct ReplacementModel {
        /// Deployment horizon in whole years.
        pub horizon_years: u32,
        /// Embodied carbon per device, in units of the first device's
        /// first-year operational carbon.
        pub embodied_per_device: f64,
        /// Annual energy-efficiency improvement factor of new hardware
        /// (e.g. 1.21 = 21 %/year).
        pub improvement_rate: f64,
    }
}

impl ReplacementModel {
    /// The paper's mobile study: a 10-year horizon with mobile-IC embodied
    /// carbon ≈ 1.6× the first year's operational carbon, and the measured
    /// efficiency trend.
    ///
    /// # Panics
    ///
    /// Panics if `improvement_rate <= 1.0`. Use [`Self::try_mobile_study`]
    /// for user-supplied rates.
    #[must_use]
    pub fn mobile_study(improvement_rate: f64) -> Self {
        assert!(improvement_rate > 1.0, "hardware must improve for the study to be meaningful");
        Self { horizon_years: 10, embodied_per_device: 1.58, improvement_rate }
    }

    /// Checked variant of [`Self::mobile_study`].
    ///
    /// # Errors
    ///
    /// Returns a [`UnitError`] if `improvement_rate` is NaN, infinite or not
    /// above one.
    pub fn try_mobile_study(improvement_rate: f64) -> Result<Self, UnitError> {
        if !improvement_rate.is_finite() {
            return Err(UnitError::non_finite("efficiency improvement rate", improvement_rate));
        }
        if improvement_rate <= 1.0 {
            return Err(UnitError::out_of_domain(
                "efficiency improvement rate",
                improvement_rate,
                "above 1.0",
            ));
        }
        Ok(Self::mobile_study(improvement_rate))
    }

    /// Validates the model: a positive horizon, a finite non-negative
    /// embodied share, and an improvement rate above one.
    ///
    /// # Errors
    ///
    /// Returns a [`UnitError`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), UnitError> {
        if self.horizon_years == 0 {
            return Err(UnitError::out_of_domain(
                "deployment horizon",
                0.0,
                "at least one year",
            ));
        }
        if !self.embodied_per_device.is_finite() {
            return Err(UnitError::non_finite(
                "embodied carbon per device",
                self.embodied_per_device,
            ));
        }
        if self.embodied_per_device < 0.0 {
            return Err(UnitError::out_of_domain(
                "embodied carbon per device",
                self.embodied_per_device,
                "a finite, non-negative number",
            ));
        }
        if !self.improvement_rate.is_finite() {
            return Err(UnitError::non_finite(
                "efficiency improvement rate",
                self.improvement_rate,
            ));
        }
        if self.improvement_rate <= 1.0 {
            return Err(UnitError::out_of_domain(
                "efficiency improvement rate",
                self.improvement_rate,
                "above 1.0",
            ));
        }
        Ok(())
    }

    /// Number of devices consumed when replacing every `lifetime_years`.
    #[must_use]
    pub fn devices_needed(&self, lifetime_years: u32) -> u32 {
        assert!(lifetime_years > 0, "lifetime must be at least one year");
        self.horizon_years.div_ceil(lifetime_years)
    }

    /// Total embodied carbon over the horizon (relative units).
    #[must_use]
    pub fn embodied_total(&self, lifetime_years: u32) -> f64 {
        f64::from(self.devices_needed(lifetime_years)) * self.embodied_per_device
    }

    /// Total operational carbon over the horizon (relative units): each
    /// device generation runs the same workload at the efficiency of its
    /// purchase year.
    #[must_use]
    pub fn operational_total(&self, lifetime_years: u32) -> f64 {
        assert!(lifetime_years > 0, "lifetime must be at least one year");
        let mut total = 0.0;
        let mut year = 0;
        while year < self.horizon_years {
            let span = lifetime_years.min(self.horizon_years - year);
            let generation_efficiency = self.improvement_rate.powi(year as i32);
            total += f64::from(span) / generation_efficiency;
            year += span;
        }
        total
    }

    /// Combined footprint over the horizon (relative units).
    #[must_use]
    pub fn total(&self, lifetime_years: u32) -> f64 {
        self.embodied_total(lifetime_years) + self.operational_total(lifetime_years)
    }

    /// The lifetime in `1..=horizon` minimizing the combined footprint.
    #[must_use]
    pub fn optimal_lifetime_years(&self) -> u32 {
        (1..=self.horizon_years)
            .min_by(|a, b| self.total(*a).total_cmp(&self.total(*b)))
            .unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ReplacementModel {
        ReplacementModel::mobile_study(1.21)
    }

    #[test]
    fn device_counts() {
        let m = model();
        assert_eq!(m.devices_needed(1), 10);
        assert_eq!(m.devices_needed(3), 4);
        assert_eq!(m.devices_needed(5), 2);
        assert_eq!(m.devices_needed(10), 1);
    }

    #[test]
    fn embodied_falls_with_longer_lifetimes() {
        let m = model();
        let mut last = f64::INFINITY;
        for lt in 1..=10 {
            let e = m.embodied_total(lt);
            assert!(e <= last, "embodied should not rise with lifetime");
            last = e;
        }
    }

    #[test]
    fn operational_rises_with_longer_lifetimes() {
        let m = model();
        let mut last = 0.0;
        for lt in 1..=10 {
            let o = m.operational_total(lt);
            assert!(o >= last, "operational should not fall with lifetime");
            last = o;
        }
    }

    #[test]
    fn paper_optimum_is_five_years() {
        assert_eq!(model().optimal_lifetime_years(), 5);
    }

    #[test]
    fn five_years_beats_current_lifetimes_by_about_1_26x() {
        // "Compared to current lifetimes of 2-3 years ... reduce overall
        // carbon footprint by up to 1.26x."
        let m = model();
        let current = (m.total(2) + m.total(3)) / 2.0;
        let ratio = current / m.total(5);
        assert!((1.15..=1.40).contains(&ratio), "improvement {ratio}");
    }

    #[test]
    fn optimum_is_robust_across_measured_trend_band() {
        for rate in [1.17, 1.19, 1.21, 1.23] {
            let m = ReplacementModel::mobile_study(rate);
            let opt = m.optimal_lifetime_years();
            assert!((4..=6).contains(&opt), "rate {rate} -> optimum {opt}");
        }
    }

    #[test]
    fn faster_improvement_favors_shorter_lifetimes() {
        let slow = ReplacementModel::mobile_study(1.05);
        let fast = ReplacementModel::mobile_study(1.60);
        assert!(slow.optimal_lifetime_years() >= fast.optimal_lifetime_years());
    }

    #[test]
    fn one_year_horizon_is_trivial() {
        let m = ReplacementModel { horizon_years: 1, ..model() };
        assert_eq!(m.optimal_lifetime_years(), 1);
    }

    #[test]
    #[should_panic(expected = "lifetime must be at least one year")]
    fn zero_lifetime_rejected() {
        let _ = model().total(0);
    }

    #[test]
    #[should_panic(expected = "must improve")]
    fn degenerate_improvement_rejected() {
        let _ = ReplacementModel::mobile_study(1.0);
    }

    #[test]
    fn try_mobile_study_errors_instead_of_panicking() {
        assert_eq!(
            ReplacementModel::try_mobile_study(1.21).unwrap(),
            ReplacementModel::mobile_study(1.21)
        );
        assert!(ReplacementModel::try_mobile_study(1.0).is_err());
        assert!(ReplacementModel::try_mobile_study(f64::NAN).is_err());
    }
}
