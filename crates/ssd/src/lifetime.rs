//! The analytical write-amplification and lifetime models.

use act_units::UnitError;

use crate::provisioning::OverProvisioning;

/// Closed-form write amplification of greedy garbage collection under
/// uniform random writes: `WA = (1 + PF) / (2 × PF)`, floored at 1 for
/// pathological over-provisioning (spare ≥ user capacity).
///
/// This is the classic continuum result (Desnoyers / Hu et al.) the paper's
/// Figure 15 (top, black) follows: spare area gives garbage collection
/// emptier victims, so fewer live pages are copied per reclaimed block.
///
/// # Examples
///
/// ```
/// use act_ssd::{analytical_write_amplification, OverProvisioning};
/// let wa4 = analytical_write_amplification(OverProvisioning::new(0.04)?);
/// let wa34 = analytical_write_amplification(OverProvisioning::new(0.34)?);
/// assert!((wa4 - 13.0).abs() < 1e-9);
/// assert!(wa34 < 2.0);
/// # Ok::<(), act_ssd::OverProvisioningError>(())
/// ```
#[must_use]
pub fn analytical_write_amplification(pf: OverProvisioning) -> f64 {
    ((1.0 + pf.get()) / (2.0 * pf.get())).max(1.0)
}

act_json::json_struct! {
    [ToJson]
    /// The Meza-et-al. SSD lifetime model the paper adopts:
    ///
    /// ```text
    /// Lifetime (years) = PEC × (1 + PF) / (365 × DWPD × WA × Rcompress)
    /// ```
    ///
    /// Defaults follow the paper's fixed parameters for mobile-class TLC flash:
    /// `PEC = 3000`, `DWPD = 1.3`, `Rcompress = 1.0`, with `WA` supplied by the
    /// analytical greedy-GC model.
    ///
    /// # Examples
    ///
    /// ```
    /// use act_ssd::{LifetimeModel, OverProvisioning};
    ///
    /// let model = LifetimeModel::default();
    /// let short = model.lifetime_years(OverProvisioning::new(0.04)?);
    /// let long = model.lifetime_years(OverProvisioning::new(0.34)?);
    /// assert!(short < 1.0 && long > 4.0);
    /// # Ok::<(), act_ssd::OverProvisioningError>(())
    /// ```
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct LifetimeModel {
        /// Rated program/erase cycles of the flash, `PEC`.
        pub program_erase_cycles: f64,
        /// Full physical disk writes per day, `DWPD`.
        pub disk_writes_per_day: f64,
        /// Storage compression rate, `Rcompress`.
        pub compression_rate: f64,
    }
}

impl Default for LifetimeModel {
    fn default() -> Self {
        Self { program_erase_cycles: 3000.0, disk_writes_per_day: 1.3, compression_rate: 1.0 }
    }
}

impl LifetimeModel {
    /// Lifetime in years using the analytical WA model.
    #[must_use]
    pub fn lifetime_years(&self, pf: OverProvisioning) -> f64 {
        self.lifetime_years_with_wa(pf, analytical_write_amplification(pf))
    }

    /// Lifetime in years with an externally supplied write-amplification
    /// factor (e.g. measured by the FTL simulator).
    ///
    /// # Panics
    ///
    /// Panics if `wa < 1` or any model parameter is non-positive. Use
    /// [`Self::try_lifetime_years_with_wa`] for user-supplied values.
    #[must_use]
    pub fn lifetime_years_with_wa(&self, pf: OverProvisioning, wa: f64) -> f64 {
        assert!(wa >= 1.0, "write amplification cannot be below 1, got {wa}");
        assert!(
            self.program_erase_cycles > 0.0
                && self.disk_writes_per_day > 0.0
                && self.compression_rate > 0.0,
            "lifetime model parameters must be positive"
        );
        self.program_erase_cycles * pf.physical_capacity_factor()
            / (365.0 * self.disk_writes_per_day * wa * self.compression_rate)
    }

    /// Validates the model parameters: all must be positive and finite.
    ///
    /// # Errors
    ///
    /// Returns a [`UnitError`] naming the first invalid parameter.
    pub fn validate(&self) -> Result<(), UnitError> {
        for (name, value) in [
            ("program/erase cycles", self.program_erase_cycles),
            ("disk writes per day", self.disk_writes_per_day),
            ("compression rate", self.compression_rate),
        ] {
            if !value.is_finite() {
                return Err(UnitError::non_finite(name, value));
            }
            if value <= 0.0 {
                return Err(UnitError::out_of_domain(name, value, "a positive number"));
            }
        }
        Ok(())
    }

    /// Checked variant of [`Self::lifetime_years_with_wa`].
    ///
    /// # Errors
    ///
    /// Returns a [`UnitError`] if `wa` is non-finite or below 1, or any
    /// model parameter is non-positive.
    pub fn try_lifetime_years_with_wa(
        &self,
        pf: OverProvisioning,
        wa: f64,
    ) -> Result<f64, UnitError> {
        if !wa.is_finite() {
            return Err(UnitError::non_finite("write amplification", wa));
        }
        if wa < 1.0 {
            return Err(UnitError::out_of_domain("write amplification", wa, "at least 1.0"));
        }
        self.validate()?;
        Ok(self.lifetime_years_with_wa(pf, wa))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pf(v: f64) -> OverProvisioning {
        OverProvisioning::new(v).unwrap()
    }

    #[test]
    fn wa_matches_closed_form() {
        assert!((analytical_write_amplification(pf(0.04)) - 13.0).abs() < 1e-9);
        assert!((analytical_write_amplification(pf(0.16)) - 3.625).abs() < 1e-9);
        assert!((analytical_write_amplification(pf(0.34)) - 1.9706).abs() < 1e-3);
    }

    #[test]
    fn wa_decreases_monotonically_with_op() {
        let mut last = f64::INFINITY;
        for v in [0.02, 0.04, 0.1, 0.16, 0.22, 0.28, 0.34, 0.4, 0.7] {
            let wa = analytical_write_amplification(pf(v));
            assert!(wa < last, "WA({v}) = {wa}");
            assert!(wa >= 1.0);
            last = wa;
        }
    }

    #[test]
    fn wa_floors_at_one() {
        assert_eq!(analytical_write_amplification(pf(1.0)), 1.0);
    }

    #[test]
    fn paper_anchor_points() {
        // First life: 16 % OP sustains ~2 years; second life: 34 % ~4 years.
        let model = LifetimeModel::default();
        assert!((model.lifetime_years(pf(0.16)) - 2.02).abs() < 0.05);
        assert!((model.lifetime_years(pf(0.34)) - 4.30).abs() < 0.05);
    }

    #[test]
    fn lifetime_is_linear_in_pf_under_analytical_wa() {
        // (1+PF)/WA = 2 PF, so lifetime = 2·PEC·PF / (365·DWPD·R).
        let model = LifetimeModel::default();
        let l1 = model.lifetime_years(pf(0.1));
        let l2 = model.lifetime_years(pf(0.2));
        assert!((l2 / l1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn heavier_write_load_shortens_life() {
        let light = LifetimeModel { disk_writes_per_day: 0.5, ..LifetimeModel::default() };
        let heavy = LifetimeModel { disk_writes_per_day: 3.0, ..LifetimeModel::default() };
        assert!(light.lifetime_years(pf(0.2)) > heavy.lifetime_years(pf(0.2)));
    }

    #[test]
    fn external_wa_overrides_analytical() {
        let model = LifetimeModel::default();
        let analytical = model.lifetime_years(pf(0.16));
        let measured = model.lifetime_years_with_wa(pf(0.16), 5.0);
        assert!(measured < analytical);
    }

    #[test]
    #[should_panic(expected = "cannot be below 1")]
    fn sub_unity_wa_rejected() {
        let _ = LifetimeModel::default().lifetime_years_with_wa(pf(0.1), 0.5);
    }

    #[test]
    fn try_lifetime_agrees_and_rejects_bad_inputs() {
        let model = LifetimeModel::default();
        assert_eq!(
            model.try_lifetime_years_with_wa(pf(0.16), 5.0).unwrap(),
            model.lifetime_years_with_wa(pf(0.16), 5.0)
        );
        assert!(model.try_lifetime_years_with_wa(pf(0.1), 0.5).is_err());
        assert!(model.try_lifetime_years_with_wa(pf(0.1), f64::NAN).is_err());
        let bad = LifetimeModel { compression_rate: -1.0, ..LifetimeModel::default() };
        assert!(bad.try_lifetime_years_with_wa(pf(0.1), 2.0).is_err());
        assert!(bad.validate().is_err());
        assert!(LifetimeModel::default().validate().is_ok());
    }
}
