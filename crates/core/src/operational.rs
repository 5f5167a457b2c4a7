//! The operational-carbon model of eq. 2: `OPCF = CIuse × Energy`, with the
//! utilization-effectiveness factors (PUE, battery charging efficiency) the
//! paper folds into the energy term.

use act_units::{CarbonIntensity, Energy, MassCo2, UnitError};

use crate::{ModelError, Validate};

act_json::json_struct! {
    [ToJson]
    /// Operational-emissions model: the carbon intensity of the energy the
    /// platform consumes plus delivery-efficiency overheads.
    ///
    /// `effectiveness` generalizes the data-center PUE and the mobile battery
    /// charging efficiency: it multiplies useful energy into wall energy. A PUE
    /// of 1.1 or a 90 %-efficient charger both become `effectiveness = 1.1`.
    ///
    /// # Examples
    ///
    /// ```
    /// use act_core::OperationalModel;
    /// use act_data::Location;
    /// use act_units::Energy;
    ///
    /// let op = OperationalModel::new(Location::UnitedStates.carbon_intensity())
    ///     .with_effectiveness(1.1);
    /// let footprint = op.footprint(Energy::kilowatt_hours(1.0));
    /// assert!((footprint.as_grams() - 418.0).abs() < 1e-9);
    /// ```
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct OperationalModel {
        intensity: CarbonIntensity,
        effectiveness: f64,
    }
}

impl OperationalModel {
    /// A model with unit effectiveness (all wall energy is useful energy).
    #[must_use]
    pub fn new(intensity: CarbonIntensity) -> Self {
        Self { intensity, effectiveness: 1.0 }
    }

    /// Sets the utilization-effectiveness multiplier (PUE or inverse battery
    /// efficiency).
    ///
    /// # Panics
    ///
    /// Panics if `effectiveness < 1.0` — delivering energy cannot create it.
    /// Use [`Self::try_with_effectiveness`] for user-supplied values.
    #[must_use]
    pub fn with_effectiveness(mut self, effectiveness: f64) -> Self {
        assert!(
            effectiveness >= 1.0,
            "utilization effectiveness must be >= 1.0, got {effectiveness}"
        );
        self.effectiveness = effectiveness;
        self
    }

    /// Checked variant of [`Self::with_effectiveness`].
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] if `effectiveness` is NaN, infinite or below
    /// one.
    pub fn try_with_effectiveness(self, effectiveness: f64) -> Result<Self, ModelError> {
        if !effectiveness.is_finite() {
            return Err(
                UnitError::non_finite("utilization effectiveness", effectiveness).into()
            );
        }
        if effectiveness < 1.0 {
            return Err(UnitError::out_of_domain(
                "utilization effectiveness",
                effectiveness,
                "at least 1.0",
            )
            .into());
        }
        Ok(self.with_effectiveness(effectiveness))
    }

    /// The `CIuse` parameter.
    #[must_use]
    pub fn intensity(&self) -> CarbonIntensity {
        self.intensity
    }

    /// The effectiveness multiplier.
    #[must_use]
    pub fn effectiveness(&self) -> f64 {
        self.effectiveness
    }

    /// Operational footprint of consuming `useful_energy` (eq. 2).
    #[must_use]
    pub fn footprint(&self, useful_energy: Energy) -> MassCo2 {
        self.intensity * (useful_energy * self.effectiveness)
    }

    /// Checked variant of [`Self::footprint`].
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] if the model is invalid, the energy is
    /// non-finite or negative, or the product is non-finite.
    pub fn try_footprint(&self, useful_energy: Energy) -> Result<MassCo2, ModelError> {
        self.validate()?;
        let joules = useful_energy.as_joules();
        if !joules.is_finite() {
            return Err(UnitError::non_finite("useful energy", joules).into());
        }
        if joules < 0.0 {
            return Err(UnitError::out_of_domain(
                "useful energy",
                joules,
                "a finite, non-negative number",
            )
            .into());
        }
        Ok(self.footprint(useful_energy).ensure_finite("operational footprint")?)
    }
}

impl Validate for OperationalModel {
    fn validate(&self) -> Result<(), ModelError> {
        let ci = self.intensity.as_grams_per_kwh();
        if !ci.is_finite() {
            return Err(UnitError::non_finite("use-phase carbon intensity", ci).into());
        }
        if ci < 0.0 {
            return Err(UnitError::out_of_domain(
                "use-phase carbon intensity",
                ci,
                "a finite, non-negative number",
            )
            .into());
        }
        if !self.effectiveness.is_finite() || self.effectiveness < 1.0 {
            return Err(UnitError::out_of_domain(
                "utilization effectiveness",
                self.effectiveness,
                "at least 1.0",
            )
            .into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use act_data::EnergySource;

    #[test]
    fn eq2_is_intensity_times_energy() {
        let op = OperationalModel::new(CarbonIntensity::grams_per_kwh(300.0));
        let footprint = op.footprint(Energy::kilowatt_hours(2.0));
        assert!((footprint.as_grams() - 600.0).abs() < 1e-9);
    }

    #[test]
    fn table4_opcf_reproduces_from_printed_latency_and_power() {
        // Table 4: OPCF at the average US intensity (300 g CO2/kWh).
        use act_data::snapdragon845::{profile, Engine};
        let op = OperationalModel::new(CarbonIntensity::grams_per_kwh(300.0));
        let ug = |e| op.footprint(profile(e).energy_per_inference()).as_micrograms();
        assert!((ug(Engine::Cpu) - 3.3).abs() < 0.05, "CPU {}", ug(Engine::Cpu));
        assert!((ug(Engine::Dsp) - 3.1).abs() < 0.2, "DSP {}", ug(Engine::Dsp));
        assert!((ug(Engine::Gpu) - 1.5).abs() < 0.05, "GPU {}", ug(Engine::Gpu));
    }

    #[test]
    fn effectiveness_scales_footprint() {
        let base = OperationalModel::new(EnergySource::Gas.carbon_intensity());
        let pue = base.with_effectiveness(1.5);
        let e = Energy::kilowatt_hours(1.0);
        assert!((pue.footprint(e).ratio(base.footprint(e)) - 1.5).abs() < 1e-12);
        assert_eq!(pue.effectiveness(), 1.5);
    }

    #[test]
    fn carbon_free_energy_means_zero_opcf() {
        let op = OperationalModel::new(CarbonIntensity::grams_per_kwh(0.0));
        assert_eq!(op.footprint(Energy::kilowatt_hours(100.0)), MassCo2::ZERO);
    }

    #[test]
    #[should_panic(expected = "must be >= 1.0")]
    fn sub_unity_effectiveness_rejected() {
        let _ =
            OperationalModel::new(CarbonIntensity::grams_per_kwh(1.0)).with_effectiveness(0.9);
    }

    #[test]
    fn try_effectiveness_errors_instead_of_panicking() {
        let op = OperationalModel::new(CarbonIntensity::grams_per_kwh(1.0));
        assert!(op.try_with_effectiveness(1.5).is_ok());
        assert!(op.try_with_effectiveness(0.9).is_err());
        assert!(op.try_with_effectiveness(f64::NAN).is_err());
    }

    #[test]
    fn try_footprint_agrees_and_rejects_bad_energy() {
        let op = OperationalModel::new(CarbonIntensity::grams_per_kwh(300.0));
        let e = Energy::kilowatt_hours(2.0);
        assert_eq!(op.try_footprint(e).unwrap(), op.footprint(e));
        assert!(op.try_footprint(Energy::joules(-1.0)).is_err());
    }
}
