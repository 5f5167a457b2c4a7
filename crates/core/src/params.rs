//! Table 1 as a single configuration surface: every input parameter of the
//! ACT model in one validated, serializable struct, with a facade that
//! evaluates eq. 1 directly.

use std::ops::RangeInclusive;

use act_data::{DramTechnology, HddModel, ProcessNode, SsdTechnology};
use act_units::{
    Area, Capacity, CarbonIntensity, Energy, Fraction, MassCo2, TimeSpan, UnitError,
};

use crate::{
    total_footprint, EmbodiedReport, FabScenario, ModelError, OperationalModel, SystemSpec,
    Validate,
};

act_json::json_struct! {
    [ToJson, FromJson]
    /// The input-parameter set of ACT's Table 1, bundled.
    ///
    /// This is the "config file" view of the model: where the builder APIs in
    /// [`SystemSpec`]/[`FabScenario`]/[`OperationalModel`] are for programmatic
    /// exploration, `ModelParams` maps one-to-one onto the paper's parameter
    /// table (T, LT, Nr, A, p, CIuse, CIfab, Y, capacities) and can be stored
    /// as JSON.
    ///
    /// # Examples
    ///
    /// ```
    /// use act_core::ModelParams;
    ///
    /// use act_json::{FromJson, JsonValue, ToJson};
    ///
    /// let params = ModelParams::mobile_reference();
    /// let json = params.to_json().render_compact();
    /// let back = ModelParams::from_json(&JsonValue::parse(&json).unwrap()).unwrap();
    /// let cf = back.footprint();
    /// assert!(cf.as_grams() > 0.0);
    /// ```
    #[derive(Clone, Debug, PartialEq)]
    pub struct ModelParams {
        /// `T` — application execution time in seconds.
        pub execution_time_s: f64,
        /// `LT` — hardware lifetime in years (paper range 1–10).
        pub lifetime_years: f64,
        /// `Nr` — number of packaged ICs.
        pub packaged_ic_count: u32,
        /// `A` — application-processor die area in mm².
        pub soc_area_mm2: f64,
        /// `p` — process node.
        pub process_node: ProcessNode,
        /// `CIuse` — use-phase carbon intensity, g CO₂/kWh.
        pub use_intensity_g_per_kwh: f64,
        /// `CIfab` — fab carbon intensity, g CO₂/kWh.
        pub fab_intensity_g_per_kwh: f64,
        /// `Y` — fab yield in `(0, 1]`.
        pub fab_yield: f64,
        /// DRAM population (technology, GB).
        pub dram: Vec<(DramTechnology, f64)>,
        /// SSD population (technology, GB).
        pub ssd: Vec<(SsdTechnology, f64)>,
        /// HDD population (model, GB).
        pub hdd: Vec<(HddModel, f64)>,
        /// Application energy over `T`, in joules.
        pub energy_j: f64,
    }
}

/// Error returned when [`ModelParams`] violates Table 1's ranges.
///
/// When the violation is a quantity-domain failure (NaN, infinite, out of
/// range), the underlying [`UnitError`] is preserved and exposed through
/// [`std::error::Error::source`].
#[derive(Clone, Debug, PartialEq)]
pub struct ParamsError {
    message: String,
    source: Option<UnitError>,
}

impl std::fmt::Display for ParamsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid model parameters: {}", self.message)
    }
}

impl std::error::Error for ParamsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.source.as_ref().map(|err| err as &(dyn std::error::Error + 'static))
    }
}

fn err_from_unit(message: impl Into<String>, source: UnitError) -> ParamsError {
    ParamsError { message: message.into(), source: Some(source) }
}

/// Table 1 hardware-lifetime range, years.
pub const LIFETIME_RANGE: RangeInclusive<f64> = 0.1..=50.0;

/// Table 1 carbon-intensity range (use and fab), g CO₂/kWh.
pub const INTENSITY_RANGE: RangeInclusive<f64> = 0.0..=2000.0;

/// Builds the [`UnitError`] describing a range violation, classifying NaN
/// and infinities as non-finite rather than out-of-domain.
pub(crate) fn domain_error(
    quantity: &'static str,
    value: f64,
    expected: &'static str,
) -> UnitError {
    if value.is_finite() {
        UnitError::out_of_domain(quantity, value, expected)
    } else {
        UnitError::non_finite(quantity, value)
    }
}

impl ModelParams {
    /// A mobile reference configuration: a 7 nm 90 mm² SoC with 8 GB
    /// LPDDR4 and 128 GB NAND, one hour of daily-driver use on the US grid
    /// over a 3-year life.
    #[must_use]
    pub fn mobile_reference() -> Self {
        Self {
            execution_time_s: act_units::SECONDS_PER_HOUR,
            lifetime_years: 3.0,
            packaged_ic_count: 3,
            soc_area_mm2: 90.0,
            process_node: ProcessNode::N7,
            use_intensity_g_per_kwh: 380.0,
            fab_intensity_g_per_kwh: 447.5,
            fab_yield: 0.875,
            dram: vec![(DramTechnology::Lpddr4, 8.0)],
            ssd: vec![(SsdTechnology::V3NandTlc, 128.0)],
            hdd: vec![],
            energy_j: 2.0 * act_units::SECONDS_PER_HOUR, // 2 W for an hour
        }
    }

    /// Validates every field against Table 1's documented ranges.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamsError`] naming the first violated constraint.
    pub fn validate(&self) -> Result<(), ParamsError> {
        if !(self.execution_time_s >= 0.0 && self.execution_time_s.is_finite()) {
            return Err(err_from_unit(
                "execution time must be non-negative and finite",
                domain_error("execution time", self.execution_time_s, "non-negative seconds"),
            ));
        }
        if !LIFETIME_RANGE.contains(&self.lifetime_years) {
            return Err(err_from_unit(
                format!(
                    "lifetime {} years outside the plausible 0.1-50 range",
                    self.lifetime_years
                ),
                domain_error(
                    "hardware lifetime",
                    self.lifetime_years,
                    "within [0.1, 50] years",
                ),
            ));
        }
        if self.soc_area_mm2 < 0.0 || !self.soc_area_mm2.is_finite() {
            return Err(err_from_unit(
                "SoC area must be non-negative",
                domain_error("SoC area", self.soc_area_mm2, "non-negative mm^2"),
            ));
        }
        for (label, ci) in
            [("use", self.use_intensity_g_per_kwh), ("fab", self.fab_intensity_g_per_kwh)]
        {
            if !INTENSITY_RANGE.contains(&ci) {
                return Err(err_from_unit(
                    format!("{label} carbon intensity {ci} outside 0-2000 g/kWh"),
                    domain_error("carbon intensity", ci, "within [0, 2000] g CO2/kWh"),
                ));
            }
        }
        if !(self.fab_yield > 0.0 && self.fab_yield <= 1.0) {
            return Err(err_from_unit(
                format!("fab yield {} outside (0, 1]", self.fab_yield),
                domain_error("fab yield", self.fab_yield, "within (0, 1]"),
            ));
        }
        let caps = self
            .dram
            .iter()
            .map(|(_, gb)| *gb)
            .chain(self.ssd.iter().map(|(_, gb)| *gb))
            .chain(self.hdd.iter().map(|(_, gb)| *gb));
        for gb in caps {
            if gb < 0.0 || !gb.is_finite() {
                return Err(err_from_unit(
                    "capacities must be non-negative",
                    domain_error("storage capacity", gb, "non-negative GB"),
                ));
            }
        }
        if self.energy_j < 0.0 || !self.energy_j.is_finite() {
            return Err(err_from_unit(
                "energy must be non-negative",
                domain_error("application energy", self.energy_j, "non-negative joules"),
            ));
        }
        Ok(())
    }

    /// The fab scenario these parameters imply.
    ///
    /// # Panics
    ///
    /// Panics if the parameters do not [`validate`](Self::validate).
    #[must_use]
    pub fn fab_scenario(&self) -> FabScenario {
        match self.try_fab_scenario() {
            Ok(scenario) => scenario,
            Err(err) => panic!("parameters must validate: {err}"),
        }
    }

    /// The hardware description these parameters imply.
    ///
    /// # Panics
    ///
    /// Panics if the parameters do not [`validate`](Self::validate).
    #[must_use]
    pub fn system_spec(&self) -> SystemSpec {
        match self.try_system_spec() {
            Ok(spec) => spec,
            Err(err) => panic!("parameters must validate: {err}"),
        }
    }

    /// Embodied footprint `ECF` (eq. 3).
    #[must_use]
    pub fn embodied(&self) -> MassCo2 {
        self.system_spec().embodied(&self.fab_scenario()).total()
    }

    /// Operational footprint `OPCF` (eq. 2).
    #[must_use]
    pub fn operational(&self) -> MassCo2 {
        OperationalModel::new(CarbonIntensity::grams_per_kwh(self.use_intensity_g_per_kwh))
            .footprint(Energy::joules(self.energy_j))
    }

    /// Total footprint `CF = OPCF + (T / LT) × ECF` (eq. 1).
    #[must_use]
    pub fn footprint(&self) -> MassCo2 {
        total_footprint(
            self.operational(),
            self.embodied(),
            TimeSpan::seconds(self.execution_time_s),
            TimeSpan::years(self.lifetime_years),
        )
    }

    /// Checked variant of [`Self::fab_scenario`].
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] if the parameters do not validate.
    pub fn try_fab_scenario(&self) -> Result<FabScenario, ModelError> {
        self.validate()?;
        let fab_yield = Fraction::new(self.fab_yield)?;
        Ok(FabScenario::with_intensity(CarbonIntensity::try_grams_per_kwh(
            self.fab_intensity_g_per_kwh,
        )?)
        .with_yield(fab_yield))
    }

    /// Checked variant of [`Self::system_spec`].
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] if the parameters do not validate.
    pub fn try_system_spec(&self) -> Result<SystemSpec, ModelError> {
        self.validate()?;
        let mut builder = SystemSpec::builder().soc(
            "application processor",
            Area::try_square_millimeters(self.soc_area_mm2)?,
            self.process_node,
        );
        for (tech, gb) in &self.dram {
            builder = builder.dram(*tech, Capacity::try_gigabytes(*gb)?);
        }
        for (tech, gb) in &self.ssd {
            builder = builder.ssd(*tech, Capacity::try_gigabytes(*gb)?);
        }
        for (model, gb) in &self.hdd {
            builder = builder.hdd(*model, Capacity::try_gigabytes(*gb)?);
        }
        builder.packaged_ics(self.packaged_ic_count).try_build()
    }

    /// Checked variant of [`Self::embodied`], returning the full
    /// per-component report.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] if the parameters do not validate or any
    /// component footprint evaluates to a non-finite mass.
    pub fn try_embodied(&self) -> Result<EmbodiedReport, ModelError> {
        self.try_system_spec()?.try_embodied(&self.try_fab_scenario()?)
    }

    /// Checked variant of [`Self::operational`].
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] if the parameters do not validate.
    pub fn try_operational(&self) -> Result<MassCo2, ModelError> {
        self.validate()?;
        let op = OperationalModel::new(CarbonIntensity::try_grams_per_kwh(
            self.use_intensity_g_per_kwh,
        )?);
        op.try_footprint(Energy::try_joules(self.energy_j)?)
    }

    /// Checked variant of [`Self::footprint`]: the full eq. 1 evaluation
    /// without any panicking path.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] if the parameters do not validate or any
    /// intermediate result is non-finite.
    ///
    /// # Examples
    ///
    /// ```
    /// use act_core::ModelParams;
    ///
    /// let mut params = ModelParams::mobile_reference();
    /// assert!(params.try_footprint().is_ok());
    /// params.fab_yield = f64::NAN;
    /// assert!(params.try_footprint().is_err());
    /// ```
    pub fn try_footprint(&self) -> Result<MassCo2, ModelError> {
        crate::try_total_footprint(
            self.try_operational()?,
            self.try_embodied()?.total(),
            TimeSpan::try_seconds(self.execution_time_s)?,
            TimeSpan::try_years(self.lifetime_years)?,
        )
    }
}

impl Validate for ModelParams {
    fn validate(&self) -> Result<(), ModelError> {
        ModelParams::validate(self).map_err(ModelError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_config_validates_and_evaluates() {
        let p = ModelParams::mobile_reference();
        assert!(p.validate().is_ok());
        assert!(p.embodied().as_kilograms() > 1.0);
        assert!(p.operational().as_grams() > 0.1);
        assert!(p.footprint() > p.operational());
    }

    #[test]
    fn facade_agrees_with_builder_path() {
        let p = ModelParams::mobile_reference();
        let spec = p.system_spec();
        let direct = spec.embodied(&p.fab_scenario()).total();
        assert_eq!(direct, p.embodied());
    }

    #[test]
    fn json_round_trip() {
        use act_json::{FromJson, JsonValue, ToJson};
        let p = ModelParams::mobile_reference();
        let json = p.to_json().render_compact();
        let back = ModelParams::from_json(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.footprint(), p.footprint());
    }

    #[test]
    fn validation_catches_each_violation() {
        let base = ModelParams::mobile_reference();

        let mut p = base.clone();
        p.lifetime_years = 0.0;
        assert!(p.validate().unwrap_err().to_string().contains("lifetime"));

        let mut p = base.clone();
        p.fab_yield = 0.0;
        assert!(p.validate().unwrap_err().to_string().contains("yield"));

        let mut p = base.clone();
        p.use_intensity_g_per_kwh = -1.0;
        assert!(p.validate().unwrap_err().to_string().contains("intensity"));

        let mut p = base.clone();
        p.dram[0].1 = -4.0;
        assert!(p.validate().unwrap_err().to_string().contains("capacities"));

        let mut p = base.clone();
        p.energy_j = f64::NAN;
        assert!(p.validate().is_err());

        let mut p = base;
        p.soc_area_mm2 = f64::INFINITY;
        assert!(p.validate().is_err());
    }

    #[test]
    fn zero_runtime_charges_no_embodied() {
        let mut p = ModelParams::mobile_reference();
        p.execution_time_s = 0.0;
        assert_eq!(p.footprint(), p.operational());
    }

    #[test]
    fn full_lifetime_charges_everything() {
        let mut p = ModelParams::mobile_reference();
        p.execution_time_s = TimeSpan::years(p.lifetime_years).as_seconds();
        let expected = p.operational() + p.embodied();
        assert!((p.footprint().ratio(expected) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "parameters must validate")]
    fn invalid_params_panic_on_use() {
        let mut p = ModelParams::mobile_reference();
        p.fab_yield = 2.0;
        let _ = p.embodied();
    }

    #[test]
    fn try_facade_agrees_with_panicking_facade() {
        let p = ModelParams::mobile_reference();
        assert_eq!(p.try_embodied().unwrap().total(), p.embodied());
        assert_eq!(p.try_operational().unwrap(), p.operational());
        assert_eq!(p.try_footprint().unwrap(), p.footprint());
    }

    #[test]
    fn try_facade_reports_instead_of_panicking() {
        let mut p = ModelParams::mobile_reference();
        p.fab_yield = 2.0;
        let err = p.try_footprint().unwrap_err();
        assert!(err.to_string().contains("yield"), "{err}");
        // The yield violation keeps its unit-level cause through the chain.
        let params_err = match err {
            crate::ModelError::Params(e) => e,
            other => panic!("expected a params error, got {other:?}"),
        };
        assert!(std::error::Error::source(&params_err).is_some());
    }

    #[test]
    fn validate_trait_wraps_inherent_validation() {
        let mut p = ModelParams::mobile_reference();
        assert!(crate::Validate::validate(&p).is_ok());
        p.energy_j = f64::INFINITY;
        let err = crate::Validate::validate(&p).unwrap_err();
        assert!(std::error::Error::source(&err).is_some());
    }
}
