//! The semiconductor-fab model behind eq. 5:
//! `CPA = (CIfab × EPA + GPA + MPA) / Y`.

use act_data::{Abatement, EnergySource, Location, ProcessNode};
use act_units::{CarbonIntensity, Fraction, MassPerArea, UnitError};

use crate::{ModelError, Validate};

act_json::json_struct! {
    [ToJson, FromJson]
    /// A semiconductor-fab operating scenario: the energy source powering the
    /// fab, its gaseous-abatement strategy, and its yield.
    ///
    /// The paper's default ("average fab characteristics") is a fab on the
    /// Taiwan power grid procuring 25 % renewable (solar) energy, with 97 %
    /// gaseous abatement — the solid line of Figure 6.
    ///
    /// # Examples
    ///
    /// ```
    /// use act_core::FabScenario;
    /// use act_data::ProcessNode;
    ///
    /// let default_fab = FabScenario::default();
    /// let green_fab = FabScenario::renewable();
    /// let node = ProcessNode::N7Euv;
    /// assert!(green_fab.carbon_per_area(node) < default_fab.carbon_per_area(node));
    /// ```
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct FabScenario {
        /// Carbon intensity of the electricity the fab consumes (`CIfab`).
        pub energy_intensity: CarbonIntensity,
        /// Gaseous abatement effectiveness (selects the `GPA` column).
        pub abatement: Abatement,
        /// Fab yield `Y`; good dies per wafer dies.
        pub fab_yield: Fraction,
    }
}

/// The paper's default yield assumption, validated at compile time.
const DEFAULT_YIELD: Fraction = Fraction::new_const(0.875);

impl FabScenario {
    /// A fab with an explicit energy carbon intensity, the default 97 %
    /// abatement and 0.875 yield.
    #[must_use]
    pub fn with_intensity(energy_intensity: CarbonIntensity) -> Self {
        Self { energy_intensity, abatement: Abatement::default(), fab_yield: DEFAULT_YIELD }
    }

    /// The paper's upper-bound fab: powered by the average Taiwan grid.
    #[must_use]
    pub fn taiwan_grid() -> Self {
        Self::with_intensity(Location::Taiwan.carbon_intensity())
    }

    /// The paper's default fab: the Taiwan grid with 25 % solar procurement
    /// (the solid line of Figure 6).
    #[must_use]
    pub fn taiwan_partially_renewable() -> Self {
        Self::with_intensity(
            Location::Taiwan
                .carbon_intensity()
                .blended_with(EnergySource::Solar.carbon_intensity(), 0.25),
        )
    }

    /// The paper's lower-bound fab: 100 % solar powered.
    #[must_use]
    pub fn renewable() -> Self {
        Self::with_intensity(EnergySource::Solar.carbon_intensity())
    }

    /// A coal-powered fab (the dirty end of Figure 10's bottom sweep).
    #[must_use]
    pub fn coal() -> Self {
        Self::with_intensity(EnergySource::Coal.carbon_intensity())
    }

    /// A hypothetical carbon-free fab: only gas and material emissions
    /// remain.
    #[must_use]
    pub fn carbon_free() -> Self {
        Self::with_intensity(CarbonIntensity::grams_per_kwh(0.0))
    }

    /// Replaces the abatement strategy.
    #[must_use]
    pub fn with_abatement(mut self, abatement: Abatement) -> Self {
        self.abatement = abatement;
        self
    }

    /// Replaces the fab yield.
    #[must_use]
    pub fn with_yield(mut self, fab_yield: Fraction) -> Self {
        self.fab_yield = fab_yield;
        self
    }

    /// The per-area carbon components before yield derating:
    /// fab energy (`CIfab × EPA`), gases (`GPA`) and materials (`MPA`).
    #[must_use]
    pub fn cpa_breakdown(&self, node: ProcessNode) -> CpaBreakdown {
        let energy_kwh = node.energy_per_area().as_kwh_per_cm2();
        let energy =
            MassPerArea::grams_per_cm2(self.energy_intensity.as_grams_per_kwh() * energy_kwh);
        CpaBreakdown {
            energy,
            gas: node.gas_per_area(self.abatement),
            materials: node.materials_per_area(),
            fab_yield: self.fab_yield,
        }
    }

    /// Carbon per manufactured area, `CPA` (eq. 5): the yield-derated sum of
    /// the energy, gas and material components.
    ///
    /// # Panics
    ///
    /// Panics if the scenario's yield is zero. Use
    /// [`Self::try_carbon_per_area`] when the scenario comes from user
    /// configuration.
    #[must_use]
    pub fn carbon_per_area(&self, node: ProcessNode) -> MassPerArea {
        self.cpa_breakdown(node).total()
    }

    /// Checked variant of [`Self::carbon_per_area`].
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] if the scenario is invalid (non-finite
    /// energy intensity or zero yield).
    pub fn try_carbon_per_area(&self, node: ProcessNode) -> Result<MassPerArea, ModelError> {
        self.validate()?;
        self.cpa_breakdown(node).try_total()
    }
}

impl Default for FabScenario {
    /// The paper's default: Taiwan grid with 25 % solar, 97 % abatement,
    /// 0.875 yield.
    fn default() -> Self {
        Self::taiwan_partially_renewable()
    }
}

impl Validate for FabScenario {
    fn validate(&self) -> Result<(), ModelError> {
        let ci = self.energy_intensity.as_grams_per_kwh();
        if !ci.is_finite() {
            return Err(UnitError::non_finite("fab energy carbon intensity", ci).into());
        }
        if ci < 0.0 {
            return Err(UnitError::out_of_domain(
                "fab energy carbon intensity",
                ci,
                "a finite, non-negative number",
            )
            .into());
        }
        if self.fab_yield.get() <= 0.0 {
            return Err(UnitError::out_of_domain(
                "fab yield",
                self.fab_yield.get(),
                "within (0, 1]",
            )
            .into());
        }
        Ok(())
    }
}

act_json::json_struct! {
    [ToJson]
    /// The components of `CPA` for one node under one fab scenario (the stacked
    /// quantities of Figure 6).
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct CpaBreakdown {
        /// Carbon from fab electricity: `CIfab × EPA`.
        pub energy: MassPerArea,
        /// Carbon from fab gases and chemicals: `GPA`.
        pub gas: MassPerArea,
        /// Carbon from raw-material procurement: `MPA`.
        pub materials: MassPerArea,
        /// Yield the total is derated by.
        pub fab_yield: Fraction,
    }
}

impl CpaBreakdown {
    /// Pre-yield sum of the components.
    #[must_use]
    pub fn before_yield(&self) -> MassPerArea {
        self.energy + self.gas + self.materials
    }

    /// Yield-derated `CPA` (eq. 5).
    ///
    /// # Panics
    ///
    /// Panics if yield is zero. Use [`Self::try_total`] when the yield comes
    /// from user configuration.
    #[must_use]
    pub fn total(&self) -> MassPerArea {
        let y = self.fab_yield.get();
        assert!(y > 0.0, "fab yield must be positive to derate emissions");
        self.before_yield() / y
    }

    /// Checked variant of [`Self::total`].
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] if the yield is zero or the derated sum is
    /// non-finite.
    pub fn try_total(&self) -> Result<MassPerArea, ModelError> {
        let y = self.fab_yield.get();
        if y <= 0.0 {
            return Err(UnitError::out_of_domain("fab yield", y, "within (0, 1]").into());
        }
        Ok((self.before_yield() / y).ensure_finite("yield-derated CPA")?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_average_fab() {
        let fab = FabScenario::default();
        // 0.75 x 583 + 0.25 x 41 = 447.5 g/kWh.
        assert!((fab.energy_intensity.as_grams_per_kwh() - 447.5).abs() < 1e-9);
        assert_eq!(fab.abatement, Abatement::Percent97);
        assert!((fab.fab_yield.get() - 0.875).abs() < 1e-12);
    }

    #[test]
    fn cpa_matches_hand_computation_at_10nm() {
        // (447.5 * 1.475 + 195 + 500) / 0.875 = 1548.6 g/cm^2.
        let cpa = FabScenario::default().carbon_per_area(ProcessNode::N10);
        assert!((cpa.as_grams_per_cm2() - 1548.64).abs() < 0.5, "{cpa}");
    }

    #[test]
    fn cpa_rises_monotonically_with_node_generation() {
        // Figure 6 (bottom): newer nodes emit more per area under any fixed
        // fab scenario.
        for fab in
            [FabScenario::taiwan_grid(), FabScenario::default(), FabScenario::renewable()]
        {
            for pair in ProcessNode::ALL.windows(2) {
                assert!(
                    fab.carbon_per_area(pair[0]) <= fab.carbon_per_area(pair[1]),
                    "{} -> {} under {fab:?}",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn greener_fab_energy_lowers_cpa() {
        for node in ProcessNode::ALL {
            let grid = FabScenario::taiwan_grid().carbon_per_area(node);
            let partial = FabScenario::default().carbon_per_area(node);
            let solar = FabScenario::renewable().carbon_per_area(node);
            let free = FabScenario::carbon_free().carbon_per_area(node);
            assert!(grid > partial && partial > solar && solar > free, "{node}");
        }
    }

    #[test]
    fn carbon_free_fab_keeps_gas_and_materials() {
        let breakdown = FabScenario::carbon_free().cpa_breakdown(ProcessNode::N5);
        assert_eq!(breakdown.energy.as_grams_per_cm2(), 0.0);
        assert!(breakdown.gas.as_grams_per_cm2() > 0.0);
        assert_eq!(breakdown.materials.as_grams_per_cm2(), 500.0);
    }

    #[test]
    fn yield_derates_inversely() {
        let full = FabScenario::default().with_yield(Fraction::ONE);
        let half = FabScenario::default().with_yield(Fraction::new(0.5).unwrap());
        let node = ProcessNode::N7;
        let ratio = half.carbon_per_area(node).ratio(full.carbon_per_area(node));
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "yield must be positive")]
    fn zero_yield_panics() {
        let _ =
            FabScenario::default().with_yield(Fraction::ZERO).carbon_per_area(ProcessNode::N7);
    }

    #[test]
    fn abatement_bounds_bracket_default() {
        let node = ProcessNode::N5;
        let worst = FabScenario::default().with_abatement(Abatement::Percent95);
        let best = FabScenario::default().with_abatement(Abatement::Percent99);
        let mid = FabScenario::default();
        assert!(best.carbon_per_area(node) < mid.carbon_per_area(node));
        assert!(mid.carbon_per_area(node) < worst.carbon_per_area(node));
    }

    #[test]
    fn breakdown_components_sum() {
        let b = FabScenario::default().cpa_breakdown(ProcessNode::N28);
        let sum = b.energy + b.gas + b.materials;
        assert_eq!(b.before_yield(), sum);
        assert!((b.total().ratio(b.before_yield()) - 1.0 / 0.875).abs() < 1e-9);
    }

    #[test]
    fn try_carbon_per_area_agrees_and_rejects_zero_yield() {
        let fab = FabScenario::default();
        let node = ProcessNode::N7;
        assert_eq!(fab.try_carbon_per_area(node).unwrap(), fab.carbon_per_area(node));

        let err = FabScenario::default()
            .with_yield(Fraction::ZERO)
            .try_carbon_per_area(node)
            .unwrap_err();
        assert!(err.to_string().contains("yield"), "{err}");
        // The unit-level cause survives the source chain.
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn scenario_validation_accepts_all_presets() {
        for fab in [
            FabScenario::default(),
            FabScenario::taiwan_grid(),
            FabScenario::renewable(),
            FabScenario::coal(),
            FabScenario::carbon_free(),
        ] {
            assert!(fab.validate().is_ok(), "{fab:?}");
        }
    }
}
