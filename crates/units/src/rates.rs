//! Rate quantities: the per-kWh, per-area and per-capacity intensities that
//! parameterize the ACT embodied and operational models.
//!
//! Each rate is an alias of [`Quantity`] at a derived dimension, so products
//! like `CarbonIntensity * Energy = MassCo2` or `EnergyPerArea * Area =
//! Energy` need no operator impls here — the generic `Mul`/`Div` in
//! [`crate::quantity`] derives them, and dimensionally illegal combinations
//! fail to compile.

use crate::dim::{CarbonIntensityDim, EnergyPerAreaDim, MassPerAreaDim, MassPerCapacityDim};
use crate::quantity::Quantity;

/// Carbon intensity of electricity: `CIuse` / `CIfab` in the ACT model.
/// Base unit: grams of CO₂ per kilowatt-hour.
///
/// # Examples
///
/// ```
/// use act_units::{CarbonIntensity, Energy};
/// let coal = CarbonIntensity::grams_per_kwh(820.0);
/// let footprint = coal * Energy::kilowatt_hours(2.0);
/// assert!((footprint.as_grams() - 1640.0).abs() < 1e-9);
/// ```
pub type CarbonIntensity = Quantity<CarbonIntensityDim>;

impl CarbonIntensity {
    /// Creates a carbon intensity from grams of CO₂ per kilowatt-hour.
    #[must_use]
    pub const fn grams_per_kwh(g: f64) -> Self {
        Self::from_base(g)
    }

    /// Magnitude in grams of CO₂ per kilowatt-hour.
    #[must_use]
    pub const fn as_grams_per_kwh(self) -> f64 {
        self.base()
    }

    /// Validating variant of [`Self::grams_per_kwh`].
    ///
    /// # Errors
    ///
    /// Rejects NaN, infinite and negative intensities with a
    /// [`crate::UnitError`].
    pub fn try_grams_per_kwh(g: f64) -> Result<Self, crate::UnitError> {
        Self::try_from_base(g)
    }

    /// Linear blend of two intensities: `share` of `other`, the rest of
    /// `self`. Used for partially renewable grids (e.g. a fab procuring 25 %
    /// solar on top of the Taiwan grid).
    ///
    /// # Panics
    ///
    /// Panics if `share` is not within `0.0..=1.0`.
    #[must_use]
    pub fn blended_with(self, other: Self, share: f64) -> Self {
        assert!((0.0..=1.0).contains(&share), "blend share must be within [0, 1], got {share}");
        Self::grams_per_kwh(
            self.as_grams_per_kwh() * (1.0 - share) + other.as_grams_per_kwh() * share,
        )
    }
}

/// Fab energy per manufactured area: `EPA` in the ACT model.
/// Base unit: kilowatt-hours per square centimeter.
///
/// # Examples
///
/// ```
/// use act_units::{Area, EnergyPerArea};
/// let epa = EnergyPerArea::kwh_per_cm2(1.2);
/// let e = epa * Area::square_centimeters(0.5);
/// assert!((e.as_kilowatt_hours() - 0.6).abs() < 1e-12);
/// ```
pub type EnergyPerArea = Quantity<EnergyPerAreaDim>;

impl EnergyPerArea {
    /// Creates an energy-per-area from kilowatt-hours per square centimeter.
    #[must_use]
    pub const fn kwh_per_cm2(kwh: f64) -> Self {
        Self::from_base(kwh)
    }

    /// Magnitude in kilowatt-hours per square centimeter.
    #[must_use]
    pub const fn as_kwh_per_cm2(self) -> f64 {
        self.base()
    }
}

/// Carbon per manufactured area: `GPA`, `MPA` and `CPA` in the ACT model.
/// Base unit: grams of CO₂ per square centimeter.
///
/// # Examples
///
/// ```
/// use act_units::{Area, MassPerArea};
/// let cpa = MassPerArea::kilograms_per_cm2(1.5);
/// let e = cpa * Area::square_millimeters(100.0);
/// assert!((e.as_kilograms() - 1.5).abs() < 1e-9);
/// ```
pub type MassPerArea = Quantity<MassPerAreaDim>;

impl MassPerArea {
    /// Creates a mass-per-area from grams of CO₂ per square centimeter.
    #[must_use]
    pub const fn grams_per_cm2(g: f64) -> Self {
        Self::from_base(g)
    }

    /// Creates a mass-per-area from kilograms of CO₂ per square centimeter.
    #[must_use]
    pub const fn kilograms_per_cm2(kg: f64) -> Self {
        Self::from_base(kg * 1e3)
    }

    /// Magnitude in grams of CO₂ per square centimeter.
    #[must_use]
    pub const fn as_grams_per_cm2(self) -> f64 {
        self.base()
    }

    /// Magnitude in kilograms of CO₂ per square centimeter.
    #[must_use]
    pub fn as_kilograms_per_cm2(self) -> f64 {
        self.base() / 1e3
    }
}

/// Carbon per storage capacity: the `CPS` factors of eqs. 6–8.
/// Base unit: grams of CO₂ per gigabyte.
///
/// # Examples
///
/// ```
/// use act_units::{Capacity, MassPerCapacity};
/// let cps = MassPerCapacity::grams_per_gb(48.0);
/// let e = cps * Capacity::gigabytes(8.0);
/// assert!((e.as_grams() - 384.0).abs() < 1e-9);
/// ```
pub type MassPerCapacity = Quantity<MassPerCapacityDim>;

impl MassPerCapacity {
    /// Creates a mass-per-capacity from grams of CO₂ per gigabyte.
    #[must_use]
    pub const fn grams_per_gb(g: f64) -> Self {
        Self::from_base(g)
    }

    /// Magnitude in grams of CO₂ per gigabyte.
    #[must_use]
    pub const fn as_grams_per_gb(self) -> f64 {
        self.base()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Area, Capacity, Energy, TimeSpan};

    #[test]
    fn intensity_times_energy_commutes() {
        let ci = CarbonIntensity::grams_per_kwh(300.0);
        let e = Energy::kilowatt_hours(1.5);
        assert_eq!(ci * e, e * ci);
        assert!(((ci * e).as_grams() - 450.0).abs() < 1e-9);
    }

    #[test]
    fn blended_intensity_endpoints() {
        let grid = CarbonIntensity::grams_per_kwh(583.0);
        let solar = CarbonIntensity::grams_per_kwh(41.0);
        assert_eq!(grid.blended_with(solar, 0.0), grid);
        assert_eq!(grid.blended_with(solar, 1.0), solar);
        let mix = grid.blended_with(solar, 0.25);
        assert!((mix.as_grams_per_kwh() - (0.75 * 583.0 + 0.25 * 41.0)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "blend share")]
    fn blended_intensity_rejects_bad_share() {
        let _ = CarbonIntensity::grams_per_kwh(1.0)
            .blended_with(CarbonIntensity::grams_per_kwh(2.0), 1.5);
    }

    #[test]
    fn epa_times_area() {
        let e = EnergyPerArea::kwh_per_cm2(2.75) * Area::square_centimeters(1.0);
        assert!((e.as_kilowatt_hours() - 2.75).abs() < 1e-12);
    }

    #[test]
    fn cpa_times_area_and_kg_constructor() {
        let cpa = MassPerArea::kilograms_per_cm2(1.56);
        assert!((cpa.as_grams_per_cm2() - 1560.0).abs() < 1e-9);
        assert!((cpa.as_kilograms_per_cm2() - 1.56).abs() < 1e-12);
        let m = cpa * Area::square_millimeters(94.0);
        assert!((m.as_kilograms() - 1.4664).abs() < 1e-6);
    }

    #[test]
    fn cps_times_capacity() {
        let m = MassPerCapacity::grams_per_gb(600.0) * Capacity::gigabytes(4.0);
        assert!((m.as_kilograms() - 2.4).abs() < 1e-9);
    }

    #[test]
    fn full_operational_pipeline() {
        // 6.6 W for one year on the US grid.
        let energy = crate::Power::watts(6.6) * TimeSpan::years(1.0);
        let footprint = CarbonIntensity::grams_per_kwh(380.0) * energy;
        // 6.6 W * 8760 h = 57.8 kWh -> about 22 kg.
        assert!((footprint.as_kilograms() - 21.97).abs() < 0.1);
    }

    #[test]
    fn rate_algebra_is_closed_over_the_model() {
        // CPA = CIfab * EPA + GPA + MPA, per cm^2 (eq. 5 numerator).
        let cpa: MassPerArea = CarbonIntensity::grams_per_kwh(500.0)
            * EnergyPerArea::kwh_per_cm2(2.0)
            + MassPerArea::grams_per_cm2(200.0)
            + MassPerArea::grams_per_cm2(500.0);
        assert!((cpa.as_grams_per_cm2() - 1700.0).abs() < 1e-9);

        // Recovering a per-GB factor from a mass and a capacity.
        let cps: MassPerCapacity = crate::MassCo2::grams(384.0) / Capacity::gigabytes(8.0);
        assert!((cps.as_grams_per_gb() - 48.0).abs() < 1e-12);
    }

    #[test]
    fn rate_display() {
        assert_eq!(format!("{:.0}", CarbonIntensity::grams_per_kwh(820.0)), "820 g CO2/kWh");
        assert_eq!(format!("{:.2}", MassPerCapacity::grams_per_gb(48.0)), "48.00 g CO2/GB");
    }
}
