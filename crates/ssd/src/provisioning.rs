//! Over-provisioning and its embodied-carbon consequences.

use std::fmt;

use act_units::UnitError;

use crate::lifetime::LifetimeModel;

/// A validated SSD over-provisioning factor `PF`: spare capacity as a
/// fraction of user capacity (e.g. `0.16` = 16 % extra flash).
///
/// # Examples
///
/// ```
/// use act_ssd::OverProvisioning;
/// let pf = OverProvisioning::new(0.28)?;
/// assert!((pf.physical_capacity_factor() - 1.28).abs() < 1e-12);
/// # Ok::<(), act_ssd::OverProvisioningError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, PartialOrd)]
pub struct OverProvisioning(f64);

impl act_json::ToJson for OverProvisioning {
    fn to_json(&self) -> act_json::JsonValue {
        act_json::JsonValue::Float(self.0)
    }
}

impl act_json::FromJson for OverProvisioning {
    /// Validating read: a bare number, rejected outside `(0, 1]` — the
    /// same contract the `#[serde(try_from = "f64")]` attribute enforced.
    fn from_json(value: &act_json::JsonValue) -> Result<Self, act_json::JsonError> {
        let raw = f64::from_json(value)?;
        Self::new(raw).map_err(|err| act_json::JsonError::new(err.to_string()))
    }
}

/// Error returned for a non-positive or non-finite over-provisioning factor.
///
/// Since the workspace-wide error migration this is the shared
/// [`UnitError`]; the alias is kept so existing signatures keep reading
/// naturally.
pub type OverProvisioningError = UnitError;

impl OverProvisioning {
    /// Creates a factor.
    ///
    /// # Errors
    ///
    /// Returns an error unless `0 < pf <= 1`.
    pub fn new(pf: f64) -> Result<Self, OverProvisioningError> {
        if pf.is_finite() && pf > 0.0 && pf <= 1.0 {
            Ok(Self(pf))
        } else if !pf.is_finite() {
            Err(UnitError::non_finite("over-provisioning factor", pf))
        } else {
            Err(UnitError::out_of_domain("over-provisioning factor", pf, "within (0, 1]"))
        }
    }

    /// Creates a factor in `const` context. Intended for trusted model
    /// constants: when evaluated at compile time an out-of-range value
    /// fails the build.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < pf <= 1`.
    #[must_use]
    pub const fn new_const(pf: f64) -> Self {
        assert!(pf > 0.0 && pf <= 1.0, "over-provisioning factor must be within (0, 1]");
        Self(pf)
    }

    /// The factor as a fraction of user capacity.
    #[must_use]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Physical flash per unit of user capacity: `1 + PF`.
    #[must_use]
    pub fn physical_capacity_factor(self) -> f64 {
        1.0 + self.0
    }
}

impl TryFrom<f64> for OverProvisioning {
    type Error = OverProvisioningError;
    fn try_from(value: f64) -> Result<Self, Self::Error> {
        Self::new(value)
    }
}

impl From<OverProvisioning> for f64 {
    fn from(value: OverProvisioning) -> f64 {
        value.get()
    }
}

impl fmt::Display for OverProvisioning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0}%", self.0 * 100.0)
    }
}

/// Effective embodied carbon of provisioning an SSD at `pf` to serve a
/// deployment `horizon_years` long, relative to the same device's per-unit
/// flash footprint.
///
/// Physical flash scales with `1 + PF`; if the drive wears out before the
/// horizon it must be replaced `horizon / lifetime` times (fractionally —
/// fleet-averaged). This is the quantity Figure 15 (bottom) plots,
/// normalized to a 4 % baseline.
///
/// # Panics
///
/// Panics if `horizon_years` is not positive. Use [`try_effective_embodied`]
/// for user-supplied horizons.
///
/// # Examples
///
/// ```
/// use act_ssd::{effective_embodied, LifetimeModel, OverProvisioning};
///
/// let model = LifetimeModel::default();
/// let lean = effective_embodied(OverProvisioning::new(0.04)?, 2.0, &model);
/// let tuned = effective_embodied(OverProvisioning::new(0.16)?, 2.0, &model);
/// assert!(tuned < lean); // more spare flash, but far fewer replacements
/// # Ok::<(), act_ssd::OverProvisioningError>(())
/// ```
#[must_use]
pub fn effective_embodied(
    pf: OverProvisioning,
    horizon_years: f64,
    model: &LifetimeModel,
) -> f64 {
    assert!(horizon_years > 0.0, "deployment horizon must be positive");
    let lifetime = model.lifetime_years(pf);
    let replacements = (horizon_years / lifetime).max(1.0);
    pf.physical_capacity_factor() * replacements
}

/// Checked variant of [`effective_embodied`].
///
/// # Errors
///
/// Returns a [`UnitError`] if `horizon_years` is non-finite or not positive,
/// or the lifetime model's parameters are invalid.
pub fn try_effective_embodied(
    pf: OverProvisioning,
    horizon_years: f64,
    model: &LifetimeModel,
) -> Result<f64, UnitError> {
    if !horizon_years.is_finite() {
        return Err(UnitError::non_finite("deployment horizon", horizon_years));
    }
    if horizon_years <= 0.0 {
        return Err(UnitError::out_of_domain(
            "deployment horizon",
            horizon_years,
            "a positive number of years",
        ));
    }
    model.validate()?;
    Ok(effective_embodied(pf, horizon_years, model))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_range() {
        assert!(OverProvisioning::new(0.04).is_ok());
        assert!(OverProvisioning::new(1.0).is_ok());
        assert!(OverProvisioning::new(0.0).is_err());
        assert!(OverProvisioning::new(-0.1).is_err());
        assert!(OverProvisioning::new(f64::NAN).is_err());
        assert!(OverProvisioning::new(1.5).is_err());
    }

    #[test]
    fn capacity_factors() {
        let pf = OverProvisioning::new(0.25).unwrap();
        assert!((pf.physical_capacity_factor() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn error_and_display() {
        let err = OverProvisioning::new(0.0).unwrap_err();
        assert!(err.to_string().contains("0"));
        assert_eq!(OverProvisioning::new(0.16).unwrap().to_string(), "16%");
    }

    #[test]
    fn json_round_trip_validates() {
        use act_json::{FromJson, JsonValue};
        let pf = OverProvisioning::from_json(&JsonValue::parse("0.34").unwrap()).unwrap();
        assert!((pf.get() - 0.34).abs() < 1e-12);
        assert!(OverProvisioning::from_json(&JsonValue::Float(-0.5)).is_err());
    }

    #[test]
    fn under_provisioned_drives_get_replaced() {
        let model = LifetimeModel::default();
        let pf = OverProvisioning::new(0.04).unwrap();
        // At 4 % OP the drive lives about half a year; a 2-year horizon
        // needs about four drives.
        let effective = effective_embodied(pf, 2.0, &model);
        assert!(effective > 3.5, "effective embodied {effective}");
    }

    #[test]
    fn long_lived_drives_cost_their_capacity() {
        let model = LifetimeModel::default();
        let pf = OverProvisioning::new(0.4).unwrap();
        let effective = effective_embodied(pf, 2.0, &model);
        assert!((effective - 1.4).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "horizon must be positive")]
    fn zero_horizon_panics() {
        let _ = effective_embodied(
            OverProvisioning::new(0.1).unwrap(),
            0.0,
            &LifetimeModel::default(),
        );
    }

    #[test]
    fn try_effective_embodied_agrees_and_rejects_bad_horizons() {
        let pf = OverProvisioning::new(0.16).unwrap();
        let model = LifetimeModel::default();
        assert_eq!(
            try_effective_embodied(pf, 2.0, &model).unwrap(),
            effective_embodied(pf, 2.0, &model)
        );
        assert!(try_effective_embodied(pf, 0.0, &model).is_err());
        assert!(try_effective_embodied(pf, f64::NAN, &model).is_err());
        let bad = LifetimeModel { disk_writes_per_day: 0.0, ..LifetimeModel::default() };
        assert!(try_effective_embodied(pf, 2.0, &bad).is_err());
    }

    #[test]
    fn error_classifies_cause() {
        use act_units::UnitErrorKind;
        assert_eq!(
            OverProvisioning::new(f64::NAN).unwrap_err().kind(),
            UnitErrorKind::NonFinite
        );
        assert_eq!(OverProvisioning::new(1.5).unwrap_err().kind(), UnitErrorKind::OutOfDomain);
    }
}
