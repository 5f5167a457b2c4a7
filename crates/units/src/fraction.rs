//! A validated `[0, 1]` fraction used for yields, utilizations and shares.

use std::fmt;

use crate::UnitError;

/// A dimensionless value guaranteed to lie within `[0.0, 1.0]`.
///
/// The ACT model uses fractions for fab yield `Y`, lifetime utilization,
/// renewable-energy shares and abatement effectiveness. Encoding the range in
/// the type means `1 / Y` derating can never silently divide by a negative
/// yield or scale by a yield above one.
///
/// # Examples
///
/// ```
/// use act_units::Fraction;
///
/// let yield_ = Fraction::new(0.875)?;
/// assert!((yield_.get() - 0.875).abs() < 1e-12);
/// assert!((yield_.complement().get() - 0.125).abs() < 1e-12);
/// # Ok::<(), act_units::FractionError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, PartialOrd)]
pub struct Fraction(f64);

impl act_json::ToJson for Fraction {
    fn to_json(&self) -> act_json::JsonValue {
        act_json::JsonValue::Float(self.0)
    }
}

impl act_json::FromJson for Fraction {
    /// Validating read: a bare number, rejected outside `[0, 1]` — the
    /// same contract the `#[serde(try_from = "f64")]` attribute enforced.
    fn from_json(value: &act_json::JsonValue) -> Result<Self, act_json::JsonError> {
        let raw = f64::from_json(value)?;
        Self::new(raw).map_err(|err| act_json::JsonError::new(err.to_string()))
    }
}

/// Error returned when constructing a [`Fraction`] outside `[0, 1]`.
///
/// Since the workspace-wide error migration this is the shared
/// [`UnitError`]; the alias is kept so existing signatures keep reading
/// naturally.
pub type FractionError = UnitError;

impl Fraction {
    /// The zero fraction.
    pub const ZERO: Self = Self(0.0);
    /// The unit fraction.
    pub const ONE: Self = Self(1.0);

    /// Creates a fraction, validating the range.
    ///
    /// # Errors
    ///
    /// Returns [`FractionError`] if `value` is NaN or outside `[0, 1]`.
    pub fn new(value: f64) -> Result<Self, FractionError> {
        if value.is_finite() && (0.0..=1.0).contains(&value) {
            Ok(Self(value))
        } else if !value.is_finite() {
            Err(UnitError::non_finite("fraction", value))
        } else {
            Err(UnitError::out_of_domain("fraction", value, "within [0, 1]"))
        }
    }

    /// Creates a fraction in `const` context. Intended for trusted model
    /// constants: when evaluated at compile time an out-of-range value fails
    /// the build.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN or outside `[0, 1]`.
    #[must_use]
    pub const fn new_const(value: f64) -> Self {
        assert!(value >= 0.0 && value <= 1.0, "fraction must be within [0, 1]");
        Self(value)
    }

    /// The inner value.
    #[must_use]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// The value as a percentage in `[0, 100]`.
    #[must_use]
    pub fn as_percent(self) -> f64 {
        self.0 * 100.0
    }

    /// `1 - self`.
    #[must_use]
    pub fn complement(self) -> Self {
        Self(1.0 - self.0)
    }

    /// Saturating product of two fractions (always stays in range).
    #[must_use]
    pub fn and(self, other: Self) -> Self {
        Self(self.0 * other.0)
    }
}

impl Default for Fraction {
    fn default() -> Self {
        Self::ONE
    }
}

impl fmt::Display for Fraction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match f.precision() {
            Some(p) => write!(f, "{:.*}%", p, self.as_percent()),
            None => write!(f, "{}%", self.as_percent()),
        }
    }
}

impl TryFrom<f64> for Fraction {
    type Error = FractionError;
    fn try_from(value: f64) -> Result<Self, Self::Error> {
        Self::new(value)
    }
}

impl From<Fraction> for f64 {
    fn from(value: Fraction) -> f64 {
        value.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_range_inclusive() {
        assert!(Fraction::new(0.0).is_ok());
        assert!(Fraction::new(1.0).is_ok());
        assert!(Fraction::new(0.5).is_ok());
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(Fraction::new(-0.001).is_err());
        assert!(Fraction::new(1.001).is_err());
        assert!(Fraction::new(f64::NAN).is_err());
        assert!(Fraction::new(f64::INFINITY).is_err());
    }

    #[test]
    fn error_reports_value() {
        let err = Fraction::new(2.0).unwrap_err();
        assert!((err.value() - 2.0).abs() < 1e-12);
        assert!(format!("{err}").contains("2"));
    }

    #[test]
    fn percent_round_trip() {
        let f = Fraction::new(0.875).unwrap();
        assert!((f.as_percent() - 87.5).abs() < 1e-12);
        assert_eq!(Fraction::new(f.as_percent() / 100.0).unwrap(), f);
    }

    #[test]
    fn complement_and_product() {
        let f = Fraction::new(0.25).unwrap();
        assert_eq!(f.complement(), Fraction::new(0.75).unwrap());
        assert_eq!(f.and(f), Fraction::new(0.0625).unwrap());
    }

    #[test]
    fn default_is_one() {
        assert_eq!(Fraction::default(), Fraction::ONE);
    }

    #[test]
    fn display_as_percent() {
        assert_eq!(format!("{:.1}", Fraction::new(0.34).unwrap()), "34.0%");
    }

    #[test]
    fn json_rejects_bad_values() {
        use act_json::{FromJson, JsonValue, ToJson};
        let ok = Fraction::from_json(&JsonValue::Float(0.5)).unwrap();
        assert_eq!(ok, Fraction::new(0.5).unwrap());
        let bad = Fraction::from_json(&JsonValue::Float(1.5));
        assert!(bad.is_err());
        assert_eq!(ok.to_json().render_compact(), "0.5");
    }
}
