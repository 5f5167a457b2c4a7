//! The workspace-level model error taxonomy and the [`Validate`] trait.
//!
//! [`ModelError`] is the single error type the checked evaluation entry
//! points (`try_total_footprint`, `SystemSpec::try_embodied`,
//! `ModelParams::try_footprint`, …) return. It wraps the leaf errors of the
//! lower layers — [`act_units::UnitError`] for quantity-domain violations and
//! [`ParamsError`] for Table 1 range violations — and chains them through
//! [`std::error::Error::source`], so a sweep driver can log "embodied
//! footprint is non-finite: fab yield must be within (0, 1], got 0" without
//! knowing which layer rejected the value.

use std::fmt;

use act_units::UnitError;

use crate::ParamsError;

/// Error returned by the checked (`try_*`) evaluation entry points of the
/// ACT model.
///
/// # Examples
///
/// ```
/// use act_core::{ModelError, Validate};
///
/// let mut params = act_core::ModelParams::mobile_reference();
/// params.fab_yield = 0.0;
/// let err = Validate::validate(&params).unwrap_err();
/// assert!(err.to_string().contains("yield"));
/// // The underlying cause is preserved through the source chain.
/// assert!(std::error::Error::source(&err).is_some());
/// ```
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// A physical quantity was outside its valid domain (NaN, infinite,
    /// negative, or otherwise out of range).
    Unit(UnitError),
    /// A [`crate::ModelParams`] field violated Table 1's documented ranges.
    Params(ParamsError),
    /// A model invariant was violated (e.g. a non-positive lifetime where
    /// the amortization of eq. 1 requires a positive one).
    Invariant(String),
    /// A computed result was poisoned: NaN or infinite where the model
    /// guarantees a finite footprint.
    NonFinite {
        /// What was being computed when the poisoning was detected.
        what: String,
    },
}

impl ModelError {
    /// Shorthand for [`ModelError::Invariant`].
    #[must_use]
    pub fn invariant(message: impl Into<String>) -> Self {
        Self::Invariant(message.into())
    }

    /// Shorthand for [`ModelError::NonFinite`].
    #[must_use]
    pub fn non_finite(what: impl Into<String>) -> Self {
        Self::NonFinite { what: what.into() }
    }
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Unit(err) => write!(f, "invalid quantity: {err}"),
            Self::Params(err) => err.fmt(f),
            Self::Invariant(message) => write!(f, "model invariant violated: {message}"),
            Self::NonFinite { what } => write!(f, "{what} is not finite"),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Unit(err) => Some(err),
            Self::Params(err) => Some(err),
            Self::Invariant(_) | Self::NonFinite { .. } => None,
        }
    }
}

impl From<UnitError> for ModelError {
    fn from(err: UnitError) -> Self {
        Self::Unit(err)
    }
}

impl From<ParamsError> for ModelError {
    fn from(err: ParamsError) -> Self {
        Self::Params(err)
    }
}

/// Structural validation of model inputs.
///
/// Implemented by every deserializable input surface of the model
/// ([`crate::ModelParams`], [`crate::FabScenario`], [`crate::SystemSpec`],
/// [`crate::OperationalModel`]), so a driver can reject a config file
/// before evaluating anything with it.
pub trait Validate {
    /// Checks every invariant the checked entry points rely on.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] describing the first violated invariant.
    fn validate(&self) -> Result<(), ModelError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn wraps_unit_error_with_source() {
        let unit = UnitError::out_of_domain("fab yield", 0.0, "within (0, 1]");
        let err = ModelError::from(unit);
        assert!(err.to_string().contains("fab yield"));
        let source = err.source().expect("unit errors chain through source");
        assert_eq!(source.to_string(), unit.to_string());
    }

    #[test]
    fn invariant_and_non_finite_have_no_source() {
        assert!(ModelError::invariant("lifetime must be positive").source().is_none());
        assert!(ModelError::non_finite("embodied footprint").source().is_none());
    }

    #[test]
    fn display_is_descriptive() {
        let err = ModelError::invariant("hardware lifetime must be positive");
        assert_eq!(
            err.to_string(),
            "model invariant violated: hardware lifetime must be positive"
        );
        let err = ModelError::non_finite("total footprint");
        assert_eq!(err.to_string(), "total footprint is not finite");
    }
}
