//! Dimension-checked physical quantities for the ACT carbon model.
//!
//! The ACT model (Gupta et al., ISCA 2022) is, at its heart, careful unit
//! arithmetic: carbon intensities (g CO₂/kWh) multiply energies (kWh), carbon
//! per area (g CO₂/cm²) multiplies die areas (cm²), carbon per capacity
//! (g CO₂/GB) multiplies storage capacities (GB). Getting a single conversion
//! factor wrong silently corrupts every downstream figure, so this crate
//! encodes dimensions *in the type system*: every quantity is a
//! [`Quantity<D>`] whose `D` is a type-level vector of exponents over the
//! five base axes
//!
//! | axis | canonical unit |
//! |------|----------------|
//! | carbon mass | g CO₂ |
//! | energy | kWh |
//! | time | s |
//! | area | cm² |
//! | capacity | GB |
//!
//! and the single generic `Mul`/`Div` pair derives the result dimension
//! statically. The familiar names ([`MassCo2`], [`Energy`], [`Power`],
//! [`CarbonIntensity`], …) are aliases of `Quantity` at fixed dimensions.
//!
//! # Examples
//!
//! ```
//! use act_units::{Area, CarbonIntensity, MassCo2, Power, TimeSpan};
//!
//! // Operational footprint: energy × carbon intensity.
//! let energy = Power::watts(6.6) * TimeSpan::milliseconds(6.0);
//! let footprint: MassCo2 = CarbonIntensity::grams_per_kwh(300.0) * energy;
//! assert!(footprint.as_grams() > 0.0);
//!
//! // Die areas convert losslessly between mm² and cm².
//! let die = Area::square_millimeters(94.0);
//! assert!((die.as_square_centimeters() - 0.94).abs() < 1e-12);
//! ```
//!
//! # Illegal unit algebra does not compile
//!
//! Adding an energy to an area, comparing watts against joules, or
//! multiplying quantities into a dimension the model has no business in all
//! fail at compile time — see the `compile_fail` suites in [`dim`] and
//! [`typelevel`]. One representative rejection:
//!
//! ```compile_fail
//! use act_units::{Area, Energy};
//! // error[E0308]: adding kWh to cm^2 is dimensionally meaningless.
//! let _ = Energy::kilowatt_hours(1.0) + Area::square_centimeters(1.0);
//! ```
//!
//! Dividing two like quantities yields a dimensionless [`Ratio`] rather than
//! a raw `f64`; call [`Ratio::value`] (or `Quantity::ratio`) where a scalar
//! is genuinely wanted.
//!
//! # Panicking vs. fallible construction
//!
//! Quantities have two constructor families:
//!
//! * The infallible ones (`MassCo2::grams`, `Area::square_millimeters`, …)
//!   exist for every quantity, are `const`, debug-assert finiteness, and
//!   are meant for literals and trusted model constants.
//! * The `try_*` ones validate untrusted inputs, rejecting NaN, infinite
//!   and negative magnitudes with a [`UnitError`]. They exist in the units
//!   that inputs arrive in: `MassCo2::try_grams`, `Energy::try_joules`,
//!   `Area::try_square_millimeters`, `Capacity::try_gigabytes`,
//!   `TimeSpan::try_seconds`/`try_years` and
//!   `CarbonIntensity::try_grams_per_kwh`. `Quantity::try_from_base`
//!   validates any quantity in its canonical unit.
//!
//! Computed values can still be poisoned by arithmetic (division by a zero
//! quantity); the `ensure_finite` method on every quantity converts such
//! poisoning into a [`UnitError`] instead of letting it propagate silently.
//!
//! ```
//! use act_units::{Area, UnitErrorKind};
//!
//! let err = Area::try_square_millimeters(f64::NAN).unwrap_err();
//! assert_eq!(err.kind(), UnitErrorKind::NonFinite);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod fraction;
mod json_impls;
mod quantity;

pub mod dim;
pub mod math;
pub mod typelevel;

mod rates;

pub use dim::{
    AreaDim, CapacityDim, CarbonIntensityDim, Dim, Dimension, EnergyDim, EnergyPerAreaDim,
    MassDim, MassPerAreaDim, MassPerCapacityDim, NoDim, PowerDim, ThroughputDim, TimeDim,
};
pub use error::{UnitError, UnitErrorKind};
pub use fraction::{Fraction, FractionError};
pub use quantity::{
    Area, Capacity, Energy, MassCo2, Power, Quantity, Ratio, Throughput, TimeSpan,
};
pub use rates::{CarbonIntensity, EnergyPerArea, MassPerArea, MassPerCapacity};

/// Seconds in a year as used throughout the ACT model (365 days).
pub const SECONDS_PER_YEAR: f64 = 365.0 * 24.0 * 3600.0;

/// Seconds in an hour.
pub const SECONDS_PER_HOUR: f64 = 3600.0;

/// Seconds in a day.
pub const SECONDS_PER_DAY: f64 = 24.0 * SECONDS_PER_HOUR;

/// Joules per kilowatt-hour.
pub const JOULES_PER_KWH: f64 = 3.6e6;

/// Gigabytes per terabyte (binary convention, matching Table 7's datasheet
/// capacities).
pub const GIGABYTES_PER_TERABYTE: f64 = 1024.0;
