//! The generic dimension-indexed quantity and the named aliases the model
//! is written in.
//!
//! [`Quantity<D>`] is one `f64` magnitude tagged with a type-level
//! [`Dimension`]. All arithmetic is generic: addition and subtraction
//! require the *same* dimension, while the single pair of `Mul`/`Div` impls
//! derives the product/quotient dimension through
//! [`DimMul`](crate::dim::DimMul)/[`DimDiv`](crate::dim::DimDiv). The
//! per-pair hand-written operators of earlier revisions are gone — and so is
//! the possibility of forgetting (or mistyping) one.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::marker::PhantomData;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use crate::dim::{
    compose_symbol, unit_info, AreaDim, CapacityDim, Dimension, EnergyDim, MassDim, NoDim,
    PowerDim, ThroughputDim, TimeDim,
};
use crate::dim::{DimDiv, DimMul};
use crate::{
    GIGABYTES_PER_TERABYTE, JOULES_PER_KWH, SECONDS_PER_DAY, SECONDS_PER_HOUR, SECONDS_PER_YEAR,
};

/// A physical quantity: an `f64` magnitude in the canonical unit of its
/// type-level [`Dimension`] `D`.
///
/// The canonical axes are g CO₂, kWh, s, cm² and GB; a quantity of dimension
/// `Dim<P1, N1, Z0, Z0, Z0>` therefore stores g CO₂ per kWh. Use the named
/// aliases ([`MassCo2`], [`Energy`], …) and their unit-named constructors —
/// `from_base`/`base` are the raw escape hatch and are lint-restricted to
/// `act-units` and `act-data` (rules ACT001/ACT004).
pub struct Quantity<D>(f64, PhantomData<fn() -> D>);

impl<D: Dimension> Quantity<D> {
    /// The zero quantity.
    pub const ZERO: Self = Self(0.0, PhantomData);

    /// Wraps a magnitude with no validation of any kind. Arithmetic uses
    /// this internally so that non-finite poisoning propagates to
    /// [`Self::ensure_finite`] boundaries instead of tripping debug asserts
    /// mid-formula.
    pub(crate) const fn raw(value: f64) -> Self {
        Self(value, PhantomData)
    }

    /// Raw magnitude in the canonical unit of the dimension's axes.
    #[must_use]
    pub const fn base(self) -> f64 {
        self.0
    }

    /// Constructs directly from the canonical-unit magnitude.
    ///
    /// Debug builds assert the magnitude is finite; release builds accept
    /// any value. Use [`Self::try_from_base`] to validate untrusted inputs
    /// in every build.
    #[inline(always)]
    #[must_use]
    pub const fn from_base(value: f64) -> Self {
        debug_assert!(value.is_finite(), "non-finite quantity magnitude");
        Self(value, PhantomData)
    }

    /// Fallible constructor from the canonical-unit magnitude.
    ///
    /// # Errors
    ///
    /// Returns a [`crate::UnitError`] if `value` is NaN, infinite or
    /// negative.
    pub fn try_from_base(value: f64) -> Result<Self, crate::UnitError> {
        crate::error::check_magnitude(Self::name(), value).map(Self::raw)
    }

    /// The quantity's display name (e.g. `"MassCo2"`), used in error
    /// messages; anonymous dimensions report `"Quantity"`.
    #[must_use]
    pub fn name() -> &'static str {
        match unit_info(D::EXPONENTS) {
            Some(info) => info.name,
            None => "Quantity",
        }
    }

    /// Returns `true` if the magnitude is a finite number.
    #[must_use]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Poisoning check: passes the quantity through unchanged if its
    /// magnitude is finite, and reports a [`crate::UnitError`] naming
    /// `context` otherwise.
    ///
    /// Non-finite magnitudes cannot arise from `try_*` constructors, but
    /// arithmetic (division by a zero quantity, overflow) can still poison
    /// a value; checked model entry points call this before letting results
    /// escape.
    ///
    /// # Errors
    ///
    /// Returns a [`crate::UnitError`] if the magnitude is NaN or infinite.
    pub fn ensure_finite(self, context: &'static str) -> Result<Self, crate::UnitError> {
        if self.0.is_finite() {
            Ok(self)
        } else {
            Err(crate::UnitError::non_finite(context, self.0))
        }
    }

    /// The smaller of two quantities.
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        Self::raw(self.0.min(other.0))
    }

    /// The larger of two quantities.
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        Self::raw(self.0.max(other.0))
    }

    /// The absolute magnitude, dimension preserved.
    #[must_use]
    pub fn abs(self) -> Self {
        Self::raw(self.0.abs())
    }

    /// Dimensionless ratio `self / other` as a plain `f64`.
    ///
    /// Identical in value to `(self / other).value()` but reads better in
    /// formulas that immediately need a scalar.
    #[must_use]
    pub fn ratio(self, other: Self) -> f64 {
        self.0 / other.0
    }

    /// A total order over magnitudes ([`f64::total_cmp`] semantics): NaN
    /// sorts after +∞, so `min_by`/`max_by` never need a panicking
    /// `partial_cmp().expect(…)`.
    #[must_use]
    pub fn total_cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

// ---- identity-preserving derives, written out because `D` is phantom -------

impl<D> Clone for Quantity<D> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<D> Copy for Quantity<D> {}

impl<D: Dimension> Default for Quantity<D> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<D> PartialEq for Quantity<D> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl<D> PartialOrd for Quantity<D> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.0.partial_cmp(&other.0)
    }
}

impl<D: Dimension> fmt::Debug for Quantity<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match unit_info(D::EXPONENTS) {
            Some(info) => write!(f, "{}({})", info.name, self.0 * info.display_scale),
            None => write!(f, "Quantity({}, {:?})", self.0, D::EXPONENTS),
        }
    }
}

impl<D: Dimension> fmt::Display for Quantity<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (value, symbol) = match unit_info(D::EXPONENTS) {
            Some(info) => (self.0 * info.display_scale, info.symbol.to_owned()),
            None => (self.0, compose_symbol(D::EXPONENTS)),
        };
        match (f.precision(), symbol.is_empty()) {
            (Some(p), true) => write!(f, "{value:.p$}"),
            (Some(p), false) => write!(f, "{value:.p$} {symbol}"),
            (None, true) => write!(f, "{value}"),
            (None, false) => write!(f, "{value} {symbol}"),
        }
    }
}

// ---- same-dimension arithmetic ---------------------------------------------

impl<D> Add for Quantity<D> {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0, PhantomData)
    }
}

impl<D> AddAssign for Quantity<D> {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl<D> Sub for Quantity<D> {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0, PhantomData)
    }
}

impl<D> SubAssign for Quantity<D> {
    fn sub_assign(&mut self, rhs: Self) {
        self.0 -= rhs.0;
    }
}

impl<D> Neg for Quantity<D> {
    type Output = Self;
    fn neg(self) -> Self {
        Self(-self.0, PhantomData)
    }
}

impl<D> Mul<f64> for Quantity<D> {
    type Output = Self;
    fn mul(self, rhs: f64) -> Self {
        Self(self.0 * rhs, PhantomData)
    }
}

impl<D> Mul<Quantity<D>> for f64 {
    type Output = Quantity<D>;
    fn mul(self, rhs: Quantity<D>) -> Quantity<D> {
        Quantity(self * rhs.0, PhantomData)
    }
}

impl<D> Div<f64> for Quantity<D> {
    type Output = Self;
    fn div(self, rhs: f64) -> Self {
        Self(self.0 / rhs, PhantomData)
    }
}

impl<D> Sum for Quantity<D> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        Self(iter.map(|q| q.0).sum(), PhantomData)
    }
}

impl<'a, D> Sum<&'a Quantity<D>> for Quantity<D> {
    fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
        Self(iter.map(|q| q.0).sum(), PhantomData)
    }
}

// ---- THE two generic cross-dimension operators -----------------------------

impl<Dl, Dr> Mul<Quantity<Dr>> for Quantity<Dl>
where
    Dl: DimMul<Dr>,
    Dr: Dimension,
{
    type Output = Quantity<<Dl as DimMul<Dr>>::Output>;
    fn mul(self, rhs: Quantity<Dr>) -> Self::Output {
        Quantity::raw(self.0 * rhs.0)
    }
}

impl<Dl, Dr> Div<Quantity<Dr>> for Quantity<Dl>
where
    Dl: DimDiv<Dr>,
    Dr: Dimension,
{
    type Output = Quantity<<Dl as DimDiv<Dr>>::Output>;
    fn div(self, rhs: Quantity<Dr>) -> Self::Output {
        Quantity::raw(self.0 / rhs.0)
    }
}

// ---- named aliases ---------------------------------------------------------

/// A mass of CO₂-equivalent emissions. Base unit: grams.
///
/// # Examples
///
/// ```
/// use act_units::MassCo2;
/// let total = MassCo2::kilograms(0.253) + MassCo2::grams(150.0);
/// assert!((total.as_grams() - 403.0).abs() < 1e-9);
/// ```
pub type MassCo2 = Quantity<MassDim>;

/// An amount of energy. Canonical axis unit: kWh; joule constructors and
/// accessors convert.
///
/// # Examples
///
/// ```
/// use act_units::Energy;
/// assert!((Energy::kilowatt_hours(1.0).as_joules() - 3.6e6).abs() < 1e-6);
/// ```
pub type Energy = Quantity<EnergyDim>;

/// Electrical power: energy per time.
///
/// # Examples
///
/// ```
/// use act_units::{Power, TimeSpan};
/// let e = Power::milliwatts(500.0) * TimeSpan::seconds(2.0);
/// assert!((e.as_joules() - 1.0).abs() < 1e-12);
/// ```
pub type Power = Quantity<PowerDim>;

/// Silicon area. Base unit: square centimeters (the fab-report unit).
///
/// # Examples
///
/// ```
/// use act_units::Area;
/// let die = Area::square_millimeters(73.0);
/// assert!((die.as_square_centimeters() - 0.73).abs() < 1e-12);
/// ```
pub type Area = Quantity<AreaDim>;

/// Storage or memory capacity. Base unit: gigabytes.
///
/// # Examples
///
/// ```
/// use act_units::Capacity;
/// assert!((Capacity::terabytes(2.0).as_gigabytes() - 2048.0).abs() < 1e-9);
/// ```
pub type Capacity = Quantity<CapacityDim>;

/// A duration: an application run-time `T` or a hardware lifetime `LT`.
/// Base unit: seconds.
///
/// # Examples
///
/// ```
/// use act_units::TimeSpan;
/// let lt = TimeSpan::years(3.0);
/// assert!((lt.as_years() - 3.0).abs() < 1e-12);
/// ```
pub type TimeSpan = Quantity<TimeDim>;

/// An event rate: inferences per second, frames per second, and similar.
/// Base unit: events per second.
///
/// # Examples
///
/// ```
/// use act_units::{Throughput, TimeSpan};
/// let fps = Throughput::per_second(30.0);
/// assert!((fps.period().as_milliseconds() - 33.333).abs() < 0.01);
/// assert!(((TimeSpan::seconds(2.0) * fps).value() - 60.0).abs() < 1e-12);
/// ```
pub type Throughput = Quantity<ThroughputDim>;

/// A dimensionless quantity: the result of dividing two quantities of the
/// same dimension (lifetime shares, event counts, speedups).
///
/// # Examples
///
/// ```
/// use act_units::{MassCo2, Ratio};
/// let share: Ratio = MassCo2::grams(1.0) / MassCo2::grams(4.0);
/// assert!((share.value() - 0.25).abs() < 1e-12);
/// assert!((f64::from(share) - 0.25).abs() < 1e-12);
/// ```
pub type Ratio = Quantity<NoDim>;

impl Ratio {
    /// Wraps a plain scalar as a dimensionless quantity.
    #[must_use]
    pub const fn of(value: f64) -> Self {
        Self::from_base(value)
    }

    /// The scalar value.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }
}

// A dimensionless quantity IS a scalar, so it compares directly against
// plain floats — `ratio > 30.0` without unwrapping through `.value()`.
impl PartialEq<f64> for Ratio {
    fn eq(&self, other: &f64) -> bool {
        self.0 == *other
    }
}

impl PartialEq<Ratio> for f64 {
    fn eq(&self, other: &Ratio) -> bool {
        *self == other.0
    }
}

impl PartialOrd<f64> for Ratio {
    fn partial_cmp(&self, other: &f64) -> Option<Ordering> {
        self.0.partial_cmp(other)
    }
}

impl PartialOrd<Ratio> for f64 {
    fn partial_cmp(&self, other: &Ratio) -> Option<Ordering> {
        self.partial_cmp(&other.0)
    }
}

// … and shifts by scalar offsets, so residuals like `ratio - 1.0` read
// like the formulas they implement.
impl Add<f64> for Ratio {
    type Output = Ratio;
    fn add(self, rhs: f64) -> Ratio {
        Ratio::raw(self.0 + rhs)
    }
}

impl Sub<f64> for Ratio {
    type Output = Ratio;
    fn sub(self, rhs: f64) -> Ratio {
        Ratio::raw(self.0 - rhs)
    }
}

impl Add<Ratio> for f64 {
    type Output = Ratio;
    fn add(self, rhs: Ratio) -> Ratio {
        Ratio::raw(self + rhs.0)
    }
}

impl Sub<Ratio> for f64 {
    type Output = Ratio;
    fn sub(self, rhs: Ratio) -> Ratio {
        Ratio::raw(self - rhs.0)
    }
}

impl From<Ratio> for f64 {
    fn from(ratio: Ratio) -> f64 {
        ratio.value()
    }
}

impl MassCo2 {
    /// Creates a mass from grams of CO₂.
    #[must_use]
    pub const fn grams(g: f64) -> Self {
        Self::from_base(g)
    }

    /// Creates a mass from kilograms of CO₂.
    #[must_use]
    pub const fn kilograms(kg: f64) -> Self {
        Self::from_base(kg * 1e3)
    }

    /// Creates a mass from metric tonnes of CO₂.
    #[must_use]
    pub const fn tonnes(t: f64) -> Self {
        Self::from_base(t * 1e6)
    }

    /// Creates a mass from micrograms of CO₂ (per-inference footprints).
    #[must_use]
    pub const fn micrograms(ug: f64) -> Self {
        Self::from_base(ug * 1e-6)
    }

    /// Validating variant of [`Self::grams`].
    ///
    /// # Errors
    ///
    /// Rejects NaN, infinite and negative masses with a [`crate::UnitError`].
    pub fn try_grams(g: f64) -> Result<Self, crate::UnitError> {
        Self::try_from_base(g)
    }

    /// Magnitude in grams.
    #[must_use]
    pub const fn as_grams(self) -> f64 {
        self.0
    }

    /// Magnitude in kilograms.
    #[must_use]
    pub fn as_kilograms(self) -> f64 {
        self.0 / 1e3
    }

    /// Magnitude in micrograms.
    #[must_use]
    pub fn as_micrograms(self) -> f64 {
        self.0 * 1e6
    }
}

impl Energy {
    /// Creates an energy from joules.
    #[inline(always)]
    #[must_use]
    pub const fn joules(j: f64) -> Self {
        Self::from_base(j / JOULES_PER_KWH)
    }

    /// Creates an energy from millijoules.
    #[must_use]
    pub const fn millijoules(mj: f64) -> Self {
        Self::from_base(mj * 1e-3 / JOULES_PER_KWH)
    }

    /// Creates an energy from kilowatt-hours.
    #[must_use]
    pub const fn kilowatt_hours(kwh: f64) -> Self {
        Self::from_base(kwh)
    }

    /// Validating variant of [`Self::joules`].
    ///
    /// # Errors
    ///
    /// Rejects NaN, infinite and negative energies with a
    /// [`crate::UnitError`].
    pub fn try_joules(j: f64) -> Result<Self, crate::UnitError> {
        Self::try_from_base(j / JOULES_PER_KWH)
    }

    /// Magnitude in joules.
    #[must_use]
    pub const fn as_joules(self) -> f64 {
        self.0 * JOULES_PER_KWH
    }

    /// Magnitude in millijoules.
    #[must_use]
    pub fn as_millijoules(self) -> f64 {
        self.0 * JOULES_PER_KWH * 1e3
    }

    /// Magnitude in kilowatt-hours.
    #[inline(always)]
    #[must_use]
    pub const fn as_kilowatt_hours(self) -> f64 {
        self.0
    }
}

impl Power {
    /// Creates a power from watts.
    #[must_use]
    pub const fn watts(w: f64) -> Self {
        Self::from_base(w / JOULES_PER_KWH)
    }

    /// Creates a power from milliwatts.
    #[must_use]
    pub const fn milliwatts(mw: f64) -> Self {
        Self::from_base(mw * 1e-3 / JOULES_PER_KWH)
    }
}

impl Area {
    /// Creates an area from square centimeters.
    #[must_use]
    pub const fn square_centimeters(cm2: f64) -> Self {
        Self::from_base(cm2)
    }

    /// Creates an area from square millimeters (the die-size unit).
    #[inline(always)]
    #[must_use]
    pub const fn square_millimeters(mm2: f64) -> Self {
        Self::from_base(mm2 / 100.0)
    }

    /// Validating variant of [`Self::square_millimeters`].
    ///
    /// # Errors
    ///
    /// Rejects NaN, infinite and negative areas with a [`crate::UnitError`].
    pub fn try_square_millimeters(mm2: f64) -> Result<Self, crate::UnitError> {
        Self::try_from_base(mm2 / 100.0)
    }

    /// Magnitude in square centimeters.
    #[inline(always)]
    #[must_use]
    pub const fn as_square_centimeters(self) -> f64 {
        self.0
    }

    /// Magnitude in square millimeters.
    #[must_use]
    pub fn as_square_millimeters(self) -> f64 {
        self.0 * 100.0
    }
}

impl Capacity {
    /// Creates a capacity from gigabytes.
    #[must_use]
    pub const fn gigabytes(gb: f64) -> Self {
        Self::from_base(gb)
    }

    /// Creates a capacity from terabytes (1 TB = 1024 GB).
    #[must_use]
    pub const fn terabytes(tb: f64) -> Self {
        Self::from_base(tb * GIGABYTES_PER_TERABYTE)
    }

    /// Validating variant of [`Self::gigabytes`].
    ///
    /// # Errors
    ///
    /// Rejects NaN, infinite and negative capacities with a
    /// [`crate::UnitError`].
    pub fn try_gigabytes(gb: f64) -> Result<Self, crate::UnitError> {
        Self::try_from_base(gb)
    }

    /// Magnitude in gigabytes.
    #[must_use]
    pub const fn as_gigabytes(self) -> f64 {
        self.0
    }
}

impl TimeSpan {
    /// Creates a time span from seconds.
    #[must_use]
    pub const fn seconds(s: f64) -> Self {
        Self::from_base(s)
    }

    /// Creates a time span from milliseconds.
    #[must_use]
    pub const fn milliseconds(ms: f64) -> Self {
        Self::from_base(ms * 1e-3)
    }

    /// Creates a time span from hours.
    #[must_use]
    pub const fn hours(h: f64) -> Self {
        Self::from_base(h * SECONDS_PER_HOUR)
    }

    /// Creates a time span from days.
    #[must_use]
    pub const fn days(d: f64) -> Self {
        Self::from_base(d * SECONDS_PER_DAY)
    }

    /// Creates a time span from 365-day years (the ACT lifetime convention).
    #[inline(always)]
    #[must_use]
    pub const fn years(y: f64) -> Self {
        Self::from_base(y * SECONDS_PER_YEAR)
    }

    /// Validating variant of [`Self::seconds`].
    ///
    /// # Errors
    ///
    /// Rejects NaN, infinite and negative durations with a
    /// [`crate::UnitError`].
    pub fn try_seconds(s: f64) -> Result<Self, crate::UnitError> {
        Self::try_from_base(s)
    }

    /// Validating variant of [`Self::years`].
    ///
    /// # Errors
    ///
    /// Rejects NaN, infinite and negative durations with a
    /// [`crate::UnitError`].
    pub fn try_years(y: f64) -> Result<Self, crate::UnitError> {
        Self::try_from_base(y * SECONDS_PER_YEAR)
    }

    /// Magnitude in seconds.
    #[inline(always)]
    #[must_use]
    pub const fn as_seconds(self) -> f64 {
        self.0
    }

    /// Magnitude in milliseconds.
    #[must_use]
    pub fn as_milliseconds(self) -> f64 {
        self.0 * 1e3
    }

    /// Magnitude in 365-day years.
    #[must_use]
    pub fn as_years(self) -> f64 {
        self.0 / SECONDS_PER_YEAR
    }
}

impl Throughput {
    /// Creates a throughput from events per second.
    #[must_use]
    pub const fn per_second(rate: f64) -> Self {
        Self::from_base(rate)
    }

    /// Magnitude in events per second.
    #[must_use]
    pub const fn as_per_second(self) -> f64 {
        self.0
    }

    /// The time between events: `1 / rate`.
    #[must_use]
    pub fn period(self) -> TimeSpan {
        TimeSpan::seconds(1.0 / self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CarbonIntensity;

    #[test]
    fn mass_conversions_round_trip() {
        let m = MassCo2::kilograms(1.5);
        assert!((m.as_grams() - 1500.0).abs() < 1e-12);
        assert!((m.as_kilograms() - 1.5).abs() < 1e-12);
        assert!((MassCo2::micrograms(2.0).as_grams() - 2e-6).abs() < 1e-18);
        assert!((MassCo2::tonnes(1.0).as_kilograms() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn energy_kwh_joule_round_trip() {
        let e = Energy::kilowatt_hours(2.5);
        assert!((e.as_joules() - 9e6).abs() < 1e-6);
        assert!((e.as_kilowatt_hours() - 2.5).abs() < 1e-12);
        assert!((Energy::millijoules(2000.0).as_joules() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn power_times_time_is_energy() {
        let e = Power::watts(2.0) * TimeSpan::hours(3.0);
        assert!((e.as_kilowatt_hours() - 0.006).abs() < 1e-12);
        let p = e / TimeSpan::hours(3.0);
        assert!((p.ratio(Power::watts(2.0)) - 1.0).abs() < 1e-12);
        let t = e / Power::watts(2.0);
        assert!((t.as_seconds() - 3.0 * SECONDS_PER_HOUR).abs() < 1e-8);
    }

    #[test]
    fn products_derive_their_dimension_statically() {
        // (g/kWh) x (kWh/cm^2) = g/cm^2: the CIfab x EPA term of eq. 5.
        let fab_energy_carbon: crate::MassPerArea =
            CarbonIntensity::grams_per_kwh(500.0) * crate::EnergyPerArea::kwh_per_cm2(2.0);
        assert!((fab_energy_carbon.as_grams_per_cm2() - 1000.0).abs() < 1e-9);

        // Dividing mass by energy recovers an intensity.
        let ci: CarbonIntensity = MassCo2::grams(300.0) / Energy::kilowatt_hours(1.0);
        assert!((ci.as_grams_per_kwh() - 300.0).abs() < 1e-9);

        // Multiplying by a Ratio leaves the dimension unchanged.
        let half: Ratio = TimeSpan::years(1.0) / TimeSpan::years(2.0);
        let m = MassCo2::grams(10.0) * half;
        assert!((m.as_grams() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn area_units() {
        let a = Area::square_millimeters(250.0);
        assert!((a.as_square_centimeters() - 2.5).abs() < 1e-12);
        assert!((a.as_square_millimeters() - 250.0).abs() < 1e-12);
    }

    #[test]
    fn timespan_years() {
        let t = TimeSpan::years(1.0);
        assert!((t.as_seconds() - 31_536_000.0).abs() < 1.0);
        assert!((TimeSpan::days(365.0).as_years() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn throughput_period_inverse() {
        let fps = Throughput::per_second(30.0);
        assert!((fps.period().as_seconds() * 30.0 - 1.0).abs() < 1e-12);
        let events = TimeSpan::years(1.0) * Throughput::per_second(1.0);
        assert!((events.value() - 31_536_000.0).abs() < 1.0);
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = MassCo2::grams(2.0);
        let b = MassCo2::grams(3.0);
        assert_eq!(a + b, MassCo2::grams(5.0));
        assert_eq!(b - a, MassCo2::grams(1.0));
        assert_eq!(a * 2.0, MassCo2::grams(4.0));
        assert_eq!(2.0 * a, MassCo2::grams(4.0));
        assert_eq!(b / 3.0, MassCo2::grams(1.0));
        assert!(((b / a).value() - 1.5).abs() < 1e-12);
        assert!((b.ratio(a) - 1.5).abs() < 1e-12);
        assert!(a < b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(-a, MassCo2::grams(-2.0));
    }

    #[test]
    fn total_cmp_orders_poisoned_values_last() {
        let clean = MassCo2::grams(1.0);
        let poisoned = MassCo2::grams(1.0) / 0.0;
        assert_eq!(clean.total_cmp(&MassCo2::grams(2.0)), std::cmp::Ordering::Less);
        let worst =
            [clean, poisoned, MassCo2::grams(3.0)].into_iter().max_by(MassCo2::total_cmp);
        assert!(!worst.expect("nonempty").is_finite());
    }

    #[test]
    fn sum_over_iterators() {
        let parts = [MassCo2::grams(1.0), MassCo2::grams(2.0), MassCo2::grams(3.0)];
        let owned: MassCo2 = parts.iter().copied().sum();
        let borrowed: MassCo2 = parts.iter().sum();
        assert_eq!(owned, MassCo2::grams(6.0));
        assert_eq!(borrowed, owned);
    }

    #[test]
    fn assign_ops() {
        let mut m = MassCo2::grams(1.0);
        m += MassCo2::grams(2.0);
        m -= MassCo2::grams(0.5);
        assert_eq!(m, MassCo2::grams(2.5));
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(format!("{:.1}", MassCo2::grams(12.34)), "12.3 g CO2");
        assert_eq!(format!("{:.0}", Power::watts(7.0)), "7 W");
        assert_eq!(format!("{:.2}", Area::square_centimeters(0.5)), "0.50 cm^2");
        assert!(!format!("{}", Energy::joules(1.0)).is_empty());
        // Ratios display as bare numbers.
        assert_eq!(format!("{:.2}", Ratio::of(0.25)), "0.25");
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Capacity::gigabytes(64.0)).is_empty());
        // Anonymous dimensions fall back to the exponent vector.
        let odd = Area::square_centimeters(2.0) * Area::square_centimeters(3.0);
        assert!(format!("{odd:?}").contains("Quantity"));
        assert!(format!("{odd}").contains("cm^2^2"));
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(MassCo2::default(), MassCo2::ZERO);
        assert_eq!(Energy::default(), Energy::ZERO);
    }

    #[test]
    fn finiteness_check() {
        assert!(MassCo2::grams(1.0).is_finite());
        assert!(!(MassCo2::grams(1.0) / 0.0).is_finite());
    }

    #[test]
    fn try_constructors_accept_valid_magnitudes() {
        assert_eq!(MassCo2::try_grams(2.5).unwrap(), MassCo2::grams(2.5));
        assert_eq!(Energy::try_joules(0.0).unwrap(), Energy::ZERO);
        assert_eq!(Area::try_square_millimeters(90.0).unwrap(), Area::square_millimeters(90.0));
        assert_eq!(Capacity::try_gigabytes(8.0).unwrap(), Capacity::gigabytes(8.0));
        assert_eq!(TimeSpan::try_years(3.0).unwrap(), TimeSpan::years(3.0));
    }

    #[test]
    fn try_constructors_reject_poisoned_magnitudes() {
        assert!(MassCo2::try_grams(f64::NAN).is_err());
        assert!(MassCo2::try_grams(f64::INFINITY).is_err());
        assert!(Energy::try_joules(f64::NEG_INFINITY).is_err());
        assert!(Area::try_square_millimeters(-0.5).is_err());
        assert!(Capacity::try_gigabytes(f64::NAN).is_err());
        assert!(TimeSpan::try_seconds(-3600.0).is_err());
        assert!(TimeSpan::try_years(f64::INFINITY).is_err());
    }

    #[test]
    fn errors_name_the_quantity() {
        let err = MassCo2::try_grams(f64::NAN).unwrap_err();
        assert!(err.to_string().contains("MassCo2"));
        let err = Energy::try_joules(-1.0).unwrap_err();
        assert!(err.to_string().contains("Energy"));
    }

    #[test]
    fn ensure_finite_passes_and_poisons() {
        let ok = MassCo2::grams(1.0).ensure_finite("mass").unwrap();
        assert_eq!(ok, MassCo2::grams(1.0));
        let err = (MassCo2::grams(1.0) / 0.0).ensure_finite("mass").unwrap_err();
        assert_eq!(err.quantity(), "mass");
        assert_eq!(err.kind(), crate::UnitErrorKind::NonFinite);
    }
}
