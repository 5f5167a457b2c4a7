//! The ACT architectural carbon footprint model (Gupta et al., ISCA 2022).
//!
//! The model quantifies the emissions of running a software application on a
//! hardware platform as the sum of operational and lifetime-amortized
//! embodied emissions (paper eq. 1):
//!
//! ```text
//! CF = OPCF + (T / LT) × ECF
//! ```
//!
//! * [`OperationalModel`] computes `OPCF = CIuse × Energy` (eq. 2),
//! * [`SystemSpec::embodied`] computes `ECF = Nr·Kr + Σ Er` (eq. 3) with the
//!   per-component models of eqs. 4–8,
//! * [`FabScenario`] captures the semiconductor-fab parameters behind the
//!   `CPA = (CIfab·EPA + GPA + MPA) / Y` term (eq. 5),
//! * [`OptimizationMetric`] implements the carbon-aware design metrics of
//!   Table 2 (CDP, CEP, C²EP, CE²P next to EDP and EDAP).
//!
//! # Examples
//!
//! Footprint of a 7 nm mobile SoC with 8 GB of LPDDR4 over a 3-year life:
//!
//! ```
//! use act_core::{FabScenario, OperationalModel, SystemSpec};
//! use act_data::{DramTechnology, Location, ProcessNode};
//! use act_units::{Area, Capacity, Power, TimeSpan};
//!
//! let system = SystemSpec::builder()
//!     .soc("SoC", Area::square_millimeters(90.0), ProcessNode::N7)
//!     .dram(DramTechnology::Lpddr4, Capacity::gigabytes(8.0))
//!     .packaged_ics(2)
//!     .build();
//! let embodied = system.embodied(&FabScenario::default());
//!
//! let op = OperationalModel::new(Location::UnitedStates.carbon_intensity());
//! let opcf = op.footprint(Power::watts(1.0) * TimeSpan::hours(2.0));
//!
//! let total = act_core::total_footprint(
//!     opcf,
//!     embodied.total(),
//!     TimeSpan::hours(2.0),
//!     TimeSpan::years(3.0),
//! );
//! assert!(total > opcf);
//! ```

// `deny`, not `forbid`: `wide::run_wide` holds the one `unsafe` call,
// into its AVX-512 instance after the CPU reported the features.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod compiled;
mod embodied;
mod error;
mod fab;
mod intensity;
pub mod memo;
mod metrics;
mod operational;
mod params;
pub mod wide;

pub use compiled::{CompiledFootprint, EvalPlan, FreeAxis, UsePhase, LANES};
pub use embodied::{
    ComponentKind, EmbodiedComponent, EmbodiedReport, SystemSpec, SystemSpecBuilder,
    PACKAGING_FOOTPRINT,
};
pub use error::{ModelError, Validate};
pub use fab::{CpaBreakdown, FabScenario};
pub use intensity::IntensityProfile;
pub use metrics::{DesignPoint, OptimizationMetric};
pub use operational::OperationalModel;
pub use params::{ModelParams, ParamsError, INTENSITY_RANGE, LIFETIME_RANGE};

use act_units::{MassCo2, TimeSpan};

/// Total carbon footprint of running an application (paper eq. 1):
/// `CF = OPCF + (T / LT) × ECF`.
///
/// The embodied footprint is discounted by the share of the hardware's
/// lifetime the application consumes.
///
/// # Examples
///
/// ```
/// use act_core::total_footprint;
/// use act_units::{MassCo2, TimeSpan};
///
/// let cf = total_footprint(
///     MassCo2::grams(10.0),
///     MassCo2::kilograms(2.0),
///     TimeSpan::years(1.0),
///     TimeSpan::years(4.0),
/// );
/// assert!((cf.as_grams() - 510.0).abs() < 1e-9);
/// ```
///
/// # Panics
///
/// Panics if `lifetime` is not positive. Use [`try_total_footprint`] when
/// the inputs come from user configuration and a recoverable error is
/// preferable to a panic.
#[must_use]
pub fn total_footprint(
    operational: MassCo2,
    embodied: MassCo2,
    run_time: TimeSpan,
    lifetime: TimeSpan,
) -> MassCo2 {
    assert!(lifetime.as_seconds() > 0.0, "hardware lifetime must be positive, got {lifetime}");
    operational + embodied * (run_time / lifetime)
}

/// Checked variant of [`total_footprint`]: validates every input and the
/// result instead of panicking.
///
/// # Examples
///
/// ```
/// use act_core::try_total_footprint;
/// use act_units::{MassCo2, TimeSpan};
///
/// let cf = try_total_footprint(
///     MassCo2::grams(10.0),
///     MassCo2::kilograms(2.0),
///     TimeSpan::years(1.0),
///     TimeSpan::years(4.0),
/// )?;
/// assert!((cf.as_grams() - 510.0).abs() < 1e-9);
///
/// // A zero lifetime is an error, not a panic.
/// assert!(try_total_footprint(
///     MassCo2::ZERO,
///     MassCo2::ZERO,
///     TimeSpan::years(1.0),
///     TimeSpan::ZERO,
/// ).is_err());
/// # Ok::<(), act_core::ModelError>(())
/// ```
///
/// # Errors
///
/// Returns a [`ModelError`] if any input is non-finite, `run_time` is
/// negative, `lifetime` is not positive, or the amortized sum overflows to
/// a non-finite value.
pub fn try_total_footprint(
    operational: MassCo2,
    embodied: MassCo2,
    run_time: TimeSpan,
    lifetime: TimeSpan,
) -> Result<MassCo2, ModelError> {
    let operational = operational.ensure_finite("operational footprint")?;
    let embodied = embodied.ensure_finite("embodied footprint")?;
    let run_time = run_time.ensure_finite("application run time")?;
    let lifetime = lifetime.ensure_finite("hardware lifetime")?;
    if run_time.as_seconds() < 0.0 {
        return Err(ModelError::invariant(format!(
            "application run time must be non-negative, got {run_time}"
        )));
    }
    if lifetime.as_seconds() <= 0.0 {
        return Err(ModelError::invariant(format!(
            "hardware lifetime must be positive, got {lifetime}"
        )));
    }
    let total = operational + embodied * (run_time / lifetime);
    Ok(total.ensure_finite("total footprint")?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_amortizes_embodied_by_lifetime_share() {
        let cf = total_footprint(
            MassCo2::grams(100.0),
            MassCo2::grams(1000.0),
            TimeSpan::years(3.0),
            TimeSpan::years(3.0),
        );
        assert!((cf.as_grams() - 1100.0).abs() < 1e-9);

        let half = total_footprint(
            MassCo2::grams(100.0),
            MassCo2::grams(1000.0),
            TimeSpan::years(1.5),
            TimeSpan::years(3.0),
        );
        assert!((half.as_grams() - 600.0).abs() < 1e-9);
    }

    #[test]
    fn zero_runtime_means_operational_only() {
        let cf = total_footprint(
            MassCo2::grams(42.0),
            MassCo2::kilograms(5.0),
            TimeSpan::ZERO,
            TimeSpan::years(2.0),
        );
        assert!((cf.as_grams() - 42.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "lifetime must be positive")]
    fn rejects_zero_lifetime() {
        let _ =
            total_footprint(MassCo2::ZERO, MassCo2::ZERO, TimeSpan::years(1.0), TimeSpan::ZERO);
    }

    #[test]
    fn try_variant_agrees_with_panicking_path() {
        let args = (
            MassCo2::grams(100.0),
            MassCo2::grams(1000.0),
            TimeSpan::years(1.5),
            TimeSpan::years(3.0),
        );
        let checked = try_total_footprint(args.0, args.1, args.2, args.3).unwrap();
        let unchecked = total_footprint(args.0, args.1, args.2, args.3);
        assert_eq!(checked, unchecked);
    }

    #[test]
    fn try_variant_rejects_bad_inputs() {
        let err = try_total_footprint(
            MassCo2::ZERO,
            MassCo2::ZERO,
            TimeSpan::years(1.0),
            TimeSpan::ZERO,
        )
        .unwrap_err();
        assert!(err.to_string().contains("lifetime"));

        let err = try_total_footprint(
            MassCo2::ZERO,
            MassCo2::ZERO,
            TimeSpan::years(-1.0),
            TimeSpan::years(3.0),
        )
        .unwrap_err();
        assert!(err.to_string().contains("run time"));
    }
}
