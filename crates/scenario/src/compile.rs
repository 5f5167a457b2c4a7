//! Scenario validation and lowering.
//!
//! [`Scenario::compile`] turns a parsed document into a
//! [`CompiledScenario`]: the [`SystemSpec`] of the bill of materials and
//! its [`EmbodiedReport`], an optional single-device [`DeviceFootprint`]
//! when a workload is present, and an optional [`FleetKernel`] when a
//! fleet block is.
//!
//! ## Embodied fold order
//!
//! The bill of materials goes through [`SystemSpec::builder`] in document
//! order: every chip through [`act_core::SystemSpecBuilder::soc`], then
//! the DRAM, SSD and HDD populations, then the packaged-IC count. IEEE-754
//! addition is order-sensitive, so this order is part of the result; the
//! fixture pin test in this crate holds every committed device to its
//! component and total bits.
//!
//! ## Use phase
//!
//! With a workload, the document's own [`SystemSpec`] lowers through
//! [`CompiledFootprint::try_lower`] to one eq. 1 plan: one instruction per
//! component, in the fold order above, under the document's fab. The
//! footprint covers the device's whole lifetime, so `T = LT` and the
//! amortization ratio folds to exactly `1.0` at compile time. The plan's
//! free axes are the use-phase grid intensity and lifetime energy, the
//! two columns a fleet sample draws; the device footprint is the plan at
//! the workload's point.

use std::fmt;

use act_core::{
    CompiledFootprint, EmbodiedReport, FreeAxis, ModelError, OperationalModel, SystemSpec,
    UsePhase, INTENSITY_RANGE, LIFETIME_RANGE,
};
use act_json::JsonError;
use act_units::{Area, Capacity, CarbonIntensity, Energy, TimeSpan};

use crate::fleet::FleetKernel;
use crate::schema::{Scenario, Workload};

/// Duty cycle is a fraction of wall time.
pub(crate) const UTILIZATION_RANGE: std::ops::RangeInclusive<f64> = 0.0..=1.0;
/// Sanity ceiling on average power (a megawatt device is a typo).
const MAX_POWER_W: f64 = 1.0e6;
/// Ceiling on a fleet block's Monte-Carlo samples; keeps a hostile
/// document from pinning a core.
const MAX_SAMPLES: usize = 4_000_000;
/// The free axes of a scenario's plan, in column order: the two use-phase
/// inputs a fleet sample draws.
const FLEET_AXES: [FreeAxis; 2] = [FreeAxis::UseIntensity, FreeAxis::Energy];

/// Error from scenario parsing, validation, or model lowering.
#[derive(Debug)]
pub enum ScenarioError {
    /// The document is not valid JSON or does not match the schema.
    Json(JsonError),
    /// A field is outside its documented range.
    Invalid {
        /// Dotted path of the offending field (e.g. `"fleet.samples"`).
        field: &'static str,
        /// Human-readable description of the violation.
        message: String,
    },
    /// The lowered model rejected the parameters (Table 1 ranges,
    /// non-finite arithmetic).
    Model(ModelError),
}

impl ScenarioError {
    pub(crate) fn invalid(field: &'static str, message: impl Into<String>) -> Self {
        Self::Invalid { field, message: message.into() }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Json(err) => write!(f, "scenario JSON: {err}"),
            Self::Invalid { field, message } => {
                write!(f, "scenario field `{field}`: {message}")
            }
            Self::Model(err) => write!(f, "scenario model: {err}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Json(err) => Some(err),
            Self::Invalid { .. } => None,
            Self::Model(err) => Some(err),
        }
    }
}

impl From<JsonError> for ScenarioError {
    fn from(err: JsonError) -> Self {
        Self::Json(err)
    }
}

impl From<ModelError> for ScenarioError {
    fn from(err: ModelError) -> Self {
        Self::Model(err)
    }
}

act_json::json_struct! {
    [ToJson]
    /// Single-device use-phase result: the operational footprint over the
    /// workload's lifetime plus the embodied total.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct DeviceFootprint {
        /// Operational carbon over the full lifetime, grams CO₂.
        pub operational_g: f64,
        /// Operational + embodied, grams CO₂.
        pub total_g: f64,
    }
}

/// A validated, lowered scenario ready to evaluate.
#[derive(Debug)]
pub struct CompiledScenario {
    name: String,
    system: SystemSpec,
    report: EmbodiedReport,
    device: Option<DeviceFootprint>,
    fleet: Option<FleetKernel>,
}

impl CompiledScenario {
    /// The scenario's `name` field.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The bill of materials as the embodied model sees it, for
    /// evaluating under another fab than the document's.
    #[must_use]
    pub fn system(&self) -> &SystemSpec {
        &self.system
    }

    /// Per-component embodied breakdown (eq. 3) under the document's fab.
    #[must_use]
    pub fn embodied(&self) -> &EmbodiedReport {
        &self.report
    }

    /// Embodied total in grams CO₂, the left fold of
    /// [`Self::embodied`]'s components.
    #[must_use]
    pub fn embodied_grams(&self) -> f64 {
        self.report.total().as_grams()
    }

    /// Single-device footprint, when the scenario has a workload.
    #[must_use]
    pub fn device(&self) -> Option<&DeviceFootprint> {
        self.device.as_ref()
    }

    /// Fleet Monte-Carlo kernel, when the scenario has a fleet block.
    #[must_use]
    pub fn fleet(&self) -> Option<&FleetKernel> {
        self.fleet.as_ref()
    }
}

fn check_finite_positive(
    field: &'static str,
    label: &str,
    value: f64,
) -> Result<(), ScenarioError> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(ScenarioError::invalid(
            field,
            format!("`{label}` must be finite and positive, got {value}"),
        ))
    }
}

fn check_workload(workload: &Workload) -> Result<(), ScenarioError> {
    let w = workload;
    if !(w.power_w.is_finite() && w.power_w > 0.0 && w.power_w <= MAX_POWER_W) {
        return Err(ScenarioError::invalid(
            "workload.power_w",
            format!("power must be in (0, {MAX_POWER_W}] W, got {}", w.power_w),
        ));
    }
    if !UTILIZATION_RANGE.contains(&w.utilization) {
        return Err(ScenarioError::invalid(
            "workload.utilization",
            format!("utilization must be in [0, 1], got {}", w.utilization),
        ));
    }
    if !LIFETIME_RANGE.contains(&w.lifetime_years) {
        return Err(ScenarioError::invalid(
            "workload.lifetime_years",
            format!("lifetime must be in [0.1, 50] years, got {}", w.lifetime_years),
        ));
    }
    if !INTENSITY_RANGE.contains(&w.use_intensity_g_per_kwh) {
        return Err(ScenarioError::invalid(
            "workload.use_intensity_g_per_kwh",
            format!(
                "grid intensity must be in [0, 2000] g/kWh, got {}",
                w.use_intensity_g_per_kwh
            ),
        ));
    }
    Ok(())
}

/// Use-phase energy of a device drawing `power_w` at `utilization` over
/// its whole `lifetime_years`, in joules.
#[inline(always)]
pub(crate) fn lifetime_energy_j(power_w: f64, utilization: f64, lifetime_years: f64) -> f64 {
    power_w * utilization * TimeSpan::years(lifetime_years).as_seconds()
}

impl Scenario {
    /// Validates the scenario and lowers it to a [`CompiledScenario`].
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Invalid`] when a field is out of range or a fleet
    /// block lacks a workload; [`ScenarioError::Model`] when the embodied
    /// or compiled-kernel layer rejects the lowered parameters.
    pub fn compile(&self) -> Result<CompiledScenario, ScenarioError> {
        // Chips (in order), then DRAM, SSD, HDD populations, then the
        // packaging count: the fold order the fixture pins hold.
        let mut builder = SystemSpec::builder();
        for (i, chip) in self.chips.iter().enumerate() {
            if chip.name.is_empty() {
                return Err(ScenarioError::invalid(
                    "chips.name",
                    format!("chip {i} has an empty name"),
                ));
            }
            if chip.count == 0 {
                return Err(ScenarioError::invalid(
                    "chips.count",
                    format!("chip `{}` has zero count", chip.name),
                ));
            }
            check_finite_positive("chips.area_mm2", &chip.name, chip.area_mm2)?;
            builder = builder.soc(
                chip.name.clone(),
                Area::square_millimeters(chip.area_mm2),
                chip.node,
            );
        }
        for entry in &self.dram {
            check_finite_positive("dram.capacity_gb", "capacity_gb", entry.capacity_gb)?;
            builder = builder.dram(entry.technology, Capacity::gigabytes(entry.capacity_gb));
        }
        for entry in &self.ssd {
            check_finite_positive("ssd.capacity_gb", "capacity_gb", entry.capacity_gb)?;
            builder = builder.ssd(entry.technology, Capacity::gigabytes(entry.capacity_gb));
        }
        for entry in &self.hdd {
            check_finite_positive("hdd.capacity_gb", "capacity_gb", entry.capacity_gb)?;
            builder = builder.hdd(entry.model, Capacity::gigabytes(entry.capacity_gb));
        }
        let system = builder.packaged_ics(self.packaged_ic_count).build();

        let fab = self.fab.unwrap_or_default();
        let report = system.try_embodied(&fab)?;

        let mut device = None;
        let mut fleet = None;
        if let Some(workload) = &self.workload {
            check_workload(workload)?;
            let &Workload { power_w, utilization, lifetime_years, use_intensity_g_per_kwh } =
                workload;
            let energy_j = lifetime_energy_j(power_w, utilization, lifetime_years);
            // The footprint covers the whole lifetime: T = LT.
            let execution_time_s = TimeSpan::years(lifetime_years).as_seconds();
            let use_phase = UsePhase {
                execution_time_s,
                lifetime_years,
                use_intensity_g_per_kwh,
                energy_j,
            };
            let kernel = CompiledFootprint::try_lower(&system, &fab, &use_phase, &FLEET_AXES)?;
            let intensity = CarbonIntensity::grams_per_kwh(use_intensity_g_per_kwh);
            device = Some(DeviceFootprint {
                operational_g: OperationalModel::new(intensity)
                    .footprint(Energy::joules(energy_j))
                    .as_grams(),
                total_g: kernel.eval(&[use_intensity_g_per_kwh, energy_j]),
            });
            if let Some(spec) = &self.fleet {
                if spec.devices == 0 {
                    return Err(ScenarioError::invalid(
                        "fleet.devices",
                        "fleet needs at least one device",
                    ));
                }
                if spec.samples == 0 {
                    return Err(ScenarioError::invalid(
                        "fleet.samples",
                        "fleet needs at least one sample",
                    ));
                }
                if spec.samples > MAX_SAMPLES {
                    return Err(ScenarioError::invalid(
                        "fleet.samples",
                        format!("at most {MAX_SAMPLES} samples per run, got {}", spec.samples),
                    ));
                }
                spec.lifetime_years.validate("fleet.lifetime_years")?;
                spec.use_intensity_g_per_kwh.validate("fleet.use_intensity_g_per_kwh")?;
                spec.utilization.validate("fleet.utilization")?;
                fleet = Some(FleetKernel::new(kernel.plan(), power_w, spec.clone()));
            }
        } else if self.fleet.is_some() {
            return Err(ScenarioError::invalid(
                "fleet",
                "a fleet block requires a `workload` section (for the device power draw)",
            ));
        }

        Ok(CompiledScenario { name: self.name.clone(), system, report, device, fleet })
    }
}
