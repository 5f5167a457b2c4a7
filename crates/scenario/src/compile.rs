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
//! ## Use-phase kernel
//!
//! The workload/fleet path compiles a [`CompiledFootprint`] over the axes
//! `[ExecutionTime, Lifetime, UseIntensity, Energy]` with **zero** SoC
//! area, no storage, and no packaging, so the kernel's embodied term
//! folds to `Const(0.0)` and each evaluation returns the operational term
//! alone. Callers then add the scenario's embodied total computed by the
//! [`SystemSpec`] oracle. Feeding the execution-time axis
//! `lifetime_years * SECONDS_PER_YEAR` — the exact product
//! [`TimeSpan::years`](act_units::TimeSpan::years) stores — makes the
//! kernel's `T/LT` amortization ratio exactly `1.0`, so nothing but the
//! operational energy varies per sample.

use std::fmt;

use act_core::{
    CompiledFootprint, EmbodiedReport, FreeAxis, ModelError, ModelParams, SystemSpec,
    INTENSITY_RANGE, LIFETIME_RANGE,
};
use act_data::ProcessNode;
use act_json::JsonError;
use act_units::{Area, Capacity, SECONDS_PER_YEAR};

use crate::fleet::FleetKernel;
use crate::schema::{Scenario, Workload};

/// Duty cycle is a fraction of wall time.
pub(crate) const UTILIZATION_RANGE: std::ops::RangeInclusive<f64> = 0.0..=1.0;
/// Sanity ceiling on average power (a megawatt device is a typo).
const MAX_POWER_W: f64 = 1.0e6;
/// Ceiling on per-request Monte-Carlo samples (matches the server's
/// sweep-size guard; keeps a hostile fleet block from pinning a core).
const MAX_SAMPLES: usize = 4_000_000;

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

/// Single-device use-phase result: the operational footprint over the
/// workload's lifetime plus the embodied total.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeviceFootprint {
    /// Operational carbon over the full lifetime, grams CO₂.
    pub operational_g: f64,
    /// Operational + embodied, grams CO₂.
    pub total_g: f64,
}

act_json::impl_to_json!(DeviceFootprint { operational_g, total_g });

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

/// Compiles the operational-only kernel described in the module docs.
/// Every embodied input is zeroed so the kernel's embodied term folds to
/// a constant `0.0` and each evaluation yields the operational term.
pub(crate) fn operational_kernel(
    node: ProcessNode,
) -> Result<CompiledFootprint, ScenarioError> {
    let params = ModelParams {
        execution_time_s: 1.0,
        lifetime_years: 1.0,
        packaged_ic_count: 0,
        soc_area_mm2: 0.0,
        process_node: node,
        use_intensity_g_per_kwh: 301.0,
        fab_intensity_g_per_kwh: 447.5,
        fab_yield: 0.875,
        dram: Vec::new(),
        ssd: Vec::new(),
        hdd: Vec::new(),
        energy_j: 1.0,
    };
    let axes =
        [FreeAxis::ExecutionTime, FreeAxis::Lifetime, FreeAxis::UseIntensity, FreeAxis::Energy];
    Ok(CompiledFootprint::try_compile(&params, &axes)?)
}

/// The kernel evaluation point for one device configuration. Feeding the
/// execution-time axis the exact seconds-per-lifetime product keeps the
/// amortization ratio at exactly `1.0` (see module docs), so the result
/// is the operational term alone.
pub(crate) fn device_point(
    power_w: f64,
    utilization: f64,
    lifetime_years: f64,
    intensity: f64,
) -> [f64; 4] {
    let exec_s = lifetime_years * SECONDS_PER_YEAR;
    [exec_s, lifetime_years, intensity, power_w * utilization * exec_s]
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
        let embodied_g = report.total().as_grams();

        let node = self.chips.first().map_or(ProcessNode::N7, |chip| chip.node);
        let mut device = None;
        let mut fleet = None;
        if let Some(workload) = &self.workload {
            check_workload(workload)?;
            let kernel = operational_kernel(node)?;
            let point = device_point(
                workload.power_w,
                workload.utilization,
                workload.lifetime_years,
                workload.use_intensity_g_per_kwh,
            );
            let operational_g = kernel.eval(&point);
            device =
                Some(DeviceFootprint { operational_g, total_g: operational_g + embodied_g });
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
                fleet =
                    Some(FleetKernel::new(kernel, embodied_g, workload.power_w, spec.clone()));
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
