//! Partially-evaluated footprint kernels: eq. 1 lowered to a handful of
//! FLOPs per design point.
//!
//! [`CompiledFootprint::try_lower`] is the one lowering of eq. 1: a
//! [`SystemSpec`] under a [`FabScenario`], its [`UsePhase`] baselines,
//! and a set of declared [`FreeAxis`] values. Every sweep-invariant
//! sub-term (each component's embodied gCO₂, the CPA pieces of eq. 5, the
//! operational term of eq. 2, the `T/LT` ratio of eq. 1) folds into a
//! plain `f64` at compile time. [`CompiledFootprint::try_compile`] is its
//! one-chip [`ModelParams`] case.
//!
//! The compiled form is one flat [`EvalPlan`]: an operational term, one
//! instruction per eq. 3 component in [`SystemSpec::embodied`]'s fold
//! order, and an amortization ratio, whose operands are folded constants
//! or columns of a point. One evaluator walks up to [`LANES`] points per
//! instruction ([`EvalPlan::eval_block`]); [`CompiledFootprint::eval`] is
//! a block of one point. Neither allocates. The block width, 16, was
//! chosen by measurement: its lane buffers are small enough that the
//! compiler folds their zeroing into the unrolled loops (see [`LANES`]).
//!
//! Folding replays the *exact* floating-point operation sequence of the
//! interpreted model (same associativity, same division-vs-multiply
//! choices, same component order in the eq. 3 sum), so results are
//! bit-for-bit identical to [`ModelParams::try_footprint`], and to
//! [`SystemSpec::embodied`] plus [`OperationalModel::footprint`] for a
//! whole system; the tests in `crates/core/tests/compiled.rs` and
//! `crates/scenario/tests/devices.rs` pin the equivalence. A fixed
//! component's term is the footprint the interpreted fold adds, interned
//! through [`crate::memo`].
//!
//! # Examples
//!
//! ```
//! use act_core::{CompiledFootprint, FreeAxis, ModelParams};
//!
//! let params = ModelParams::mobile_reference();
//! let kernel = CompiledFootprint::try_compile(&params, &[FreeAxis::SocArea])?;
//! // Evaluating the kernel at the baseline area reproduces the oracle
//! // bit-for-bit.
//! let compiled = kernel.eval(&[params.soc_area_mm2]);
//! let oracle = params.try_footprint()?.as_grams();
//! assert_eq!(compiled.to_bits(), oracle.to_bits());
//! # Ok::<(), act_core::ModelError>(())
//! ```

use std::fmt;
use std::ops::Range;

use act_units::{Area, CarbonIntensity, Energy, MassPerCapacity, TimeSpan};

use crate::embodied::Component;
use crate::params::{domain_error, INTENSITY_RANGE, LIFETIME_RANGE};
use crate::{
    memo, wide, ComponentKind, FabScenario, ModelError, ModelParams, OperationalModel,
    SystemSpec, Validate,
};

/// Lane width of the block-vectorized evaluation path: [`EvalPlan::eval_block`]
/// walks design points in fixed blocks of `LANES` so every inner loop has a
/// compile-time trip count rustc can unroll and auto-vectorize.
///
/// The width is measured, not derived. A block zero-fills and round-trips
/// each term through up to eight `[f64; LANES]` stack buffers. At 16 lanes
/// (128 bytes each) the zeroing folds into the unrolled loops; at 64 lanes
/// (512 bytes each) the release build calls `memset` for it 11 times per
/// block and touches the stack about 2.5× as often. Single-threaded, 64
/// lanes evaluated the sweep, CPA and `T/LT` plan shapes 1.8–2.1× slower
/// per point than 16, and 8 or 32 lanes were no faster than 16 (DESIGN §4f
/// has the table).
pub const LANES: usize = 16;

/// One input of eq. 1 left *free* — i.e. supplied per point at
/// [`CompiledFootprint::eval`] time instead of folded into the kernel's
/// constants.
///
/// Point coordinates are given in the same units as the corresponding
/// `ModelParams` field (seconds, years, mm², g CO₂/kWh, a yield fraction,
/// joules, GB).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FreeAxis {
    /// `T` — application execution time in seconds.
    ExecutionTime,
    /// `LT` — hardware lifetime in years.
    Lifetime,
    /// `A` — application-processor (first logic die) area in mm².
    SocArea,
    /// `CIuse` — use-phase carbon intensity in g CO₂/kWh.
    UseIntensity,
    /// `CIfab` — fab carbon intensity in g CO₂/kWh, for every logic die.
    FabIntensity,
    /// `Y` — fab yield in `(0, 1]`, for every logic die.
    FabYield,
    /// Application energy over `T`, in joules.
    Energy,
    /// Capacity (GB) of the `i`-th DRAM population entry.
    DramCapacity(usize),
    /// Capacity (GB) of the `i`-th SSD population entry.
    SsdCapacity(usize),
    /// Capacity (GB) of the `i`-th HDD population entry.
    HddCapacity(usize),
}

impl fmt::Display for FreeAxis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ExecutionTime => f.write_str("execution time (s)"),
            Self::Lifetime => f.write_str("lifetime (years)"),
            Self::SocArea => f.write_str("SoC area (mm^2)"),
            Self::UseIntensity => f.write_str("use carbon intensity (g/kWh)"),
            Self::FabIntensity => f.write_str("fab carbon intensity (g/kWh)"),
            Self::FabYield => f.write_str("fab yield"),
            Self::Energy => f.write_str("application energy (J)"),
            Self::DramCapacity(i) => write!(f, "DRAM[{i}] capacity (GB)"),
            Self::SsdCapacity(i) => write!(f, "SSD[{i}] capacity (GB)"),
            Self::HddCapacity(i) => write!(f, "HDD[{i}] capacity (GB)"),
        }
    }
}

impl FreeAxis {
    /// The component this axis frees, as its kind and its index among the
    /// components of that kind; `None` for a use-phase or fab axis.
    fn component(self) -> Option<(ComponentKind, usize)> {
        match self {
            Self::SocArea => Some((ComponentKind::Soc, 0)),
            Self::DramCapacity(k) => Some((ComponentKind::Dram, k)),
            Self::SsdCapacity(k) => Some((ComponentKind::Ssd, k)),
            Self::HddCapacity(k) => Some((ComponentKind::Hdd, k)),
            _ => None,
        }
    }

    /// Validates one point coordinate against the same Table 1 range the
    /// corresponding [`ModelParams`] field enforces — the per-coordinate
    /// check of [`CompiledFootprint::try_eval`], for callers that validate
    /// a whole column before a block evaluation.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] naming the quantity and its valid range
    /// when `value` is outside it (or not finite).
    pub fn check(self, value: f64) -> Result<(), ModelError> {
        let non_negative = value >= 0.0 && value.is_finite();
        let (in_range, quantity, expected) = match self {
            Self::ExecutionTime => (non_negative, "execution time", "non-negative seconds"),
            Self::Lifetime => {
                (LIFETIME_RANGE.contains(&value), "hardware lifetime", "within [0.1, 50] years")
            }
            Self::SocArea => (non_negative, "SoC area", "non-negative mm^2"),
            Self::UseIntensity | Self::FabIntensity => (
                INTENSITY_RANGE.contains(&value),
                "carbon intensity",
                "within [0, 2000] g CO2/kWh",
            ),
            Self::FabYield => (value > 0.0 && value <= 1.0, "fab yield", "within (0, 1]"),
            Self::Energy => (non_negative, "application energy", "non-negative joules"),
            Self::DramCapacity(_) | Self::SsdCapacity(_) | Self::HddCapacity(_) => {
                (non_negative, "storage capacity", "non-negative GB")
            }
        };
        if in_range {
            Ok(())
        } else {
            Err(domain_error(quantity, value, expected).into())
        }
    }
}

/// The use-phase baselines a lowering folds next to a [`SystemSpec`]:
/// eq. 1's `T` and `LT` and eq. 2's `CIuse` and energy, in the units of
/// the matching [`ModelParams`] fields and [`FreeAxis`] coordinates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UsePhase {
    /// `T` — application execution time in seconds.
    pub execution_time_s: f64,
    /// `LT` — hardware lifetime in years.
    pub lifetime_years: f64,
    /// `CIuse` — use-phase carbon intensity in g CO₂/kWh.
    pub use_intensity_g_per_kwh: f64,
    /// Application energy over `T`, in joules.
    pub energy_j: f64,
}

/// A partially-evaluated eq. 1 kernel: every sweep-invariant sub-term of a
/// system, its fab and its use phase folded into constants, with only the
/// declared [`FreeAxis`] values read per point.
///
/// Lower once with [`Self::try_lower`] (or [`Self::try_compile`], its
/// one-chip [`ModelParams`] case), then call [`Self::eval`] per point — a
/// handful of FLOPs, no heap allocation, bit-for-bit identical to the
/// interpreted model with the free axes substituted.
#[derive(Clone, Debug)]
pub struct CompiledFootprint {
    axes: Vec<FreeAxis>,
    plan: EvalPlan,
}

impl CompiledFootprint {
    /// Partially evaluates `params` against `axes`: the one-chip case of
    /// [`Self::try_lower`].
    ///
    /// The baseline `params` must fully validate (free fields included —
    /// their baseline values are simply never read at eval time), matching
    /// the contract of every other `ModelParams` entry point.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] if the baseline parameters do not
    /// validate, an axis is listed twice, or a storage axis indexes past
    /// the corresponding population vector.
    pub fn try_compile(params: &ModelParams, axes: &[FreeAxis]) -> Result<Self, ModelError> {
        let use_phase = UsePhase {
            execution_time_s: params.execution_time_s,
            lifetime_years: params.lifetime_years,
            use_intensity_g_per_kwh: params.use_intensity_g_per_kwh,
            energy_j: params.energy_j,
        };
        Self::try_lower(
            &params.try_system_spec()?,
            &params.try_fab_scenario()?,
            &use_phase,
            axes,
        )
    }

    /// Lowers eq. 1 for `system` under `fab` and `use_phase` against
    /// `axes`: one plan instruction per component, in
    /// [`SystemSpec::embodied`]'s fold order. A component with no free
    /// input is the very footprint that fold adds. [`FreeAxis::SocArea`]
    /// frees the first logic die's area; [`FreeAxis::FabIntensity`] and
    /// [`FreeAxis::FabYield`] reach every logic die.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] if the system, the fab or a use-phase
    /// baseline does not validate, an axis is listed twice, or a
    /// component axis indexes past its population.
    pub fn try_lower(
        system: &SystemSpec,
        fab: &FabScenario,
        use_phase: &UsePhase,
        axes: &[FreeAxis],
    ) -> Result<Self, ModelError> {
        system.validate()?;
        fab.validate()?;
        FreeAxis::ExecutionTime.check(use_phase.execution_time_s)?;
        FreeAxis::Lifetime.check(use_phase.lifetime_years)?;
        FreeAxis::UseIntensity.check(use_phase.use_intensity_g_per_kwh)?;
        FreeAxis::Energy.check(use_phase.energy_j)?;
        let components = &system.components;
        for (i, axis) in axes.iter().enumerate() {
            if axes[..i].contains(axis) {
                return Err(ModelError::invariant(format!("free axis {axis} is listed twice")));
            }
            if let Some((kind, k)) = axis.component() {
                if components.iter().filter(|c| c.kind() == kind).count() <= k {
                    return Err(ModelError::invariant(format!(
                        "free axis {axis} indexes past the {kind} population"
                    )));
                }
            }
        }
        let position = |wanted: FreeAxis| axes.iter().position(|axis| *axis == wanted);
        // A free axis reads its column; a fixed one is its baseline, already
        // in the base unit a column value is converted to.
        let operand = |axis: FreeAxis, unit: Unit, base: f64| match position(axis) {
            Some(col) => Operand::Col(col, unit),
            None => Operand::Const(base),
        };

        // Operational term (eq. 2).
        let UsePhase { execution_time_s, lifetime_years, use_intensity_g_per_kwh, energy_j } =
            *use_phase;
        let op = match (
            operand(FreeAxis::UseIntensity, Unit::Base, use_intensity_g_per_kwh),
            operand(FreeAxis::Energy, Unit::Joules, Unit::Joules.to_base(energy_j)),
        ) {
            (Operand::Const(_), Operand::Const(_)) => PlanOp::Const(
                // Fold by replaying the oracle's own call chain.
                OperationalModel::new(CarbonIntensity::grams_per_kwh(use_intensity_g_per_kwh))
                    .footprint(Energy::joules(energy_j))
                    .as_grams(),
            ),
            (intensity, energy) => PlanOp::Product { intensity, energy },
        };

        // Embodied terms (eq. 3), one per component in fold order, then
        // packaging. A component with no free input is its footprint.
        let intensity = operand(
            FreeAxis::FabIntensity,
            Unit::Base,
            fab.energy_intensity.as_grams_per_kwh(),
        );
        let fab_yield = operand(FreeAxis::FabYield, Unit::Base, fab.fab_yield.get());
        // The leading run of fixed terms folds by replaying the oracle's
        // `.sum()` (0.0, then += per component, in order), so the folded
        // prefix carries the same rounding as the interpreted sum.
        let mut embodied = 0.0;
        let mut instrs = Vec::new();
        let mut push = |instr| match instr {
            PlanInstr::Const(value) if instrs.is_empty() => embodied += value,
            instr => instrs.push(instr),
        };
        for (i, component) in components.iter().enumerate() {
            let kind = component.kind();
            let nth = components[..i].iter().filter(|c| c.kind() == kind).count();
            let column = axes.iter().position(|axis| axis.component() == Some((kind, nth)));
            let storage = |cps: MassPerCapacity| {
                column.map(|capacity_col| PlanInstr::Storage {
                    grams_per_gb: cps.as_grams_per_gb(),
                    capacity_col,
                })
            };
            let free = match *component {
                Component::Soc { area, node, .. } => {
                    let area = match column {
                        Some(col) => Operand::Col(col, Unit::Mm2),
                        None => Operand::Const(area.as_square_centimeters()),
                    };
                    match (intensity, fab_yield, area) {
                        (Operand::Const(_), Operand::Const(_), Operand::Const(_)) => None,
                        (Operand::Const(_), Operand::Const(_), area) => {
                            Some(PlanInstr::AreaScaled {
                                cpa_g_per_cm2: memo::carbon_per_area(fab, node)
                                    .as_grams_per_cm2(),
                                area,
                            })
                        }
                        (intensity, fab_yield, area) => Some(PlanInstr::Cpa {
                            epa_kwh_per_cm2: node.energy_per_area().as_kwh_per_cm2(),
                            gpa_g_per_cm2: node.gas_per_area(fab.abatement).as_grams_per_cm2(),
                            mpa_g_per_cm2: node.materials_per_area().as_grams_per_cm2(),
                            intensity,
                            fab_yield,
                            area,
                        }),
                    }
                }
                Component::Dram { technology, .. } => storage(technology.carbon_per_gb()),
                Component::Ssd { technology, .. } => storage(technology.carbon_per_gb()),
                Component::Hdd { model, .. } => storage(model.carbon_per_gb()),
            };
            push(free.unwrap_or_else(|| PlanInstr::Const(component.footprint(fab).as_grams())));
        }
        if let Some(packaging) = system.packaging() {
            push(PlanInstr::Const(packaging.as_grams()));
        }

        // Amortization (eq. 1's T / LT).
        let amort = match (
            operand(FreeAxis::ExecutionTime, Unit::Base, execution_time_s),
            operand(FreeAxis::Lifetime, Unit::Years, Unit::Years.to_base(lifetime_years)),
        ) {
            (Operand::Const(t), Operand::Const(lt)) => PlanAmort::Const(t / lt),
            (run_time, lifetime) => PlanAmort::Ratio { run_time, lifetime },
        };

        let plan = EvalPlan { arity: axes.len(), op, embodied, instrs, amort };
        Ok(Self { axes: axes.to_vec(), plan })
    }

    /// Panicking convenience for [`Self::try_compile`] — for baselines and
    /// axis sets known statically, mirroring [`ModelParams::footprint`].
    ///
    /// # Panics
    ///
    /// Panics if [`Self::try_compile`] would return an error.
    #[must_use]
    pub fn compile(params: &ModelParams, axes: &[FreeAxis]) -> Self {
        match Self::try_compile(params, axes) {
            Ok(kernel) => kernel,
            Err(err) => panic!("parameters must compile: {err}"),
        }
    }

    /// The free axes, in point-coordinate order.
    #[must_use]
    pub fn axes(&self) -> &[FreeAxis] {
        &self.axes
    }

    /// Number of point coordinates [`Self::eval`] expects.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.axes.len()
    }

    /// Evaluates eq. 1 at one design point, returning the total footprint
    /// in grams CO₂ — a handful of FLOPs, no heap allocation.
    ///
    /// Coordinates are in the axis units documented on [`FreeAxis`] and
    /// are assumed to be in range (use [`Self::try_eval`] for untrusted
    /// points); any non-finite coordinate yields `NaN`, which the batch
    /// drivers in `act-dse` skip-and-record.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.arity()`.
    #[must_use]
    pub fn eval(&self, point: &[f64]) -> f64 {
        assert_eq!(
            point.len(),
            self.axes.len(),
            "point arity must match the compiled free axes"
        );
        let mut out = [0.0];
        self.plan.eval_lanes(&|col| std::slice::from_ref(&point[col]), 0, &mut out);
        out[0]
    }

    /// Checked variant of [`Self::eval`]: validates every coordinate
    /// against its axis's Table 1 range, then verifies the result is
    /// finite.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] on an arity mismatch, an out-of-range
    /// coordinate, or a non-finite result.
    pub fn try_eval(&self, point: &[f64]) -> Result<f64, ModelError> {
        if point.len() != self.axes.len() {
            return Err(ModelError::invariant(format!(
                "expected {} point coordinate(s), got {}",
                self.axes.len(),
                point.len()
            )));
        }
        for (axis, value) in self.axes.iter().zip(point) {
            axis.check(*value)?;
        }
        let value = self.eval(point);
        if value.is_finite() {
            Ok(value)
        } else {
            Err(ModelError::non_finite("total footprint"))
        }
    }

    /// The kernel's [`EvalPlan`], for block-vectorized batch evaluation
    /// with [`EvalPlan::eval_block`]: bit-for-bit identical to
    /// [`Self::eval`] per point.
    #[must_use]
    pub fn plan(&self) -> EvalPlan {
        self.plan.clone()
    }
}

/// The unit a point coordinate is given in, and its conversion to the
/// model's base unit — exactly the oracle's unit constructor, bit for
/// bit wherever the result is finite.
#[derive(Clone, Copy, Debug)]
enum Unit {
    /// Already the base unit (seconds, g CO₂/kWh, a yield fraction).
    Base,
    /// Joules, converted like `Energy::joules` to kWh.
    Joules,
    /// mm², converted like `Area::square_millimeters` to cm².
    Mm2,
    /// Years, converted like `TimeSpan::years` to seconds.
    Years,
}

impl Unit {
    /// The only conversion that can overflow is years to seconds. It
    /// scales a one-year span through the unit layer's unchecked
    /// arithmetic, the product `TimeSpan::years` forms, without that
    /// constructor's debug assertion, and a finite lifetime past ~5.7e300
    /// years, whose seconds overflow to ±∞, converts to NaN instead: as
    /// ±∞ it would amortize the embodied term to zero, while NaN carries
    /// through every operation of the chain, so every build rejects the
    /// point.
    #[inline(always)]
    fn to_base(self, value: f64) -> f64 {
        match self {
            Self::Base => value,
            Self::Joules => Energy::joules(value).as_kilowatt_hours(),
            Self::Mm2 => Area::square_millimeters(value).as_square_centimeters(),
            Self::Years => {
                let seconds = (value * TimeSpan::years(1.0)).as_seconds();
                // `s + s·0` is `s` for every finite `s` (the zero takes
                // `s`'s sign) and NaN for ±∞, with no select in the lane.
                seconds + seconds * 0.0
            }
        }
    }
}

/// An operand of the plan: a folded constant (already in the base unit)
/// or column `col` of the point, converted from `Unit` per point.
#[derive(Clone, Copy, Debug)]
enum Operand {
    Const(f64),
    Col(usize, Unit),
}

impl Operand {
    /// Fills `dst` with this operand over `start..start + dst.len()` of
    /// the columns `column` reads. Inlined like the lane chain that calls
    /// it, so the AVX-512 instance of [`EvalPlan::eval_block`] compiles
    /// its loops too.
    #[inline(always)]
    fn lane<'a>(self, dst: &mut [f64], column: &impl Fn(usize) -> &'a [f64], start: usize) {
        /// One loop per unit, so the conversion is resolved once per lane
        /// rather than per point.
        #[inline(always)]
        fn convert(dst: &mut [f64], src: &[f64], to_base: impl Fn(f64) -> f64) {
            for (slot, &value) in dst.iter_mut().zip(src) {
                // The unit layer rejects non-finite magnitudes; such points
                // are poisoned to NaN by the block's finite mask, so any
                // NaN placeholder is equivalent here.
                *slot = if value.is_finite() { to_base(value) } else { f64::NAN };
            }
        }
        match self {
            Self::Const(value) => dst.fill(value),
            Self::Col(col, unit) => {
                let src = &column(col)[start..start + dst.len()];
                match unit {
                    Unit::Base => dst.copy_from_slice(src),
                    Unit::Joules => convert(dst, src, |value| Unit::Joules.to_base(value)),
                    Unit::Mm2 => convert(dst, src, |value| Unit::Mm2.to_base(value)),
                    Unit::Years => convert(dst, src, |value| Unit::Years.to_base(value)),
                }
            }
        }
    }
}

/// The operational term of eq. 2.
#[derive(Clone, Copy, Debug)]
enum PlanOp {
    /// Fully invariant: the folded gCO₂ value.
    Const(f64),
    /// `CIuse × (E × effectiveness)` with at least one operand free.
    Product { intensity: Operand, energy: Operand },
}

/// One addend of the eq. 3 embodied sum. Instruction order is the
/// oracle's component order — f64 addition is not associative, so
/// compilation never reorders terms, and merges only the leading run of
/// constants, which the oracle's sum adds first anyway.
#[derive(Clone, Copy, Debug)]
enum PlanInstr {
    /// Fully invariant component: its folded gCO₂ footprint.
    Const(f64),
    /// SoC with an invariant CPA but a free die area: `CPA × A` (eq. 4).
    AreaScaled { cpa_g_per_cm2: f64, area: Operand },
    /// SoC whose CPA itself varies (free fab intensity and/or yield):
    /// the full eq. 5 residual `(CI·EPA + GPA + MPA) / Y × A`.
    Cpa {
        epa_kwh_per_cm2: f64,
        gpa_g_per_cm2: f64,
        mpa_g_per_cm2: f64,
        intensity: Operand,
        fab_yield: Operand,
        area: Operand,
    },
    /// Storage entry with a free capacity: `CPS × capacity` (eqs. 6–8).
    Storage { grams_per_gb: f64, capacity_col: usize },
}

/// The `T / LT` amortization ratio of eq. 1.
#[derive(Clone, Copy, Debug)]
enum PlanAmort {
    Const(f64),
    Ratio { run_time: Operand, lifetime: Operand },
}

/// The compiled form of a [`CompiledFootprint`]: a flat instruction list
/// whose operands are constants or column indices into a
/// structure-of-arrays point batch.
///
/// [`Self::eval_block`] reads the columns directly — no per-point gather
/// into a scratch slice, no per-point enum dispatch — processing
/// [`LANES`]-wide blocks whose inner loops rustc auto-vectorizes (no
/// `unsafe`, no intrinsics). The tail shorter than a block is one shorter
/// block, and [`CompiledFootprint::eval`] is a block of one point, so
/// there is one per-point operation sequence. It replays the interpreted
/// model's, so results are **bit-for-bit identical** to the oracle; the
/// property tests in `crates/core/tests/compiled.rs` pin the equivalence.
///
/// # Examples
///
/// ```
/// use act_core::{CompiledFootprint, FreeAxis, ModelParams};
///
/// let params = ModelParams::mobile_reference();
/// let kernel = CompiledFootprint::try_compile(&params, &[FreeAxis::SocArea])?;
/// let plan = kernel.plan();
/// let areas: Vec<f64> = (0..100).map(|i| 50.0 + f64::from(i)).collect();
/// let mut block = vec![0.0; areas.len()];
/// plan.eval_block(&[&areas], 0..areas.len(), &mut block);
/// for (i, value) in block.iter().enumerate() {
///     assert_eq!(value.to_bits(), kernel.eval(&[areas[i]]).to_bits());
/// }
/// # Ok::<(), act_core::ModelError>(())
/// ```
#[derive(Clone, Debug)]
pub struct EvalPlan {
    arity: usize,
    op: PlanOp,
    /// The folded sum of the leading constant terms of eq. 3.
    embodied: f64,
    /// The rest of eq. 3, added per point on top of `embodied`.
    instrs: Vec<PlanInstr>,
    amort: PlanAmort,
}

impl EvalPlan {
    /// Number of structure-of-arrays columns [`Self::eval_block`] expects.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Evaluates eq. 1 for points `range` of a structure-of-arrays batch
    /// (`columns[axis][point]`, axes in [`CompiledFootprint::axes`] order),
    /// writing one gram-CO₂ result per point into `out`.
    ///
    /// Results are bit-identical to calling [`CompiledFootprint::eval`] on
    /// each gathered point; any point with a non-finite coordinate yields
    /// NaN, keeping its slot.
    ///
    /// # Panics
    ///
    /// Panics if `columns.len() != self.arity()`, `out.len()` differs from
    /// the range length, or a column is shorter than `range.end`.
    pub fn eval_block(&self, columns: &[&[f64]], range: Range<usize>, out: &mut [f64]) {
        assert_eq!(columns.len(), self.arity, "column count must match the compiled free axes");
        assert_eq!(out.len(), range.len(), "output slot per point in the range");
        for (axis, column) in columns.iter().enumerate() {
            assert!(
                column.len() >= range.end,
                "axis column {axis} has {} points but the range ends at {}",
                column.len(),
                range.end
            );
        }
        wide::run_wide(EvalBlock { plan: self, columns, start: range.start, out });
    }

    /// One `n ≤ LANES` block of the points `start..start + n` of the
    /// columns `column` reads: every instruction is dispatched once, its
    /// inner loop runs branch-free over the lane. Loop interchange (term
    /// loops over points instead of point loops over terms) preserves each
    /// point's operation chain exactly, so it cannot change a single bit.
    /// Inlined into each caller, so a full block's loops keep their
    /// compile-time trip count of [`LANES`]; as a plain `#[inline]`
    /// function it ran 1.6–1.9× slower per point at 16 lanes.
    #[inline(always)]
    fn eval_lanes<'a>(
        &self,
        column: &impl Fn(usize) -> &'a [f64],
        start: usize,
        out: &mut [f64],
    ) {
        let n = out.len();

        // Eq. 2 exactly as `OperationalModel::footprint`:
        // CI × (E × effectiveness), effectiveness folded at 1.0.
        let mut op_buf = [0.0f64; LANES];
        let op_lane = &mut op_buf[..n];
        match self.op {
            PlanOp::Const(value) => op_lane.fill(value),
            PlanOp::Product { intensity, energy } => {
                let mut ci_buf = [0.0f64; LANES];
                let mut energy_buf = [0.0f64; LANES];
                let ci_lane = &mut ci_buf[..n];
                let energy_lane = &mut energy_buf[..n];
                intensity.lane(ci_lane, column, start);
                energy.lane(energy_lane, column, start);
                for ((slot, &ci), &kwh) in op_lane.iter_mut().zip(&*ci_lane).zip(&*energy_lane)
                {
                    *slot = ci * (kwh * 1.0);
                }
            }
        }

        // Eq. 3: accumulate on the folded prefix in instruction
        // (= component) order.
        let mut emb_buf = [0.0f64; LANES];
        let emb_lane = &mut emb_buf[..n];
        emb_lane.fill(self.embodied);
        for instr in &self.instrs {
            match *instr {
                PlanInstr::Const(value) => {
                    for slot in emb_lane.iter_mut() {
                        *slot += value;
                    }
                }
                PlanInstr::AreaScaled { cpa_g_per_cm2, area } => {
                    let mut area_buf = [0.0f64; LANES];
                    let area_lane = &mut area_buf[..n];
                    area.lane(area_lane, column, start);
                    for (slot, &cm2) in emb_lane.iter_mut().zip(&*area_lane) {
                        *slot += cpa_g_per_cm2 * cm2;
                    }
                }
                PlanInstr::Cpa {
                    epa_kwh_per_cm2,
                    gpa_g_per_cm2,
                    mpa_g_per_cm2,
                    intensity,
                    fab_yield,
                    area,
                } => {
                    let mut ci_buf = [0.0f64; LANES];
                    let mut yield_buf = [0.0f64; LANES];
                    let mut area_buf = [0.0f64; LANES];
                    let ci_lane = &mut ci_buf[..n];
                    let yield_lane = &mut yield_buf[..n];
                    let area_lane = &mut area_buf[..n];
                    intensity.lane(ci_lane, column, start);
                    fab_yield.lane(yield_lane, column, start);
                    area.lane(area_lane, column, start);
                    // Exactly eq. 5 as `FabScenario::cpa_breakdown` +
                    // `total()` compute it: CI×EPA, then left-associated
                    // additions, then the yield division, then eq. 4's
                    // area multiply.
                    for i in 0..n {
                        let energy = ci_lane[i] * epa_kwh_per_cm2;
                        let before_yield = (energy + gpa_g_per_cm2) + mpa_g_per_cm2;
                        let cpa = before_yield / yield_lane[i];
                        emb_lane[i] += cpa * area_lane[i];
                    }
                }
                PlanInstr::Storage { grams_per_gb, capacity_col } => {
                    let src = &column(capacity_col)[start..start + n];
                    for (slot, &gb) in emb_lane.iter_mut().zip(src) {
                        *slot += grams_per_gb * gb;
                    }
                }
            }
        }

        // Eq. 1's T / LT.
        let mut ratio_buf = [0.0f64; LANES];
        let ratio_lane = &mut ratio_buf[..n];
        match self.amort {
            PlanAmort::Const(value) => ratio_lane.fill(value),
            PlanAmort::Ratio { run_time, lifetime } => {
                let mut time_buf = [0.0f64; LANES];
                let mut life_buf = [0.0f64; LANES];
                let time_lane = &mut time_buf[..n];
                let life_lane = &mut life_buf[..n];
                run_time.lane(time_lane, column, start);
                lifetime.lane(life_lane, column, start);
                for i in 0..n {
                    ratio_lane[i] = time_lane[i] / life_lane[i];
                }
            }
        }

        // Poison points with a non-finite coordinate to NaN: one pass per
        // column folds an all-ones-if-finite bit mask, and the combine
        // selects on it with bit operations. A select per column straight
        // over the result compiled, in the AVX-512 instance, to a per-lane
        // scalar rebuild of the result vector, and a conditional store per
        // column to a branch per point; both ran the sweep shape 1.6–3×
        // slower there than this mask, which costs the baseline nothing.
        let mut keep_buf = [u64::MAX; LANES];
        let keep = &mut keep_buf[..n];
        for col in 0..self.arity {
            let src = &column(col)[start..start + n];
            for (k, &value) in keep.iter_mut().zip(src) {
                *k &= u64::from(value.is_finite()).wrapping_neg();
            }
        }
        for i in 0..n {
            let v = (op_lane[i] + emb_lane[i] * ratio_lane[i]).to_bits();
            out[i] = f64::from_bits((v & keep[i]) | (f64::NAN.to_bits() & !keep[i]));
        }
    }
}

/// The body of [`EvalPlan::eval_block`] after its shape checks, for the
/// points `start..start + out.len()`: cache-blocked, `LANES`-wide blocks
/// with fixed-size lane buffers, then one shorter block for the
/// remainder, in either [`wide::run_wide`] instance.
struct EvalBlock<'a> {
    plan: &'a EvalPlan,
    columns: &'a [&'a [f64]],
    start: usize,
    out: &'a mut [f64],
}

impl wide::Body for EvalBlock<'_> {
    type Output = ();

    #[inline(always)]
    fn run<I: wide::Instance>(self) {
        let Self { plan, columns, mut start, out } = self;
        let column = |col: usize| columns[col];
        let mut blocks = out.chunks_exact_mut(LANES);
        for lanes in &mut blocks {
            plan.eval_lanes(&column, start, lanes);
            start += LANES;
        }
        let tail = blocks.into_remainder();
        if !tail.is_empty() {
            plan.eval_lanes(&column, start, tail);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle_with(params: &ModelParams, axes: &[FreeAxis], point: &[f64]) -> f64 {
        let mut substituted = params.clone();
        for (axis, value) in axes.iter().zip(point) {
            match axis {
                FreeAxis::ExecutionTime => substituted.execution_time_s = *value,
                FreeAxis::Lifetime => substituted.lifetime_years = *value,
                FreeAxis::SocArea => substituted.soc_area_mm2 = *value,
                FreeAxis::UseIntensity => substituted.use_intensity_g_per_kwh = *value,
                FreeAxis::FabIntensity => substituted.fab_intensity_g_per_kwh = *value,
                FreeAxis::FabYield => substituted.fab_yield = *value,
                FreeAxis::Energy => substituted.energy_j = *value,
                FreeAxis::DramCapacity(k) => substituted.dram[*k].1 = *value,
                FreeAxis::SsdCapacity(k) => substituted.ssd[*k].1 = *value,
                FreeAxis::HddCapacity(k) => substituted.hdd[*k].1 = *value,
            }
        }
        substituted.try_footprint().expect("substituted params evaluate").as_grams()
    }

    #[test]
    fn fully_folded_kernel_matches_oracle_bitwise() {
        let params = ModelParams::mobile_reference();
        let kernel = CompiledFootprint::try_compile(&params, &[]).expect("compiles");
        assert_eq!(kernel.arity(), 0);
        let oracle = params.try_footprint().expect("evaluates").as_grams();
        assert_eq!(kernel.eval(&[]).to_bits(), oracle.to_bits());
    }

    #[test]
    fn each_single_axis_matches_oracle_bitwise() {
        let params = ModelParams::mobile_reference();
        let cases: [(FreeAxis, f64); 9] = [
            (FreeAxis::ExecutionTime, 7200.0),
            (FreeAxis::Lifetime, 4.5),
            (FreeAxis::SocArea, 123.75),
            (FreeAxis::UseIntensity, 41.0),
            (FreeAxis::FabIntensity, 583.0),
            (FreeAxis::FabYield, 0.61),
            (FreeAxis::Energy, 9999.5),
            (FreeAxis::DramCapacity(0), 12.0),
            (FreeAxis::SsdCapacity(0), 512.0),
        ];
        for (axis, value) in cases {
            let kernel = CompiledFootprint::try_compile(&params, &[axis]).expect("compiles");
            let compiled = kernel.eval(&[value]);
            let oracle = oracle_with(&params, &[axis], &[value]);
            assert_eq!(
                compiled.to_bits(),
                oracle.to_bits(),
                "axis {axis}: compiled {compiled} vs oracle {oracle}"
            );
        }
    }

    #[test]
    fn all_axes_free_matches_oracle_bitwise() {
        let params = ModelParams::mobile_reference();
        let axes = [
            FreeAxis::ExecutionTime,
            FreeAxis::Lifetime,
            FreeAxis::SocArea,
            FreeAxis::UseIntensity,
            FreeAxis::FabIntensity,
            FreeAxis::FabYield,
            FreeAxis::Energy,
            FreeAxis::DramCapacity(0),
            FreeAxis::SsdCapacity(0),
        ];
        let point = [1800.0, 2.5, 101.3, 300.0, 700.0, 0.9, 3600.0, 16.0, 256.0];
        let kernel = CompiledFootprint::try_compile(&params, &axes).expect("compiles");
        let compiled = kernel.eval(&point);
        let oracle = oracle_with(&params, &axes, &point);
        assert_eq!(compiled.to_bits(), oracle.to_bits());
    }

    #[test]
    fn rejects_duplicate_axes_and_bad_storage_indices() {
        let params = ModelParams::mobile_reference();
        assert!(CompiledFootprint::try_compile(
            &params,
            &[FreeAxis::SocArea, FreeAxis::SocArea]
        )
        .is_err());
        assert!(
            CompiledFootprint::try_compile(&params, &[FreeAxis::HddCapacity(0)]).is_err(),
            "mobile reference has no HDD population"
        );
        assert!(CompiledFootprint::try_compile(&params, &[FreeAxis::DramCapacity(1)]).is_err());
    }

    #[test]
    fn rejects_invalid_baselines() {
        let mut params = ModelParams::mobile_reference();
        params.fab_yield = 0.0;
        assert!(CompiledFootprint::try_compile(&params, &[FreeAxis::FabYield]).is_err());
    }

    #[test]
    fn try_eval_enforces_axis_ranges() {
        let params = ModelParams::mobile_reference();
        let kernel =
            CompiledFootprint::try_compile(&params, &[FreeAxis::FabYield]).expect("compiles");
        assert!(kernel.try_eval(&[0.5]).is_ok());
        assert!(kernel.try_eval(&[0.0]).is_err());
        assert!(kernel.try_eval(&[f64::NAN]).is_err());
        assert!(kernel.try_eval(&[0.5, 0.5]).is_err(), "arity mismatch");
    }

    #[test]
    fn try_eval_rejects_a_finite_point_whose_footprint_overflows() {
        let params = ModelParams::mobile_reference();
        let axes = [FreeAxis::SocArea, FreeAxis::ExecutionTime];
        let kernel = CompiledFootprint::try_compile(&params, &axes).expect("compiles");
        // Both coordinates are inside their axis ranges; the product is not.
        let point = [1.5e308, 1e300];
        assert!(kernel.eval(&point).is_infinite());
        let err = kernel.try_eval(&point).expect_err("an overflowing footprint is an error");
        assert_eq!(err.to_string(), ModelError::non_finite("total footprint").to_string());
    }

    #[test]
    fn non_finite_coordinates_poison_to_nan_in_eval() {
        let params = ModelParams::mobile_reference();
        let kernel =
            CompiledFootprint::try_compile(&params, &[FreeAxis::SocArea]).expect("compiles");
        assert!(kernel.eval(&[f64::NAN]).is_nan());
        assert!(kernel.eval(&[f64::INFINITY]).is_nan());
    }

    // ---- block-path property suite -------------------------------------
    //
    // The block engine must be a pure loop interchange: for every axis
    // subset and every batch length, `eval_block` must reproduce `eval`
    // (and the interpreted oracle) bit for bit, including NaN slots.

    /// Deterministic splitmix-style generator for test columns — no
    /// external RNG dependency in act-core.
    struct TestRng(u64);

    impl TestRng {
        fn next_unit(&mut self) -> f64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let mut z = self.0;
            z = (z ^ (z >> 33)).wrapping_mul(0xff51afd7ed558ccd);
            z ^= z >> 33;
            ((z >> 11) as f64) / ((1u64 << 53) as f64)
        }

        fn in_range(&mut self, low: f64, high: f64) -> f64 {
            low + (high - low) * self.next_unit()
        }
    }

    /// A plausible in-domain sampling range for each free axis, so the
    /// interpreted oracle accepts every generated point.
    fn axis_range(axis: FreeAxis) -> (f64, f64) {
        match axis {
            FreeAxis::ExecutionTime => (60.0, 36_000.0),
            FreeAxis::Lifetime => (0.5, 10.0),
            FreeAxis::SocArea => (10.0, 250.0),
            FreeAxis::UseIntensity => (10.0, 700.0),
            FreeAxis::FabIntensity => (100.0, 900.0),
            FreeAxis::FabYield => (0.5, 0.999),
            FreeAxis::Energy => (100.0, 100_000.0),
            FreeAxis::DramCapacity(_) => (1.0, 64.0),
            FreeAxis::SsdCapacity(_) => (32.0, 1024.0),
            FreeAxis::HddCapacity(_) => (100.0, 4000.0),
        }
    }

    fn fill_columns(rng: &mut TestRng, axes: &[FreeAxis], len: usize) -> Vec<Vec<f64>> {
        axes.iter()
            .map(|axis| {
                let (low, high) = axis_range(*axis);
                (0..len).map(|_| rng.in_range(low, high)).collect()
            })
            .collect()
    }

    /// Every axis subset exercised by the property suite: each single
    /// axis, a few mixed pairs/triples, and the full 9-axis kernel.
    fn axis_subsets() -> Vec<Vec<FreeAxis>> {
        let all = [
            FreeAxis::ExecutionTime,
            FreeAxis::Lifetime,
            FreeAxis::SocArea,
            FreeAxis::UseIntensity,
            FreeAxis::FabIntensity,
            FreeAxis::FabYield,
            FreeAxis::Energy,
            FreeAxis::DramCapacity(0),
            FreeAxis::SsdCapacity(0),
        ];
        let mut subsets: Vec<Vec<FreeAxis>> = all.iter().map(|a| vec![*a]).collect();
        subsets.push(vec![FreeAxis::SocArea, FreeAxis::FabYield]);
        subsets.push(vec![FreeAxis::Energy, FreeAxis::UseIntensity, FreeAxis::Lifetime]);
        subsets.push(vec![
            FreeAxis::ExecutionTime,
            FreeAxis::FabIntensity,
            FreeAxis::DramCapacity(0),
            FreeAxis::SsdCapacity(0),
        ]);
        subsets.push(all.to_vec());
        subsets.push(Vec::new());
        subsets
    }

    /// Batch lengths and window edges pinned independently of [`LANES`]:
    /// one point, the edges of 8-, 16-, 32-, 64- and 128-lane blocks, and
    /// the edges of the `act-dse` block engine's 4096-point chunk.
    const FIXED_LENGTHS: [usize; 19] =
        [1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 4095, 4096, 4097];

    #[test]
    fn eval_block_is_bitwise_identical_to_eval_and_oracle_for_every_length() {
        let params = ModelParams::mobile_reference();
        // Lengths straddle every lane boundary: empty, single, LANES-1,
        // LANES, LANES+1, and a multi-block run with a ragged tail. The
        // fixed ones keep the edges of other widths (8 to 128 lanes) and
        // the block engine's 4096-point chunk covered whatever `LANES` is.
        let mut lengths = vec![0, 1, LANES - 1, LANES, LANES + 1, 3 * LANES + 17];
        lengths.extend(FIXED_LENGTHS);
        let mut rng = TestRng(0x5eed_ac70_0000_0001);
        for axes in axis_subsets() {
            let kernel = CompiledFootprint::try_compile(&params, &axes).expect("compiles");
            let plan = kernel.plan();
            for &len in &lengths {
                let columns = fill_columns(&mut rng, &axes, len);
                let views: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
                let mut out = vec![0.0; len];
                plan.eval_block(&views, 0..len, &mut out);
                for i in 0..len {
                    let point: Vec<f64> = columns.iter().map(|c| c[i]).collect();
                    let scalar = kernel.eval(&point);
                    let oracle = oracle_with(&params, &axes, &point);
                    assert_eq!(
                        out[i].to_bits(),
                        scalar.to_bits(),
                        "block vs eval diverged at point {i}/{len} with {} axes",
                        axes.len()
                    );
                    assert_eq!(
                        out[i].to_bits(),
                        oracle.to_bits(),
                        "block vs oracle diverged at point {i}/{len} with {} axes",
                        axes.len()
                    );
                }
            }
        }
    }

    /// Coordinates no in-range sweep produces, mixed into the columns of
    /// the instance test below.
    const AWKWARD: [f64; 10] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        5e-324,
        -1e-310,
        f64::MIN_POSITIVE,
        f64::MAX,
        -f64::MAX,
    ];

    /// Years convert with `TimeSpan::years`' bits wherever the seconds
    /// are finite (signed zeros, subnormals and negatives included), and
    /// to NaN where they overflow.
    #[test]
    fn years_convert_like_the_unit_constructor_or_to_nan() {
        for years in [0.0, -0.0, 5e-324, 0.1, 3.0, 50.0, -7.25, 1e300, 5.7e300, -5.7e300] {
            let want = TimeSpan::years(years).as_seconds();
            assert_eq!(Unit::Years.to_base(years).to_bits(), want.to_bits(), "{years}");
        }
        for years in [f64::MAX, -f64::MAX, 6e300] {
            assert!(Unit::Years.to_base(years).is_nan(), "{years}");
        }
    }

    /// `eval_block`'s body agrees bit for bit in the baseline instance,
    /// run with the [`V4`](wide::V4) marker, and through `run_wide`: the
    /// three plan shapes of the `compiled` bench (`SocArea ×
    /// UseIntensity`, `FabYield × SocArea`, `Lifetime × Energy`) and a
    /// multi-component device plan, at lengths around the lane and chunk
    /// edges, with NaN, ±∞, −0.0, subnormal and `f64::MAX` coordinates
    /// mixed in. All three are also held to the one-point `eval`, so a
    /// change that moves every instance alike fails too.
    #[test]
    fn eval_block_instances_agree_bitwise() {
        let params = ModelParams::mobile_reference();
        let shapes: [[FreeAxis; 2]; 3] = [
            [FreeAxis::SocArea, FreeAxis::UseIntensity],
            [FreeAxis::FabYield, FreeAxis::SocArea],
            [FreeAxis::Lifetime, FreeAxis::Energy],
        ];
        let mut kernels: Vec<CompiledFootprint> = shapes
            .iter()
            .map(|axes| CompiledFootprint::try_compile(&params, axes).expect("compiles"))
            .collect();
        let device = SystemSpec::builder()
            .soc("AP", Area::square_millimeters(98.5), act_data::ProcessNode::N7)
            .soc("modem", Area::square_millimeters(41.0), act_data::ProcessNode::N14)
            .dram(act_data::DramTechnology::Lpddr4, act_units::Capacity::gigabytes(4.0))
            .ssd(act_data::SsdTechnology::V3NandTlc, act_units::Capacity::gigabytes(64.0))
            .packaged_ics(12)
            .build();
        let use_phase = UsePhase {
            execution_time_s: TimeSpan::years(3.0).as_seconds(),
            lifetime_years: 3.0,
            use_intensity_g_per_kwh: 380.0,
            energy_j: 4.0e7,
        };
        let device_axes = [
            FreeAxis::UseIntensity,
            FreeAxis::Energy,
            FreeAxis::FabYield,
            FreeAxis::SsdCapacity(0),
        ];
        kernels.push(
            CompiledFootprint::try_lower(
                &device,
                &FabScenario::default(),
                &use_phase,
                &device_axes,
            )
            .expect("the device lowers"),
        );
        let mut rng = TestRng(0x5eed_0000_0000_0a51);
        for kernel in &kernels {
            let plan = kernel.plan();
            for len in [0, 1, 15, 16, 17, 4095, 4096] {
                let mut columns = fill_columns(&mut rng, kernel.axes(), len);
                for (axis, column) in columns.iter_mut().enumerate() {
                    for (i, value) in column.iter_mut().enumerate() {
                        if (i + 3 * axis) % 5 == 0 {
                            *value = AWKWARD[(i / 5 + axis) % AWKWARD.len()];
                        }
                    }
                }
                let views: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
                let mut outs = [vec![0.0; len], vec![1.0; len], vec![2.0; len]];
                let [wide_out, base_out, v4_out] = &mut outs;
                let block = |out| EvalBlock { plan: &plan, columns: &views, start: 0, out };
                wide::run_wide(block(wide_out));
                wide::Body::run::<wide::Baseline>(block(base_out));
                wide::Body::run::<wide::V4>(block(v4_out));
                for i in 0..len {
                    let point: Vec<f64> = columns.iter().map(|c| c[i]).collect();
                    let scalar = kernel.eval(&point).to_bits();
                    assert_eq!(
                        outs.each_ref().map(|out| out[i].to_bits()),
                        [scalar; 3],
                        "point {i}/{len} of {:?}: {point:?}",
                        kernel.axes()
                    );
                }
            }
        }
    }

    /// The eq. 5 chain on its own: no operational term, no other
    /// component, a 1 cm² die at yield 1 and `T == LT`, so the footprint
    /// is exactly `(CI·EPA + GPA) + MPA`. Elsewhere a last-bit change in
    /// that sum is mostly absorbed by the terms around it; here every
    /// such change reaches the result, for every node's EPA and GPA.
    #[test]
    fn eq5_chain_reaches_the_result_bitwise_on_every_node() {
        let len = 8 * LANES + 17;
        let mut rng = TestRng(0xe95c_0000_0000_0004);
        for node in act_data::ProcessNode::ALL {
            let params = ModelParams {
                execution_time_s: TimeSpan::years(3.0).as_seconds(),
                lifetime_years: 3.0,
                packaged_ic_count: 0,
                soc_area_mm2: 100.0,
                process_node: node,
                use_intensity_g_per_kwh: 0.0,
                fab_yield: 1.0,
                dram: Vec::new(),
                ssd: Vec::new(),
                ..ModelParams::mobile_reference()
            };
            let axes = [FreeAxis::FabIntensity];
            let kernel = CompiledFootprint::try_compile(&params, &axes).expect("compiles");
            let intensities: Vec<f64> = (0..len).map(|_| rng.in_range(0.0, 2000.0)).collect();
            let mut out = vec![0.0; len];
            kernel.plan().eval_block(&[&intensities], 0..len, &mut out);
            for (i, &ci) in intensities.iter().enumerate() {
                let scalar = kernel.eval(&[ci]);
                let oracle = oracle_with(&params, &axes, &[ci]);
                assert_eq!(
                    scalar.to_bits(),
                    oracle.to_bits(),
                    "{node:?}: eval vs oracle at {ci}"
                );
                assert_eq!(
                    out[i].to_bits(),
                    scalar.to_bits(),
                    "{node:?}: block vs eval at {ci}"
                );
            }
        }
    }

    #[test]
    fn eval_block_subranges_match_full_range_bitwise() {
        let params = ModelParams::mobile_reference();
        let axes = [FreeAxis::SocArea, FreeAxis::FabYield, FreeAxis::Energy];
        let kernel = CompiledFootprint::try_compile(&params, &axes).expect("compiles");
        let plan = kernel.plan();
        let len = 4097 + 2 * LANES + 31;
        let mut rng = TestRng(0xfeed_0000_0000_0002);
        let columns = fill_columns(&mut rng, &axes, len);
        let views: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
        let mut full = vec![0.0; len];
        plan.eval_block(&views, 0..len, &mut full);
        // Sub-ranges starting mid-column and ending mid-lane must produce
        // the same bits as the corresponding window of the full run —
        // the chunked engines in act-dse depend on this. Each fixed edge
        // ends one window, starts another and, shifted by 3, ends a third.
        let mut windows = vec![(0, 1), (3, LANES + 5), (LANES - 1, 2 * LANES + 1), (7, len)];
        for edge in FIXED_LENGTHS {
            windows.extend([(0, edge), (edge, len), (3, edge + 3)]);
        }
        for (start, end) in windows {
            let mut window = vec![f64::NAN; end - start];
            plan.eval_block(&views, start..end, &mut window);
            for (offset, value) in window.iter().enumerate() {
                assert_eq!(
                    value.to_bits(),
                    full[start + offset].to_bits(),
                    "window {start}..{end} diverged at offset {offset}"
                );
            }
        }
    }

    #[test]
    fn eval_block_poisons_non_finite_points_without_disturbing_neighbors() {
        let params = ModelParams::mobile_reference();
        let axes = [FreeAxis::SocArea, FreeAxis::UseIntensity];
        let kernel = CompiledFootprint::try_compile(&params, &axes).expect("compiles");
        let plan = kernel.plan();
        let len = LANES + 9;
        let mut rng = TestRng(0xbad0_0000_0000_0003);
        let mut columns = fill_columns(&mut rng, &axes, len);
        // Poison a scatter of slots across both the lane body and the
        // short last block, alternating NaN and infinity across the two axes.
        let poisoned = [0, 5, LANES - 1, LANES, len - 1];
        for (which, &i) in poisoned.iter().enumerate() {
            columns[which % 2][i] = if which % 3 == 0 { f64::NAN } else { f64::INFINITY };
        }
        let views: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
        let mut out = vec![0.0; len];
        plan.eval_block(&views, 0..len, &mut out);
        for i in 0..len {
            let point: Vec<f64> = columns.iter().map(|c| c[i]).collect();
            let scalar = kernel.eval(&point);
            if poisoned.contains(&i) {
                assert!(out[i].is_nan(), "poisoned slot {i} must stay NaN");
                assert!(scalar.is_nan(), "eval must agree the slot is poisoned");
            } else {
                assert_eq!(
                    out[i].to_bits(),
                    scalar.to_bits(),
                    "healthy neighbor {i} disturbed by poisoned slots"
                );
            }
        }
    }
}
