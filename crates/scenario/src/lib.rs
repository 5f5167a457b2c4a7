//! JSON scenario description language for the ACT carbon model.
//!
//! A *scenario* is a self-contained JSON document describing a hardware
//! system — chips with process nodes and die areas, memory and storage
//! populations, packaging count — plus an optional fab profile, an
//! optional use-phase *workload*, and an optional *fleet* block that
//! scales the single-device model to N devices under uncertainty.
//!
//! The pipeline has three stages, each a separate module:
//!
//! 1. [`schema`] — typed parse of the document via `act-json`'s
//!    [`FromJson`](act_json::FromJson), producing a [`Scenario`]. Shape
//!    errors (missing fields, wrong types, unknown distribution tags)
//!    surface here as [`act_json::JsonError`].
//! 2. [`compile`] — validation against the paper's Table 1 ranges and
//!    lowering: the bill of materials goes through
//!    [`SystemSpecBuilder`](act_core::SystemSpecBuilder) in document
//!    order, and with a workload that [`SystemSpec`](act_core::SystemSpec)
//!    lowers to one eq. 1 plan through
//!    [`CompiledFootprint::try_lower`](act_core::CompiledFootprint::try_lower):
//!    one instruction per component, operational and embodied terms
//!    together. The paper's devices are committed documents in
//!    [`act_data::scenarios`], and every experiment that reads a device
//!    compiles it here; the fixture pin test in this crate holds each one
//!    to its per-component bits.
//! 3. [`fleet`] — sharded block-path Monte-Carlo over that plan via
//!    `act_dse::batch`'s `_block` family. Per-sample seed splitting
//!    (`mc_sample_seed`) makes the outcome bit-identical for any thread
//!    count, block size, or deadline budget.
//!
//! ```
//! use act_scenario::Scenario;
//!
//! let doc = r#"{
//!   "name": "pocket gadget",
//!   "chips": [{"name": "SoC", "node": "N7", "area_mm2": 80.0, "count": 1}],
//!   "dram": [{"technology": "Lpddr4", "capacity_gb": 4.0}],
//!   "packaged_ic_count": 10,
//!   "workload": {
//!     "power_w": 2.0, "utilization": 0.2,
//!     "lifetime_years": 3.0, "use_intensity_g_per_kwh": 301.0
//!   }
//! }"#;
//! let compiled = Scenario::parse(doc).unwrap().compile().unwrap();
//! let device = compiled.device().unwrap();
//! assert!(compiled.embodied_grams() > 0.0);
//! assert!(device.total_g > compiled.embodied_grams());
//! ```

pub mod compile;
pub mod fleet;
pub mod schema;

pub use compile::{CompiledScenario, DeviceFootprint, ScenarioError};
pub use fleet::FleetKernel;
pub use schema::{
    ChipSpec, Distribution, DramSpec, FleetSpec, HddSpec, Scenario, SsdSpec, Workload,
};
