//! ACT — Architectural Carbon Modeling Tool (Gupta et al., ISCA 2022), as a
//! Rust workspace. This umbrella crate re-exports every sub-crate.
//!
//! # Examples
//!
//! ```
//! use act::core::FabScenario;
//! use act::data::ProcessNode;
//!
//! let cpa = FabScenario::default().carbon_per_area(ProcessNode::N7);
//! assert!(cpa.as_grams_per_cm2() > 0.0);
//! ```

#![forbid(unsafe_code)]

pub use act_accel as accel;
pub use act_core as core;
pub use act_data as data;
pub use act_dse as dse;
pub use act_experiments as experiments;
pub use act_lca as lca;
pub use act_scenario as scenario;
pub use act_soc as soc;
pub use act_ssd as ssd;
pub use act_units as units;
