//! Published carbon-characterization datasets backing the ACT model.
//!
//! ACT (Gupta et al., ISCA 2022) is "fueled primarily by publicly reported
//! carbon and environmental footprint characterization of semiconductor fabs
//! and hardware vendors". This crate is that fuel, typed:
//!
//! * [`EnergySource`] — Table 5, carbon intensity per generation source,
//! * [`Location`] — Table 6, grid carbon intensity per geography,
//! * [`ProcessNode`] — Table 7, fab energy (`EPA`) and gas (`GPA`) per area,
//!   plus Table 8's raw-material footprint (`MPA`),
//! * [`DramTechnology`] / [`SsdTechnology`] / [`HddModel`] — Tables 9–11,
//!   carbon per gigabyte for memory and storage,
//! * [`SocSpec`] and [`MOBILE_SOCS`] — the Exynos / Snapdragon / Kirin
//!   database behind Figures 8 and 14,
//! * [`snapdragon845`] — Table 4's CPU/GPU/DSP provisioning study inputs,
//! * [`smiv`] — the CPU / ASIC / eFPGA data behind Figure 11,
//! * [`scenarios`] — the device teardowns behind Figure 4 and the
//!   device-class and data-center studies, as committed `act-scenario`
//!   documents (the only copy of that data),
//! * [`reports`] — LCA product-report breakdowns behind Figures 16–17 and
//!   Table 12.
//!
//! # Examples
//!
//! ```
//! use act_data::{EnergySource, Location, ProcessNode};
//!
//! assert_eq!(EnergySource::Coal.carbon_intensity().as_grams_per_kwh(), 820.0);
//! assert_eq!(Location::Taiwan.carbon_intensity().as_grams_per_kwh(), 583.0);
//! assert!(ProcessNode::N3.energy_per_area() > ProcessNode::N28.energy_per_area());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dram;
mod energy;
mod hdd;
mod locations;
mod nodes;
pub mod reports;
pub mod scenarios;
pub mod smiv;
pub mod snapdragon845;
mod socs;
mod ssdtech;

pub use dram::DramTechnology;
pub use energy::EnergySource;
pub use hdd::{HddClass, HddModel};
pub use locations::Location;
pub use nodes::{Abatement, NodeParseError, ProcessNode, MPA};
pub use socs::{newest_in_family, ClusterSpec, SocFamily, SocSpec, MOBILE_SOCS};
pub use ssdtech::SsdTechnology;
