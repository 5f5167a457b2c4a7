//! A mobile-SoC performance/energy simulator: the substrate that replaces
//! the paper's Geekbench measurements on physical phones.
//!
//! Figure 8 and Figure 14 of the ACT paper are driven by measured mobile
//! workloads. We do not have racks of phones, so this crate simulates the
//! seven-workload suite analytically: each [`Workload`] carries an
//! instruction volume, a memory intensity (how quickly extra frequency stops
//! helping) and a thread-level parallelism; each SoC is its
//! [`act_data::SocSpec`] cluster configuration. The simulator schedules
//! threads over clusters (big cores first), applies a DVFS governor, derates
//! throughput by the memory wall, and integrates a dynamic + leakage power
//! model normalized to the SoC's TDP.
//!
//! The absolute numbers are synthetic; what the substitution preserves — and
//! what the tests pin — are the *relative* generational trends the paper's
//! figures rely on: newer SoCs in a family are faster, energy efficiency
//! improves ~20 % per year, and big.LITTLE scheduling behaves sanely.
//!
//! # Examples
//!
//! ```
//! use act_data::MOBILE_SOCS;
//! use act_soc::{geekbench_suite, SocSimulator};
//!
//! let sim = SocSimulator::new(&MOBILE_SOCS[0]);
//! let result = sim.run_suite(&geekbench_suite());
//! assert!(result.score > 0.0);
//! assert!(result.energy.as_joules() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lifetime;
mod sim;
mod trend;
mod workload;

pub use lifetime::ReplacementModel;
pub use sim::{DvfsGovernor, RunResult, SocSimulator, SuiteResult};
pub use trend::annual_efficiency_improvement;
pub use workload::{geekbench_suite, Workload};
