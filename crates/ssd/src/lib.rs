//! SSD substrate for ACT's Recycle case study (Figure 15): write
//! amplification, the Meza-et-al. lifetime model, and a page-mapping FTL
//! simulator that measures write amplification empirically.
//!
//! The paper models SSD lifetime as
//!
//! ```text
//! Lifetime (years) = PEC × (1 + PF) / (365 × DWPD × WA × Rcompress)
//! ```
//!
//! where `PEC` is program/erase cycles, `PF` the over-provisioning factor,
//! `DWPD` full disk writes per day, `WA` the write-amplification factor and
//! `Rcompress` the compression rate. Over-provisioning lowers `WA` (greedy
//! garbage collection finds emptier victims), extending lifetime at the
//! price of more flash — and therefore more embodied carbon.
//!
//! Two write-amplification sources are provided: the closed-form greedy-GC
//! model [`analytical_write_amplification`], and [`FtlSimulator`], a
//! page-mapping FTL with greedy garbage collection that measures WA on
//! synthetic write traces. An integration test checks they agree.
//!
//! # Examples
//!
//! ```
//! use act_ssd::{analytical_write_amplification, LifetimeModel, OverProvisioning};
//!
//! let pf = OverProvisioning::new(0.16)?;
//! let wa = analytical_write_amplification(pf);
//! assert!((wa - 3.625).abs() < 1e-9);
//!
//! let lifetime = LifetimeModel::default().lifetime_years(pf);
//! assert!((lifetime - 2.0).abs() < 0.1);
//! # Ok::<(), act_ssd::OverProvisioningError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ftl;
mod lifetime;
mod provisioning;
mod trace;

pub use ftl::{FtlConfig, FtlSimulator, FtlStats};
pub use lifetime::{analytical_write_amplification, LifetimeModel};
pub use provisioning::{
    effective_embodied, try_effective_embodied, OverProvisioning, OverProvisioningError,
};
pub use trace::{TracePattern, WriteTrace};
