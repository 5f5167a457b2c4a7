//! Design-space exploration machinery shared by the ACT case studies:
//! block sweeps, Monte-Carlo runs, sweep axes and constrained optima.
//!
//! Every case study in the paper is a design-space exploration — over SoC
//! generations (Figure 8), engine provisioning (Figures 9–10), MAC-array
//! sizes (Figures 12–13), hardware lifetimes (Figure 14) or over-provisioning
//! factors (Figure 15). This crate holds the exploration primitives so each
//! study only writes its model.
//!
//! Sweeps and Monte-Carlo runs go through the block batch engine
//! ([`PointBatch`], [`sweep_compiled_block`],
//! [`par_sweep_compiled_block_with`],
//! [`par_monte_carlo_compiled_block_with`] and the `_budgeted` forms that
//! take an [`EvalBudget`] deadline). Design points live in
//! structure-of-arrays columns, results land in reusable buffers, and the
//! kernel receives whole column ranges (pair with
//! `act_core::EvalPlan::eval_block`), so the hot loop reads columns
//! directly with no per-point gather, enum dispatch or heap allocation.
//!
//! Every parallel entry point takes a [`Parallelism`] policy first
//! (`Serial`, `Auto` honoring `ACT_THREADS`, or explicit `Threads(n)`):
//! serial is a policy, not a separate function. A policy resolves to a
//! worker count in one of two ways: [`Parallelism::resolve_for`] for a
//! batch of known size (capped at one worker per point, and serial below
//! the calibrated break-even size under `Auto`), and
//! [`Parallelism::resolve`] for task lists such as [`par_map_ordered`]
//! (no threshold). Results come back in
//! input order and — via per-sample seed-splitting ([`mc_sample_seed`])
//! for Monte-Carlo — are bit-for-bit identical for any thread count.
//! Invalid design points are skipped and recorded ([`RejectedPoint`],
//! [`McOutcome::rejected`]) rather than aborting the exploration.
//!
//! # Examples
//!
//! ```
//! use act_dse::{argmin_feasible, powers_of_two};
//!
//! let macs = powers_of_two(64, 2048);
//! assert_eq!(macs, vec![64, 128, 256, 512, 1024, 2048]);
//!
//! // Smallest MAC array that reaches 30 FPS, if a frame takes
//! // 16384 / macs milliseconds.
//! let fps = |macs: &u32| 1000.0 * f64::from(*macs) / 16384.0;
//! let best = argmin_feasible(&macs, |m| f64::from(*m), |m| fps(m) >= 30.0);
//! assert_eq!(best, Some(3)); // 512 MACs: 31.25 FPS
//! ```

// `deny`, not `forbid`: the persistent worker pool (`pool` module) needs
// two narrowly-scoped `unsafe` items to share stack-borrowed closures with
// pool threads (crossbeam-scope-style lifetime confinement, documented
// there). Everything else in the crate stays `unsafe`-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod montecarlo;
mod optimize;
mod parallel;
mod pool;
mod sweep;

pub use batch::{
    par_monte_carlo_compiled_block_budgeted, par_monte_carlo_compiled_block_with,
    par_sweep_compiled_block_budgeted, par_sweep_compiled_block_with, sweep_compiled_block,
    BatchOutput, BatchRun, BatchShapeError, BlockSampler, EvalBudget, McBuffer, PointBatch,
};
pub use montecarlo::{
    mc_sample_seed, try_triangular, McError, McOutcome, McStats, TriangularError,
};
pub use optimize::argmin_feasible;
pub use parallel::{
    calibration, par_map_ordered, Calibration, CalibrationSource, Parallelism,
    ResolvedParallelism, ThreadsWarning, ThreadsWarningReason,
};
pub use sweep::{logspace, powers_of_two, powers_of_two_iter, RejectedPoint};
