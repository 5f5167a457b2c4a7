//! Design-space exploration machinery shared by the ACT case studies:
//! parameter sweeps, Pareto frontiers, constrained optima and normalization.
//!
//! Every case study in the paper is a design-space exploration — over SoC
//! generations (Figure 8), engine provisioning (Figures 9–10), MAC-array
//! sizes (Figures 12–13), hardware lifetimes (Figure 14) or over-provisioning
//! factors (Figure 15). This crate holds the exploration primitives so each
//! study only writes its model.
//!
//! Every sweep and Monte-Carlo entry point takes a [`Parallelism`] policy
//! first (`Serial`, `Auto` honoring `ACT_THREADS`, or explicit
//! `Threads(n)`): serial is a policy, not a separate function. Results
//! come back in input order and — via per-sample seed-splitting for
//! Monte-Carlo — are bit-for-bit identical for any thread count.
//!
//! Sweeps over untrusted configurations use the fallible primitives
//! ([`try_sweep`], [`sweep_finite`], [`try_monte_carlo`]): invalid design
//! points are skipped and recorded in the returned [`SweepOutcome`] /
//! [`McOutcome`] rather than panicking mid-exploration; [`sweep`] and
//! [`monte_carlo`] are their infallible forms.
//!
//! Million-point explorations use the block batch engine ([`PointBatch`],
//! [`sweep_compiled_block`], [`par_sweep_compiled_block_with`],
//! [`par_monte_carlo_compiled_block_with`] and the `_budgeted` forms that
//! take an [`EvalBudget`] deadline): design points live in
//! structure-of-arrays columns, results land in reusable buffers, and the
//! kernel receives whole column ranges (pair with
//! `act_core::EvalPlan::eval_block`), so the hot loop reads columns
//! directly with no per-point gather, enum dispatch or heap allocation —
//! with the same skip-and-record and seed-splitting semantics as the
//! closure path, bit for bit.
//!
//! # Examples
//!
//! ```
//! use act_dse::{argmin_by, pareto_indices, powers_of_two};
//!
//! let macs = powers_of_two(64, 2048);
//! assert_eq!(macs, vec![64, 128, 256, 512, 1024, 2048]);
//!
//! // Smallest design meeting a constraint.
//! let best = argmin_by(&macs, |m| f64::from(*m));
//! assert_eq!(best, Some(0));
//!
//! // Two objectives: (cost, -quality). Only non-dominated points survive.
//! let points = vec![vec![1.0, 5.0], vec![2.0, 1.0], vec![3.0, 3.0]];
//! assert_eq!(pareto_indices(&points), vec![0, 1]);
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
mod pareto;
mod pool;
mod sweep;

pub use batch::{
    par_monte_carlo_compiled_block_budgeted, par_monte_carlo_compiled_block_with,
    par_sweep_compiled_block_budgeted, par_sweep_compiled_block_with, sweep_compiled_block,
    BatchOutput, BatchRun, BatchShapeError, BlockSampler, EvalBudget, McBuffer, PointBatch,
};
pub use montecarlo::{
    mc_sample_seed, monte_carlo, triangular, try_monte_carlo, try_triangular, McError,
    McOutcome, McStats, TriangularError,
};
pub use optimize::{argmin_by, argmin_feasible, knee_point, normalize_to, normalize_to_last};
pub use parallel::{
    calibration, machine_parallelism, par_map_ordered, par_map_range, BatchDecision,
    Calibration, CalibrationSource, Parallelism, ResolvedParallelism, ThreadsSource,
    ThreadsWarning, ThreadsWarningReason,
};
pub use pareto::{dominates, pareto_indices, pareto_indices_reference};
pub use sweep::{
    linspace, linspace_iter, logspace, logspace_iter, powers_of_two, powers_of_two_iter, sweep,
    sweep_finite, try_sweep, RejectedPoint, SweepOutcome,
};
