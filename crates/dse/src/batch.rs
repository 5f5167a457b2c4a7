//! Structure-of-arrays batch evaluation for compiled kernels.
//!
//! The per-point sweep API ([`sweep`](crate::sweep()), `par_sweep`) hands the
//! model an owned parameter and collects `(param, result)` pairs — fine for
//! dozens of points, wasteful for millions. This module is the batch twin:
//! design points live in a [`PointBatch`] (one contiguous column per free
//! axis), results land in a caller-owned reusable [`BatchOutput`], and the
//! model is any `Fn(&[f64]) -> f64` kernel — typically
//! `act_core::CompiledFootprint::eval` — so the hot loop performs **zero
//! heap allocations per point**.
//!
//! Semantics mirror the per-point path exactly:
//!
//! * **skip-and-record** — a non-finite kernel result does not abort the
//!   sweep; the point's output slot is poisoned to NaN and a
//!   [`RejectedPoint`] with the same reason string as
//!   [`sweep_finite`](crate::sweep_finite) is recorded, in sweep order;
//! * **thread-count invariance** — the parallel entry points partition the
//!   output buffer into cache-friendly contiguous chunks
//!   (`slice::chunks_mut`, no `unsafe`) and hand chunk indices to the
//!   persistent worker pool through an atomic cursor (work stealing), and
//!   each point's value depends only on its coordinates, so serial and
//!   parallel runs are bit-for-bit identical;
//! * **deterministic seed-splitting** — [`par_monte_carlo_compiled`] seeds
//!   sample `i` with [`mc_sample_seed`]`(seed, i)` exactly like
//!   [`par_try_monte_carlo`](crate::par_try_monte_carlo), so its outcome is
//!   invariant under the thread count too.
//!
//! Every entry point also has a **block-vectorized `_block` twin**
//! ([`sweep_compiled_block`], [`par_sweep_compiled_block`],
//! [`par_monte_carlo_compiled_block`], and their `_budgeted` variants) that
//! hands the kernel whole column ranges instead of gathered points — pair
//! them with `act_core::EvalPlan::eval_block` for the fast path: column
//! reads replace the per-point gather, and the budget is consulted on
//! block boundaries at the same check-interval granularity.

use std::fmt;
use std::ops::Range;
use std::time::Instant;

use act_rng::Rng;

use crate::montecarlo::{mc_sample_seed, summarize_slice, McError, McOutcome};
use crate::parallel::Parallelism;
use crate::sweep::RejectedPoint;

/// A cooperative evaluation budget for batch loops: a wall-clock deadline
/// checked every [`check_interval`](Self::check_interval) points, so a
/// hot loop stays allocation-free and branch-cheap but can still be cut
/// off mid-batch. This is the hook `act-server` uses to enforce
/// per-request deadlines inside long sweeps — the socket timeouts bound
/// I/O, this bounds compute.
///
/// # Examples
///
/// ```
/// use std::time::{Duration, Instant};
/// use act_dse::EvalBudget;
///
/// let unlimited = EvalBudget::unlimited();
/// assert!(!unlimited.is_exhausted());
///
/// let expired = EvalBudget::with_deadline(Instant::now() - Duration::from_millis(1));
/// assert!(expired.is_exhausted());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct EvalBudget {
    deadline: Option<Instant>,
    check_interval: usize,
}

impl EvalBudget {
    /// How many points a budgeted loop evaluates between deadline checks
    /// by default. `Instant::now` costs tens of nanoseconds; a compiled
    /// kernel point costs a few — checking every 1024 points keeps the
    /// overhead under 1 % while bounding overshoot to ~a microsecond.
    pub const DEFAULT_CHECK_INTERVAL: usize = 1024;

    /// A budget that never expires: budgeted loops behave exactly like
    /// their unbudgeted twins.
    #[must_use]
    pub fn unlimited() -> Self {
        Self { deadline: None, check_interval: Self::DEFAULT_CHECK_INTERVAL }
    }

    /// A budget that expires at `deadline`.
    #[must_use]
    pub fn with_deadline(deadline: Instant) -> Self {
        Self { deadline: Some(deadline), check_interval: Self::DEFAULT_CHECK_INTERVAL }
    }

    /// Overrides the points-between-checks interval (clamped up to 1).
    /// Smaller intervals tighten deadline precision at the cost of more
    /// clock reads; tests use `1` for exact cut-off points.
    #[must_use]
    pub fn check_every(mut self, interval: usize) -> Self {
        self.check_interval = interval.max(1);
        self
    }

    /// The configured points-between-checks interval.
    #[must_use]
    pub fn check_interval(&self) -> usize {
        self.check_interval
    }

    /// `true` once the deadline has passed (always `false` when unlimited).
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        match self.deadline {
            Some(deadline) => Instant::now() >= deadline,
            None => false,
        }
    }

    /// The cheap per-point check: consults the clock only on interval
    /// boundaries (and never for an unlimited budget).
    #[inline]
    fn exhausted_at(&self, index: usize) -> bool {
        self.deadline.is_some()
            && index.is_multiple_of(self.check_interval)
            && self.is_exhausted()
    }
}

/// How a budgeted batch run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchRun {
    /// Every point was evaluated.
    Completed,
    /// The [`EvalBudget`] expired after `completed` points; the remaining
    /// output slots hold NaN and recorded no rejections.
    DeadlineExceeded {
        /// Number of leading points that were evaluated before cut-off.
        completed: usize,
    },
}

impl BatchRun {
    /// `true` when every point was evaluated.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        matches!(self, Self::Completed)
    }
}

/// Why a set of columns cannot form a [`PointBatch`]: the typed twin of
/// the panics in [`PointBatch::from_columns`], for request paths (like
/// `act-server`) that must turn a hostile body into an error response
/// instead of a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchShapeError {
    /// No axis columns at all — a batch needs at least one.
    Empty,
    /// Column `axis` disagrees with column 0 on length.
    Ragged {
        /// Index of the offending column.
        axis: usize,
        /// Its length.
        len: usize,
        /// Column 0's length, which every column must match.
        expected: usize,
    },
}

impl fmt::Display for BatchShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty => write!(f, "a point batch needs at least one axis column"),
            Self::Ragged { axis, len, expected } => {
                write!(f, "axis column {axis} has {len} points but column 0 has {expected}")
            }
        }
    }
}

impl std::error::Error for BatchShapeError {}

/// A structure-of-arrays block of design points: one `f64` column per free
/// axis, all columns the same length.
///
/// Column `a` holds coordinate `a` of every point, so a single-axis sweep
/// is just the swept values and a kernel reads point `i` as
/// `&[col0[i], col1[i], ...]` gathered into a scratch slice.
///
/// # Examples
///
/// ```
/// use act_dse::PointBatch;
///
/// let batch = PointBatch::single_axis(vec![1.0, 2.0, 3.0]);
/// assert_eq!(batch.len(), 3);
/// assert_eq!(batch.axis_count(), 1);
///
/// let grid = PointBatch::from_columns(vec![vec![1.0, 2.0], vec![10.0, 20.0]]);
/// let mut point = [0.0; 2];
/// grid.gather(1, &mut point);
/// assert_eq!(point, [2.0, 20.0]);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct PointBatch {
    columns: Vec<Vec<f64>>,
    len: usize,
}

impl PointBatch {
    /// Batch over a single free axis: each value is one design point.
    #[must_use]
    pub fn single_axis(values: Vec<f64>) -> Self {
        let len = values.len();
        Self { columns: vec![values], len }
    }

    /// Batch over several free axes, one column per axis.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty or the columns disagree on length.
    #[must_use]
    pub fn from_columns(columns: Vec<Vec<f64>>) -> Self {
        match Self::try_from_columns(columns) {
            Ok(batch) => batch,
            Err(shape) => panic!("{shape}"),
        }
    }

    /// Fallible twin of [`Self::from_columns`] for untrusted input: the
    /// same shape checks, reported as a typed [`BatchShapeError`] instead
    /// of a panic. `act-server` uses it so a hostile sweep body becomes a
    /// 400 response rather than a caught panic.
    ///
    /// # Errors
    ///
    /// Returns [`BatchShapeError::Empty`] when `columns` is empty and
    /// [`BatchShapeError::Ragged`] when the columns disagree on length.
    ///
    /// # Examples
    ///
    /// ```
    /// use act_dse::{BatchShapeError, PointBatch};
    ///
    /// assert_eq!(PointBatch::try_from_columns(Vec::new()), Err(BatchShapeError::Empty));
    /// assert_eq!(
    ///     PointBatch::try_from_columns(vec![vec![1.0, 2.0], vec![3.0]]),
    ///     Err(BatchShapeError::Ragged { axis: 1, len: 1, expected: 2 }),
    /// );
    /// assert!(PointBatch::try_from_columns(vec![vec![1.0], vec![2.0]]).is_ok());
    /// ```
    pub fn try_from_columns(columns: Vec<Vec<f64>>) -> Result<Self, BatchShapeError> {
        if columns.is_empty() {
            return Err(BatchShapeError::Empty);
        }
        let len = columns[0].len();
        for (axis, column) in columns.iter().enumerate() {
            if column.len() != len {
                return Err(BatchShapeError::Ragged { axis, len: column.len(), expected: len });
            }
        }
        Ok(Self { columns, len })
    }

    /// Number of design points in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the batch holds no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of free axes (columns).
    #[must_use]
    pub fn axis_count(&self) -> usize {
        self.columns.len()
    }

    /// The values of axis `axis` across every point.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range.
    #[must_use]
    pub fn column(&self, axis: usize) -> &[f64] {
        &self.columns[axis]
    }

    /// All columns as borrowed slices, in axis order — the
    /// structure-of-arrays view block kernels read directly (e.g.
    /// `act_core::EvalPlan::eval_block`). The small per-call `Vec` of
    /// references is amortized over the whole batch, not per point.
    #[must_use]
    pub fn column_slices(&self) -> Vec<&[f64]> {
        self.columns.iter().map(Vec::as_slice).collect()
    }

    /// Copies point `index` into `scratch` (one slot per axis).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or `scratch` is not exactly
    /// [`axis_count`](Self::axis_count) long.
    pub fn gather(&self, index: usize, scratch: &mut [f64]) {
        assert!(
            scratch.len() == self.columns.len(),
            "scratch has {} slots for {} axes",
            scratch.len(),
            self.columns.len()
        );
        for (slot, column) in scratch.iter_mut().zip(&self.columns) {
            *slot = column[index];
        }
    }
}

/// Reusable output buffer for [`sweep_compiled`] / [`par_sweep_compiled`]:
/// one value per design point plus the skip-and-record rejection log.
///
/// Rejected points keep their slot in [`values`](Self::values) — poisoned to
/// NaN — so output index `i` always corresponds to batch point `i`.
/// Reusing one buffer across sweeps amortizes its allocation to zero.
#[derive(Clone, Debug, Default)]
pub struct BatchOutput {
    values: Vec<f64>,
    rejected: Vec<RejectedPoint>,
}

impl BatchOutput {
    /// An empty buffer; the first sweep sizes it.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-point results, in batch order. Rejected points hold NaN.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The rejected points, in sweep order.
    #[must_use]
    pub fn rejected(&self) -> &[RejectedPoint] {
        &self.rejected
    }

    /// Number of rejected points.
    #[must_use]
    pub fn rejected_count(&self) -> usize {
        self.rejected.len()
    }

    /// `true` when no point was rejected.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.rejected.is_empty()
    }

    /// Drops the previous sweep's contents and sizes the value buffer for
    /// `len` points, retaining allocated capacity.
    pub fn reset(&mut self, len: usize) {
        self.values.clear();
        self.values.resize(len, f64::NAN);
        self.rejected.clear();
    }

    /// Empties the buffer entirely (capacity is retained).
    pub fn clear(&mut self) {
        self.values.clear();
        self.rejected.clear();
    }
}

/// The reason string shared with [`sweep_finite`](crate::sweep_finite) —
/// byte-identical so batch and per-point rejection logs agree.
fn non_finite_reason(v: f64) -> String {
    format!("model produced a non-finite result ({v})")
}

/// Evaluates `kernel` on every point of `batch`, serially, writing results
/// into `out`.
///
/// Non-finite results are skipped and recorded exactly like
/// [`sweep_finite`](crate::sweep_finite): the slot is poisoned to NaN and a
/// [`RejectedPoint`] carries the index and reason. The hot loop allocates
/// nothing per point (one scratch slice per call).
///
/// # Examples
///
/// ```
/// use act_dse::{sweep_compiled, BatchOutput, PointBatch};
///
/// let batch = PointBatch::single_axis(vec![4.0, 0.0, 1.0]);
/// let mut out = BatchOutput::new();
/// sweep_compiled(&batch, |p| 1.0 / p[0], &mut out);
/// assert_eq!(out.values()[0], 0.25);
/// assert!(out.values()[1].is_nan()); // 1/0 = inf, rejected
/// assert_eq!(out.rejected()[0].index, 1);
/// ```
pub fn sweep_compiled(
    batch: &PointBatch,
    kernel: impl Fn(&[f64]) -> f64,
    out: &mut BatchOutput,
) {
    out.reset(batch.len());
    let mut scratch = vec![0.0; batch.axis_count()];
    for (index, slot) in out.values.iter_mut().enumerate() {
        batch.gather(index, &mut scratch);
        let v = kernel(&scratch);
        if v.is_finite() {
            *slot = v;
        } else {
            *slot = f64::NAN;
            out.rejected.push(RejectedPoint { index, reason: non_finite_reason(v) });
        }
    }
}

/// [`sweep_compiled`] under a cooperative [`EvalBudget`]: evaluates points
/// in batch order until the budget expires, then stops — the completed
/// prefix is bit-for-bit identical to an unbudgeted run, untouched slots
/// hold NaN, and the return value says how far it got.
///
/// This is the serial leg: one thread, point-aligned cut-off, budget check
/// a plain branch. Large batches that clear the break-even calibration go
/// through [`par_sweep_compiled_budgeted`] instead — that is how
/// `act-server` routes sweeps when the calibrated policy says parallel
/// wins.
///
/// # Examples
///
/// ```
/// use act_dse::{sweep_compiled_budgeted, BatchRun, BatchOutput, EvalBudget, PointBatch};
///
/// let batch = PointBatch::single_axis(vec![1.0, 2.0, 4.0]);
/// let mut out = BatchOutput::new();
/// let run = sweep_compiled_budgeted(&batch, |p| 1.0 / p[0], &mut out, &EvalBudget::unlimited());
/// assert_eq!(run, BatchRun::Completed);
/// assert_eq!(out.values(), &[1.0, 0.5, 0.25]);
/// ```
pub fn sweep_compiled_budgeted(
    batch: &PointBatch,
    kernel: impl Fn(&[f64]) -> f64,
    out: &mut BatchOutput,
    budget: &EvalBudget,
) -> BatchRun {
    out.reset(batch.len());
    let mut scratch = vec![0.0; batch.axis_count()];
    for (index, slot) in out.values.iter_mut().enumerate() {
        if budget.exhausted_at(index) {
            return BatchRun::DeadlineExceeded { completed: index };
        }
        batch.gather(index, &mut scratch);
        let v = kernel(&scratch);
        if v.is_finite() {
            *slot = v;
        } else {
            *slot = f64::NAN;
            out.rejected.push(RejectedPoint { index, reason: non_finite_reason(v) });
        }
    }
    BatchRun::Completed
}

/// Budgeted serial twin of [`par_monte_carlo_compiled`]: draws samples in
/// order (seeded with [`mc_sample_seed`], so the completed prefix is
/// bit-identical to the unbudgeted run) until the [`EvalBudget`] expires,
/// then summarizes **the completed prefix**.
///
/// # Errors
///
/// Returns [`McError::NoSamples`] when `samples` is zero or the budget
/// expired before the first draw, and [`McError::AllRejected`] when every
/// completed draw was non-finite.
pub fn monte_carlo_compiled_budgeted(
    samples: usize,
    seed: u64,
    axes: usize,
    sampler: impl Fn(&mut Rng, &mut [f64]),
    kernel: impl Fn(&[f64]) -> f64,
    buf: &mut McBuffer,
    budget: &EvalBudget,
) -> Result<(McOutcome, BatchRun), McError> {
    if samples == 0 {
        return Err(McError::NoSamples);
    }
    buf.draws.clear();
    let mut scratch = vec![0.0; axes];
    let mut run = BatchRun::Completed;
    for index in 0..samples {
        if budget.exhausted_at(index) {
            run = BatchRun::DeadlineExceeded { completed: index };
            break;
        }
        let mut rng = Rng::seed_from_u64(mc_sample_seed(seed, index as u64));
        sampler(&mut rng, &mut scratch);
        let v = kernel(&scratch);
        buf.draws.push(if v.is_finite() { v } else { f64::NAN });
    }
    let completed = buf.draws.len();
    Ok((buf.outcome(completed)?, run))
}

/// Parallel [`sweep_compiled`] under the default [`Parallelism::Auto`]
/// policy. Bit-for-bit identical to the serial path for any thread count.
pub fn par_sweep_compiled(
    batch: &PointBatch,
    kernel: impl Fn(&[f64]) -> f64 + Sync,
    out: &mut BatchOutput,
) {
    par_sweep_compiled_with(Parallelism::Auto, batch, kernel, out);
}

/// Parallel [`sweep_compiled`] under an explicit [`Parallelism`] policy.
///
/// The output buffer is partitioned into cache-friendly contiguous chunks
/// (`slice::chunks_mut` — no `unsafe`) and the persistent worker pool
/// steals chunk *indices* from an atomic cursor, so a skewed kernel cannot
/// strand a whole static partition on one worker. Each worker keeps
/// per-chunk rejection logs that are merged back in chunk order, so
/// [`BatchOutput::rejected`] stays in sweep order. A machine-default
/// [`Parallelism::Auto`] additionally consults the break-even
/// [`calibration`](crate::calibration): batches below the calibrated
/// threshold run serial, because pool dispatch would cost more than it
/// saves.
pub fn par_sweep_compiled_with(
    parallelism: Parallelism,
    batch: &PointBatch,
    kernel: impl Fn(&[f64]) -> f64 + Sync,
    out: &mut BatchOutput,
) {
    let len = batch.len();
    let workers = parallelism.resolve_for(len).workers.min(len.max(1));
    if workers <= 1 {
        sweep_compiled(batch, kernel, out);
        return;
    }
    out.reset(len);
    let run = fill_chunked(
        workers,
        &mut out.values,
        &mut out.rejected,
        &kernel,
        |scratch, index| {
            batch.gather(index, scratch);
        },
        batch.axis_count(),
        &EvalBudget::unlimited(),
    );
    debug_assert!(run.is_complete(), "an unlimited budget cannot expire");
}

/// Budgeted twin of [`par_sweep_compiled_with`]: evaluates under a
/// cooperative [`EvalBudget`], cutting off at a **chunk-aligned completed
/// prefix** when the deadline passes. The completed prefix is bit-for-bit
/// identical to an unbudgeted (or serial) run, every slot past it holds
/// NaN, and the rejection log covers exactly the completed prefix — the
/// same contract as [`sweep_compiled_budgeted`], with the cut-off rounded
/// to a chunk boundary instead of a single point.
pub fn par_sweep_compiled_budgeted(
    parallelism: Parallelism,
    batch: &PointBatch,
    kernel: impl Fn(&[f64]) -> f64 + Sync,
    out: &mut BatchOutput,
    budget: &EvalBudget,
) -> BatchRun {
    let len = batch.len();
    let workers = parallelism.resolve_for(len).workers.min(len.max(1));
    if workers <= 1 {
        return sweep_compiled_budgeted(batch, kernel, out, budget);
    }
    out.reset(len);
    fill_chunked(
        workers,
        &mut out.values,
        &mut out.rejected,
        &kernel,
        |scratch, index| {
            batch.gather(index, scratch);
        },
        batch.axis_count(),
        budget,
    )
}

/// Reusable sample buffer for [`par_monte_carlo_compiled`]: the raw draws
/// (finite and not) plus the compacted finite subset the statistics are
/// computed over. Reuse one buffer across runs to amortize allocation.
#[derive(Clone, Debug, Default)]
pub struct McBuffer {
    draws: Vec<f64>,
    finite: Vec<f64>,
    /// Reusable structure-of-arrays sample columns for the serial
    /// block-vectorized path ([`monte_carlo_compiled_block_budgeted`]):
    /// one column per axis, refilled per block, so sampling allocates
    /// nothing per point.
    columns: Vec<Vec<f64>>,
}

impl McBuffer {
    /// An empty buffer; the first run sizes it.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Every draw of the last run, in sample order; rejected (non-finite)
    /// draws appear as NaN regardless of whether the model produced NaN or
    /// ±∞.
    #[must_use]
    pub fn draws(&self) -> &[f64] {
        &self.draws
    }

    /// The shared tail of every batch Monte-Carlo entry point: trims
    /// [`draws`](Self::draws) to the `completed` prefix, counts its
    /// non-finite draws as rejected, and summarizes the finite rest.
    fn outcome(&mut self, completed: usize) -> Result<McOutcome, McError> {
        if completed == 0 {
            return Err(McError::NoSamples);
        }
        self.draws.truncate(completed);
        self.finite.clear();
        self.finite.extend(self.draws.iter().copied().filter(|v| v.is_finite()));
        let rejected = completed - self.finite.len();
        if self.finite.is_empty() {
            return Err(McError::AllRejected { rejected });
        }
        Ok(McOutcome { stats: summarize_slice(&mut self.finite), rejected })
    }
}

/// Deterministic, fault-tolerant Monte-Carlo over a compiled kernel under
/// the default [`Parallelism::Auto`] policy; see
/// [`par_monte_carlo_compiled_with`].
///
/// # Errors
///
/// Returns [`McError::NoSamples`] if `samples` is zero and
/// [`McError::AllRejected`] if every draw was non-finite.
pub fn par_monte_carlo_compiled(
    samples: usize,
    seed: u64,
    axes: usize,
    sampler: impl Fn(&mut Rng, &mut [f64]) + Sync,
    kernel: impl Fn(&[f64]) -> f64 + Sync,
    buf: &mut McBuffer,
) -> Result<McOutcome, McError> {
    par_monte_carlo_compiled_with(Parallelism::Auto, samples, seed, axes, sampler, kernel, buf)
}

/// Deterministic, fault-tolerant Monte-Carlo over a compiled kernel under
/// an explicit [`Parallelism`] policy.
///
/// Sample `i` gets its own `Rng` seeded with [`mc_sample_seed`]
/// `(seed, i)`; `sampler` draws the point's coordinates into a scratch
/// slice of `axes` slots and `kernel` maps them to a value — together they
/// play the role of the `model` closure in
/// [`par_try_monte_carlo`](crate::par_try_monte_carlo), with identical
/// seed-splitting, so a per-point model decomposed into `(sampler, kernel)`
/// produces the **bit-identical outcome**. Non-finite draws are skipped and
/// counted in sample order; statistics come from
/// the same summarization as every other Monte-Carlo entry point.
///
/// # Errors
///
/// Returns [`McError::NoSamples`] if `samples` is zero and
/// [`McError::AllRejected`] if every draw was non-finite.
///
/// # Examples
///
/// ```
/// use act_dse::{par_monte_carlo_compiled, par_try_monte_carlo, McBuffer};
///
/// let mut buf = McBuffer::new();
/// let compiled = par_monte_carlo_compiled(
///     2_000, 42, 1,
///     |rng, point| point[0] = rng.gen_range(0.7..1.0),
///     |point| 0.9 * 1370.0 / point[0],
///     &mut buf,
/// )?;
/// let reference = par_try_monte_carlo(2_000, 42, |rng| {
///     let y: f64 = rng.gen_range(0.7..1.0);
///     0.9 * 1370.0 / y
/// })?;
/// assert_eq!(compiled, reference);
/// # Ok::<(), act_dse::McError>(())
/// ```
pub fn par_monte_carlo_compiled_with(
    parallelism: Parallelism,
    samples: usize,
    seed: u64,
    axes: usize,
    sampler: impl Fn(&mut Rng, &mut [f64]) + Sync,
    kernel: impl Fn(&[f64]) -> f64 + Sync,
    buf: &mut McBuffer,
) -> Result<McOutcome, McError> {
    if samples == 0 {
        return Err(McError::NoSamples);
    }
    buf.draws.clear();
    buf.draws.resize(samples, f64::NAN);
    let draw = |scratch: &mut [f64], index: usize| {
        let mut rng = Rng::seed_from_u64(mc_sample_seed(seed, index as u64));
        sampler(&mut rng, scratch);
    };
    let workers = parallelism.resolve_for(samples).workers.min(samples.max(1));
    if workers <= 1 {
        let mut scratch = vec![0.0; axes];
        for (index, slot) in buf.draws.iter_mut().enumerate() {
            draw(&mut scratch, index);
            let v = kernel(&scratch);
            // Canonicalize non-finite draws to NaN (as `fill_chunked` does)
            // so `draws()` is identical for every thread count; the caller
            // only counts them, so ±∞ and NaN are equivalent.
            *slot = if v.is_finite() { v } else { f64::NAN };
        }
    } else {
        // The rejection log is discarded: the Monte-Carlo contract reports
        // a rejected *count*, not indexed reasons.
        let mut discarded: Vec<RejectedPoint> = Vec::new();
        fill_chunked(
            workers,
            &mut buf.draws,
            &mut discarded,
            &kernel,
            draw,
            axes,
            &EvalBudget::unlimited(),
        );
    }
    buf.outcome(samples)
}

/// Budgeted parallel Monte-Carlo over a compiled kernel: draws under a
/// cooperative [`EvalBudget`] and — when the deadline cuts in — summarizes
/// the **chunk-aligned completed prefix** of samples, which seed-splitting
/// makes bit-identical to the same prefix of a serial run. After the call,
/// [`McBuffer::draws`] holds exactly the completed prefix.
///
/// # Errors
///
/// Returns [`McError::NoSamples`] when `samples` is zero or the budget
/// expired before the first chunk completed, and [`McError::AllRejected`]
/// when every completed draw was non-finite.
#[allow(clippy::too_many_arguments)]
pub fn par_monte_carlo_compiled_budgeted(
    parallelism: Parallelism,
    samples: usize,
    seed: u64,
    axes: usize,
    sampler: impl Fn(&mut Rng, &mut [f64]) + Sync,
    kernel: impl Fn(&[f64]) -> f64 + Sync,
    buf: &mut McBuffer,
    budget: &EvalBudget,
) -> Result<(McOutcome, BatchRun), McError> {
    if samples == 0 {
        return Err(McError::NoSamples);
    }
    let workers = parallelism.resolve_for(samples).workers.min(samples);
    if workers <= 1 {
        return monte_carlo_compiled_budgeted(
            samples, seed, axes, sampler, kernel, buf, budget,
        );
    }
    buf.draws.clear();
    buf.draws.resize(samples, f64::NAN);
    let draw = |scratch: &mut [f64], index: usize| {
        let mut rng = Rng::seed_from_u64(mc_sample_seed(seed, index as u64));
        sampler(&mut rng, scratch);
    };
    let mut discarded: Vec<RejectedPoint> = Vec::new();
    let run =
        fill_chunked(workers, &mut buf.draws, &mut discarded, &kernel, draw, axes, budget);
    let completed = match run {
        BatchRun::Completed => samples,
        BatchRun::DeadlineExceeded { completed } => completed,
    };
    Ok((buf.outcome(completed)?, run))
}

// ---------------------------------------------------------------------------
// Block-vectorized path: whole column ranges per kernel call.
//
// The entry points above hand the kernel one gathered point at a time. The
// `_block` twins below hand it a **column range**: the kernel is any
// `Fn(&[&[f64]], Range<usize>, &mut [f64])` that evaluates points
// `range` of a structure-of-arrays column set into an output slice —
// typically `act_core::EvalPlan::eval_block`, which reads the columns
// directly in LANES-wide auto-vectorized blocks with no per-point gather
// or enum dispatch. Skip-and-record, thread-count invariance, and
// seed-splitting semantics are identical to the per-point twins; the only
// contract difference is the budgeted cut-off, which lands on a block
// boundary instead of a point boundary.
// ---------------------------------------------------------------------------

/// Points per budget block on the block-vectorized path. With a deadline
/// the block is the budget's check interval (capped at
/// [`MAX_CHUNK_POINTS`]), so the block path consults the clock exactly as
/// often as the per-point path's [`EvalBudget::check_interval`]; without
/// one, the whole span goes to the kernel in a single call.
fn block_points(budget: &EvalBudget, span: usize) -> usize {
    if budget.deadline.is_some() {
        budget.check_interval.clamp(1, MAX_CHUNK_POINTS)
    } else {
        span.max(1)
    }
}

/// The skip-and-record scan after a block evaluation: canonicalizes
/// non-finite results to NaN and records one [`RejectedPoint`] per
/// offender, with `start` the global index of `slice[0]`. The reason
/// string uses the raw value (±∞ or NaN), byte-identical to the per-point
/// path's.
fn record_non_finite(slice: &mut [f64], start: usize, rejected: &mut Vec<RejectedPoint>) {
    for (offset, slot) in slice.iter_mut().enumerate() {
        let v = *slot;
        if !v.is_finite() {
            *slot = f64::NAN;
            rejected
                .push(RejectedPoint { index: start + offset, reason: non_finite_reason(v) });
        }
    }
}

/// Block-vectorized [`sweep_compiled`]: evaluates the whole batch through a
/// block kernel — `block_kernel(columns, range, out)` fills `out` with the
/// results for points `range` of the structure-of-arrays `columns` — with
/// the same skip-and-record semantics as the per-point path.
///
/// With `act_core::EvalPlan::eval_block` as the kernel, results are
/// bit-for-bit identical to [`sweep_compiled`] over
/// `CompiledFootprint::eval`, just several times faster: no per-point
/// gather, no per-point enum dispatch, lane loops the compiler
/// auto-vectorizes.
///
/// # Examples
///
/// ```
/// use act_dse::{sweep_compiled_block, BatchOutput, PointBatch};
///
/// let batch = PointBatch::single_axis(vec![4.0, 0.0, 1.0]);
/// let mut out = BatchOutput::new();
/// sweep_compiled_block(
///     &batch,
///     |cols, range, out| {
///         for (slot, &x) in out.iter_mut().zip(&cols[0][range]) {
///             *slot = 1.0 / x;
///         }
///     },
///     &mut out,
/// );
/// assert_eq!(out.values()[0], 0.25);
/// assert!(out.values()[1].is_nan()); // 1/0 = inf, rejected
/// assert_eq!(out.rejected()[0].index, 1);
/// ```
pub fn sweep_compiled_block(
    batch: &PointBatch,
    block_kernel: impl Fn(&[&[f64]], Range<usize>, &mut [f64]),
    out: &mut BatchOutput,
) {
    let run = sweep_compiled_block_budgeted(batch, block_kernel, out, &EvalBudget::unlimited());
    debug_assert!(run.is_complete(), "an unlimited budget cannot expire");
}

/// [`sweep_compiled_block`] under a cooperative [`EvalBudget`]: evaluates
/// block by block until the budget expires, then stops at a
/// **block-aligned completed prefix** (the block size is the budget's
/// [`check_interval`](EvalBudget::check_interval), so deadline precision
/// matches [`sweep_compiled_budgeted`]). The completed prefix is
/// bit-for-bit identical to an unbudgeted run and untouched slots hold
/// NaN.
pub fn sweep_compiled_block_budgeted(
    batch: &PointBatch,
    block_kernel: impl Fn(&[&[f64]], Range<usize>, &mut [f64]),
    out: &mut BatchOutput,
    budget: &EvalBudget,
) -> BatchRun {
    let len = batch.len();
    out.reset(len);
    let columns = batch.column_slices();
    let block = block_points(budget, len);
    let mut start = 0;
    while start < len {
        if budget.deadline.is_some() && budget.is_exhausted() {
            return BatchRun::DeadlineExceeded { completed: start };
        }
        let end = (start + block).min(len);
        block_kernel(&columns, start..end, &mut out.values[start..end]);
        record_non_finite(&mut out.values[start..end], start, &mut out.rejected);
        start = end;
    }
    BatchRun::Completed
}

/// Parallel [`sweep_compiled_block`] under the default
/// [`Parallelism::Auto`] policy. Bit-for-bit identical to the serial block
/// path (and, with an `EvalPlan` kernel, to the per-point path) for any
/// thread count.
pub fn par_sweep_compiled_block(
    batch: &PointBatch,
    block_kernel: impl Fn(&[&[f64]], Range<usize>, &mut [f64]) + Sync,
    out: &mut BatchOutput,
) {
    par_sweep_compiled_block_with(Parallelism::Auto, batch, block_kernel, out);
}

/// Parallel [`sweep_compiled_block`] under an explicit [`Parallelism`]
/// policy: the same chunked work-stealing engine as
/// [`par_sweep_compiled_with`], but each stolen ≤[`MAX_CHUNK_POINTS`]-point
/// chunk goes to the block kernel as whole column ranges instead of
/// point-by-point gathers.
pub fn par_sweep_compiled_block_with(
    parallelism: Parallelism,
    batch: &PointBatch,
    block_kernel: impl Fn(&[&[f64]], Range<usize>, &mut [f64]) + Sync,
    out: &mut BatchOutput,
) {
    let len = batch.len();
    let workers = parallelism.resolve_for(len).workers.min(len.max(1));
    if workers <= 1 {
        sweep_compiled_block(batch, block_kernel, out);
        return;
    }
    out.reset(len);
    let columns = batch.column_slices();
    let run = fill_chunked_block(
        workers,
        &mut out.values,
        &mut out.rejected,
        &|| (),
        &|_state, range, slice| block_kernel(&columns, range, slice),
        &EvalBudget::unlimited(),
    );
    debug_assert!(run.is_complete(), "an unlimited budget cannot expire");
}

/// Budgeted twin of [`par_sweep_compiled_block_with`]: the block engine
/// under a cooperative [`EvalBudget`], cutting off at a **chunk-aligned
/// completed prefix** exactly like [`par_sweep_compiled_budgeted`] —
/// inside each chunk the budget is consulted on block boundaries, so
/// deadline precision matches the per-point engine.
pub fn par_sweep_compiled_block_budgeted(
    parallelism: Parallelism,
    batch: &PointBatch,
    block_kernel: impl Fn(&[&[f64]], Range<usize>, &mut [f64]) + Sync,
    out: &mut BatchOutput,
    budget: &EvalBudget,
) -> BatchRun {
    let len = batch.len();
    let workers = parallelism.resolve_for(len).workers.min(len.max(1));
    if workers <= 1 {
        return sweep_compiled_block_budgeted(batch, block_kernel, out, budget);
    }
    out.reset(len);
    let columns = batch.column_slices();
    fill_chunked_block(
        workers,
        &mut out.values,
        &mut out.rejected,
        &|| (),
        &|_state, range, slice| block_kernel(&columns, range, slice),
        budget,
    )
}

/// Budgeted serial block-vectorized Monte-Carlo: samples **directly into
/// reusable structure-of-arrays columns** ([`McBuffer`] keeps them across
/// runs) and evaluates whole blocks through the block kernel — no
/// per-point scratch, no per-point enum dispatch.
///
/// `sampler(rng, k, columns)` draws point `k`'s coordinate into slot `k`
/// of each axis column, with the RNG seeded per *sample* by
/// [`mc_sample_seed`] exactly like [`monte_carlo_compiled_budgeted`] — the
/// same draws in the same order, so with an `EvalPlan` kernel the outcome
/// is bit-identical to the per-point path for any block size, budget, or
/// thread count.
///
/// # Errors
///
/// Returns [`McError::NoSamples`] when `samples` is zero or the budget
/// expired before the first block, and [`McError::AllRejected`] when every
/// completed draw was non-finite.
pub fn monte_carlo_compiled_block_budgeted(
    samples: usize,
    seed: u64,
    axes: usize,
    sampler: impl Fn(&mut Rng, usize, &mut [Vec<f64>]),
    block_kernel: impl Fn(&[&[f64]], Range<usize>, &mut [f64]),
    buf: &mut McBuffer,
    budget: &EvalBudget,
) -> Result<(McOutcome, BatchRun), McError> {
    if samples == 0 {
        return Err(McError::NoSamples);
    }
    buf.draws.clear();
    buf.draws.resize(samples, f64::NAN);
    buf.columns.resize(axes, Vec::new());
    buf.columns.truncate(axes);
    let block = block_points(budget, samples);
    let mut run = BatchRun::Completed;
    let mut start = 0;
    while start < samples {
        if budget.deadline.is_some() && budget.is_exhausted() {
            run = BatchRun::DeadlineExceeded { completed: start };
            break;
        }
        let end = (start + block).min(samples);
        let n = end - start;
        for col in &mut buf.columns {
            col.clear();
            col.resize(n, 0.0);
        }
        for k in 0..n {
            let mut rng = Rng::seed_from_u64(mc_sample_seed(seed, (start + k) as u64));
            sampler(&mut rng, k, &mut buf.columns);
        }
        let columns: Vec<&[f64]> = buf.columns.iter().map(Vec::as_slice).collect();
        block_kernel(&columns, 0..n, &mut buf.draws[start..end]);
        // Canonicalize non-finite draws to NaN like every other MC path;
        // the caller only counts rejections, so ±∞ and NaN are equivalent.
        for slot in &mut buf.draws[start..end] {
            if !slot.is_finite() {
                *slot = f64::NAN;
            }
        }
        start = end;
    }
    let completed = match run {
        BatchRun::Completed => samples,
        BatchRun::DeadlineExceeded { completed } => completed,
    };
    Ok((buf.outcome(completed)?, run))
}

/// Block-vectorized [`par_monte_carlo_compiled`] under the default
/// [`Parallelism::Auto`] policy; see
/// [`par_monte_carlo_compiled_block_with`].
///
/// # Errors
///
/// Returns [`McError::NoSamples`] if `samples` is zero and
/// [`McError::AllRejected`] if every draw was non-finite.
pub fn par_monte_carlo_compiled_block(
    samples: usize,
    seed: u64,
    axes: usize,
    sampler: impl Fn(&mut Rng, usize, &mut [Vec<f64>]) + Sync,
    block_kernel: impl Fn(&[&[f64]], Range<usize>, &mut [f64]) + Sync,
    buf: &mut McBuffer,
) -> Result<McOutcome, McError> {
    par_monte_carlo_compiled_block_with(
        Parallelism::Auto,
        samples,
        seed,
        axes,
        sampler,
        block_kernel,
        buf,
    )
}

/// Block-vectorized [`par_monte_carlo_compiled_with`]: every worker keeps
/// its own structure-of-arrays sample columns and evaluates whole blocks
/// through the block kernel. Seed-splitting is per *sample*
/// ([`mc_sample_seed`]), so the outcome is bit-identical to the per-point
/// twin — and invariant under thread count, chunking, and block size.
///
/// # Errors
///
/// Returns [`McError::NoSamples`] if `samples` is zero and
/// [`McError::AllRejected`] if every draw was non-finite.
#[allow(clippy::too_many_arguments)]
pub fn par_monte_carlo_compiled_block_with(
    parallelism: Parallelism,
    samples: usize,
    seed: u64,
    axes: usize,
    sampler: impl Fn(&mut Rng, usize, &mut [Vec<f64>]) + Sync,
    block_kernel: impl Fn(&[&[f64]], Range<usize>, &mut [f64]) + Sync,
    buf: &mut McBuffer,
) -> Result<McOutcome, McError> {
    let (outcome, run) = par_monte_carlo_compiled_block_budgeted(
        parallelism,
        samples,
        seed,
        axes,
        sampler,
        block_kernel,
        buf,
        &EvalBudget::unlimited(),
    )?;
    debug_assert!(run.is_complete(), "an unlimited budget cannot expire");
    Ok(outcome)
}

/// Budgeted block-vectorized parallel Monte-Carlo: the block engine under
/// a cooperative [`EvalBudget`], summarizing the **chunk-aligned completed
/// prefix** when the deadline cuts in — the same contract as
/// [`par_monte_carlo_compiled_budgeted`]. After the call,
/// [`McBuffer::draws`] holds exactly the completed prefix.
///
/// # Errors
///
/// Returns [`McError::NoSamples`] when `samples` is zero or the budget
/// expired before the first chunk completed, and [`McError::AllRejected`]
/// when every completed draw was non-finite.
#[allow(clippy::too_many_arguments)]
pub fn par_monte_carlo_compiled_block_budgeted(
    parallelism: Parallelism,
    samples: usize,
    seed: u64,
    axes: usize,
    sampler: impl Fn(&mut Rng, usize, &mut [Vec<f64>]) + Sync,
    block_kernel: impl Fn(&[&[f64]], Range<usize>, &mut [f64]) + Sync,
    buf: &mut McBuffer,
    budget: &EvalBudget,
) -> Result<(McOutcome, BatchRun), McError> {
    if samples == 0 {
        return Err(McError::NoSamples);
    }
    let workers = parallelism.resolve_for(samples).workers.min(samples);
    if workers <= 1 {
        return monte_carlo_compiled_block_budgeted(
            samples,
            seed,
            axes,
            sampler,
            block_kernel,
            buf,
            budget,
        );
    }
    buf.draws.clear();
    buf.draws.resize(samples, f64::NAN);
    // The rejection log is discarded: the Monte-Carlo contract reports a
    // rejected *count*, not indexed reasons.
    let mut discarded: Vec<RejectedPoint> = Vec::new();
    let fill = |columns: &mut Vec<Vec<f64>>, range: Range<usize>, out: &mut [f64]| {
        let n = range.len();
        columns.resize(axes, Vec::new());
        for col in columns.iter_mut() {
            col.clear();
            col.resize(n, 0.0);
        }
        for k in 0..n {
            let mut rng = Rng::seed_from_u64(mc_sample_seed(seed, (range.start + k) as u64));
            sampler(&mut rng, k, columns);
        }
        let column_refs: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
        block_kernel(&column_refs, 0..n, out);
    };
    let run =
        fill_chunked_block(workers, &mut buf.draws, &mut discarded, &Vec::new, &fill, budget);
    let completed = match run {
        BatchRun::Completed => samples,
        BatchRun::DeadlineExceeded { completed } => completed,
    };
    Ok((buf.outcome(completed)?, run))
}

/// Upper bound on points per work-stealing chunk: 4096 points are 32 KiB
/// of output — small enough to stay cache-resident per steal, large enough
/// that the per-chunk cursor bump and slot lock are noise. The
/// block-vectorized path shares the bound: a stolen chunk is evaluated as
/// whole column ranges, so it is also the upper bound on points per block
/// kernel call.
const MAX_CHUNK_POINTS: usize = 4096;

/// Points per chunk: at least four chunks per worker (stealing slack for
/// skewed kernels), capped at [`MAX_CHUNK_POINTS`]. Deterministic in
/// `(len, workers)` — though output never depends on the chunking anyway,
/// since every point is computed from its coordinates alone.
#[cfg(feature = "parallel")]
fn chunk_points(len: usize, workers: usize) -> usize {
    len.div_ceil(workers.max(1) * 4).clamp(1, MAX_CHUNK_POINTS)
}

/// The shared chunked-parallel fill: partitions `values` into contiguous
/// chunks, hands chunk indices to the persistent worker pool through an
/// atomic cursor (work stealing), evaluates `kernel` on the point `load`
/// writes into each worker's private scratch slice, and merges per-chunk
/// rejection logs back in chunk order. Panics in workers propagate with
/// their payload after every worker has stopped.
///
/// The [`EvalBudget`] is checked on the same global point-index boundaries
/// as the serial loops; expiry stops every worker at its next check and
/// the function reports a **chunk-aligned completed prefix** (all chunks
/// before the first unfinished one). Slots past the prefix are wiped back
/// to NaN and its rejections dropped, so the caller sees exactly the
/// serial budgeted contract with a coarser cut-off.
#[cfg(feature = "parallel")]
#[allow(clippy::too_many_arguments)]
fn fill_chunked(
    workers: usize,
    values: &mut [f64],
    rejected: &mut Vec<RejectedPoint>,
    kernel: &(impl Fn(&[f64]) -> f64 + Sync),
    load: impl Fn(&mut [f64], usize) + Sync,
    axes: usize,
    budget: &EvalBudget,
) -> BatchRun {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Mutex, PoisonError};

    let len = values.len();
    if len == 0 {
        return BatchRun::Completed;
    }
    let chunk = chunk_points(len, workers);
    let completed_chunks;
    {
        // Each chunk is a `Mutex<Option<&mut [f64]>>` slot its claimer
        // takes exactly once — one uncontended lock per ~4096 points keeps
        // the engine free of `unsafe` while costing well under 0.1 %.
        let slots: Vec<Mutex<Option<&mut [f64]>>> =
            values.chunks_mut(chunk).map(|c| Mutex::new(Some(c))).collect();
        let chunk_count = slots.len();
        let done: Vec<AtomicBool> = (0..chunk_count).map(|_| AtomicBool::new(false)).collect();
        let cursor = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let logs: Mutex<Vec<(usize, Vec<RejectedPoint>)>> = Mutex::new(Vec::new());
        let load = &load;
        crate::pool::run(workers, &|| {
            let mut scratch = vec![0.0; axes];
            let mut local: Vec<(usize, Vec<RejectedPoint>)> = Vec::new();
            'steal: while !stop.load(Ordering::Relaxed) {
                let ci = cursor.fetch_add(1, Ordering::Relaxed);
                if ci >= chunk_count {
                    break;
                }
                let taken = slots[ci].lock().unwrap_or_else(PoisonError::into_inner).take();
                let Some(slice) = taken else { continue };
                let start = ci * chunk;
                let mut chunk_log: Vec<RejectedPoint> = Vec::new();
                for (offset, slot) in slice.iter_mut().enumerate() {
                    let index = start + offset;
                    if budget.exhausted_at(index) {
                        // Leave this chunk unfinished: it marks the end of
                        // the completed prefix. Other workers stop at
                        // their next steal or budget check.
                        stop.store(true, Ordering::Relaxed);
                        continue 'steal;
                    }
                    load(&mut scratch, index);
                    let v = kernel(&scratch);
                    if v.is_finite() {
                        *slot = v;
                    } else {
                        *slot = f64::NAN;
                        chunk_log.push(RejectedPoint { index, reason: non_finite_reason(v) });
                    }
                }
                done[ci].store(true, Ordering::Release);
                if !chunk_log.is_empty() {
                    local.push((ci, chunk_log));
                }
            }
            if !local.is_empty() {
                logs.lock().unwrap_or_else(PoisonError::into_inner).extend(local);
            }
        });
        completed_chunks = done.iter().take_while(|flag| flag.load(Ordering::Acquire)).count();
        let mut merged = logs.into_inner().unwrap_or_else(PoisonError::into_inner);
        merged.sort_unstable_by_key(|&(ci, _)| ci);
        for (ci, chunk_log) in merged {
            if ci < completed_chunks {
                rejected.extend(chunk_log);
            }
        }
        if completed_chunks == chunk_count {
            return BatchRun::Completed;
        }
    }
    // Deadline cut in: wipe everything past the chunk-aligned completed
    // prefix back to NaN (chunks may finish out of order past a gap).
    let completed = (completed_chunks * chunk).min(len);
    for slot in &mut values[completed..] {
        *slot = f64::NAN;
    }
    BatchRun::DeadlineExceeded { completed }
}

/// Serial fallback when the `parallel` feature is disabled: same output,
/// one worker, point-aligned budget cut-off.
#[cfg(not(feature = "parallel"))]
#[allow(clippy::too_many_arguments)]
fn fill_chunked(
    _workers: usize,
    values: &mut [f64],
    rejected: &mut Vec<RejectedPoint>,
    kernel: &(impl Fn(&[f64]) -> f64 + Sync),
    load: impl Fn(&mut [f64], usize) + Sync,
    axes: usize,
    budget: &EvalBudget,
) -> BatchRun {
    let mut scratch = vec![0.0; axes];
    for (index, slot) in values.iter_mut().enumerate() {
        if budget.exhausted_at(index) {
            return BatchRun::DeadlineExceeded { completed: index };
        }
        load(&mut scratch, index);
        let v = kernel(&scratch);
        if v.is_finite() {
            *slot = v;
        } else {
            *slot = f64::NAN;
            rejected.push(RejectedPoint { index, reason: non_finite_reason(v) });
        }
    }
    BatchRun::Completed
}

/// [`fill_chunked`]'s block-vectorized twin: the same chunked
/// work-stealing engine (slot mutexes, atomic chunk cursor, per-chunk logs
/// merged in chunk order, chunk-aligned budget prefix), but each stolen
/// chunk is evaluated through `fill(state, global_range, out_slice)` in
/// whole blocks instead of point-by-point. `make_state` builds one
/// per-worker scratch state (unit for sweeps over borrowed batch columns;
/// reusable sample columns for Monte-Carlo), so workers share nothing
/// mutable.
///
/// Inside a chunk the [`EvalBudget`] is consulted on
/// [`block_points`]-sized boundaries — the per-point engine's
/// check-interval granularity — and expiry leaves the chunk unfinished,
/// producing the identical chunk-aligned completed-prefix contract.
#[cfg(feature = "parallel")]
fn fill_chunked_block<S>(
    workers: usize,
    values: &mut [f64],
    rejected: &mut Vec<RejectedPoint>,
    make_state: &(impl Fn() -> S + Sync),
    fill: &(impl Fn(&mut S, Range<usize>, &mut [f64]) + Sync),
    budget: &EvalBudget,
) -> BatchRun {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Mutex, PoisonError};

    let len = values.len();
    if len == 0 {
        return BatchRun::Completed;
    }
    let chunk = chunk_points(len, workers);
    let block = block_points(budget, chunk);
    let completed_chunks;
    {
        let slots: Vec<Mutex<Option<&mut [f64]>>> =
            values.chunks_mut(chunk).map(|c| Mutex::new(Some(c))).collect();
        let chunk_count = slots.len();
        let done: Vec<AtomicBool> = (0..chunk_count).map(|_| AtomicBool::new(false)).collect();
        let cursor = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let logs: Mutex<Vec<(usize, Vec<RejectedPoint>)>> = Mutex::new(Vec::new());
        crate::pool::run(workers, &|| {
            let mut state = make_state();
            let mut local: Vec<(usize, Vec<RejectedPoint>)> = Vec::new();
            'steal: while !stop.load(Ordering::Relaxed) {
                let ci = cursor.fetch_add(1, Ordering::Relaxed);
                if ci >= chunk_count {
                    break;
                }
                let taken = slots[ci].lock().unwrap_or_else(PoisonError::into_inner).take();
                let Some(slice) = taken else { continue };
                let start = ci * chunk;
                let mut offset = 0;
                while offset < slice.len() {
                    if budget.deadline.is_some() && budget.is_exhausted() {
                        // Leave this chunk unfinished: it marks the end of
                        // the completed prefix. Other workers stop at
                        // their next steal or block boundary.
                        stop.store(true, Ordering::Relaxed);
                        continue 'steal;
                    }
                    let end = (offset + block).min(slice.len());
                    fill(&mut state, start + offset..start + end, &mut slice[offset..end]);
                    offset = end;
                }
                let mut chunk_log: Vec<RejectedPoint> = Vec::new();
                record_non_finite(slice, start, &mut chunk_log);
                done[ci].store(true, Ordering::Release);
                if !chunk_log.is_empty() {
                    local.push((ci, chunk_log));
                }
            }
            if !local.is_empty() {
                logs.lock().unwrap_or_else(PoisonError::into_inner).extend(local);
            }
        });
        completed_chunks = done.iter().take_while(|flag| flag.load(Ordering::Acquire)).count();
        let mut merged = logs.into_inner().unwrap_or_else(PoisonError::into_inner);
        merged.sort_unstable_by_key(|&(ci, _)| ci);
        for (ci, chunk_log) in merged {
            if ci < completed_chunks {
                rejected.extend(chunk_log);
            }
        }
        if completed_chunks == chunk_count {
            return BatchRun::Completed;
        }
    }
    // Deadline cut in: wipe everything past the chunk-aligned completed
    // prefix back to NaN (chunks may finish out of order past a gap, and
    // the cut-off chunk may hold partial blocks).
    let completed = (completed_chunks * chunk).min(len);
    for slot in &mut values[completed..] {
        *slot = f64::NAN;
    }
    BatchRun::DeadlineExceeded { completed }
}

/// Serial fallback when the `parallel` feature is disabled: same output,
/// one worker, block-aligned budget cut-off.
#[cfg(not(feature = "parallel"))]
fn fill_chunked_block<S>(
    _workers: usize,
    values: &mut [f64],
    rejected: &mut Vec<RejectedPoint>,
    make_state: &(impl Fn() -> S + Sync),
    fill: &(impl Fn(&mut S, Range<usize>, &mut [f64]) + Sync),
    budget: &EvalBudget,
) -> BatchRun {
    let len = values.len();
    let mut state = make_state();
    let block = block_points(budget, len);
    let mut start = 0;
    while start < len {
        if budget.deadline.is_some() && budget.is_exhausted() {
            return BatchRun::DeadlineExceeded { completed: start };
        }
        let end = (start + block).min(len);
        fill(&mut state, start..end, &mut values[start..end]);
        record_non_finite(&mut values[start..end], start, rejected);
        start = end;
    }
    BatchRun::Completed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::par_try_monte_carlo_with;
    use crate::sweep::par_sweep_finite_with;

    fn kernel(point: &[f64]) -> f64 {
        1.0 / point[0]
    }

    #[test]
    fn batch_construction_and_gather() {
        let batch = PointBatch::from_columns(vec![vec![1.0, 2.0, 3.0], vec![10.0, 20.0, 30.0]]);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.axis_count(), 2);
        assert_eq!(batch.column(1), &[10.0, 20.0, 30.0]);
        let mut point = [0.0; 2];
        batch.gather(2, &mut point);
        assert_eq!(point, [3.0, 30.0]);
    }

    #[test]
    #[should_panic(expected = "at least one axis")]
    fn empty_batch_rejected() {
        let _ = PointBatch::from_columns(Vec::new());
    }

    #[test]
    #[should_panic(expected = "column 0 has")]
    fn ragged_batch_rejected() {
        let _ = PointBatch::from_columns(vec![vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    fn serial_sweep_matches_per_point_path() {
        let params = vec![4.0, 0.0, -2.0, f64::NAN, 1.0];
        let reference = par_sweep_finite_with(Parallelism::Serial, params.clone(), kernel_ref);
        let batch = PointBatch::single_axis(params);
        let mut out = BatchOutput::new();
        sweep_compiled(&batch, kernel, &mut out);
        assert_eq!(out.rejected(), &reference.rejected[..]);
        let mut finite = out.values().iter().copied().filter(|v| v.is_finite());
        for (_, expected) in &reference.results {
            assert_eq!(finite.next().unwrap().to_bits(), expected.to_bits());
        }
        assert!(finite.next().is_none());
    }

    fn kernel_ref(x: &f64) -> f64 {
        1.0 / x
    }

    #[test]
    fn parallel_sweep_is_thread_count_invariant() {
        let params: Vec<f64> = (0..1000).map(|i| f64::from(i) - 500.0).collect();
        let batch = PointBatch::single_axis(params);
        let mut serial = BatchOutput::new();
        sweep_compiled(&batch, kernel, &mut serial);
        for threads in [2usize, 3, 8] {
            let mut parallel = BatchOutput::new();
            par_sweep_compiled_with(
                Parallelism::threads(threads),
                &batch,
                kernel,
                &mut parallel,
            );
            assert_eq!(parallel.rejected(), serial.rejected());
            assert_eq!(parallel.values().len(), serial.values().len());
            for (a, b) in parallel.values().iter().zip(serial.values()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn rejected_slots_are_nan_and_ordered() {
        let batch = PointBatch::single_axis(vec![1.0, 0.0, 2.0, 0.0]);
        let mut out = BatchOutput::new();
        par_sweep_compiled_with(Parallelism::threads(4), &batch, kernel, &mut out);
        assert!(out.values()[1].is_nan() && out.values()[3].is_nan());
        assert_eq!(out.rejected().iter().map(|r| r.index).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(out.rejected()[0].reason, "model produced a non-finite result (inf)");
        assert!(!out.is_clean());
        assert_eq!(out.rejected_count(), 2);
    }

    #[test]
    fn buffer_reuse_resets_state() {
        let mut out = BatchOutput::new();
        sweep_compiled(&PointBatch::single_axis(vec![0.0, 0.0]), kernel, &mut out);
        assert_eq!(out.rejected_count(), 2);
        sweep_compiled(&PointBatch::single_axis(vec![1.0]), kernel, &mut out);
        assert_eq!(out.rejected_count(), 0);
        assert_eq!(out.values(), &[1.0]);
        out.clear();
        assert!(out.values().is_empty() && out.is_clean());
    }

    #[test]
    fn empty_batch_sweeps_cleanly() {
        let batch = PointBatch::single_axis(Vec::new());
        let mut out = BatchOutput::new();
        par_sweep_compiled_with(Parallelism::threads(8), &batch, kernel, &mut out);
        assert!(out.values().is_empty());
        assert!(out.is_clean());
    }

    #[test]
    fn mc_compiled_matches_per_point_monte_carlo() {
        let model = |rng: &mut Rng| {
            let y: f64 = rng.gen_range(-0.1..1.0);
            1370.0 / y.max(0.0)
        };
        let mut buf = McBuffer::new();
        for threads in [1usize, 2, 8] {
            let compiled = par_monte_carlo_compiled_with(
                Parallelism::threads(threads),
                2_000,
                13,
                1,
                |rng, point| point[0] = rng.gen_range(-0.1..1.0),
                |point| 1370.0 / point[0].max(0.0),
                &mut buf,
            )
            .unwrap();
            let reference =
                par_try_monte_carlo_with(Parallelism::Serial, 2_000, 13, model).unwrap();
            assert_eq!(compiled, reference);
            assert!(compiled.rejected > 0);
        }
    }

    #[test]
    fn unlimited_budget_matches_unbudgeted_sweep_bitwise() {
        let batch = PointBatch::single_axis(vec![4.0, 0.0, -2.0, f64::NAN, 1.0]);
        let mut plain = BatchOutput::new();
        sweep_compiled(&batch, kernel, &mut plain);
        let mut budgeted = BatchOutput::new();
        let run =
            sweep_compiled_budgeted(&batch, kernel, &mut budgeted, &EvalBudget::unlimited());
        assert_eq!(run, BatchRun::Completed);
        assert!(run.is_complete());
        assert_eq!(budgeted.rejected(), plain.rejected());
        for (a, b) in budgeted.values().iter().zip(plain.values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn expired_budget_stops_before_the_first_point() {
        let deadline = Instant::now() - std::time::Duration::from_millis(1);
        let batch = PointBatch::single_axis(vec![1.0, 2.0, 3.0]);
        let mut out = BatchOutput::new();
        let run = sweep_compiled_budgeted(
            &batch,
            kernel,
            &mut out,
            &EvalBudget::with_deadline(deadline).check_every(1),
        );
        assert_eq!(run, BatchRun::DeadlineExceeded { completed: 0 });
        assert!(out.values().iter().all(|v| v.is_nan()));
        assert!(out.is_clean(), "cut-off points must not be recorded as rejections");
    }

    #[test]
    fn mid_run_expiry_keeps_a_bitwise_identical_prefix() {
        // A kernel that burns the clock past the deadline on point 2, with
        // the check interval at 1 so the cut-off lands exactly on point 3.
        let deadline = Instant::now() + std::time::Duration::from_millis(100);
        let slow = |p: &[f64]| {
            if p[0] == 2.0 {
                while Instant::now() < deadline + std::time::Duration::from_millis(1) {
                    std::hint::spin_loop();
                }
            }
            1.0 / p[0]
        };
        let batch = PointBatch::single_axis(vec![4.0, 0.0, 2.0, 8.0, 16.0]);
        let mut out = BatchOutput::new();
        let run = sweep_compiled_budgeted(
            &batch,
            slow,
            &mut out,
            &EvalBudget::with_deadline(deadline).check_every(1),
        );
        assert_eq!(run, BatchRun::DeadlineExceeded { completed: 3 });
        let mut reference = BatchOutput::new();
        sweep_compiled(&batch, kernel, &mut reference);
        for (i, (got, want)) in out.values()[..3].iter().zip(reference.values()).enumerate() {
            assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "prefix diverged at {i}"
            );
        }
        assert!(out.values()[3].is_nan() && out.values()[4].is_nan());
        // The rejection log covers only the completed prefix (point 1).
        assert_eq!(out.rejected().iter().map(|r| r.index).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn budget_check_interval_clamps_and_reports() {
        assert_eq!(
            EvalBudget::unlimited().check_interval(),
            EvalBudget::DEFAULT_CHECK_INTERVAL
        );
        assert_eq!(EvalBudget::unlimited().check_every(0).check_interval(), 1);
        assert!(!EvalBudget::unlimited().is_exhausted());
    }

    #[test]
    fn budgeted_mc_completes_like_the_parallel_path() {
        let mut buf = McBuffer::new();
        let sampler = |rng: &mut Rng, point: &mut [f64]| point[0] = rng.gen_range(-0.1..1.0);
        let mc_kernel = |point: &[f64]| 1370.0 / point[0].max(0.0);
        let (outcome, run) = monte_carlo_compiled_budgeted(
            2_000,
            13,
            1,
            sampler,
            mc_kernel,
            &mut buf,
            &EvalBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(run, BatchRun::Completed);
        let mut reference_buf = McBuffer::new();
        let reference = par_monte_carlo_compiled_with(
            Parallelism::Serial,
            2_000,
            13,
            1,
            sampler,
            mc_kernel,
            &mut reference_buf,
        )
        .unwrap();
        assert_eq!(outcome, reference);
    }

    #[test]
    fn budgeted_mc_summarizes_the_completed_prefix() {
        let mut buf = McBuffer::new();
        let sampler = |rng: &mut Rng, point: &mut [f64]| point[0] = rng.gen_range(0.5..1.0);
        let mc_kernel = |point: &[f64]| point[0];
        // Deadline already passed: zero draws complete -> NoSamples.
        let expired =
            EvalBudget::with_deadline(Instant::now() - std::time::Duration::from_millis(1))
                .check_every(1);
        assert_eq!(
            monte_carlo_compiled_budgeted(100, 7, 1, sampler, mc_kernel, &mut buf, &expired),
            Err(McError::NoSamples)
        );
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn chunk_sizing_has_stealing_slack_and_cache_cap() {
        // Small batches: at least one point per chunk, ≥ 4 chunks/worker.
        assert_eq!(chunk_points(4, 4), 1);
        assert_eq!(chunk_points(1000, 2), 125);
        // Large batches cap at the cache-friendly maximum.
        assert_eq!(chunk_points(1_000_000, 8), MAX_CHUNK_POINTS);
        // Degenerate worker counts never panic or return zero.
        assert!(chunk_points(10, 0) >= 1);
        assert!(chunk_points(0, 3) >= 1);
    }

    #[test]
    fn budgeted_parallel_sweep_matches_serial_bitwise_when_unlimited() {
        let params: Vec<f64> = (0..5000).map(|i| f64::from(i) - 2500.0).collect();
        let batch = PointBatch::single_axis(params);
        let mut serial = BatchOutput::new();
        sweep_compiled(&batch, kernel, &mut serial);
        for threads in [2usize, 3, 8] {
            let mut parallel = BatchOutput::new();
            let run = par_sweep_compiled_budgeted(
                Parallelism::threads(threads),
                &batch,
                kernel,
                &mut parallel,
                &EvalBudget::unlimited(),
            );
            assert_eq!(run, BatchRun::Completed);
            assert_eq!(parallel.rejected(), serial.rejected());
            for (a, b) in parallel.values().iter().zip(serial.values()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn budgeted_parallel_sweep_reports_an_empty_prefix_when_expired() {
        let deadline = Instant::now() - std::time::Duration::from_millis(1);
        let batch = PointBatch::single_axis((0..500).map(f64::from).collect());
        let mut out = BatchOutput::new();
        let run = par_sweep_compiled_budgeted(
            Parallelism::threads(4),
            &batch,
            kernel,
            &mut out,
            &EvalBudget::with_deadline(deadline).check_every(1),
        );
        assert_eq!(run, BatchRun::DeadlineExceeded { completed: 0 });
        assert!(out.values().iter().all(|v| v.is_nan()));
        assert!(out.is_clean(), "cut-off points must not be recorded as rejections");
    }

    #[test]
    fn budgeted_parallel_sweep_prefix_is_chunk_aligned_and_bitwise() {
        // A deadline that expires mid-run: whatever prefix completes must
        // be bitwise identical to the serial sweep, NaN after it, and the
        // rejection log confined to the prefix.
        let deadline = Instant::now() + std::time::Duration::from_micros(200);
        let params: Vec<f64> = (0..20_000).map(|i| f64::from(i) - 10_000.0).collect();
        let batch = PointBatch::single_axis(params);
        let mut reference = BatchOutput::new();
        sweep_compiled(&batch, kernel, &mut reference);
        let mut out = BatchOutput::new();
        let slow = |p: &[f64]| std::hint::black_box(kernel(p));
        let run = par_sweep_compiled_budgeted(
            Parallelism::threads(4),
            &batch,
            slow,
            &mut out,
            &EvalBudget::with_deadline(deadline).check_every(64),
        );
        let completed = match run {
            BatchRun::Completed => batch.len(),
            BatchRun::DeadlineExceeded { completed } => completed,
        };
        for (i, (got, want)) in
            out.values()[..completed].iter().zip(reference.values()).enumerate()
        {
            assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "prefix diverged at {i}"
            );
        }
        assert!(out.values()[completed..].iter().all(|v| v.is_nan()));
        assert!(out.rejected().iter().all(|r| r.index < completed));
    }

    #[test]
    fn budgeted_parallel_mc_completes_like_the_serial_twin() {
        let sampler = |rng: &mut Rng, point: &mut [f64]| point[0] = rng.gen_range(-0.1..1.0);
        let mc_kernel = |point: &[f64]| 1370.0 / point[0].max(0.0);
        let mut serial_buf = McBuffer::new();
        let (serial, _) = monte_carlo_compiled_budgeted(
            2_000,
            13,
            1,
            sampler,
            mc_kernel,
            &mut serial_buf,
            &EvalBudget::unlimited(),
        )
        .unwrap();
        for threads in [2usize, 8] {
            let mut buf = McBuffer::new();
            let (outcome, run) = par_monte_carlo_compiled_budgeted(
                Parallelism::threads(threads),
                2_000,
                13,
                1,
                sampler,
                mc_kernel,
                &mut buf,
                &EvalBudget::unlimited(),
            )
            .unwrap();
            assert_eq!(run, BatchRun::Completed);
            assert_eq!(outcome, serial);
            assert_eq!(buf.draws().len(), serial_buf.draws().len());
        }
    }

    #[test]
    fn budgeted_parallel_mc_reports_no_samples_when_expired() {
        let mut buf = McBuffer::new();
        let sampler = |rng: &mut Rng, point: &mut [f64]| point[0] = rng.gen_range(0.5..1.0);
        let mc_kernel = |point: &[f64]| point[0];
        let expired =
            EvalBudget::with_deadline(Instant::now() - std::time::Duration::from_millis(1))
                .check_every(1);
        assert_eq!(
            par_monte_carlo_compiled_budgeted(
                Parallelism::threads(4),
                100,
                7,
                1,
                sampler,
                mc_kernel,
                &mut buf,
                &expired
            )
            .map(|(outcome, _)| outcome),
            Err(McError::NoSamples)
        );
    }

    #[test]
    fn mc_compiled_reports_degenerate_runs() {
        let mut buf = McBuffer::new();
        let sampler = |_: &mut Rng, point: &mut [f64]| point[0] = 0.0;
        assert_eq!(
            par_monte_carlo_compiled(0, 0, 1, sampler, kernel, &mut buf),
            Err(McError::NoSamples)
        );
        assert_eq!(
            par_monte_carlo_compiled(10, 0, 1, sampler, kernel, &mut buf),
            Err(McError::AllRejected { rejected: 10 })
        );
        assert_eq!(buf.draws().len(), 10);
        assert!(buf.draws().iter().all(|v| v.is_nan()));
    }
}
