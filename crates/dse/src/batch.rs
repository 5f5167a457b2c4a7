//! Structure-of-arrays batch evaluation for compiled block kernels: the
//! one sweep and Monte-Carlo engine.
//!
//! Design points live in a [`PointBatch`] (one contiguous column per free
//! axis), results land in a caller-owned reusable [`BatchOutput`], and the
//! model is a **block kernel** — any `Fn(&[&[f64]], Range<usize>, &mut
//! [f64])` that evaluates points `range` of a column set into an output
//! slice, typically `act_core::EvalPlan::eval_block`. The kernel reads
//! columns directly in auto-vectorized blocks, so the hot loop performs no
//! per-point gather, enum dispatch, or heap allocation.
//!
//! The engine guarantees:
//!
//! * **skip-and-record** — a non-finite kernel result does not abort the
//!   sweep; the point's output slot is poisoned to NaN and a
//!   [`RejectedPoint`] reading `model produced a non-finite result (v)`
//!   is recorded, in sweep order;
//! * **thread-count invariance** — the parallel entry points partition the
//!   output buffer into cache-friendly contiguous chunks
//!   (`slice::chunks_mut`, no `unsafe`) and hand chunk indices to the
//!   persistent worker pool through an atomic cursor (work stealing), and
//!   each point's value depends only on its coordinates, so every thread
//!   count gives bit-for-bit identical output;
//! * **deterministic seed-splitting** — [`par_monte_carlo_compiled_block_with`]
//!   seeds sample `i` with [`mc_sample_seed`]`(seed, i)`, so each draw
//!   depends on `(seed, i)` alone and the outcome is invariant under the
//!   thread count too. A model that is one closure over the RNG is the
//!   special case of a sampler that writes `model(rng)` into column 0 and
//!   a kernel that copies column 0;
//! * **cooperative deadlines** — the `_budgeted` entry points consult an
//!   [`EvalBudget`] on block boundaries and stop at a completed prefix that
//!   is bit-identical to the unbudgeted run.
//!
//! Every entry point takes a [`Parallelism`] policy except
//! [`sweep_compiled_block`], the serial convenience form. Every worker
//! count runs through the one chunked engine; `Parallelism::Serial` (or
//! `threads(1)`) runs it on the calling thread, one budget block per
//! chunk.

use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use act_core::wide::{run_wide, Body, Instance};
use act_rng::Rng;

use crate::montecarlo::{
    decode_draw, encode_draws, mc_sample_seed, summarize, McError, McOutcome, TailScratch,
};
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
    /// by default — the block size of a budgeted run. `Instant::now` costs
    /// tens of nanoseconds; a compiled kernel point costs a few — checking
    /// every 1024 points keeps the overhead under 1 % while bounding
    /// overshoot to ~a microsecond.
    pub const DEFAULT_CHECK_INTERVAL: usize = 1024;

    /// A budget that never expires: a budgeted run behaves exactly like an
    /// unbudgeted one.
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
/// is just the swept values and a block kernel reads point `i` as
/// `columns[0][i], columns[1][i], ...`.
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
/// let columns = grid.column_slices();
/// assert_eq!((columns[0][1], columns[1][1]), (2.0, 20.0));
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
}

/// Reusable output buffer for the block sweeps: one value per design point
/// plus the skip-and-record rejection log.
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

    /// Drops the previous sweep's rejections and sizes the value buffer
    /// for `len` points, retaining allocated capacity. The kept values are
    /// not refilled — only a grown tail is written (with NaN) — because
    /// the engine writes every slot of a completed run and the sweep
    /// wipes every slot past a deadline prefix back to NaN.
    fn reset(&mut self, len: usize) {
        self.values.resize(len, f64::NAN);
        self.rejected.clear();
    }
}

/// The reason a non-finite kernel result is rejected with.
fn non_finite_reason(v: f64) -> String {
    format!("model produced a non-finite result ({v})")
}

/// Reusable sample buffer for the block Monte-Carlo entry points: one
/// `u64` per sample, plus the bounded scratch of the run's tail.
///
/// A run stores each draw as its `f64::total_cmp` order key, which the
/// workers write straight from their own per-block scratch (at most
/// 4096 values each), so the buffer costs 8 bytes per sample. Beside the
/// keys it keeps what the percentile tail reuses from run to run: a
/// strided subsample of at most 4096 keys and one gather buffer per
/// percentile bracket of at most 2^16 keys each (together about 33k
/// keys, 0.26 MB, after a 200k-sample run). The tail takes the mean and
/// gathers the brackets without moving a key; only when a bracket misses
/// its rank or overflows, or the run has at most 4096 samples, are the
/// percentiles selected on the keys in place, which permutes them. So
/// after a run the buffer holds the completed prefix's draws in no
/// particular order. Reuse one buffer across runs to amortize its
/// allocations.
#[derive(Debug, Default)]
pub struct McBuffer {
    keys: Vec<u64>,
    tail: TailScratch,
}

impl Clone for McBuffer {
    fn clone(&self) -> Self {
        Self { keys: self.keys.clone(), tail: self.tail.clone() }
    }

    /// Copies `source` into this buffer's allocations, which grow only
    /// where `source` holds more: restoring a run's keys into a buffer
    /// that summarizes them ([`McBuffer::summarize`]) reallocates nothing.
    fn clone_from(&mut self, source: &Self) {
        self.keys.clone_from(&source.keys);
        self.tail.clone_from(&source.tail);
    }
}

impl McBuffer {
    /// An empty buffer; the first run sizes it.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Every draw of the last run's completed prefix, decoded, in
    /// unspecified order (the percentile selection may permute them);
    /// rejected (non-finite) draws read NaN regardless of whether the
    /// model produced NaN or ±∞.
    pub fn draws(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        self.keys.iter().map(|&key| decode_draw(key))
    }

    /// The statistics of the draws the buffer holds, computed as the tail
    /// of a run computes them, on `parallelism`'s workers: the tail on
    /// its own, for timing it. The mean sums the draws in the buffer's
    /// order, which after a run is sample order unless its percentile
    /// selection permuted them; the percentiles and counts do not depend
    /// on the order.
    ///
    /// # Errors
    ///
    /// [`McError::NoSamples`] for an empty buffer and
    /// [`McError::AllRejected`] when no draw it holds is finite.
    pub fn summarize(&mut self, parallelism: Parallelism) -> Result<McOutcome, McError> {
        let len = self.keys.len();
        if len == 0 {
            return Err(McError::NoSamples);
        }
        let workers = parallelism.resolve_for(len).workers;
        summarize(&mut self.keys, workers, &mut self.tail)
    }
}

/// Points per budget block. With a deadline the block is the budget's
/// check interval (capped at [`MAX_CHUNK_POINTS`]), so the clock is read
/// once per [`EvalBudget::check_interval`] points; without one, the whole
/// span goes to the kernel in a single call.
fn block_points(budget: &EvalBudget, span: usize) -> usize {
    if budget.deadline.is_some() {
        budget.check_interval.clamp(1, MAX_CHUNK_POINTS)
    } else {
        span.max(1)
    }
}

/// The skip-and-record scan after a sweep block: canonicalizes
/// non-finite results to NaN and records one [`RejectedPoint`] per
/// offender in `log`, with `start` the global index of `slice[0]`. The
/// reason string uses the raw value (±∞ or NaN).
///
/// A block is almost always all finite, so a branch-free fold tests that
/// first ([`AllFinite`], in the host's widest instance) and the per-slot
/// loop, and the lock on the shared log, run only on a block that holds
/// an offender.
fn record_non_finite(slice: &mut [f64], start: usize, log: &Mutex<Vec<RejectedPoint>>) {
    if run_wide(AllFinite(slice)) {
        return;
    }
    let mut rejected = Vec::new();
    for (offset, slot) in slice.iter_mut().enumerate() {
        let v = *slot;
        if !v.is_finite() {
            *slot = f64::NAN;
            rejected
                .push(RejectedPoint { index: start + offset, reason: non_finite_reason(v) });
        }
    }
    lock(log).extend(rejected);
}

/// `true` when every value is finite: a fold with no early exit, so the
/// loop vectorizes.
struct AllFinite<'a>(&'a [f64]);

impl Body for AllFinite<'_> {
    type Output = bool;

    #[inline(always)]
    fn run<I: Instance>(self) -> bool {
        self.0.iter().fold(true, |clean, v| clean & v.is_finite())
    }
}

/// Locks ignoring poison: a panicking kernel resumes on the caller once
/// the pool has stopped, and nothing reads a half-written log after that.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Evaluates the whole batch on the calling thread through a block kernel
/// — `block_kernel(columns, range, out)` fills `out` with the results for
/// points `range` of the structure-of-arrays `columns` — with
/// skip-and-record semantics: [`par_sweep_compiled_block_with`] under
/// [`Parallelism::Serial`].
///
/// The kernel must write every slot of `out`. The engine does not refill
/// `out`'s values before a sweep, so a slot the kernel skipped would
/// keep whatever a previous sweep left there.
///
/// With `act_core::EvalPlan::eval_block` as the kernel, results are
/// bit-for-bit identical to evaluating `CompiledFootprint::eval` (or the
/// interpreted model) point by point, just several times faster: no
/// per-point gather, no per-point enum dispatch, lane loops the compiler
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
    block_kernel: impl Fn(&[&[f64]], Range<usize>, &mut [f64]) + Sync,
    out: &mut BatchOutput,
) {
    par_sweep_compiled_block_with(Parallelism::Serial, batch, block_kernel, out);
}

/// [`sweep_compiled_block`] under an explicit [`Parallelism`] policy.
///
/// The output buffer is partitioned into cache-friendly contiguous chunks
/// of at most 4096 points, and the persistent worker pool
/// steals chunk *indices* from an atomic cursor, so a skewed kernel cannot
/// strand a whole static partition on one worker. Each stolen chunk goes
/// to the block kernel as whole column ranges, and per-chunk rejection
/// logs are merged back in chunk order, so [`BatchOutput::rejected`] stays
/// in sweep order. A machine-default [`Parallelism::Auto`] additionally
/// consults the break-even [`calibration`](crate::calibration): batches
/// below the calibrated threshold run serial, because pool dispatch would
/// cost more than it saves. Bit-for-bit identical for any thread count.
///
/// As for [`sweep_compiled_block`], the kernel writes every slot of its
/// output slice; the engine never refills the buffer.
pub fn par_sweep_compiled_block_with(
    parallelism: Parallelism,
    batch: &PointBatch,
    block_kernel: impl Fn(&[&[f64]], Range<usize>, &mut [f64]) + Sync,
    out: &mut BatchOutput,
) {
    let run = par_sweep_compiled_block_budgeted(
        parallelism,
        batch,
        block_kernel,
        out,
        &EvalBudget::unlimited(),
    );
    debug_assert!(run.is_complete(), "an unlimited budget cannot expire");
}

/// [`par_sweep_compiled_block_with`] under a cooperative [`EvalBudget`]:
/// when the deadline passes, the run stops at a **completed prefix** —
/// chunk-aligned, and one worker's chunk is one budget block. The
/// completed prefix is bit-for-bit identical to an unbudgeted run, every
/// slot past it holds NaN, and the rejection log covers exactly the
/// completed prefix. Inside each chunk the budget is consulted on block
/// boundaries, so the clock is read once per
/// [`check_interval`](EvalBudget::check_interval) points. The kernel
/// writes every slot of its output slice: the engine refills nothing but
/// the slots past a cut-off.
///
/// # Examples
///
/// ```
/// use act_dse::{par_sweep_compiled_block_budgeted, BatchOutput, BatchRun, EvalBudget};
/// use act_dse::{Parallelism, PointBatch};
///
/// let batch = PointBatch::single_axis(vec![1.0, 2.0, 4.0]);
/// let mut out = BatchOutput::new();
/// let run = par_sweep_compiled_block_budgeted(
///     Parallelism::Serial,
///     &batch,
///     |cols, range, out| {
///         for (slot, &x) in out.iter_mut().zip(&cols[0][range]) {
///             *slot = 1.0 / x;
///         }
///     },
///     &mut out,
///     &EvalBudget::unlimited(),
/// );
/// assert_eq!(run, BatchRun::Completed);
/// assert_eq!(out.values(), &[1.0, 0.5, 0.25]);
/// ```
pub fn par_sweep_compiled_block_budgeted(
    parallelism: Parallelism,
    batch: &PointBatch,
    block_kernel: impl Fn(&[&[f64]], Range<usize>, &mut [f64]) + Sync,
    out: &mut BatchOutput,
    budget: &EvalBudget,
) -> BatchRun {
    let len = batch.len();
    let workers = parallelism.resolve_for(len).workers;
    out.reset(len);
    let columns = batch.column_slices();
    // Blocks log their rejections as they finish, in any order; sorting
    // by index puts the log back in sweep order.
    let log = Mutex::new(std::mem::take(&mut out.rejected));
    let run = fill_chunked_block(
        workers,
        &mut out.values,
        &|| (),
        &|_, range: Range<usize>, slice: &mut [f64]| {
            block_kernel(&columns, range.clone(), slice);
            record_non_finite(slice, range.start, &log);
        },
        budget,
    );
    out.rejected = log.into_inner().unwrap_or_else(PoisonError::into_inner);
    out.rejected.sort_unstable_by_key(|rejected| rejected.index);
    if let BatchRun::DeadlineExceeded { completed } = run {
        // Blocks past the completed prefix may have finished (chunks
        // finish out of order past a gap, and the cut-off chunk may hold
        // partial blocks): wipe them back to NaN and drop their log.
        out.values[completed..].fill(f64::NAN);
        out.rejected.retain(|rejected| rejected.index < completed);
    }
    run
}

/// Deterministic, fault-tolerant Monte-Carlo over a block kernel under an
/// explicit [`Parallelism`] policy.
///
/// `sampler(rng, k, columns)` draws point `k`'s coordinates into slot `k`
/// of each of the `axes` columns, with the RNG seeded per *sample* by
/// [`mc_sample_seed`]`(seed, index)`; `block_kernel` then maps whole column
/// ranges to values. Sample `i`'s value depends on `(seed, i)` alone, so
/// the outcome is **bit-identical** under any thread count, chunking, and
/// block size. Every worker keeps its own sample columns. Non-finite
/// draws are skipped and counted.
///
/// The sampler writes slot `k` of every column for each sample `k`, and
/// the kernel every slot of its output: neither the columns nor the
/// draws are refilled between blocks or runs (see [`BlockSampler`]).
///
/// # Errors
///
/// Returns [`McError::NoSamples`] if `samples` is zero and
/// [`McError::AllRejected`] if every draw was non-finite.
///
/// # Examples
///
/// ```
/// use act_dse::{par_monte_carlo_compiled_block_with, McBuffer, Parallelism};
///
/// // Footprint = area x CPA where yield is uncertain in [0.7, 1.0].
/// let mut buf = McBuffer::new();
/// let outcome = par_monte_carlo_compiled_block_with(
///     Parallelism::Auto,
///     2_000,
///     42,
///     1,
///     |rng, k, columns| columns[0][k] = rng.gen_range(0.7..1.0),
///     |columns, range, out| {
///         for (slot, &y) in out.iter_mut().zip(&columns[0][range]) {
///             *slot = 0.9 * 1370.0 / y;
///         }
///     },
///     &mut buf,
/// )?;
/// let stats = outcome.stats;
/// assert_eq!((stats.samples, outcome.rejected), (2_000, 0));
/// assert!(stats.p05 < stats.mean && stats.mean < stats.p95);
/// # Ok::<(), act_dse::McError>(())
/// ```
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

/// How a block Monte-Carlo run draws its samples into columns.
///
/// Sample `i` of a run keyed by `seed` must depend on `(seed, i)` alone —
/// drawn from `Rng::seed_from_u64(`[`mc_sample_seed`]`(seed, i))` — which
/// is what keeps the outcome bit-identical for every thread count,
/// chunking and deadline.
///
/// Every per-sample closure `Fn(&mut Rng, usize, &mut [Vec<f64>]) +
/// Sync` is a sampler: the blanket impl seeds each sample's RNG in turn
/// and lets the closure write slot `k` of the columns. A sampler that can
/// do better on a whole block (draw every sample's raw uniforms first,
/// then transform them column by column, as the scenario fleet does)
/// implements [`sample_block`](Self::sample_block) itself.
pub trait BlockSampler: Sync {
    /// Per-worker scratch, reused across blocks (unit for closures).
    type Scratch: Default;

    /// Draws samples `range` (global sample indices) into slots
    /// `0..range.len()` of `columns`, which the engine has sized to
    /// `range.len()` each.
    ///
    /// It must write every one of those slots in every column. The engine
    /// only resizes a worker's columns between blocks and never zeroes
    /// them, so a slot left unwritten would hold an earlier block's draw,
    /// and the outcome would depend on the chunking.
    fn sample_block(
        &self,
        seed: u64,
        range: Range<usize>,
        columns: &mut [Vec<f64>],
        scratch: &mut Self::Scratch,
    );
}

impl<F> BlockSampler for F
where
    F: Fn(&mut Rng, usize, &mut [Vec<f64>]) + Sync,
{
    type Scratch = ();

    fn sample_block(
        &self,
        seed: u64,
        range: Range<usize>,
        columns: &mut [Vec<f64>],
        _: &mut (),
    ) {
        for (k, index) in range.enumerate() {
            let mut rng = Rng::seed_from_u64(mc_sample_seed(seed, index as u64));
            self(&mut rng, k, columns);
        }
    }
}

/// [`par_monte_carlo_compiled_block_with`] under a cooperative
/// [`EvalBudget`]: when the deadline cuts in, the run summarizes the
/// **completed prefix** of samples (chunk-aligned, and one worker's chunk
/// is one budget block), which seed-splitting makes bit-identical to the
/// same prefix of an unbudgeted run: the outcome equals an unbudgeted
/// run of that many samples, bit for bit. After the call,
/// [`McBuffer::draws`] holds exactly the completed prefix's draws (in no
/// particular order).
///
/// The sampler is any [`BlockSampler`]: a per-sample closure, as for
/// [`par_monte_carlo_compiled_block_with`], or a type that fills a whole
/// block at once. Every worker keeps its own sample columns and sampler
/// scratch and a draw block of at most 4096 values, which it encodes as
/// order keys into its chunk of the buffer; after the pool joins, one
/// pass over the keys takes the sample-order mean while the other
/// workers gather and select the percentiles from a bracket around each
/// (see [`McBuffer`]). The sampler must write every slot of
/// every column ([`BlockSampler::sample_block`]) and the block kernel
/// every slot of its output: neither is refilled between blocks.
///
/// # Errors
///
/// Returns [`McError::NoSamples`] when `samples` is zero or the budget
/// expired before the first block completed, and [`McError::AllRejected`]
/// when every completed draw was non-finite.
#[allow(clippy::too_many_arguments)]
pub fn par_monte_carlo_compiled_block_budgeted<S: BlockSampler>(
    parallelism: Parallelism,
    samples: usize,
    seed: u64,
    axes: usize,
    sampler: S,
    block_kernel: impl Fn(&[&[f64]], Range<usize>, &mut [f64]) + Sync,
    buf: &mut McBuffer,
    budget: &EvalBudget,
) -> Result<(McOutcome, BatchRun), McError> {
    if samples == 0 {
        buf.keys.clear();
        return Err(McError::NoSamples);
    }
    let workers = parallelism.resolve_for(samples).workers;
    // No refill: the engine writes every completed slot and the buffer is
    // cut to the completed prefix, so the last run's keys never leak
    // through.
    buf.keys.resize(samples, 0);
    let fill = |(columns, scratch, draws): &mut (Vec<Vec<f64>>, S::Scratch, Vec<f64>),
                range: Range<usize>,
                keys: &mut [u64]| {
        let n = range.len();
        // Sized, never zeroed: the sampler writes every column slot and
        // the kernel every draw.
        columns.resize(axes, Vec::new());
        for col in columns.iter_mut() {
            col.resize(n, 0.0);
        }
        draws.resize(n, 0.0);
        sampler.sample_block(seed, range, columns, scratch);
        let column_refs: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
        block_kernel(&column_refs, 0..n, draws);
        encode_draws(draws, keys);
    };
    // No rejection log: the Monte-Carlo contract reports a rejected
    // *count*, which `summarize` takes from the non-finite keys.
    let run = fill_chunked_block(
        workers,
        &mut buf.keys,
        &|| (Vec::new(), S::Scratch::default(), Vec::new()),
        &fill,
        budget,
    );
    let completed = match run {
        BatchRun::Completed => samples,
        BatchRun::DeadlineExceeded { completed } => completed,
    };
    buf.keys.truncate(completed);
    if completed == 0 {
        return Err(McError::NoSamples);
    }
    Ok((summarize(&mut buf.keys, workers, &mut buf.tail)?, run))
}

/// Upper bound on points per work-stealing chunk: 4096 points are 32 KiB
/// of output — small enough to stay cache-resident per steal, large enough
/// that the per-chunk cursor bump and slot lock are noise. A stolen chunk
/// is evaluated as whole column ranges, so it is also the upper bound on
/// points per block kernel call.
const MAX_CHUNK_POINTS: usize = 4096;

/// Most keys in the Monte-Carlo percentile subsample: a run of at most
/// this many keys selects its percentiles in place, since its subsample
/// would be the whole buffer.
pub(crate) const SUBSAMPLE_KEYS: usize = 4096;

/// Smallest stride of the percentile subsample: a bracket around a rank
/// of the subsample then covers a small share of the buffer only when
/// each subsample key stands for many buffer keys.
pub(crate) const SUBSAMPLE_MIN_STRIDE: usize = 16;

/// Half-width of a percentile bracket, in standard deviations of the
/// percentile's position in the subsample: a miss, which costs the
/// in-place selection, is then a ~5σ event for a random key order.
pub(crate) const BRACKET_SIGMAS: f64 = 5.0;

/// Most keys one percentile bracket gathers (512 KiB): a run whose
/// bracket would span more, or gathers more, selects in place. At 5σ the
/// p50 bracket spans ~8 % of a run of more than 2^16 keys, so runs up to
/// ~800k samples stay under it.
pub(crate) const GATHER_CAP: usize = 1 << 16;

/// Keys per gather task on the tail's shared cursor: 8 KiB read, and
/// 33 KiB of per-worker stack for the keys it gathers.
pub(crate) const GATHER_CHUNK: usize = 1024;

/// Points per chunk: at least four chunks per worker (stealing slack for
/// skewed kernels), capped at [`MAX_CHUNK_POINTS`]. Deterministic in
/// `(len, workers)` — though output never depends on the chunking anyway,
/// since every point is computed from its coordinates alone.
fn chunk_points(len: usize, workers: usize) -> usize {
    len.div_ceil(workers.max(1) * 4).clamp(1, MAX_CHUNK_POINTS)
}

/// Points per chunk for a run on `workers` workers. A single worker needs
/// no stealing slack, so its chunk is one budget block — the check
/// interval under a deadline, else up to [`MAX_CHUNK_POINTS`] — and its
/// cut-off is block-aligned; a pool uses [`chunk_points`].
fn chunk_len(len: usize, workers: usize, budget: &EvalBudget) -> usize {
    if workers <= 1 {
        block_points(budget, len.min(MAX_CHUNK_POINTS))
    } else {
        chunk_points(len, workers)
    }
}

/// The chunked engine behind every block entry point: partitions `values`
/// into contiguous [`chunk_len`] chunks, hands chunk indices to the
/// persistent worker pool through an atomic cursor (work stealing; one
/// worker runs inline on the caller), and fills each stolen chunk through
/// `fill(state, global_range, out_slice)` in whole blocks. `make_state`
/// builds one per-worker scratch state (unit for sweeps over borrowed
/// batch columns; sample columns and a draw block for Monte-Carlo), so
/// workers share nothing mutable. Panics in workers propagate with their
/// payload after every worker has stopped.
///
/// Inside a chunk the [`EvalBudget`] is consulted on [`block_points`]-sized
/// boundaries; expiry stops every worker at its next check and the
/// function reports a **chunk-aligned completed prefix** (all chunks
/// before the first unfinished one). What the slots past the prefix hold
/// is the caller's to wipe or drop.
fn fill_chunked_block<T: Send, S>(
    workers: usize,
    values: &mut [T],
    make_state: &(impl Fn() -> S + Sync),
    fill: &(impl Fn(&mut S, Range<usize>, &mut [T]) + Sync),
    budget: &EvalBudget,
) -> BatchRun {
    let len = values.len();
    if len == 0 {
        return BatchRun::Completed;
    }
    let chunk = chunk_len(len, workers, budget);
    let block = block_points(budget, chunk);
    // Each chunk is a `Mutex<Option<&mut [T]>>` slot its claimer takes
    // exactly once — one uncontended lock per ~4096 points keeps the
    // engine free of `unsafe` while costing well under 0.1 %.
    let slots: Vec<Mutex<Option<&mut [T]>>> =
        values.chunks_mut(chunk).map(|c| Mutex::new(Some(c))).collect();
    let chunk_count = slots.len();
    let done: Vec<AtomicBool> = (0..chunk_count).map(|_| AtomicBool::new(false)).collect();
    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    crate::pool::run(workers, &|| {
        let mut state = make_state();
        'steal: while !stop.load(Ordering::Relaxed) {
            let ci = cursor.fetch_add(1, Ordering::Relaxed);
            if ci >= chunk_count {
                break;
            }
            let Some(slice) = lock(&slots[ci]).take() else { continue };
            let start = ci * chunk;
            let mut offset = 0;
            while offset < slice.len() {
                if budget.deadline.is_some() && budget.is_exhausted() {
                    // Leave this chunk unfinished: it marks the end of
                    // the completed prefix. Other workers stop at their
                    // next steal or block boundary.
                    stop.store(true, Ordering::Relaxed);
                    continue 'steal;
                }
                let end = (offset + block).min(slice.len());
                fill(&mut state, start + offset..start + end, &mut slice[offset..end]);
                offset = end;
            }
            done[ci].store(true, Ordering::Release);
        }
    });
    let completed_chunks = done.iter().take_while(|flag| flag.load(Ordering::Acquire)).count();
    if completed_chunks == chunk_count {
        BatchRun::Completed
    } else {
        BatchRun::DeadlineExceeded { completed: completed_chunks * chunk }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    use super::*;

    /// `1 / x` over column 0: the pole at zero exercises rejection.
    fn kernel(cols: &[&[f64]], range: Range<usize>, out: &mut [f64]) {
        for (slot, &x) in out.iter_mut().zip(&cols[0][range]) {
            *slot = 1.0 / x;
        }
    }

    /// Draws an uncertain yield in `-0.1..1.0` into column 0.
    fn sampler(rng: &mut Rng, k: usize, cols: &mut [Vec<f64>]) {
        cols[0][k] = rng.gen_range(-0.1..1.0);
    }

    /// `1370 / max(y, 0)`: non-positive yields give +inf and are rejected.
    fn mc_kernel(cols: &[&[f64]], range: Range<usize>, out: &mut [f64]) {
        for (slot, &y) in out.iter_mut().zip(&cols[0][range]) {
            *slot = 1370.0 / y.max(0.0);
        }
    }

    /// [`sampler`] then [`mc_kernel`] for sample `i` of a run keyed by
    /// `seed`, in a plain serial loop: the oracle for [`McBuffer::draws`],
    /// with non-finite draws canonicalized to NaN.
    fn serial_draws(samples: u64, seed: u64) -> Vec<f64> {
        (0..samples)
            .map(|i| {
                let y: f64 = Rng::seed_from_u64(mc_sample_seed(seed, i)).gen_range(-0.1..1.0);
                let v = 1370.0 / y.max(0.0);
                if v.is_finite() {
                    v
                } else {
                    f64::NAN
                }
            })
            .collect()
    }

    fn expired() -> EvalBudget {
        EvalBudget::with_deadline(Instant::now() - Duration::from_millis(1)).check_every(1)
    }

    /// Asserts that `buf` holds exactly the draws `want` as a multiset,
    /// bit for bit: the buffer keeps them in no particular order.
    fn assert_same_draws(buf: &McBuffer, want: &[f64]) {
        let sorted_bits = |draws: &mut dyn Iterator<Item = f64>| {
            let mut bits: Vec<u64> = draws.map(f64::to_bits).collect();
            bits.sort_unstable();
            bits
        };
        assert_eq!(buf.draws().len(), want.len());
        assert_eq!(sorted_bits(&mut buf.draws()), sorted_bits(&mut want.iter().copied()));
    }

    fn assert_bitwise(got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len());
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "bit divergence at point {i}");
        }
    }

    /// [`AllFinite`] gives the same answer in the baseline instance, run
    /// with the [`V4`](act_core::wide::V4) marker, and through `run_wide`,
    /// and it is the plain per-value check: at lengths around the lane
    /// edges, all finite (signed zeros, subnormals, `f64::MAX`) or with
    /// one NaN or ±∞ at the first, a middle or the last slot.
    #[test]
    fn all_finite_agrees_in_both_instances() {
        use act_core::wide::{Baseline, V4};
        const FINITE: [f64; 6] = [1.5, -0.0, 0.0, 5e-324, f64::MAX, -f64::MAX];
        const BAD: [f64; 4] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -f64::NAN];
        for n in [0, 1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1023, 1024] {
            let clean: Vec<f64> = (0..n).map(|i| FINITE[i % FINITE.len()]).collect();
            let mut cases = vec![clean.clone()];
            for at in [0, n / 2, n.saturating_sub(1)].into_iter().filter(|&at| at < n) {
                for bad in BAD {
                    let mut values = clean.clone();
                    values[at] = bad;
                    cases.push(values);
                }
            }
            for values in &cases {
                let want = values.iter().all(|v| v.is_finite());
                let got = [
                    AllFinite(values).run::<Baseline>(),
                    AllFinite(values).run::<V4>(),
                    run_wide(AllFinite(values)),
                ];
                assert_eq!(got, [want; 3], "n = {n}: {values:?}");
            }
        }
    }

    #[test]
    fn batch_construction_and_columns() {
        let batch = PointBatch::from_columns(vec![vec![1.0, 2.0, 3.0], vec![10.0, 20.0, 30.0]]);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.axis_count(), 2);
        assert_eq!(batch.column(1), &[10.0, 20.0, 30.0]);
        let columns = batch.column_slices();
        assert_eq!((columns[0][2], columns[1][2]), (3.0, 30.0));
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
        let batch = PointBatch::single_axis(params.clone());
        let mut out = BatchOutput::new();
        sweep_compiled_block(&batch, kernel, &mut out);
        let want: Vec<f64> = params
            .iter()
            .map(|x| 1.0 / x)
            .map(|v| if v.is_finite() { v } else { f64::NAN })
            .collect();
        assert_bitwise(out.values(), &want);
        let reasons: Vec<(usize, &str)> =
            out.rejected().iter().map(|r| (r.index, r.reason.as_str())).collect();
        assert_eq!(
            reasons,
            [
                (1, "model produced a non-finite result (inf)"),
                (3, "model produced a non-finite result (NaN)"),
            ]
        );
    }

    #[test]
    fn parallel_sweep_is_thread_count_invariant() {
        let params: Vec<f64> = (0..1000).map(|i| f64::from(i) - 500.0).collect();
        let batch = PointBatch::single_axis(params);
        let mut serial = BatchOutput::new();
        sweep_compiled_block(&batch, kernel, &mut serial);
        for threads in [2usize, 3, 8] {
            let mut parallel = BatchOutput::new();
            par_sweep_compiled_block_with(
                Parallelism::threads(threads),
                &batch,
                kernel,
                &mut parallel,
            );
            assert_eq!(parallel.rejected(), serial.rejected());
            assert_bitwise(parallel.values(), serial.values());
        }
    }

    #[test]
    fn rejected_slots_are_nan_and_ordered() {
        let batch = PointBatch::single_axis(vec![1.0, 0.0, 2.0, 0.0]);
        let mut out = BatchOutput::new();
        par_sweep_compiled_block_with(Parallelism::threads(4), &batch, kernel, &mut out);
        assert!(out.values()[1].is_nan() && out.values()[3].is_nan());
        assert_eq!(out.rejected().iter().map(|r| r.index).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(out.rejected()[0].reason, "model produced a non-finite result (inf)");
        assert!(!out.is_clean());
        assert_eq!(out.rejected_count(), 2);
    }

    #[test]
    fn buffer_reuse_resets_state() {
        let mut out = BatchOutput::new();
        sweep_compiled_block(&PointBatch::single_axis(vec![0.0, 0.0]), kernel, &mut out);
        assert_eq!(out.rejected_count(), 2);
        sweep_compiled_block(&PointBatch::single_axis(vec![1.0]), kernel, &mut out);
        assert_eq!(out.rejected_count(), 0);
        assert_eq!(out.values(), &[1.0]);
    }

    #[test]
    fn empty_batch_sweeps_cleanly() {
        let batch = PointBatch::single_axis(Vec::new());
        let mut out = BatchOutput::new();
        par_sweep_compiled_block_with(Parallelism::threads(8), &batch, kernel, &mut out);
        assert!(out.values().is_empty());
        assert!(out.is_clean());
    }

    #[test]
    fn mc_compiled_matches_per_point_monte_carlo() {
        const SAMPLES: usize = 60_000;
        let draws = serial_draws(SAMPLES as u64, 13);
        assert!(draws.iter().any(|v| v.is_nan()));
        let mut buf = McBuffer::new();
        for threads in [1usize, 2, 3, 8] {
            let run = |seed, buf: &mut McBuffer| {
                let parallelism = Parallelism::threads(threads);
                par_monte_carlo_compiled_block_with(
                    parallelism,
                    SAMPLES,
                    seed,
                    1,
                    sampler,
                    mc_kernel,
                    buf,
                )
            };
            // A run under another seed first: none of its draws may
            // survive into the run under test.
            let _ = run(30, &mut buf);
            let outcome = run(13, &mut buf);
            // Every draw stays in the buffer as a key, NaN included.
            assert_same_draws(&buf, &draws);
            crate::montecarlo::tests::assert_reference(outcome, &draws, &format!("{threads}t"));
        }
    }

    #[test]
    fn unlimited_budget_matches_unbudgeted_sweep_bitwise() {
        let batch = PointBatch::single_axis(vec![4.0, 0.0, -2.0, f64::NAN, 1.0]);
        let mut plain = BatchOutput::new();
        sweep_compiled_block(&batch, kernel, &mut plain);
        let mut budgeted = BatchOutput::new();
        let run = par_sweep_compiled_block_budgeted(
            Parallelism::Serial,
            &batch,
            kernel,
            &mut budgeted,
            &EvalBudget::unlimited(),
        );
        assert_eq!(run, BatchRun::Completed);
        assert!(run.is_complete());
        assert_eq!(budgeted.rejected(), plain.rejected());
        assert_bitwise(budgeted.values(), plain.values());
    }

    #[test]
    fn expired_budget_stops_before_the_first_point() {
        let batch = PointBatch::single_axis(vec![1.0, 2.0, 3.0]);
        let mut out = BatchOutput::new();
        let run = par_sweep_compiled_block_budgeted(
            Parallelism::Serial,
            &batch,
            kernel,
            &mut out,
            &expired(),
        );
        assert_eq!(run, BatchRun::DeadlineExceeded { completed: 0 });
        assert!(out.values().iter().all(|v| v.is_nan()));
        assert!(out.is_clean(), "cut-off points must not be recorded as rejections");
    }

    #[test]
    fn mid_run_expiry_keeps_a_bitwise_identical_prefix() {
        // A kernel that burns the clock past the deadline on point 2, with
        // the check interval (and so the block) at 1 point so the cut-off
        // lands exactly on point 3.
        let deadline = Instant::now() + Duration::from_millis(100);
        let slow = |cols: &[&[f64]], range: Range<usize>, out: &mut [f64]| {
            if cols[0][range.clone()].contains(&2.0) {
                while Instant::now() < deadline + Duration::from_millis(1) {
                    std::hint::spin_loop();
                }
            }
            kernel(cols, range, out);
        };
        let batch = PointBatch::single_axis(vec![4.0, 0.0, 2.0, 8.0, 16.0]);
        let mut out = BatchOutput::new();
        let run = par_sweep_compiled_block_budgeted(
            Parallelism::Serial,
            &batch,
            slow,
            &mut out,
            &EvalBudget::with_deadline(deadline).check_every(1),
        );
        assert_eq!(run, BatchRun::DeadlineExceeded { completed: 3 });
        let mut reference = BatchOutput::new();
        sweep_compiled_block(&batch, kernel, &mut reference);
        assert_bitwise(&out.values()[..3], &reference.values()[..3]);
        assert!(out.values()[3].is_nan() && out.values()[4].is_nan());
        // The rejection log covers only the completed prefix (point 1).
        assert_eq!(out.rejected().iter().map(|r| r.index).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn one_worker_mc_expiry_keeps_a_bitwise_identical_prefix() {
        // The Monte-Carlo twin of the sweep cut-off above: the kernel burns
        // the clock past the deadline on sample 5's draw, and with the
        // check interval at 1 the one-worker run stops exactly after it.
        const SAMPLES: usize = 40;
        const SEED: u64 = 13;
        let burn_at = {
            let mut cols = vec![vec![0.0]];
            sampler(&mut Rng::seed_from_u64(mc_sample_seed(SEED, 5)), 0, &mut cols);
            cols[0][0]
        };
        let deadline = Instant::now() + Duration::from_millis(100);
        let slow = |cols: &[&[f64]], range: Range<usize>, out: &mut [f64]| {
            if cols[0][range.clone()].iter().any(|y| y.to_bits() == burn_at.to_bits()) {
                while Instant::now() < deadline + Duration::from_millis(1) {
                    std::hint::spin_loop();
                }
            }
            mc_kernel(cols, range, out);
        };
        let mut buf = McBuffer::new();
        let (outcome, run) = par_monte_carlo_compiled_block_budgeted(
            Parallelism::Serial,
            SAMPLES,
            SEED,
            1,
            sampler,
            slow,
            &mut buf,
            &EvalBudget::with_deadline(deadline).check_every(1),
        )
        .unwrap();
        assert_eq!(run, BatchRun::DeadlineExceeded { completed: 6 });
        let prefix = serial_draws(6, SEED);
        assert_same_draws(&buf, &prefix);
        assert_eq!(outcome.stats.samples + outcome.rejected, 6);
        // The statistics cover the prefix and nothing past it: they are an
        // unbudgeted run of six samples, bit for bit.
        crate::montecarlo::tests::assert_reference(Ok(outcome), &prefix, "prefix");
        let six = par_monte_carlo_compiled_block_with(
            Parallelism::Serial,
            6,
            SEED,
            1,
            sampler,
            mc_kernel,
            &mut McBuffer::new(),
        );
        assert_eq!(Ok(outcome), six);
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
        let (outcome, run) = par_monte_carlo_compiled_block_budgeted(
            Parallelism::Serial,
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
        let mut parallel_buf = McBuffer::new();
        let parallel = par_monte_carlo_compiled_block_with(
            Parallelism::threads(4),
            2_000,
            13,
            1,
            sampler,
            mc_kernel,
            &mut parallel_buf,
        )
        .unwrap();
        assert_eq!(outcome, parallel);
        let draws = serial_draws(2_000, 13);
        assert_same_draws(&buf, &draws);
        assert_same_draws(&parallel_buf, &draws);
        crate::montecarlo::tests::assert_reference(Ok(outcome), &draws, "serial budgeted");
    }

    #[test]
    fn budgeted_mc_summarizes_the_completed_prefix() {
        // Zero samples, or a deadline that already passed so zero draws
        // complete: both are NoSamples, on one thread and on a pool, and
        // the reused buffer then holds no draw, of this run or the last.
        for threads in [1, 4] {
            let run = |samples, budget: &EvalBudget, buf: &mut McBuffer| {
                par_monte_carlo_compiled_block_budgeted(
                    Parallelism::threads(threads),
                    samples,
                    7,
                    1,
                    sampler,
                    mc_kernel,
                    buf,
                    budget,
                )
            };
            let mut buf = McBuffer::new();
            for (samples, budget) in [(0, EvalBudget::unlimited()), (100, expired())] {
                assert!(run(50, &EvalBudget::unlimited(), &mut buf).is_ok());
                assert_eq!(buf.draws().len(), 50);
                let case = format!("{threads}t, samples = {samples}");
                assert_eq!(run(samples, &budget, &mut buf), Err(McError::NoSamples), "{case}");
                assert_eq!(buf.draws().len(), 0, "{case}: the buffer kept draws");
            }
        }
    }

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
        sweep_compiled_block(&batch, kernel, &mut serial);
        for threads in [2usize, 3, 8] {
            let mut parallel = BatchOutput::new();
            let run = par_sweep_compiled_block_budgeted(
                Parallelism::threads(threads),
                &batch,
                kernel,
                &mut parallel,
                &EvalBudget::unlimited(),
            );
            assert_eq!(run, BatchRun::Completed);
            assert_eq!(parallel.rejected(), serial.rejected());
            assert_bitwise(parallel.values(), serial.values());
        }
    }

    #[test]
    fn budgeted_parallel_sweep_reports_an_empty_prefix_when_expired() {
        let batch = PointBatch::single_axis((0..500).map(f64::from).collect());
        let mut out = BatchOutput::new();
        let run = par_sweep_compiled_block_budgeted(
            Parallelism::threads(4),
            &batch,
            kernel,
            &mut out,
            &expired(),
        );
        assert_eq!(run, BatchRun::DeadlineExceeded { completed: 0 });
        assert!(out.values().iter().all(|v| v.is_nan()));
        assert!(out.is_clean(), "cut-off points must not be recorded as rejections");
    }

    #[test]
    fn budgeted_parallel_sweep_prefix_is_chunk_aligned_and_bitwise() {
        // A deadline that expires mid-run: whatever prefix completes must
        // end on a chunk boundary, be bitwise identical to the serial
        // sweep, hold NaN after it, and confine the rejection log to it.
        let deadline = Instant::now() + Duration::from_micros(200);
        let params: Vec<f64> = (0..20_000).map(|i| f64::from(i) - 10_000.0).collect();
        let batch = PointBatch::single_axis(params);
        let mut reference = BatchOutput::new();
        sweep_compiled_block(&batch, kernel, &mut reference);
        let mut out = BatchOutput::new();
        let slow = |cols: &[&[f64]], range: Range<usize>, out: &mut [f64]| {
            kernel(std::hint::black_box(cols), range, out);
        };
        let run = par_sweep_compiled_block_budgeted(
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
        assert!(completed == batch.len() || completed % chunk_points(batch.len(), 4) == 0);
        let prefix = &out.values()[..completed];
        for (i, (got, want)) in prefix.iter().zip(reference.values()).enumerate() {
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
        let mut serial_buf = McBuffer::new();
        let (serial, _) = par_monte_carlo_compiled_block_budgeted(
            Parallelism::Serial,
            2_000,
            13,
            1,
            sampler,
            mc_kernel,
            &mut serial_buf,
            &EvalBudget::unlimited(),
        )
        .unwrap();
        let draws = serial_draws(2_000, 13);
        assert_same_draws(&serial_buf, &draws);
        crate::montecarlo::tests::assert_reference(Ok(serial), &draws, "serial");
        for threads in [2usize, 8] {
            let mut buf = McBuffer::new();
            let (outcome, run) = par_monte_carlo_compiled_block_budgeted(
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
            assert_same_draws(&buf, &draws);
        }
    }

    #[test]
    fn budgeted_parallel_mc_reports_no_samples_when_expired() {
        let mut buf = McBuffer::new();
        assert_eq!(
            par_monte_carlo_compiled_block_budgeted(
                Parallelism::threads(4),
                100,
                7,
                1,
                sampler,
                mc_kernel,
                &mut buf,
                &expired(),
            )
            .map(|(outcome, _)| outcome),
            Err(McError::NoSamples)
        );
    }

    #[test]
    fn mc_compiled_reports_degenerate_runs() {
        let mut buf = McBuffer::new();
        let zero = |_: &mut Rng, k: usize, cols: &mut [Vec<f64>]| cols[0][k] = 0.0;
        let run = |samples, buf: &mut McBuffer| {
            par_monte_carlo_compiled_block_with(
                Parallelism::Auto,
                samples,
                0,
                1,
                zero,
                kernel,
                buf,
            )
        };
        assert_eq!(run(0, &mut buf), Err(McError::NoSamples));
        assert_eq!(run(10, &mut buf), Err(McError::AllRejected { rejected: 10 }));
        assert_eq!(buf.draws().len(), 10);
        assert!(buf.draws().all(|v| v.is_nan()));
    }

    #[test]
    fn mc_buffer_clone_from_reuses_the_allocations_and_summarizes_alike() {
        let run = |buf: &mut McBuffer, samples| {
            par_monte_carlo_compiled_block_with(
                Parallelism::threads(2),
                samples,
                17,
                1,
                sampler,
                mc_kernel,
                buf,
            )
        };
        let mut source = McBuffer::new();
        let outcome = run(&mut source, 20_000).unwrap();
        let mut copy = McBuffer::new();
        run(&mut copy, 30_000).unwrap();
        let keys = copy.keys.as_ptr();
        copy.clone_from(&source);
        assert_eq!(copy.keys.as_ptr(), keys);
        assert_eq!(copy.keys, source.keys);
        assert_eq!(copy.clone().keys, source.keys);
        for threads in [1, 2] {
            assert_eq!(copy.summarize(Parallelism::threads(threads)), Ok(outcome));
        }
        assert_eq!(McBuffer::new().summarize(Parallelism::Serial), Err(McError::NoSamples));
    }

    #[test]
    fn mc_buffer_holds_one_key_per_sample() {
        // The buffer is sized to one key per sample, its tail scratch to
        // less than that, while each worker's sample columns and draw
        // block stay within one chunk.
        let largest_block = AtomicUsize::new(0);
        let counting_sampler = |rng: &mut Rng, k: usize, cols: &mut [Vec<f64>]| {
            largest_block.fetch_max(cols[0].capacity(), Ordering::Relaxed);
            sampler(rng, k, cols);
        };
        let counting_kernel = |cols: &[&[f64]], range: Range<usize>, out: &mut [f64]| {
            largest_block.fetch_max(out.len(), Ordering::Relaxed);
            mc_kernel(cols, range, out);
        };
        let samples = 5 * MAX_CHUNK_POINTS + 7;
        for threads in [1, 3] {
            let mut buf = McBuffer::new();
            par_monte_carlo_compiled_block_with(
                Parallelism::threads(threads),
                samples,
                13,
                1,
                counting_sampler,
                counting_kernel,
                &mut buf,
            )
            .unwrap();
            assert_eq!((buf.keys.len(), buf.keys.capacity()), (samples, samples), "{threads}t");
            let tail = buf.tail.capacity();
            assert!(tail > 0 && tail < samples, "{threads}t: {tail} keys of tail scratch");
        }
        assert!(largest_block.load(Ordering::Relaxed) <= MAX_CHUNK_POINTS);
    }

    /// A block kernel behind a reference, so one closure runs several.
    type BlockKernel<'k> = dyn Fn(&[&[f64]], Range<usize>, &mut [f64]) + Sync + 'k;

    /// Writes each sample's global index into column 0, so a kernel can
    /// look its draw up in a table.
    struct IndexSampler;

    impl BlockSampler for IndexSampler {
        type Scratch = ();

        fn sample_block(&self, _: u64, range: Range<usize>, cols: &mut [Vec<f64>], _: &mut ()) {
            for (slot, index) in cols[0].iter_mut().zip(range) {
                *slot = index as f64;
            }
        }
    }

    #[test]
    fn mean_is_the_reference_for_every_chunking_and_prefix() {
        // Lengths around the 4096-point chunk cap (also `SUBSAMPLE_KEYS`,
        // where the tail starts bracketing), and one whose deadline-cut
        // prefix is long enough to bracket; serial to oversubscribed
        // pools, ±inf/NaN in the first and last slot of every chunk. The
        // unlimited run holds chunk 0 back, so later chunks are written
        // first; the budgeted run stalls the first block of a middle chunk
        // past the deadline, so that chunk stays unfinished while later
        // ones may finish: a gap the completed prefix must stop at.
        const BAD: [f64; 3] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let spin = |until: Instant| {
            while Instant::now() < until {
                std::hint::spin_loop();
            }
        };
        // The global sample indices a kernel call covers, which
        // `IndexSampler` writes into column 0 (the kernel's range is local
        // to its block).
        let indices = |cols: &[&[f64]], range: Range<usize>| {
            let first = cols[0][range.start] as usize;
            first..first + range.len()
        };
        for workers in [1usize, 2, 3, 8] {
            for len in [4095, 4096, 4097, 3 * 4096 + 1, 6 * 4096 + 5] {
                for trial in 0..3u64 {
                    let unlimited = EvalBudget::unlimited();
                    let chunk = chunk_len(len, workers, &unlimited);
                    let mut table = crate::montecarlo::tests::mixed_values(trial, len);
                    for (i, slot) in table.iter_mut().enumerate() {
                        if i % chunk == 0 || i % chunk == chunk - 1 || i == len - 1 {
                            *slot = BAD[i % BAD.len()];
                        }
                    }
                    let draws: Vec<f64> = table
                        .iter()
                        .map(|&v| if v.is_finite() { v } else { f64::NAN })
                        .collect();
                    let lookup = |cols: &[&[f64]], range: Range<usize>, out: &mut [f64]| {
                        for (slot, &index) in out.iter_mut().zip(&cols[0][range]) {
                            *slot = table[index as usize];
                        }
                    };
                    let case = format!("{workers}w, len {len}, trial {trial}");
                    let run =
                        |kernel: &BlockKernel<'_>, buf: &mut McBuffer, budget: &EvalBudget| {
                            par_monte_carlo_compiled_block_budgeted(
                                Parallelism::threads(workers),
                                len,
                                0,
                                1,
                                IndexSampler,
                                kernel,
                                buf,
                                budget,
                            )
                        };

                    let last_first = |cols: &[&[f64]], range: Range<usize>, out: &mut [f64]| {
                        if workers > 1 && indices(cols, range.clone()).start == 0 {
                            spin(Instant::now() + Duration::from_millis(2));
                        }
                        lookup(cols, range, out);
                    };
                    let mut buf = McBuffer::new();
                    let result = run(&last_first, &mut buf, &unlimited);
                    let outcome = result.map(|(outcome, run)| {
                        assert_eq!(run, BatchRun::Completed, "{case}");
                        outcome
                    });
                    crate::montecarlo::tests::assert_reference(outcome, &draws, &case);
                    assert_same_draws(&buf, &draws);

                    // Every chunk of a budgeted pool run is at least two
                    // 64-point blocks, so a stall in a chunk's first block
                    // leaves that chunk unfinished.
                    let deadline = Instant::now() + Duration::from_millis(3);
                    let budget = EvalBudget::with_deadline(deadline).check_every(64);
                    let chunk = chunk_len(len, workers, &budget);
                    let stall = chunk * (len.div_ceil(chunk) / 2);
                    let cut = |cols: &[&[f64]], range: Range<usize>, out: &mut [f64]| {
                        if indices(cols, range.clone()).contains(&stall) {
                            spin(deadline + Duration::from_millis(1));
                        }
                        lookup(cols, range, out);
                    };
                    let mut buf = McBuffer::new();
                    let case = format!("{case}, deadline");
                    let result = run(&cut, &mut buf, &budget);
                    let completed = match result {
                        Ok((_, BatchRun::DeadlineExceeded { completed })) => completed,
                        Err(McError::AllRejected { rejected }) => rejected,
                        // A loaded machine can pass the deadline before the
                        // first block: the documented empty prefix.
                        Err(McError::NoSamples) => {
                            assert_eq!(buf.draws().len(), 0, "{case}");
                            continue;
                        }
                        other => panic!("{case}: the stall must cut the run: {other:?}"),
                    };
                    // One worker's chunk is one block: the stalled chunk
                    // finishes, and the cut comes at the next one.
                    let limit = if workers == 1 { stall + chunk } else { stall };
                    assert!(
                        completed <= limit && completed % chunk == 0,
                        "{case}: {completed}"
                    );
                    let prefix = &draws[..completed];
                    let outcome = result.map(|(outcome, _)| outcome);
                    crate::montecarlo::tests::assert_reference(outcome, prefix, &case);
                    assert_same_draws(&buf, prefix);
                }
            }
        }
    }
}
