//! Monte-Carlo propagation of parameter uncertainty through a model.
//!
//! Carbon accounting is built on uncertain inputs — yields, grid
//! intensities, abatement effectiveness. Sampling the model under a
//! distribution of inputs turns a point estimate into a defensible range.
//!
//! The sampling loops live in [`batch`](crate::batch):
//! [`crate::par_monte_carlo_compiled_block_with`] and its budgeted twin
//! draw straight into reusable structure-of-arrays columns and evaluate
//! whole blocks per kernel call. This module holds what they share: the
//! per-sample seed split ([`mc_sample_seed`]), the summary statistics
//! ([`McStats`], [`McOutcome`], [`McError`]), and the validating
//! triangular draw ([`try_triangular`]).
//!
//! It also holds how a run gets from draws to statistics in 8 bytes per
//! sample. A run's buffer holds no draws, only their `f64::total_cmp`
//! order keys: each worker evaluates a block into its own scratch and
//! writes the block's keys ([`encode_draws`]) straight into its chunk of
//! the buffer. When the pool joins, [`summarize`] takes the sample-order
//! mean in one pass over the keys while the other workers gather the keys
//! near each percentile into a small buffer per percentile, bracketed by
//! a sorted strided subsample, and select the percentiles there: about
//! 15 % of a 200k-sample run's keys, none of them moved in the buffer.
//! Only a short run or a bracket that misses or overflows selects over
//! the whole buffer, in place.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use act_core::wide::{run_wide, Body, Instance};
use act_rng::Rng;

use crate::batch::{
    BRACKET_SIGMAS, GATHER_CAP, GATHER_CHUNK, SUBSAMPLE_KEYS, SUBSAMPLE_MIN_STRIDE,
};

act_json::json_struct! {
    [ToJson, FromJson]
    /// Summary statistics of a Monte-Carlo run.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct McStats {
        /// Sample mean.
        pub mean: f64,
        /// 5th percentile.
        pub p05: f64,
        /// Median.
        pub p50: f64,
        /// 95th percentile.
        pub p95: f64,
        /// Number of samples.
        pub samples: usize,
    }
}

impl McStats {
    /// The p05–p95 spread relative to the magnitude of the mean — a
    /// unitless uncertainty indicator.
    ///
    /// Never returns NaN: a zero spread is `0.0` regardless of the mean
    /// (even an all-zero run is "perfectly certain"), and a nonzero spread
    /// over a mean too small to normalize by (`|mean| <
    /// f64::MIN_POSITIVE`, or a non-finite mean from poisoned statistics)
    /// reports `f64::INFINITY` — "infinitely uncertain" — instead of
    /// dividing by ~zero. The divisor is `|mean|`, so the indicator is
    /// non-negative for negative-mean models too.
    #[must_use]
    pub fn relative_spread(&self) -> f64 {
        let spread = self.p95 - self.p05;
        if spread == 0.0 {
            return 0.0;
        }
        let scale = self.mean.abs();
        if spread.is_nan() || !scale.is_finite() || scale < f64::MIN_POSITIVE {
            return f64::INFINITY;
        }
        spread / scale
    }
}

/// Error returned by the block Monte-Carlo entry points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum McError {
    /// `samples` was zero.
    NoSamples,
    /// Every draw produced a non-finite value; no statistics exist.
    AllRejected {
        /// Number of rejected draws (equals the requested sample count).
        rejected: usize,
    },
}

impl std::fmt::Display for McError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoSamples => write!(f, "Monte-Carlo run needs at least one sample"),
            Self::AllRejected { rejected } => {
                write!(f, "all {rejected} Monte-Carlo draws were non-finite")
            }
        }
    }
}

impl std::error::Error for McError {}

act_json::json_struct! {
    [ToJson]
    /// The result of a fault-tolerant Monte-Carlo run: statistics over the
    /// finite draws plus the count of rejected (non-finite) ones.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct McOutcome {
        /// Statistics over the finite samples.
        pub stats: McStats,
        /// Number of draws discarded because the model returned NaN or ±∞.
        pub rejected: usize,
    }
}

/// Derives the independent RNG seed for sample `index` of a run keyed by
/// `master` — the seed-splitting scheme behind every block Monte-Carlo
/// run ([`crate::par_monte_carlo_compiled_block_with`] and its budgeted
/// twin).
///
/// This is [`act_rng::split_seed`] at `index + 1`, the SplitMix64 output
/// function at that position of the stream seeded by `master`: every
/// sample gets its own statistically independent `Rng`, no RNG state is
/// shared between samples, and the draw for sample `i` depends only on
/// `(master, i)` — never on which thread evaluated it or in what order.
/// That is the whole determinism argument: every thread count sees
/// bit-identical draws.
#[inline(always)]
#[must_use]
pub fn mc_sample_seed(master: u64, index: u64) -> u64 {
    act_rng::split_seed(master, index.wrapping_add(1))
}

/// Neumaier-compensated sum of the finite draws behind `keys` in slice
/// order, skipping the rejected ones (`u64::MAX`), with their count. The
/// running compensation recovers the low-order bits each addition rounds
/// away, so the result is within an ulp or so of the exact sum regardless
/// of magnitude ordering; every caller passes keys in sample order, which
/// seed-splitting fixes for any thread count, so the mean is thread-count
/// invariant without an order-normalizing sort. An overflowing sum
/// returns the plain (infinite) running sum rather than the `inf - inf`
/// NaN the compensation would add.
fn sample_order_sum(keys: &[u64]) -> (f64, usize) {
    run_wide(SampleOrderSum(keys))
}

/// [`sample_order_sum`]'s loop as a [`Body`]. It is one dependency chain
/// of scalar additions, so every instance runs the same operations in the
/// same order.
struct SampleOrderSum<'a>(&'a [u64]);

impl Body for SampleOrderSum<'_> {
    type Output = (f64, usize);

    #[inline(always)]
    fn run<I: Instance>(self) -> (f64, usize) {
        let (mut sum, mut compensation, mut finite) = (0.0_f64, 0.0_f64, 0);
        for &key in self.0 {
            if key == u64::MAX {
                continue;
            }
            let v = from_order_key(key);
            let t = sum + v;
            compensation += if sum.abs() >= v.abs() { (sum - t) + v } else { (v - t) + sum };
            sum = t;
            finite += 1;
        }
        (if sum.is_finite() { sum + compensation } else { sum }, finite)
    }
}

/// Writes the order key of each of `draws` into the same slot of `keys`:
/// [`order_key`] for a finite draw, `u64::MAX` for a rejected (non-finite)
/// one. That is the whole canonicalization a rejected draw gets: every
/// finite key sorts below `u64::MAX`, and the key decodes as NaN.
pub(crate) fn encode_draws(draws: &[f64], keys: &mut [u64]) {
    run_wide(EncodeDraws { draws, keys });
}

/// [`encode_draws`]'s loop as a [`Body`]: `as i64 >> 63` has no SSE2
/// form, so the baseline instance runs it a value at a time.
struct EncodeDraws<'a> {
    draws: &'a [f64],
    keys: &'a mut [u64],
}

impl Body for EncodeDraws<'_> {
    type Output = ();

    #[inline(always)]
    fn run<I: Instance>(self) {
        for (key, &v) in self.keys.iter_mut().zip(self.draws) {
            *key = if v.is_finite() { order_key(v) } else { u64::MAX };
        }
    }
}

/// The draw behind a key written by [`encode_draws`]: the finite draw,
/// or NaN for a rejected one.
pub(crate) fn decode_draw(key: u64) -> f64 {
    if key == u64::MAX {
        f64::NAN
    } else {
        from_order_key(key)
    }
}

/// The percentiles a run reports, as quantiles of its finite draws.
const QUANTILES: [f64; 3] = [0.05, 0.5, 0.95];

/// What the tail of a run reuses from run to run, held by
/// [`crate::McBuffer`] beside the keys: the percentile subsample (at most
/// [`SUBSAMPLE_KEYS`] keys) and one gather buffer per percentile bracket
/// (at most [`GATHER_CAP`] keys each).
#[derive(Debug, Default)]
pub(crate) struct TailScratch {
    subsample: Vec<u64>,
    brackets: [Vec<u64>; 3],
}

impl Clone for TailScratch {
    fn clone(&self) -> Self {
        Self { subsample: self.subsample.clone(), brackets: self.brackets.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.subsample.clone_from(&source.subsample);
        for (bracket, from) in self.brackets.iter_mut().zip(&source.brackets) {
            bracket.clone_from(from);
        }
    }
}

impl TailScratch {
    /// Keys the scratch can hold without reallocating.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.subsample.capacity() + self.brackets.iter().map(Vec::capacity).sum::<usize>()
    }
}

/// Where [`summarize_by`] found the percentiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Selection {
    /// Among the keys gathered into each percentile's bracket.
    Brackets,
    /// In place over the whole buffer: a run of at most
    /// [`SUBSAMPLE_KEYS`] keys, a bracket that missed its rank, or a
    /// gather over [`GATHER_CAP`].
    InPlace,
}

/// The tail of every block Monte-Carlo run: statistics over the completed
/// prefix `keys` ([`encode_draws`] form, in sample order) plus the count
/// of rejected draws, on the run's `workers` (inline on the caller when
/// `workers <= 1`). A rejected draw's key is `u64::MAX`, above every
/// finite key, so every rank below the finite count lands on a finite
/// draw. The key order is `f64::total_cmp`'s, so each order statistic is
/// bit-identical to `sorted[round((n - 1) * q)]` over the `n` finite
/// draws, and the mean is [`sample_order_sum`]'s, whichever way the
/// percentiles were found ([`summarize_by`]).
///
/// # Errors
///
/// [`McError::AllRejected`] when no draw is finite.
pub(crate) fn summarize(
    keys: &mut [u64],
    workers: usize,
    scratch: &mut TailScratch,
) -> Result<McOutcome, McError> {
    summarize_by(keys, workers, scratch).map(|(outcome, _)| outcome)
}

/// [`summarize`], reporting where the percentiles were found.
///
/// A run of more than [`SUBSAMPLE_KEYS`] keys brackets them first: a
/// sorted strided subsample ([`bracket_bounds`]) gives each percentile a
/// key range `[lo, hi]` wide enough to hold its rank but for a
/// ~[`BRACKET_SIGMAS`]σ miss. Then one pass on the pool
/// ([`mean_beside_gather`]) takes the sample-order mean on one worker
/// while the others count each bracket's keys below `lo`, gather the keys
/// inside it into `scratch`, and select each rank `r` there: with `below
/// <= r < below + gathered`, the key at `r` of the whole buffer is the one
/// at `r - below` of the bracket. Nothing permutes `keys`. If any rank
/// misses its bracket, or a bracket gathered more than [`GATHER_CAP`]
/// keys, or the run is short, the percentiles are selected in place on
/// the whole buffer ([`select_in_place`]), which leaves `keys` permuted.
pub(crate) fn summarize_by(
    keys: &mut [u64],
    workers: usize,
    scratch: &mut TailScratch,
) -> Result<(McOutcome, Selection), McError> {
    let ((sum, samples), bracketed) = if keys.len() > SUBSAMPLE_KEYS {
        mean_beside_gather(keys, workers, scratch)
    } else {
        (sample_order_sum(keys), None)
    };
    let rejected = keys.len() - samples;
    if samples == 0 {
        return Err(McError::AllRejected { rejected });
    }
    let (picked, selection) = match bracketed {
        Some(picked) => (picked, Selection::Brackets),
        None => (select_in_place(keys, ranks(samples), workers), Selection::InPlace),
    };
    let [p05, p50, p95] = picked.map(from_order_key);
    let stats = McStats { mean: sum / samples as f64, p05, p50, p95, samples };
    Ok((McOutcome { stats, rejected }, selection))
}

/// The ranks of p05, p50 and p95 among `samples > 0` finite keys:
/// `round((samples - 1) * q)` for each of [`QUANTILES`].
fn ranks(samples: usize) -> [usize; 3] {
    QUANTILES.map(|q| ((samples - 1) as f64 * q).round() as usize)
}

/// The subsample stride for a run of `len` keys: every
/// `max(ceil(len / SUBSAMPLE_KEYS), SUBSAMPLE_MIN_STRIDE)`-th key, so
/// about `min(SUBSAMPLE_KEYS, len / SUBSAMPLE_MIN_STRIDE)` keys and never
/// more than [`SUBSAMPLE_KEYS`].
pub(crate) fn subsample_stride(len: usize) -> usize {
    len.div_ceil(SUBSAMPLE_KEYS).max(SUBSAMPLE_MIN_STRIDE)
}

/// What the gather tasks share: per bracket, the count of keys below it
/// and its gathered keys, plus the count of finite keys, over the chunks
/// merged so far.
struct Gathered<'a> {
    below: [usize; 3],
    finite: usize,
    brackets: &'a mut [Vec<u64>; 3],
}

/// One pass over `keys` on the pool. Task 0 of a shared cursor is the
/// sample-order mean and finite count ([`sample_order_sum`], unchanged);
/// the tasks after it gather [`GATHER_CHUNK`] keys each
/// ([`GatherBrackets`]), so whichever worker finishes the mean takes the
/// gather tasks left. The first gather task computes the brackets
/// ([`bracket_bounds`]) while later ones wait for them, and the task that
/// merges the last chunk selects the percentiles in the brackets
/// ([`select_in_brackets`]), beside the mean if it is still running.
/// Returns the mean pass's result and the keys at p05/p50/p95; `None`
/// when no bracket fit [`GATHER_CAP`], a gather went over it, or a rank
/// missed its bracket.
fn mean_beside_gather(
    keys: &[u64],
    workers: usize,
    scratch: &mut TailScratch,
) -> ((f64, usize), Option<[u64; 3]>) {
    let TailScratch { subsample, brackets } = scratch;
    for bracket in brackets.iter_mut() {
        bracket.clear();
    }
    let subsample = Mutex::new(subsample);
    let bounds = OnceLock::new();
    // `None` once a bracket overflowed.
    let gathered = Mutex::new(Some(Gathered { below: [0; 3], finite: 0, brackets }));
    let (mean, picked) = (OnceLock::new(), OnceLock::new());
    let chunks = keys.len().div_ceil(GATHER_CHUNK);
    // The atomics publish no data, so `Relaxed` does: the cursor hands
    // out task numbers, `pending` counts merges made under the `gathered`
    // lock (which orders the merged data), and `overflowed` only lets the
    // other workers skip chunks the lock's `None` already discards.
    let (cursor, pending) = (AtomicUsize::new(0), AtomicUsize::new(chunks));
    let overflowed = AtomicBool::new(false);
    crate::pool::run(workers, &|| {
        let mut chunk_scratch = ChunkScratch {
            flags: [0; GATHER_CHUNK],
            inside: [0; GATHER_CHUNK],
            rows: [[0; GATHER_CHUNK]; 3],
        };
        loop {
            let task = cursor.fetch_add(1, Ordering::Relaxed);
            if task == 0 {
                // The first claim on the cursor: the mean starts at once.
                let _ = mean.set(sample_order_sum(keys));
                continue;
            }
            if task > chunks || overflowed.load(Ordering::Relaxed) {
                break;
            }
            let bracket = || {
                let bounds = bracket_bounds(keys, &mut lock(&subsample))?;
                // Room for each bracket's expected keys and a quarter
                // more, so the gather rarely grows a buffer under the lock.
                if let Some(gathered) = lock(&gathered).as_mut() {
                    for (bracket, bound) in gathered.brackets.iter_mut().zip(&bounds) {
                        bracket.reserve_exact(bound.span + bound.span / 4);
                    }
                }
                Some(bounds)
            };
            let Some(bounds) = bounds.get_or_init(bracket) else { break };
            let chunk = &keys[(task - 1) * GATHER_CHUNK..keys.len().min(task * GATHER_CHUNK)];
            let scratch = &mut chunk_scratch;
            let (below, finite, lens) =
                run_wide(GatherBrackets { keys: chunk, bounds, scratch });
            let mut guard = lock(&gathered);
            let Some(gathered) = guard.as_mut() else { break };
            let brackets = &mut *gathered.brackets;
            if brackets.iter().zip(lens).any(|(bracket, len)| bracket.len() + len > GATHER_CAP)
            {
                *guard = None;
                overflowed.store(true, Ordering::Relaxed);
                break;
            }
            for ((bracket, row), len) in brackets.iter_mut().zip(&chunk_scratch.rows).zip(lens)
            {
                bracket.extend_from_slice(&row[..len]);
            }
            for (total, below) in gathered.below.iter_mut().zip(below) {
                *total += below;
            }
            gathered.finite += finite;
            // The last chunk merged: every count is final.
            if pending.fetch_sub(1, Ordering::Relaxed) == 1 && gathered.finite > 0 {
                let ranks = ranks(gathered.finite);
                let _ = picked.set(select_in_brackets(brackets, gathered.below, ranks));
            }
        }
    });
    // Every participant drains the cursor, so task 0 ran before
    // `pool::run` returned (a panic in it resumes on this thread).
    let mean = mean.into_inner().unwrap_or_else(|| sample_order_sum(keys));
    (mean, picked.into_inner().flatten())
}

/// Locks `mutex`, ignoring poison: a panic in the tail resumes on the
/// caller once the pool has joined, so no one reads the data after one.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One percentile's bracket: the keys `lo..=lo + width`, which the
/// subsample puts at about `span` keys of the buffer.
#[derive(Clone, Copy, Debug)]
struct Bracket {
    lo: u64,
    width: u64,
    span: usize,
}

impl Bracket {
    /// `true` when `key` is inside the bracket.
    #[inline(always)]
    fn holds(self, key: u64) -> bool {
        key.wrapping_sub(self.lo) <= self.width
    }
}

/// The [`Bracket`] of each of [`QUANTILES`] over `keys`, from every
/// [`subsample_stride`]-th key, copied into `subsample` and sorted.
/// Among the `m` finite subsample keys, the quantile-`q` rank
/// sits near position `q (m - 1)`, and its distance from there has a
/// standard deviation of about `sqrt(m q (1 - q))` (the finite count's
/// own noise included); the bracket is the subsample keys
/// [`BRACKET_SIGMAS`] of those plus one position either side, open at an
/// end the margin passes (`0`, or the largest finite key). `None` when a
/// bracket would span more than [`GATHER_CAP`] keys of the buffer.
fn bracket_bounds(keys: &[u64], subsample: &mut Vec<u64>) -> Option<[Bracket; 3]> {
    let stride = subsample_stride(keys.len());
    subsample.clear();
    subsample.extend(keys.iter().step_by(stride));
    subsample.sort_unstable();
    let finite = subsample.partition_point(|&key| key != u64::MAX);
    let m = finite as f64;
    let mut bounds = [Bracket { lo: 0, width: 0, span: 0 }; 3];
    for (bound, q) in bounds.iter_mut().zip(QUANTILES) {
        let centre = q * (m - 1.0);
        let margin = (BRACKET_SIGMAS * (m * q * (1.0 - q)).sqrt()).ceil() + 1.0;
        let (first, last) = ((centre - margin).floor(), (centre + margin).ceil());
        let span = (last.min(m) - first.max(0.0) + 1.0) * stride as f64;
        if span > GATHER_CAP as f64 {
            return None;
        }
        let lo = if first < 0.0 { 0 } else { subsample[first as usize] };
        let hi = if last >= m { u64::MAX - 1 } else { subsample[last as usize] };
        *bound = Bracket { lo, width: hi - lo, span: span as usize };
    }
    Some(bounds)
}

/// A gather task's scratch, on its worker's stack (33 KiB): a membership
/// flag per key of the chunk, the chunk's keys inside any bracket, and
/// each bracket's.
struct ChunkScratch {
    flags: [u8; GATHER_CHUNK],
    inside: [u64; GATHER_CHUNK],
    rows: [[u64; GATHER_CHUNK]; 3],
}

/// Over one gather chunk of at most [`GATHER_CHUNK`] keys: the count of
/// keys below each [`Bracket`], the count of finite keys, and each
/// bracket's keys, written to the front of its row of `scratch.rows`,
/// with their count.
///
/// Four loops, so that the ones over every key vectorize or stay short:
/// the counts and the membership flags are compares and adds; the
/// compaction of the keys inside any bracket writes each key and
/// advances its count by the flag, one store and no branch per key; and
/// only those keys (about 15 % of a 200k-sample run's) are split per
/// bracket the same way. A count never passes the number of keys
/// written before it, so the index masks never wrap. One fused loop
/// measured 3-4× slower in the AVX-512 instance, where LLVM packed its
/// counters into one vector.
struct GatherBrackets<'a> {
    keys: &'a [u64],
    bounds: &'a [Bracket; 3],
    scratch: &'a mut ChunkScratch,
}

impl Body for GatherBrackets<'_> {
    type Output = ([usize; 3], usize, [usize; 3]);

    #[inline(always)]
    fn run<I: Instance>(self) -> ([usize; 3], usize, [usize; 3]) {
        let Self { keys, bounds, scratch } = self;
        let [b0, b1, b2] = *bounds;
        let (mut below, mut finite) = ([0; 3], 0);
        for &key in keys {
            below[0] += usize::from(key < b0.lo);
            below[1] += usize::from(key < b1.lo);
            below[2] += usize::from(key < b2.lo);
            finite += usize::from(key != u64::MAX);
        }
        for (flag, &key) in scratch.flags.iter_mut().zip(keys) {
            *flag = u8::from(b0.holds(key) | b1.holds(key) | b2.holds(key));
        }
        let mut inside = 0;
        for (&key, &flag) in keys.iter().zip(&scratch.flags) {
            scratch.inside[inside % GATHER_CHUNK] = key;
            inside += usize::from(flag);
        }
        let mut lens = [0; 3];
        for ((len, row), bracket) in lens.iter_mut().zip(&mut scratch.rows).zip(bounds) {
            for &key in &scratch.inside[..inside] {
                row[*len % GATHER_CHUNK] = key;
                *len += usize::from(bracket.holds(key));
            }
        }
        (below, finite, lens)
    }
}

/// Each of `ranks` selected among its bracket's gathered keys, when every
/// rank lies in its bracket: `below[b] <= rank < below[b] + len`, so the
/// key at `rank` of the whole buffer is the one at `rank - below[b]` of
/// the bracket. `None` when any rank misses.
fn select_in_brackets(
    brackets: &mut [Vec<u64>; 3],
    below: [usize; 3],
    ranks: [usize; 3],
) -> Option<[u64; 3]> {
    let mut offsets = [0; 3];
    for b in 0..3 {
        offsets[b] = ranks[b].checked_sub(below[b]).filter(|&at| at < brackets[b].len())?;
    }
    let mut picked = [0; 3];
    for b in 0..3 {
        picked[b] = *brackets[b].select_nth_unstable(offsets[b]).1;
    }
    Some(picked)
}

/// The keys at `ranks` (p05, p50, p95 order), selected in place over the
/// whole of `keys`: p50 first, then p05 among the keys below it and p95
/// among those above it. Those are disjoint halves, so the two selections
/// run side by side on the pool with the run's `workers`. Leaves `keys`
/// permuted.
fn select_in_place(keys: &mut [u64], [i05, i50, i95]: [usize; 3], workers: usize) -> [u64; 3] {
    let (below, &mut p50, above) = keys.select_nth_unstable(i50);
    // Each tail: its keys, the rank to select there (none when the
    // percentile's rank is p50's), and the key found, p50's until then.
    let tails = [
        Mutex::new((below, (i05 < i50).then_some(i05), p50)),
        Mutex::new((above, (i95 > i50).then(|| i95 - i50 - 1), p50)),
    ];
    let cursor = AtomicUsize::new(0);
    crate::pool::run(workers.min(2), &|| {
        while let Some(tail) = tails.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            let mut tail = lock(tail);
            let (keys, rank, key) = &mut *tail;
            if let Some(rank) = *rank {
                *key = *keys.select_nth_unstable(rank).1;
            }
        }
    });
    // Every participant drains the cursor, so both selections ran before
    // `pool::run` returned (a panic in either resumes on this thread).
    let [p05, p95] =
        tails.map(|tail| tail.into_inner().unwrap_or_else(PoisonError::into_inner).2);
    [p05, p50, p95]
}

/// `v`'s position in the `f64::total_cmp` order as an unsigned key: the
/// bits of a non-negative value with the sign bit set, and the bits of a
/// negative one inverted. Keys compare as `u64` exactly as the values
/// compare under `total_cmp`, and [`from_order_key`] inverts the map.
#[inline(always)]
fn order_key(v: f64) -> u64 {
    let bits = v.to_bits();
    bits ^ (((bits as i64 >> 63) as u64) | 1 << 63)
}

/// The value whose [`order_key`] is `key`.
#[inline(always)]
fn from_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 { key & !(1 << 63) } else { !key })
}

/// Error returned by [`try_triangular`] for parameters that do not define
/// a triangular distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TriangularError {
    /// The rejected lower bound.
    pub low: f64,
    /// The rejected mode.
    pub mode: f64,
    /// The rejected upper bound.
    pub high: f64,
}

impl std::fmt::Display for TriangularError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid triangular parameters: need finite low < high with low <= mode <= high, \
             got low={}, mode={}, high={}",
            self.low, self.mode, self.high
        )
    }
}

impl std::error::Error for TriangularError {}

/// Draws a triangular-distributed value on `[low, high]` with the given
/// mode — the standard shape for expert-judgment parameters like yield —
/// rejecting bad parameters with a typed error instead of panicking. It
/// is the form user-supplied fleet distributions go through, so a hostile
/// payload becomes a 400 instead of a caught-panic 500.
///
/// The RNG is only advanced when the parameters are valid, so a rejected
/// draw consumes no randomness. A valid draw is
/// [`act_rng::unit_to_triangular`] of one uniform.
///
/// # Errors
///
/// Returns [`TriangularError`] unless all three parameters are finite,
/// `low < high`, and `low <= mode <= high`.
pub fn try_triangular(
    rng: &mut Rng,
    low: f64,
    mode: f64,
    high: f64,
) -> Result<f64, TriangularError> {
    let valid = low.is_finite()
        && mode.is_finite()
        && high.is_finite()
        && low < high
        && (low..=high).contains(&mode);
    if !valid {
        return Err(TriangularError { low, mode, high });
    }
    Ok(act_rng::unit_to_triangular(rng.gen(), low, mode, high))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// `n` uniform draws in `0..1`, sample `i` from its own split seed.
    fn uniform_draws(seed: u64, n: u64) -> Vec<f64> {
        (0..n)
            .map(|i| Rng::seed_from_u64(mc_sample_seed(seed, i)).gen_range(0.0..1.0))
            .collect()
    }

    /// The reduction of `draws` as a run performs it: encoded to keys,
    /// then summarized on `workers` threads.
    pub(crate) fn summarize_draws(draws: &[f64], workers: usize) -> Result<McOutcome, McError> {
        summarize_draws_by(draws, workers).map(|(outcome, _)| outcome)
    }

    /// [`summarize_draws`], reporting where the percentiles were found.
    fn summarize_draws_by(
        draws: &[f64],
        workers: usize,
    ) -> Result<(McOutcome, Selection), McError> {
        let mut keys = vec![0; draws.len()];
        encode_draws(draws, &mut keys);
        summarize_by(&mut keys, workers, &mut TailScratch::default())
    }

    /// [`summarize_draws`]'s statistics on one thread.
    fn stats_of(values: &[f64]) -> McStats {
        summarize_draws(values, 1).unwrap().stats
    }

    #[test]
    fn stats_are_ordered_and_deterministic() {
        let a = stats_of(&uniform_draws(7, 5_000));
        let b = stats_of(&uniform_draws(7, 5_000));
        assert_eq!(a, b);
        assert!(a.p05 <= a.p50 && a.p50 <= a.p95);
        assert!((a.mean - 0.5).abs() < 0.02);
        assert_eq!(a.samples, 5_000);
    }

    #[test]
    fn constant_model_has_zero_spread() {
        let s = stats_of(&[42.0; 100]);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.relative_spread(), 0.0);
    }

    #[test]
    fn triangular_respects_bounds_and_mode() {
        let mut rng = Rng::seed_from_u64(3);
        let mut below = 0;
        let n = 20_000;
        for _ in 0..n {
            let v = try_triangular(&mut rng, 0.5, 0.9, 1.0).unwrap();
            assert!((0.5..=1.0).contains(&v));
            if v < 0.9 {
                below += 1;
            }
        }
        // P(X < mode) = (mode-low)/(high-low) = 0.8 for the triangular.
        let frac = f64::from(below) / f64::from(n);
        assert!((frac - 0.8).abs() < 0.02, "fraction below mode {frac}");
    }

    #[test]
    fn try_triangular_rejects_bad_parameters_with_typed_error() {
        let mut rng = Rng::seed_from_u64(0);
        // Mode outside [low, high].
        let err = try_triangular(&mut rng, 1.0, 0.5, 0.9).unwrap_err();
        assert_eq!(err, TriangularError { low: 1.0, mode: 0.5, high: 0.9 });
        assert!(err.to_string().contains("triangular"));
        // Degenerate interval (low == high) and inverted bounds.
        assert!(try_triangular(&mut rng, 1.0, 1.0, 1.0).is_err());
        assert!(try_triangular(&mut rng, 2.0, 1.5, 1.0).is_err());
        // Non-finite parameters never reach the sampling arithmetic.
        assert!(try_triangular(&mut rng, f64::NAN, 0.5, 1.0).is_err());
        assert!(try_triangular(&mut rng, 0.0, 0.5, f64::INFINITY).is_err());
        // A rejected draw consumes no randomness: the next valid draw
        // matches a fresh RNG's first draw bit for bit.
        let mut fresh = Rng::seed_from_u64(0);
        let after_rejects = try_triangular(&mut rng, 0.0, 0.5, 1.0).unwrap();
        let first = try_triangular(&mut fresh, 0.0, 0.5, 1.0).unwrap();
        assert_eq!(after_rejects.to_bits(), first.to_bits());
    }

    #[test]
    fn try_triangular_is_one_uniform_through_unit_to_triangular() {
        let mut a = Rng::seed_from_u64(9);
        let mut b = Rng::seed_from_u64(9);
        for _ in 0..1_000 {
            let x = try_triangular(&mut a, 0.5, 0.9, 1.0).unwrap();
            let y = act_rng::unit_to_triangular(b.gen(), 0.5, 0.9, 1.0);
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn relative_spread_is_nan_free() {
        // Zero spread, zero mean: certain, not NaN.
        let zero = McStats { mean: 0.0, p05: 0.0, p50: 0.0, p95: 0.0, samples: 10 };
        assert_eq!(zero.relative_spread(), 0.0);
        // Nonzero spread around a zero mean: infinitely uncertain.
        let centered = McStats { mean: 0.0, p05: -1.0, p50: 0.0, p95: 1.0, samples: 10 };
        assert_eq!(centered.relative_spread(), f64::INFINITY);
        // Near-zero (subnormal-adjacent) mean: still no blow-up into NaN.
        let tiny = McStats { mean: 1e-320, p05: 0.0, p50: 1e-320, p95: 1.0, samples: 10 };
        assert_eq!(tiny.relative_spread(), f64::INFINITY);
        // Negative mean: indicator stays non-negative.
        let negative = McStats { mean: -2.0, p05: -3.0, p50: -2.0, p95: -1.0, samples: 10 };
        assert_eq!(negative.relative_spread(), 1.0);
        // Poisoned stats never produce NaN either.
        let poisoned = McStats { mean: f64::NAN, p05: 0.0, p50: 1.0, p95: 2.0, samples: 10 };
        assert_eq!(poisoned.relative_spread(), f64::INFINITY);
    }

    /// p05/p50/p95 by full sort and `round((n - 1) * q)` indexing, as bits.
    fn sorted_percentile_bits(values: &[f64]) -> [u64; 3] {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize].to_bits();
        [at(0.05), at(0.5), at(0.95)]
    }

    /// Neumaier-compensated sum of the finite `values` in slice order: the
    /// reference the run's mean must match bit for bit, written out on
    /// draws rather than keys, independently of `sample_order_sum`.
    fn compensated_sum(values: &[f64]) -> f64 {
        let mut sum = 0.0_f64;
        let mut compensation = 0.0_f64;
        for &v in values.iter().filter(|v| v.is_finite()) {
            let t = sum + v;
            compensation += if sum.abs() >= v.abs() { (sum - t) + v } else { (v - t) + sum };
            sum = t;
        }
        if sum.is_finite() {
            sum + compensation
        } else {
            sum
        }
    }

    /// Asserts that `outcome` is the reduction of `draws` by definition:
    /// the finite draws compacted in sample order, their compensated mean
    /// and their percentiles from a full sort, all compared as bits.
    pub(crate) fn assert_reference(
        outcome: Result<McOutcome, McError>,
        draws: &[f64],
        case: &str,
    ) {
        let finite: Vec<f64> = draws.iter().copied().filter(|v| v.is_finite()).collect();
        let rejected = draws.len() - finite.len();
        if finite.is_empty() {
            assert_eq!(outcome, Err(McError::AllRejected { rejected }), "{case}");
            return;
        }
        let outcome = outcome.unwrap_or_else(|err| panic!("{case}: {err}"));
        let stats = outcome.stats;
        assert_eq!((stats.samples, outcome.rejected), (finite.len(), rejected), "{case}");
        let mean = compensated_sum(&finite) / finite.len() as f64;
        assert_eq!(stats.mean.to_bits(), mean.to_bits(), "mean, {case}");
        assert_eq!(
            [stats.p05.to_bits(), stats.p50.to_bits(), stats.p95.to_bits()],
            sorted_percentile_bits(&finite),
            "percentiles, {case}"
        );
    }

    /// `n` values from the split seeds of `trial`: by `trial % 3`,
    /// duplicates, signed zeros, negatives and subnormals; those mixed
    /// with uniform noise; or `+b, noise, -b` triples with `b` up to
    /// ~1.8e16, whose cancellation leaves the compensated mean's last bits
    /// dependent on the summation order.
    pub(crate) fn mixed_values(trial: u64, n: usize) -> Vec<f64> {
        // The values `total_cmp` orders by bit pattern rather than by `==`.
        const POOL: [f64; 10] =
            [0.0, -0.0, 1.0, 1.0, -1.0, 5e-324, -5e-324, 2.2e-308, -7.25, 1e300];
        let noise = |h: u64| (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        (0..n as u64)
            .map(|i| {
                let h = mc_sample_seed(trial, i);
                match (trial % 3, i % 3) {
                    (0, _) => POOL[(h >> 1) as usize % POOL.len()],
                    (1, _) if h & 1 == 0 => POOL[(h >> 1) as usize % POOL.len()],
                    (1, _) | (_, 1) => noise(h),
                    (_, k) => {
                        let b = (mc_sample_seed(trial, i - k) >> 10) as f64;
                        if k == 0 {
                            b
                        } else {
                            -b
                        }
                    }
                }
            })
            .collect()
    }

    /// Where the non-finite draws of a case go.
    const PLACEMENTS: [&str; 5] = ["none", "first", "last", "interleaved", "all but one"];

    /// `values` with non-finite draws planted per `placement`. Canonical
    /// NaN is what the engine hands over; ±∞ and negative NaN show that
    /// the reduction does not lean on that.
    fn with_non_finite(mut values: Vec<f64>, placement: &str) -> Vec<f64> {
        const BAD: [f64; 4] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -f64::NAN];
        let n = values.len();
        for (i, slot) in values.iter_mut().enumerate() {
            let poisoned = match placement {
                "first" => i == 0,
                "last" => i == n - 1,
                "interleaved" => i % 3 == 1,
                "all but one" => i != n / 2,
                _ => false,
            };
            if poisoned {
                *slot = BAD[i % BAD.len()];
            }
        }
        values
    }

    #[test]
    fn selected_percentiles_match_sorted_index_bitwise() {
        // n = 1 has i05 == i50 == i95 and n = 2 has i95 == i50, so the
        // skip-the-second-selection branches are exercised too.
        for n in [1usize, 2, 3, 19, 20, 21, 64, 1000] {
            for trial in 0..16u64 {
                for placement in PLACEMENTS {
                    let draws = with_non_finite(mixed_values(trial, n), placement);
                    for workers in [1, 2] {
                        let case = format!("n = {n}, trial = {trial}, {placement}, {workers}w");
                        assert_reference(summarize_draws(&draws, workers), &draws, &case);
                    }
                }
            }
        }
    }

    /// Brackets at the edges a gather meets: open at both ends (every
    /// finite key), holding only the rejected key, closed on a single key
    /// (the smallest, middle and largest finite one), open at one end
    /// from the smallest or largest finite key, and the ones
    /// [`bracket_bounds`] derives, when it derives any.
    fn edge_brackets(keys: &[u64]) -> Vec<[Bracket; 3]> {
        let mut finite: Vec<u64> = keys.iter().copied().filter(|&k| k != u64::MAX).collect();
        finite.sort_unstable();
        let closed = |lo| Bracket { lo, width: 0, span: 0 };
        let mut out =
            vec![[Bracket { lo: 0, width: u64::MAX - 1, span: 0 }; 3], [closed(u64::MAX); 3]];
        if let (Some(&lo), Some(&hi)) = (finite.first(), finite.last()) {
            out.push([closed(lo), closed(finite[finite.len() / 2]), closed(hi)]);
            out.push([
                Bracket { lo: 0, width: lo, span: 0 },
                Bracket { lo, width: hi - lo, span: 0 },
                Bracket { lo: hi, width: u64::MAX - 1 - hi, span: 0 },
            ]);
        }
        if !keys.is_empty() {
            out.extend(bracket_bounds(keys, &mut Vec::new()));
        }
        out
    }

    /// One [`GatherBrackets`] over `keys`, run by `run`: its counts and
    /// each bracket's gathered keys.
    fn gather(
        keys: &[u64],
        bounds: &[Bracket; 3],
        run: impl FnOnce(GatherBrackets<'_>) -> ([usize; 3], usize, [usize; 3]),
    ) -> ([usize; 3], usize, Vec<Vec<u64>>) {
        let mut scratch = Box::new(ChunkScratch {
            flags: [0; GATHER_CHUNK],
            inside: [0; GATHER_CHUNK],
            rows: [[0; GATHER_CHUNK]; 3],
        });
        let (below, finite, lens) = run(GatherBrackets { keys, bounds, scratch: &mut scratch });
        let rows = scratch.rows.iter().zip(lens).map(|(row, len)| row[..len].to_vec());
        (below, finite, rows.collect())
    }

    /// The tail's three [`Body`]s, [`EncodeDraws`], [`SampleOrderSum`] and
    /// [`GatherBrackets`], give the same bits in the baseline instance,
    /// run with the [`V4`](act_core::wide::V4) marker, and through
    /// `run_wide`: at lengths around the lane edges and up to a whole
    /// gather chunk, with non-finite draws placed as the reduction tests
    /// place them, and each bracket of [`edge_brackets`].
    #[test]
    fn tail_bodies_agree_in_both_instances_bitwise() {
        use act_core::wide::{Baseline, V4};
        for n in [0, 1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, GATHER_CHUNK - 1, GATHER_CHUNK] {
            for trial in 0..3 {
                for placement in PLACEMENTS {
                    let case = format!("n = {n}, trial = {trial}, {placement}");
                    let draws = with_non_finite(mixed_values(trial, n), placement);
                    let mut keys = [vec![0; n], vec![1; n], vec![2; n]];
                    let [base, v4, wide] = &mut keys;
                    EncodeDraws { draws: &draws, keys: base }.run::<Baseline>();
                    EncodeDraws { draws: &draws, keys: v4 }.run::<V4>();
                    run_wide(EncodeDraws { draws: &draws, keys: wide });
                    assert!(keys[1] == keys[0] && keys[2] == keys[0], "keys, {case}");
                    let keys = &keys[0];

                    let sums = [
                        SampleOrderSum(keys).run::<Baseline>(),
                        SampleOrderSum(keys).run::<V4>(),
                        run_wide(SampleOrderSum(keys)),
                    ]
                    .map(|(sum, finite)| (sum.to_bits(), finite));
                    assert!(sums[1] == sums[0] && sums[2] == sums[0], "sum, {case}: {sums:?}");

                    for bounds in edge_brackets(keys) {
                        let base = gather(keys, &bounds, |body| body.run::<Baseline>());
                        let v4 = gather(keys, &bounds, |body: GatherBrackets| body.run::<V4>());
                        let wide = gather(keys, &bounds, |body| run_wide(body));
                        assert_eq!(v4, base, "gather V4, {case}, {bounds:?}");
                        assert_eq!(wide, base, "gather run_wide, {case}, {bounds:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn compensated_mean_is_exact_where_a_plain_sum_drifts() {
        // A plain left-to-right (or sorted) sum gives 0.09999999999999999.
        assert_eq!(stats_of(&[0.1; 10]).mean, 0.1);
        // A plain sum loses both 1.0s to the 1e100 and gives 0.0.
        assert_eq!(stats_of(&[1.0, 1e100, 1.0, -1e100]).mean, 0.5);
        // An overflowing sum stays infinite instead of turning NaN.
        assert_eq!(stats_of(&[f64::MAX, f64::MAX]).mean, f64::INFINITY);
    }

    /// Summarizes `draws` on 1, 2 and 3 workers, each bitwise against
    /// [`assert_reference`], and returns where the percentiles were found
    /// (`None` when every draw is rejected), which must not depend on the
    /// worker count.
    fn selection_of(draws: &[f64], case: &str) -> Option<Selection> {
        let mut found = Vec::new();
        for workers in [1, 2, 3] {
            let result = summarize_draws_by(draws, workers);
            found.push(result.as_ref().ok().map(|&(_, selection)| selection));
            let outcome = result.map(|(outcome, _)| outcome);
            assert_reference(outcome, draws, &format!("{case}, {workers}w"));
        }
        assert!(found.windows(2).all(|pair| pair[0] == pair[1]), "{case}: {found:?}");
        found[0]
    }

    /// A uniform value in `0..2` from `(seed, i)`.
    fn spread(seed: u64, i: usize) -> f64 {
        (mc_sample_seed(seed, i as u64) >> 11) as f64 / (1u64 << 52) as f64
    }

    #[test]
    fn short_runs_select_in_place_and_longer_runs_in_brackets() {
        // Up to `SUBSAMPLE_KEYS` keys the subsample would be the whole
        // buffer; past it the stride is `SUBSAMPLE_MIN_STRIDE` until the
        // subsample reaches `SUBSAMPLE_KEYS` keys, then it grows.
        let edge = SUBSAMPLE_KEYS * SUBSAMPLE_MIN_STRIDE;
        let lengths = [
            (SUBSAMPLE_KEYS - 1, Selection::InPlace),
            (SUBSAMPLE_KEYS, Selection::InPlace),
            (SUBSAMPLE_KEYS + 1, Selection::Brackets),
            (edge - 1, Selection::Brackets),
            (edge, Selection::Brackets),
            (edge + SUBSAMPLE_KEYS, Selection::Brackets),
        ];
        for (n, want) in lengths {
            for trial in 0..3 {
                for placement in PLACEMENTS {
                    let draws = with_non_finite(mixed_values(trial, n), placement);
                    let case = format!("n = {n}, trial = {trial}, {placement}");
                    assert_eq!(selection_of(&draws, &case), Some(want), "{case}");
                }
            }
        }
    }

    #[test]
    fn a_subsample_blind_to_the_spread_misses_and_selects_in_place() {
        // Values that repeat with the stride's period: every subsample key
        // is the same value, so each bracket holds only that value's
        // copies, and the p50 rank (and p05 or p95) falls outside it.
        for n in [SUBSAMPLE_KEYS + 1, 70_001] {
            let stride = subsample_stride(n);
            for sign in [1.0, -1.0] {
                let draws: Vec<f64> = (0..n).map(|i| sign * (i % stride) as f64).collect();
                let case = format!("n = {n}, period {stride}, sign {sign}");
                assert_eq!(selection_of(&draws, &case), Some(Selection::InPlace), "{case}");
            }
        }
    }

    #[test]
    fn a_bracket_over_its_cap_falls_back_in_place() {
        // Every key equal: each bracket is that one key and gathers the
        // whole buffer, past `GATHER_CAP`.
        let n = GATHER_CAP + GATHER_CHUNK + 1;
        for value in [0.0, -0.0, 7.25] {
            let case = format!("{n} x {value}");
            assert_eq!(selection_of(&vec![value; n], &case), Some(Selection::InPlace));
        }
        // A 50 % point mass at p50 with the rest spread around it: the
        // p50 bracket gathers the whole mass, under the cap for 100k
        // keys and over it for 140k.
        for (n, want) in [(100_000, Selection::Brackets), (140_000, Selection::InPlace)] {
            let draws: Vec<f64> =
                (0..n).map(|i| if spread(9, i) < 1.0 { 1.0 } else { spread(5, i) }).collect();
            let case = format!("point mass, n = {n}");
            assert_eq!(selection_of(&draws, &case), Some(want), "{case}");
        }
    }

    #[test]
    fn a_bracket_wider_than_its_cap_is_never_gathered() {
        // The p50 bracket spans about `10 sqrt(m / 4) * stride` keys:
        // under `GATHER_CAP` at 800k distinct keys, over it at 900k.
        let keys = |n: usize| -> Vec<u64> { (0..n).map(|i| order_key(spread(3, i))).collect() };
        assert!(bracket_bounds(&keys(800_000), &mut Vec::new()).is_some());
        assert!(bracket_bounds(&keys(900_000), &mut Vec::new()).is_none());
        let draws: Vec<f64> = (0..900_000).map(|i| spread(3, i)).collect();
        for workers in [1, 2] {
            let result = summarize_draws_by(&draws, workers);
            assert_eq!(result.map(|(_, selection)| selection), Ok(Selection::InPlace));
            let case = format!("900k keys, {workers}w");
            assert_reference(summarize_draws(&draws, workers), &draws, &case);
        }
    }

    #[test]
    fn rejected_keys_in_and_out_of_the_subsample_leave_the_brackets_exact() {
        // ±inf/NaN (key `u64::MAX`) as none, half, or all but one of the
        // keys, placed in or out of the subsample's slots.
        let n = 6 * SUBSAMPLE_KEYS + 5;
        let stride = subsample_stride(n);
        let placements: [(&str, &dyn Fn(usize) -> bool); 7] = [
            ("none", &|_| false),
            ("every subsample slot", &|i| i % stride == 0),
            ("half, the subsample finite", &|i| i % 2 == 1),
            ("half, the subsample rejected", &|i| i % 2 == 0),
            ("all but one outside the subsample", &|i| i != stride / 2),
            ("all but one in the subsample", &|i| i != 3 * stride),
            ("all", &|_| true),
        ];
        const BAD: [f64; 4] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -f64::NAN];
        for trial in 0..3 {
            for (name, rejected) in placements {
                let draws: Vec<f64> = mixed_values(trial, n)
                    .into_iter()
                    .enumerate()
                    .map(|(i, v)| if rejected(i) { BAD[i % BAD.len()] } else { v })
                    .collect();
                let case = format!("trial = {trial}, {name}");
                let want = (name != "all").then_some(Selection::Brackets);
                assert_eq!(selection_of(&draws, &case), want, "{case}");
            }
        }
    }

    #[test]
    fn sample_seeds_are_well_spread() {
        // Consecutive indices and nearby masters must not collide.
        let mut seen = std::collections::HashSet::new();
        for master in 0..8u64 {
            for index in 0..1_000u64 {
                assert!(seen.insert(mc_sample_seed(master, index)));
            }
        }
    }
}
