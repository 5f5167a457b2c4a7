//! Deterministic thread-parallel evaluation primitives.
//!
//! The engine runs on the crate's persistent worker pool (`pool` module) —
//! no external thread-pool dependency — so `act-dse` stays embeddable and
//! dependency-light, and steady-state dispatch costs a lock round-trip
//! instead of spawning OS threads per call. Work is handed out through an
//! atomic index (dynamic load balancing for skewed models), each worker
//! collects `(index, result)` pairs, and the merged results are returned
//! in **input order**: parallel evaluation is observationally identical to
//! the serial loop for any pure model.
//!
//! Thread count is a [`Parallelism`] policy: `Serial` (no threads at all),
//! `Auto` (the `ACT_THREADS` environment variable, else every available
//! core) or an explicit `Threads(n)`. It resolves two ways.
//! [`Parallelism::resolve`] gives the policy's count as it stands; task
//! lists such as [`par_map_ordered`] use it, because one task can
//! outweigh thousands of points. [`Parallelism::resolve_for`] is for
//! point batches of known size: it caps the count at one worker per point
//! and, for the machine-default `Auto`, consults a one-shot
//! [`Calibration`] — measured pool-dispatch overhead vs. per-point kernel
//! cost — and falls back to serial below the measured break-even batch
//! size, so `Auto` never pays dispatch overhead on batches too small to
//! amortize it.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

use act_core::{CompiledFootprint, FreeAxis, ModelParams};

/// Thread-count policy every sweep, Monte-Carlo and batch entry point takes.
///
/// # Examples
///
/// ```
/// use act_dse::Parallelism;
///
/// assert_eq!(Parallelism::Serial.resolve().workers, 1);
/// assert!(Parallelism::Auto.resolve().workers >= 1);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum Parallelism {
    /// One worker on the calling thread: no threads are spawned and
    /// evaluation order matches the serial loop exactly.
    Serial,
    /// Honors the `ACT_THREADS` environment variable when it parses as an
    /// integer from 1 to 1024, else uses the machine's available
    /// parallelism.
    #[default]
    Auto,
    /// Exactly this many workers.
    Threads(NonZeroUsize),
}

impl Parallelism {
    /// Resolves the policy to a concrete worker count (always ≥ 1),
    /// reporting whether an `ACT_THREADS` override was **ignored**. No
    /// break-even threshold applies: this is the count for a list of
    /// tasks, each of which may be heavy.
    ///
    /// `Serial` and `Threads(n)` never warn. `Auto` warns exactly when the
    /// `ACT_THREADS` environment variable is set but unusable (empty,
    /// non-numeric, zero, or above 1024); the returned count is then the
    /// machine default, and the [`ThreadsWarning`] says what was rejected
    /// and why so callers can tell the user rather than silently running
    /// on a different thread count than they asked for.
    ///
    /// # Examples
    ///
    /// ```
    /// use act_dse::Parallelism;
    ///
    /// let resolved = Parallelism::Serial.resolve();
    /// assert_eq!((resolved.workers, resolved.warning), (1, None));
    /// ```
    #[must_use]
    pub fn resolve(self) -> ResolvedParallelism {
        self.resolve_capped(usize::MAX, false)
    }

    /// Resolves the policy for a batch of `len` points: never more than
    /// one worker per point (`workers <= len.max(1)`), and the break-even
    /// [`Calibration`] applied when the policy is a pure machine-default
    /// `Auto`: batches below the calibrated threshold resolve to **one
    /// worker** (serial), because pool-dispatch overhead would exceed the
    /// parallel win. Explicit policies — `Serial`, `Threads(n)`, and a
    /// valid `ACT_THREADS` override — bypass the threshold entirely; the
    /// user asked for a specific worker count and gets it.
    ///
    /// # Examples
    ///
    /// ```
    /// use act_dse::Parallelism;
    ///
    /// // Explicit policies never consult the calibration.
    /// assert_eq!(Parallelism::threads(4).resolve_for(10).workers, 4);
    /// // No batch gets more workers than points.
    /// assert_eq!(Parallelism::threads(4).resolve_for(3).workers, 3);
    /// ```
    #[must_use]
    pub fn resolve_for(self, len: usize) -> ResolvedParallelism {
        self.resolve_capped(len, true)
    }

    /// The one resolver: the policy's count, at most one worker per task
    /// of `len`, and serial below the calibrated threshold when
    /// `break_even` is set and the count is the machine default.
    fn resolve_capped(self, len: usize, break_even: bool) -> ResolvedParallelism {
        let (workers, warning, machine_default) = match self {
            Self::Serial => (1, None, false),
            Self::Threads(n) => (n.get(), None, false),
            Self::Auto => match env_threads() {
                Ok(Some(n)) => (n, None, false),
                Ok(None) => (machine_parallelism(), None, true),
                Err(warning) => (machine_parallelism(), Some(warning), true),
            },
        };
        let serial_wins = break_even
            && machine_default
            && workers > 1
            && len < calibration().threshold_points;
        let workers = if serial_wins { 1 } else { workers.min(len.max(1)) };
        ResolvedParallelism { workers, warning }
    }

    /// Convenience constructor clamping `n` up to 1, for callers holding a
    /// plain `usize` (e.g. parsed CLI input).
    #[must_use]
    pub fn threads(n: usize) -> Self {
        match NonZeroUsize::new(n) {
            Some(n) => Self::Threads(n),
            None => Self::Serial,
        }
    }
}

/// A resolved [`Parallelism`] policy: the worker count, and the
/// `ACT_THREADS` value it ignored, if any.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResolvedParallelism {
    /// The concrete worker count (always ≥ 1).
    pub workers: usize,
    /// A rejected `ACT_THREADS` override, when one was ignored.
    pub warning: Option<ThreadsWarning>,
}

/// The process-wide break-even calibration consulted by
/// [`Parallelism::resolve_for`]: the minimum batch size (in points) at
/// which a machine-default `Auto` dispatches in parallel.
///
/// Decided once per process and cached:
///
/// 1. Single-core hosts pin the threshold to `usize::MAX`: parallel can
///    never win.
/// 2. Otherwise a one-shot microcalibration measures pool-dispatch
///    overhead against the per-point cost of `eval_block` on a fixed
///    reference plan and picks the break-even batch size with a 2× safety
///    margin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Calibration {
    /// Minimum batch length for a parallel `Auto` dispatch.
    pub threshold_points: usize,
    /// Where the threshold came from.
    pub source: CalibrationSource,
}

/// Where a [`Calibration`] threshold came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CalibrationSource {
    /// The one-shot dispatch-vs-kernel microcalibration.
    Measured,
    /// A single-core host: parallel dispatch can never win, threshold is
    /// `usize::MAX`.
    SingleCore,
}

impl CalibrationSource {
    /// Stable lower-case name for machine-readable output.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Measured => "measured",
            Self::SingleCore => "single-core",
        }
    }
}

impl act_json::ToJson for Calibration {
    /// `{"threshold_points": <points|null>, "source": "<name>"}` — the one
    /// shape shared by `act-server` trailers and benchmark records.
    ///
    /// The single-core pin `usize::MAX` means "unbounded: parallel can
    /// never win" and has no faithful JSON integer form — through an `f64`
    /// it would print as the garbage integer `18446744073709552000` — so
    /// an unbounded threshold serializes as `null` (`"source":
    /// "single-core"` already says why).
    fn to_json(&self) -> act_json::JsonValue {
        let threshold = if self.threshold_points == usize::MAX {
            act_json::JsonValue::Null
        } else {
            act_json::ToJson::to_json(&self.threshold_points)
        };
        act_json::JsonValue::Object(
            act_json::JsonObject::new()
                .with("threshold_points", threshold)
                .with("source", act_json::ToJson::to_json(self.source.as_str())),
        )
    }
}

/// The cached process-wide [`Calibration`]. The first call on a multi-core
/// host runs the microcalibration
/// (well under a millisecond); every later call is a load.
#[must_use]
pub fn calibration() -> Calibration {
    static CALIBRATION: OnceLock<Calibration> = OnceLock::new();
    *CALIBRATION.get_or_init(calibrate)
}

fn calibrate() -> Calibration {
    if machine_parallelism() <= 1 {
        return Calibration {
            threshold_points: usize::MAX,
            source: CalibrationSource::SingleCore,
        };
    }
    Calibration { threshold_points: measure_threshold(), source: CalibrationSource::Measured }
}

/// Measures the break-even batch size: pool-dispatch overhead divided by
/// the per-point serial win of going parallel, with a 2× safety margin so
/// borderline batches stay serial. The per-point cost is the reference
/// plan's ([`reference_ns_per_point`]); callers with much heavier or
/// lighter kernels pick an explicit [`Parallelism`] instead.
fn measure_threshold() -> usize {
    let workers = machine_parallelism();
    let overhead = crate::pool::measure_dispatch_overhead(workers, 16);
    let per_point_ns = reference_ns_per_point();
    // Parallel wins when n·c − n·c/w > overhead, i.e. beyond
    // n = overhead / (c · (1 − 1/w)); double it for a safety margin.
    let w = workers as f64;
    let efficiency = 1.0 - 1.0 / w;
    let overhead_ns = overhead.as_nanos() as f64;
    let break_even = (2.0 * overhead_ns) / (per_point_ns.max(0.1) * efficiency.max(0.1));
    // Clamp to sane bounds: never parallelize truly tiny batches, never
    // refuse batches big enough that any real overhead is amortized.
    break_even.clamp(512.0, 1_048_576.0) as usize
}

/// Serial ns per point of `EvalPlan::eval_block` on a fixed reference
/// plan, best of 3 runs: the mobile reference design free in SoC area
/// and use-phase grid intensity (the `sweep` plan shape), over a
/// 1024-point block. `eval_block` dispatches to the host's widest
/// instance, so the cost is the one the block engine pays.
fn reference_ns_per_point() -> f64 {
    const POINTS: usize = 1024;
    const REPEATS: usize = 64;
    let plan = CompiledFootprint::compile(
        &ModelParams::mobile_reference(),
        &[FreeAxis::SocArea, FreeAxis::UseIntensity],
    )
    .plan();
    let areas: Vec<f64> = (0..POINTS).map(|i| 10.0 + i as f64).collect();
    let intensities: Vec<f64> = (0..POINTS).map(|i| 20.0 + (i % 880) as f64).collect();
    let columns = [areas.as_slice(), intensities.as_slice()];
    let mut out = vec![0.0; POINTS];
    let mut per_point_ns = f64::INFINITY;
    for _ in 0..3 {
        let start = std::time::Instant::now();
        for _ in 0..REPEATS {
            plan.eval_block(std::hint::black_box(&columns), 0..POINTS, &mut out);
        }
        let elapsed = start.elapsed().as_nanos() as f64;
        // Keep `out` observable so the loop cannot be optimized away.
        std::hint::black_box(&out);
        per_point_ns = per_point_ns.min(elapsed / (REPEATS * POINTS) as f64);
    }
    per_point_ns
}

/// The host's available parallelism as the engine sees it: what
/// [`std::thread::available_parallelism`] reports (which honors cgroup and
/// affinity limits), clamped to 1 when the call fails. Read once per
/// process and cached like the [`calibration`] that depends on it: on
/// Linux the underlying call reads cgroup files (tens of microseconds),
/// and every `Auto` resolution without `ACT_THREADS` consults it.
fn machine_parallelism() -> usize {
    static MACHINE: OnceLock<usize> = OnceLock::new();
    *MACHINE.get_or_init(|| {
        std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
    })
}

/// A set-but-unusable `ACT_THREADS` value, reported by
/// [`Parallelism::resolve`] so the rejection is observable instead of a
/// silent fallback to the machine default.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadsWarning {
    /// The raw `ACT_THREADS` value that was rejected, verbatim.
    pub raw: String,
    /// Why it was rejected.
    pub reason: ThreadsWarningReason,
}

/// Why an `ACT_THREADS` value was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ThreadsWarningReason {
    /// The variable was set but empty or whitespace-only.
    Empty,
    /// The value did not parse as a base-10 unsigned integer (this
    /// includes values too large for `usize`).
    NotAPositiveInteger,
    /// The value parsed as `0`, which is not a valid worker count.
    Zero,
    /// The value is above 1024, the most workers `ACT_THREADS` may ask
    /// for: pool threads persist for the process, so the ceiling bounds
    /// what a typo can start. It does not depend on the host.
    AboveCeiling,
}

impl std::fmt::Display for ThreadsWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let detail = match self.reason {
            ThreadsWarningReason::Empty => "it is empty",
            ThreadsWarningReason::NotAPositiveInteger => "it is not a positive integer",
            ThreadsWarningReason::Zero => "a worker count must be at least 1",
            ThreadsWarningReason::AboveCeiling => "a worker count must be at most 1024",
        };
        write!(f, "ignoring ACT_THREADS={:?} ({detail}); using the machine default", self.raw)
    }
}

impl std::error::Error for ThreadsWarning {}

/// The `ACT_THREADS` override: `Ok(Some(n))` forces `n` workers,
/// `Ok(None)` means the variable is unset (or not unicode), `Err` means it
/// is set but unusable.
fn env_threads() -> Result<Option<usize>, ThreadsWarning> {
    match std::env::var("ACT_THREADS") {
        Ok(raw) => parse_threads(&raw).map(Some),
        Err(_) => Ok(None),
    }
}

/// The largest worker count `ACT_THREADS` may ask for.
const MAX_ENV_THREADS: usize = 1024;

/// Pure parser behind [`env_threads`], split out so the rejection cases
/// are testable without touching process-global environment state (which
/// would race under the parallel test harness).
fn parse_threads(raw: &str) -> Result<usize, ThreadsWarning> {
    let reject = |reason| ThreadsWarning { raw: raw.to_owned(), reason };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Err(reject(ThreadsWarningReason::Empty));
    }
    match trimmed.parse::<usize>() {
        Ok(0) => Err(reject(ThreadsWarningReason::Zero)),
        Ok(n) if n > MAX_ENV_THREADS => Err(reject(ThreadsWarningReason::AboveCeiling)),
        Ok(n) => Ok(n),
        Err(_) => Err(reject(ThreadsWarningReason::NotAPositiveInteger)),
    }
}

/// Applies `f(index, &item)` to every element of `items`, in parallel,
/// returning results in input order.
///
/// The worker count is [`Parallelism::resolve`]'s, capped at one worker
/// per item, with no break-even threshold: the items are tasks, and a
/// list of a few dozen heavy ones (the experiment jobs of `act all`) is
/// worth spreading although it is far shorter than any point batch that
/// clears the calibration.
///
/// A panicking `f` propagates its payload to the caller after every worker
/// has stopped, matching the serial loop's failure mode.
///
/// # Examples
///
/// ```
/// use act_dse::{par_map_ordered, Parallelism};
///
/// let doubled = par_map_ordered(Parallelism::Auto, &[1, 2, 3], |_, x| x * 2);
/// assert_eq!(doubled, vec![2, 4, 6]);
/// ```
pub fn par_map_ordered<T, R, F>(parallelism: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = parallelism.resolve_capped(items.len(), false).workers;
    if workers <= 1 {
        return items.iter().enumerate().map(|(index, item)| f(index, item)).collect();
    }
    par_map_threaded(workers, items.len(), &|index| f(index, &items[index]))
}

fn par_map_threaded<R, F>(workers: usize, len: usize, f: &F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Mutex, PoisonError};

    let next = AtomicUsize::new(0);
    let buckets: Mutex<Vec<Vec<(usize, R)>>> = Mutex::new(Vec::with_capacity(workers));
    // Dispatch onto the persistent pool: the caller plus `workers - 1`
    // pool threads each run this work-stealing loop until the shared
    // cursor drains. A panicking `f` propagates out of `pool::run` after
    // every participant has stopped, matching the serial failure mode.
    crate::pool::run(workers, &|| {
        let mut local = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= len {
                break;
            }
            local.push((index, f(index)));
        }
        if !local.is_empty() {
            buckets.lock().unwrap_or_else(PoisonError::into_inner).push(local);
        }
    });
    let buckets = buckets.into_inner().unwrap_or_else(PoisonError::into_inner);
    let mut indexed: Vec<(usize, R)> = buckets.into_iter().flatten().collect();
    indexed.sort_by_key(|&(index, _)| index);
    indexed.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn four() -> Parallelism {
        Parallelism::threads(4)
    }

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let serial = par_map_ordered(Parallelism::Serial, &items, |_, x| x * 3);
        let parallel = par_map_ordered(four(), &items, |_, x| x * 3);
        assert_eq!(serial, parallel);
        assert_eq!(parallel[17], 51);
    }

    #[test]
    fn skewed_workloads_still_order_correctly() {
        // Later items finish first; ordering must still hold.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map_ordered(four(), &items, |i, x| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            *x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_ordered(four(), &empty, |_, x| *x).is_empty());
        assert_eq!(par_map_ordered(four(), &[9], |_, x| *x + 1), vec![10]);
    }

    #[test]
    fn worker_count_resolution() {
        assert_eq!(Parallelism::Serial.resolve().workers, 1);
        assert_eq!(Parallelism::threads(6).resolve().workers, 6);
        assert_eq!(Parallelism::threads(0).resolve().workers, 1);
        assert!(Parallelism::Auto.resolve().workers >= 1);
        assert_eq!(Parallelism::default(), Parallelism::Auto);
    }

    /// The `ACT_THREADS` count this test process runs under: `Some(n)` for
    /// a valid override, `None` for none or a rejected one (the machine
    /// default then applies).
    fn env_override() -> Option<usize> {
        std::env::var("ACT_THREADS").ok().and_then(|raw| parse_threads(&raw).ok())
    }

    /// Regression test for the pr5-hermetic bench mystery (`act all`
    /// speedup ≈1×): `Auto` must resolve to the machine's full available
    /// parallelism — in particular **more than one worker on a multi-core
    /// host** — unless a valid `ACT_THREADS` override says otherwise. On a
    /// genuinely single-core host (as the pr5 bench machine turned out to
    /// be) the correct resolution is 1.
    #[test]
    fn auto_resolves_to_machine_parallelism() {
        let resolved = Parallelism::Auto.resolve();
        let rejected = std::env::var("ACT_THREADS").is_ok() && env_override().is_none();
        assert_eq!(resolved.warning.is_some(), rejected);
        match env_override() {
            Some(n) => assert_eq!(resolved.workers, n),
            None => {
                assert_eq!(resolved.workers, machine_parallelism());
                // The actual multi-core regression assertion: a host with
                // more than one core must never fall back to one worker.
                if std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1) > 1
                {
                    assert!(
                        resolved.workers > 1,
                        "Auto resolved to 1 worker on a multi-core host"
                    );
                }
            }
        }
    }

    #[test]
    fn calibration_is_cached_and_coherent() {
        let first = calibration();
        assert_eq!(first, calibration(), "calibration must be stable per process");
        match first.source {
            CalibrationSource::SingleCore => {
                assert!(machine_parallelism() <= 1);
                assert_eq!(first.threshold_points, usize::MAX);
            }
            CalibrationSource::Measured => {
                assert!(machine_parallelism() > 1);
                assert!((512..=1_048_576).contains(&first.threshold_points));
            }
        }
    }

    /// Break-even fallback: a tiny batch under a machine-default `Auto`
    /// must resolve to one worker (serial) on any host — multi-core hosts
    /// via the calibrated threshold (which is clamped ≥ 512), single-core
    /// hosts trivially.
    #[test]
    fn tiny_batches_resolve_serial_under_auto() {
        if env_override().is_none() {
            assert_eq!(Parallelism::Auto.resolve_for(4).workers, 1, "4 points never amortize");
            assert!(512 <= calibration().threshold_points);
        }
    }

    #[test]
    fn huge_batches_resolve_parallel_under_auto_on_multicore() {
        let workers = Parallelism::Auto.resolve_for(usize::MAX).workers;
        assert_eq!(workers, env_override().unwrap_or_else(machine_parallelism));
    }

    /// `resolve_for` never grants more workers than points, whatever the
    /// policy, and an empty batch still gets one worker.
    #[test]
    fn batches_get_at_most_one_worker_per_point() {
        for policy in [Parallelism::Serial, Parallelism::threads(3), Parallelism::Auto] {
            for len in [0, 1, 2, 3, 5, 1 << 20] {
                let workers = policy.resolve_for(len).workers;
                assert!((1..=len.max(1)).contains(&workers), "{policy:?} len {len}: {workers}");
            }
        }
    }

    #[test]
    fn explicit_policies_bypass_the_threshold() {
        assert_eq!(Parallelism::Serial.resolve_for(1000).workers, 1);
        assert_eq!(Parallelism::threads(3).resolve_for(3).workers, 3);
    }

    /// The `usize::MAX` single-core pin must encode as `null`, never as
    /// the f64-rounded garbage integer `18446744073709552000`; bounded
    /// thresholds encode as plain integers.
    #[test]
    fn calibration_json_encodes_unbounded_threshold_as_null() {
        use act_json::ToJson;

        let pinned =
            Calibration { threshold_points: usize::MAX, source: CalibrationSource::SingleCore };
        assert_eq!(
            pinned.to_json().render_compact(),
            r#"{"threshold_points":null,"source":"single-core"}"#
        );

        let measured =
            Calibration { threshold_points: 2048, source: CalibrationSource::Measured };
        assert_eq!(
            measured.to_json().render_compact(),
            r#"{"threshold_points":2048,"source":"measured"}"#
        );
    }

    #[test]
    fn explicit_policies_never_warn() {
        let none = |workers| ResolvedParallelism { workers, warning: None };
        assert_eq!(Parallelism::Serial.resolve(), none(1));
        assert_eq!(Parallelism::threads(6).resolve(), none(6));
        // `threads(0)` clamps to Serial at construction, before resolve.
        assert_eq!(Parallelism::threads(0).resolve(), none(1));
    }

    #[test]
    fn valid_thread_overrides_parse() {
        assert_eq!(parse_threads("1"), Ok(1));
        assert_eq!(parse_threads("8"), Ok(8));
        // Surrounding whitespace is tolerated, matching historic behavior.
        assert_eq!(parse_threads("  4\n"), Ok(4));
        // The ceiling itself is accepted.
        assert_eq!(parse_threads("1024"), Ok(MAX_ENV_THREADS));
    }

    #[test]
    fn rejected_thread_overrides_say_why() {
        let cases = [
            ("0", ThreadsWarningReason::Zero),
            ("  0 ", ThreadsWarningReason::Zero),
            ("", ThreadsWarningReason::Empty),
            ("   ", ThreadsWarningReason::Empty),
            ("\t\n", ThreadsWarningReason::Empty),
            ("four", ThreadsWarningReason::NotAPositiveInteger),
            ("-2", ThreadsWarningReason::NotAPositiveInteger),
            ("3.5", ThreadsWarningReason::NotAPositiveInteger),
            // Larger than any usize: overflow is a rejection, not a wrap.
            ("99999999999999999999999", ThreadsWarningReason::NotAPositiveInteger),
            // Pool threads persist, so a typo must not start 100k of them.
            ("1025", ThreadsWarningReason::AboveCeiling),
            ("100000", ThreadsWarningReason::AboveCeiling),
            (" 18446744073709551615 ", ThreadsWarningReason::AboveCeiling),
        ];
        for (raw, reason) in cases {
            let warning = parse_threads(raw).expect_err(raw);
            assert_eq!(warning.reason, reason, "raw = {raw:?}");
            assert_eq!(warning.raw, raw, "raw value must round-trip verbatim");
        }
    }

    #[test]
    fn warning_display_names_the_variable_and_value() {
        let warning = parse_threads("banana").expect_err("not a number");
        let message = warning.to_string();
        assert!(message.contains("ACT_THREADS"), "got: {message}");
        assert!(message.contains("banana"), "got: {message}");
    }

    #[test]
    fn index_is_passed_through() {
        let out = par_map_ordered(four(), &[0u8; 10], |i, _| i * i);
        assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn panics_propagate_with_payload() {
        let caught = std::panic::catch_unwind(|| {
            par_map_ordered(four(), &[0u8; 100], |i, _| {
                assert!(i != 37, "poisoned index");
                i
            })
        });
        let payload = caught.expect_err("worker panic must propagate");
        // A no-args `assert!` message panics with a `&'static str` payload;
        // formatted ones carry a `String`. Accept either.
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(message.contains("poisoned index"), "got: {message}");
    }
}
