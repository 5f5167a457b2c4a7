//! Std-only benchmark harness for the ACT reproduction.
//!
//! The workspace builds hermetically — no registry dependencies — so the
//! bench targets cannot link criterion. This module is the replacement: a
//! small wall-clock harness with the same command-line contract the CI
//! smoke pass relies on (`cargo bench ... -- --test` runs every benchmark
//! once as a smoke test).
//!
//! Two bench targets exist:
//!
//! * `paper` — one benchmark per figure/table; each iteration regenerates
//!   the artifact end to end (`bench_fig1` … `bench_table12`, then
//!   `bench_ablations` for the sensitivity studies and `bench_all` for
//!   the parallel `all`), plus `ftl/steady_state_pf04`, the GC-bound 4 %
//!   row of Figure 15 on its own.
//! * `compiled` — the per-point footprint pipeline versus the compiled
//!   kernel's block plan on the `act_dse` block engine, with bit-identity
//!   cross-checks before timing.
//!
//! Run with `cargo bench --workspace`. Each case prints its
//! per-iteration mean, best and median over batches of about 10 µs (one
//! iteration per batch for slower bodies, and for
//! [`Harness::bench_with_setup`], whose fresh input is made outside the
//! timing): on a loaded shared host the mean moves with the load, while
//! the best and the median show a change of a few percent. These are
//! per-function micro-benchmarks; end-to-end numbers and the
//! `BENCH_results.json` trajectory come from the repository benchmark in
//! `benchmark/`.

use std::time::Instant;

pub use std::hint::black_box;

/// How a bench target runs: full timing or a single-iteration smoke pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// Adaptive timing: iterate until the measurement window fills.
    Measure,
    /// `-- --test`: one iteration per benchmark, correctness only.
    Smoke,
}

/// Minimum measured wall-clock per benchmark before reporting, in
/// milliseconds. Cheap bodies run many batches inside this window;
/// expensive ones (the FTL simulation) stop at [`MAX_BATCHES`].
const MEASURE_WINDOW_MS: f64 = 200.0;
/// Batch floor so the figures never rest on a single noisy sample.
const MIN_BATCHES: usize = 3;
/// Batch ceiling so cheap bodies terminate promptly.
const MAX_BATCHES: usize = 1_000;
/// Wall-clock one timed batch aims for, in nanoseconds: a body cheaper
/// than this runs several times per batch, so the clock reads are noise.
const BATCH_NS: f64 = 10_000.0;

/// A registered-and-run benchmark's outcome, per iteration. The best and
/// the median batch show a change that the mean of a loaded shared host
/// hides.
#[derive(Clone, Debug)]
struct Record {
    name: String,
    iters: u64,
    mean_ns: f64,
    best_ns: f64,
    median_ns: f64,
}

/// The bench runner: parses the libtest/criterion-style argument tail and
/// times each registered closure.
///
/// # Examples
///
/// ```
/// let mut harness = act_bench::Harness::new(["--test".to_owned()]);
/// harness.bench("square", || act_bench::black_box(7_u64 * 7));
/// harness.finish();
/// ```
#[derive(Debug)]
pub struct Harness {
    mode: Mode,
    /// Positional substring filters; empty = run everything.
    filters: Vec<String>,
    records: Vec<Record>,
    skipped: usize,
}

impl Harness {
    /// Builds a harness from an explicit argument list (testing hook).
    /// Recognizes `--test` (smoke mode), ignores the flags criterion
    /// accepted (`--bench`, `--noplot`, …), and treats bare words as
    /// substring filters on benchmark names.
    #[must_use]
    pub fn new(args: impl IntoIterator<Item = String>) -> Self {
        let mut mode = Mode::Measure;
        let mut filters = Vec::new();
        for arg in args {
            match arg.as_str() {
                "--test" => mode = Mode::Smoke,
                flag if flag.starts_with('-') => {}
                word => filters.push(word.to_owned()),
            }
        }
        Self { mode, filters, records: Vec::new(), skipped: 0 }
    }

    /// Builds a harness from the process arguments (the normal entry).
    #[must_use]
    pub fn from_env() -> Self {
        Self::new(std::env::args().skip(1))
    }

    fn selected(&self, name: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| name.contains(f))
    }

    /// Runs one benchmark. The closure's return value is passed through
    /// [`black_box`] so the optimizer cannot delete the body. Iterations
    /// are timed in batches of about 10 µs.
    pub fn bench<T>(&mut self, name: &str, mut body: impl FnMut() -> T) {
        if !self.selected(name) {
            self.skipped += 1;
            return;
        }
        match self.mode {
            Mode::Smoke => {
                black_box(body());
                println!("test {name} ... ok");
            }
            Mode::Measure => {
                // Warm-up iteration: page in code and data, fill caches,
                // and size the batch from its time.
                let started = Instant::now();
                black_box(body());
                let once_ns = started.elapsed().as_secs_f64() * 1e9;
                let batch = (BATCH_NS / once_ns.max(1.0)).ceil().clamp(1.0, 1e6) as u32;
                self.measure(name, u64::from(batch), || {
                    let started = Instant::now();
                    for _ in 0..batch {
                        black_box(body());
                    }
                    started.elapsed().as_secs_f64() * 1e9
                });
            }
        }
    }

    /// Runs one benchmark whose every iteration needs fresh input:
    /// `setup` makes it outside the timing, and each timed batch is one
    /// `body` call on it. `body`'s return value is dropped after the
    /// clock stops, through [`black_box`].
    pub fn bench_with_setup<S, T>(
        &mut self,
        name: &str,
        mut setup: impl FnMut() -> S,
        mut body: impl FnMut(S) -> T,
    ) {
        if !self.selected(name) {
            self.skipped += 1;
            return;
        }
        let mut once = || {
            let input = setup();
            let started = Instant::now();
            let output = body(input);
            let elapsed_ns = started.elapsed().as_secs_f64() * 1e9;
            black_box(output);
            elapsed_ns
        };
        match self.mode {
            Mode::Smoke => {
                once();
                println!("test {name} ... ok");
            }
            Mode::Measure => {
                once();
                self.measure(name, 1, once);
            }
        }
    }

    /// Times batches of `batch` iterations through `timed_batch` (which
    /// returns a batch's nanoseconds) until the window fills, then
    /// records and prints the per-iteration mean, best and median.
    fn measure(&mut self, name: &str, batch: u64, mut timed_batch: impl FnMut() -> f64) {
        let started = Instant::now();
        let mut per_iter = Vec::new();
        while per_iter.len() < MAX_BATCHES
            && (per_iter.len() < MIN_BATCHES
                || started.elapsed().as_secs_f64() * 1e3 < MEASURE_WINDOW_MS)
        {
            per_iter.push(timed_batch() / batch as f64);
        }
        let mean_ns = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
        per_iter.sort_by(f64::total_cmp);
        let (best_ns, median_ns) = (per_iter[0], per_iter[per_iter.len() / 2]);
        let iters = batch * per_iter.len() as u64;
        println!(
            "bench {name:<44} {:>12} ns/iter (best {}, median {}; {iters} iters)",
            format_ns(mean_ns),
            format_ns(best_ns),
            format_ns(median_ns),
        );
        self.records.push(Record { name: name.to_owned(), iters, mean_ns, best_ns, median_ns });
    }

    /// Prints the closing summary line. Call last in `main`.
    pub fn finish(self) {
        match self.mode {
            Mode::Smoke => println!("\nbench smoke ok ({} skipped)", self.skipped),
            Mode::Measure => {
                let total_ms: f64 =
                    self.records.iter().map(|r| r.mean_ns * r.iters as f64 / 1e6).sum();
                let slowest = self
                    .records
                    .iter()
                    .max_by(|a, b| a.median_ns.total_cmp(&b.median_ns))
                    .map_or_else(String::new, |r| {
                        let (best, median) = (format_ns(r.best_ns), format_ns(r.median_ns));
                        format!(" (slowest: {}, best {best}, median {median} ns/iter)", r.name)
                    });
                println!(
                    "\n{} benchmarks, {} skipped, {:.0} ms measured{slowest}",
                    self.records.len(),
                    self.skipped,
                    total_ms
                );
            }
        }
    }
}

/// Renders nanoseconds with thousands separators (readability only).
fn format_ns(ns: f64) -> String {
    let whole = ns.round().max(0.0);
    // f64 → u128 after rounding and clamping non-negative is exact for any
    // plausible bench duration.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let mut value = whole as u128;
    let mut groups = Vec::new();
    loop {
        let group = value % 1000;
        value /= 1000;
        if value == 0 {
            groups.push(group.to_string());
            break;
        }
        groups.push(format!("{group:03}"));
    }
    groups.reverse();
    groups.join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_mode_runs_each_body_once() {
        let mut harness = Harness::new(["--test".to_owned()]);
        let mut calls = 0u32;
        harness.bench("counting", || calls += 1);
        assert_eq!(calls, 1);
        harness.finish();
    }

    #[test]
    fn filters_select_by_substring() {
        let mut harness = Harness::new(["--test".to_owned(), "pareto".to_owned()]);
        let mut ran = Vec::new();
        harness.bench("pareto_skyline", || ran.push("skyline"));
        harness.bench("sweep_10k", || ran.push("sweep"));
        assert_eq!(ran, ["skyline"]);
        assert_eq!(harness.skipped, 1);
    }

    #[test]
    fn unknown_flags_are_ignored_like_criterion_did() {
        let harness = Harness::new(["--bench".to_owned(), "--noplot".to_owned()]);
        assert_eq!(harness.mode, Mode::Measure);
        assert!(harness.filters.is_empty());
    }

    #[test]
    fn measure_mode_respects_the_iteration_floor() {
        let mut harness = Harness::new(Vec::new());
        let mut calls = 0u64;
        harness.bench("cheap", || calls += 1);
        // Warm-up + at least MIN_BATCHES measured batches.
        let record = &harness.records[0];
        assert!(calls > MIN_BATCHES as u64, "calls {calls}");
        assert_eq!((harness.records.len(), calls), (1, record.iters + 1));
        assert!(record.best_ns >= 0.0, "{record:?}");
        assert!(record.best_ns <= record.median_ns && record.best_ns <= record.mean_ns);
    }

    #[test]
    fn setup_runs_once_per_iteration_outside_the_timing() {
        let mut harness = Harness::new(["--test".to_owned()]);
        let (mut made, mut used) = (0u32, 0u32);
        harness.bench_with_setup("fresh", || made += 1, |()| used += 1);
        assert_eq!((made, used), (1, 1));

        // A setup that sleeps 2 ms for a body that takes nanoseconds: the
        // sleep shows in no figure.
        let mut harness = Harness::new(Vec::new());
        let (mut made, mut used) = (0u64, 0u64);
        harness.bench_with_setup(
            "sleepy setup",
            || {
                std::thread::sleep(std::time::Duration::from_millis(2));
                made += 1;
                made
            },
            |input| used += input,
        );
        let record = &harness.records[0];
        assert_eq!(record.iters + 1, made);
        assert_eq!(used, made * (made + 1) / 2);
        assert!(record.mean_ns < 1e6, "{record:?}");
    }

    #[test]
    fn ns_formatting_groups_thousands() {
        assert_eq!(format_ns(999.0), "999");
        assert_eq!(format_ns(1_234.0), "1,234");
        assert_eq!(format_ns(12_345_678.0), "12,345,678");
    }
}
