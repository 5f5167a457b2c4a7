//! Std-only benchmark harness for the ACT reproduction.
//!
//! The workspace builds hermetically — no registry dependencies — so the
//! bench targets cannot link criterion. This module is the replacement: a
//! small wall-clock harness with the same command-line contract the CI
//! smoke pass relies on (`cargo bench ... -- --test` runs every benchmark
//! once as a smoke test).
//!
//! Three bench targets exist:
//!
//! * `paper` — one benchmark per figure/table; each iteration regenerates
//!   the artifact end to end (`bench_fig1` … `bench_table12`).
//! * `ablations` — the design-choice sensitivity studies DESIGN.md calls
//!   out (yield, abatement, fab energy source, WA model, DRAM-node
//!   assignment), plus `ftl/steady_state_pf04`, the GC-bound 4 % row of
//!   Figure 15 on its own.
//! * `compiled` — the per-point footprint pipeline versus the compiled
//!   kernel's block plan on the `act_dse` block engine, with bit-identity
//!   cross-checks before timing.
//!
//! Run with `cargo bench --workspace`. These are per-function
//! micro-benchmarks; end-to-end numbers and the `BENCH_results.json`
//! trajectory come from the repository benchmark in `benchmark/`.

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
/// milliseconds. Cheap bodies run many iterations inside this window;
/// expensive ones (the FTL simulation) stop at [`MAX_ITERS`].
const MEASURE_WINDOW_MS: f64 = 200.0;
/// Iteration floor so the mean is never a single noisy sample.
const MIN_ITERS: u32 = 3;
/// Iteration ceiling so trivially cheap bodies terminate promptly.
const MAX_ITERS: u32 = 1_000;

/// A registered-and-run benchmark's outcome.
#[derive(Clone, Debug)]
struct Record {
    name: String,
    iters: u32,
    mean_ns: f64,
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
    /// [`black_box`] so the optimizer cannot delete the body.
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
                // Warm-up iteration: page in code and data, fill caches.
                black_box(body());
                let started = Instant::now();
                let mut iters = 0u32;
                loop {
                    black_box(body());
                    iters += 1;
                    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
                    if (elapsed_ms >= MEASURE_WINDOW_MS && iters >= MIN_ITERS)
                        || iters >= MAX_ITERS
                    {
                        break;
                    }
                }
                let mean_ns = started.elapsed().as_secs_f64() * 1e9 / f64::from(iters);
                println!("bench {name:<44} {:>12} ns/iter ({iters} iters)", format_ns(mean_ns));
                self.records.push(Record { name: name.to_owned(), iters, mean_ns });
            }
        }
    }

    /// Prints the closing summary line. Call last in `main`.
    pub fn finish(self) {
        match self.mode {
            Mode::Smoke => println!("\nbench smoke ok ({} skipped)", self.skipped),
            Mode::Measure => {
                let total_ms: f64 =
                    self.records.iter().map(|r| r.mean_ns * f64::from(r.iters) / 1e6).sum();
                let slowest = self
                    .records
                    .iter()
                    .max_by(|a, b| a.mean_ns.total_cmp(&b.mean_ns))
                    .map_or_else(String::new, |r| format!(" (slowest: {})", r.name));
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

/// Renders a nanosecond mean with thousands separators (readability only).
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
        let mut calls = 0u32;
        harness.bench("cheap", || calls += 1);
        // Warm-up + at least MIN_ITERS measured iterations.
        assert!(calls > MIN_ITERS, "calls {calls}");
        assert_eq!(harness.records.len(), 1);
        assert!(harness.records[0].mean_ns >= 0.0);
    }

    #[test]
    fn ns_formatting_groups_thousands() {
        assert_eq!(format_ns(999.0), "999");
        assert_eq!(format_ns(1_234.0), "1,234");
        assert_eq!(format_ns(12_345_678.0), "12,345,678");
    }
}
