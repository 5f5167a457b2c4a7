//! The ACT benchmark: four workloads that measure what this repository's
//! users run, end to end, and attribute the time to the crates that do
//! the work.
//!
//! | workload | what runs |
//! |---|---|
//! | `sweep` | a 2^20-point, two-axis design-space sweep through the block engine |
//! | `fleet` | scenario documents in, fleet totals out (parse → compile → Monte-Carlo) |
//! | `serve` | the real `act serve` binary under seeded open-loop traffic |
//! | `paper` | cold `act all` reproductions, one fresh process each |
//!
//! Every layer is timed from outside, around calls into its public API;
//! see `README.md` for the metric tables and how to read the traces.

#![forbid(unsafe_code)]

pub mod compare;
pub mod http;
pub mod metrics;
pub mod probes;
pub mod procfs;
pub mod schedule;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

pub use metrics::{Outcome, Values};

/// Seed used when none is given on the command line.
pub const DEFAULT_SEED: u64 = 2022;
/// Timed seconds per workload when none is given on the command line.
pub const DEFAULT_SECONDS: f64 = 10.0;

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Design-space sweep through the block engine.
    Sweep,
    /// Scenario documents through the fleet Monte-Carlo.
    Fleet,
    /// The `act serve` binary under open-loop traffic.
    Serve,
    /// Cold `all` reproductions.
    Paper,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [Self::Sweep, Self::Fleet, Self::Serve, Self::Paper];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Sweep => "sweep",
            Self::Fleet => "fleet",
            Self::Serve => "serve",
            Self::Paper => "paper",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything one workload run needs.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed phase, in seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Directory a traced run writes `trace-<workload>.json` into.
    pub trace_dir: PathBuf,
    /// The benchmark executable, re-run for cold child processes.
    pub self_exe: PathBuf,
    /// The `act` executable: `serve` drives it, and every traced run
    /// times the server layer with it.
    pub act_exe: PathBuf,
}

impl RunConfig {
    /// Where a traced run writes its spans.
    #[must_use]
    pub fn trace_path(&self, workload: Workload) -> PathBuf {
        self.trace_dir.join(format!("trace-{}.json", workload.name()))
    }
}

/// The repository root this benchmark was built from.
#[must_use]
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// Builds the workspace's `act` binary into `target_dir` and returns its
/// path. `cargo` is the one that runs this program when available, so the
/// same toolchain builds both.
///
/// # Errors
///
/// A message when cargo cannot be spawned or the build fails.
pub fn build_act(root: &Path, target_dir: &Path, release: bool) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let mut cmd = Command::new(cargo);
    cmd.args(["build", "--quiet", "--offline", "-p", "act-cli", "--bin", "act"]);
    if release {
        cmd.arg("--release");
    }
    let status = cmd
        .arg("--target-dir")
        .arg(target_dir)
        .current_dir(root)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|err| format!("cannot run cargo to build act: {err}"))?;
    if !status.success() {
        return Err(format!("building act failed ({status})"));
    }
    let profile = if release { "release" } else { "debug" };
    let exe = target_dir.join(profile).join(format!("act{}", std::env::consts::EXE_SUFFIX));
    if exe.is_file() {
        Ok(exe)
    } else {
        Err(format!("cargo built act but {} is missing", exe.display()))
    }
}

/// One finished child process of the benchmark's own executable.
#[derive(Clone, Debug)]
pub struct ChildRun {
    /// Seconds from spawn until the child printed its `ready` line.
    pub ready_s: f64,
    /// Seconds from spawn until the child exited.
    pub total_s: f64,
    /// Every stdout line after `ready`.
    pub lines: Vec<String>,
}

impl ChildRun {
    /// The child's last stdout line, parsed as JSON.
    ///
    /// # Errors
    ///
    /// A message when the child printed nothing parseable.
    pub fn result(&self) -> Result<act_json::JsonValue, String> {
        let last = self.lines.last().ok_or("child printed no result")?;
        act_json::JsonValue::parse(last).map_err(|err| format!("child result: {err}"))
    }
}

/// Runs `exe --child <kind> --seed <seed>` to completion. The child
/// prints `ready` once its set-up is done, then any result lines.
///
/// # Errors
///
/// A message when the child cannot start, never becomes ready, or exits
/// unsuccessfully.
pub fn run_child(exe: &Path, kind: &str, seed: u64) -> Result<ChildRun, String> {
    let spawned = Instant::now();
    let mut child = Command::new(exe)
        .args(["--child", kind, "--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|err| format!("cannot spawn {}: {err}", exe.display()))?;
    let stdout = child.stdout.take().ok_or("child stdout was not piped")?;
    let mut reader = BufReader::new(stdout);
    let mut first = String::new();
    let read = reader.read_line(&mut first);
    let ready_s = spawned.elapsed().as_secs_f64();
    let mut lines = Vec::new();
    let rest: Result<(), std::io::Error> = reader.lines().try_for_each(|line| {
        lines.push(line?);
        Ok(())
    });
    let status = child.wait().map_err(|err| format!("waiting for child {kind}: {err}"))?;
    let total_s = spawned.elapsed().as_secs_f64();
    read.and(rest).map_err(|err| format!("reading child {kind}: {err}"))?;
    if first.trim() != "ready" {
        return Err(format!("child {kind} never became ready ({status})"));
    }
    if !status.success() {
        return Err(format!("child {kind} exited with {status}"));
    }
    Ok(ChildRun { ready_s, total_s, lines })
}

/// Signals readiness to the parent (see [`run_child`]).
///
/// # Errors
///
/// Propagates a failed write to stdout.
pub fn signal_ready() -> std::io::Result<()> {
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready")?;
    out.flush()
}

/// Runs one of the child processes the workloads spawn.
///
/// # Errors
///
/// A message for an unknown kind or a failed child task.
pub fn child_main(kind: &str, seed: u64) -> Result<(), String> {
    match kind {
        "sweep-setup" => workloads::sweep::setup_child(seed),
        "fleet-setup" => workloads::fleet::setup_child(seed),
        "paper" => workloads::paper::render_child(),
        "figures" => workloads::paper::figures_child(),
        "calibrate" => probes::calibrate_child(),
        other => Err(format!("unknown child kind `{other}`")),
    }
}

/// Runs `workload` once under `config`.
#[must_use]
pub fn run_workload(workload: Workload, config: &RunConfig) -> Outcome {
    let outcome = match workload {
        Workload::Sweep => workloads::sweep::run(config),
        Workload::Fleet => workloads::fleet::run(config),
        Workload::Serve => workloads::serve::run(config),
        Workload::Paper => workloads::paper::run(config),
    };
    outcome.unwrap_or_else(|err| {
        let mut failed = Outcome::default();
        failed.fail(format!("{} workload aborted: {err}", workload.name()));
        failed
    })
}
