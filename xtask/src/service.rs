//! Service harnesses for `act serve`: the `soak` chaos run and the
//! `loadtest` latency recorder.
//!
//! Both spawn the release `act` binary, parse its readiness line, and
//! drive traffic over raw `std::net::TcpStream` — xtask is a
//! dependency-free workspace, so there is no act-* crate to lean on and
//! every HTTP/JSON fragment here is hand-rolled.
//!
//! `soak` proves the robustness contract under a deterministic, seeded mix
//! of good, hostile and fault-injected traffic: zero client hangs (every
//! socket op has a timeout), at least one forced worker panic and one
//! forced worker kill survived, a mid-traffic SIGTERM that drains cleanly,
//! `accepted == finished` in the final stats (no leaked connections), and
//! a zero exit code.
//!
//! `loadtest` measures p50/p99 latency and request throughput against a
//! fault-free server and appends a labeled record to the
//! `BENCH_results.json` trajectory (schema `act-bench-trajectory/2`, same
//! append path as `cargo xtask bench`).

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Configuration shared by `soak` and `loadtest`.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Workspace root (where `Cargo.toml` and `target/` live).
    pub root: PathBuf,
    /// CI-sized run: less traffic, same coverage.
    pub quick: bool,
    /// Master seed for the soak traffic mix and the server fault plan.
    pub seed: u64,
    /// Trajectory path for the loadtest record.
    pub out: PathBuf,
    /// Optional label stored in the loadtest record.
    pub label: Option<String>,
}

impl ServiceConfig {
    /// Defaults rooted at `root`.
    #[must_use]
    pub fn new(root: PathBuf) -> Self {
        Self {
            root,
            quick: false,
            seed: 42,
            out: PathBuf::from("BENCH_results.json"),
            label: None,
        }
    }
}

/// SplitMix64 — the standard 64-bit seed mixer; deterministic traffic
/// choice without a dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs a command with output discarded; `Ok(())` iff it exited zero.
fn run_silent(cmd: &mut Command) -> Result<(), String> {
    let label = format!("{cmd:?}");
    let status = cmd
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|err| format!("cannot spawn {label}: {err}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("{label} exited with {status}"))
    }
}

/// Path to the release `act` binary under `root`.
fn act_binary(root: &Path) -> PathBuf {
    root.join("target").join("release").join("act")
}

/// Builds the workspace in release mode. `--workspace` matters: the root
/// umbrella package does not depend on `act-cli`, so a bare
/// `cargo build --release` would skip the binary under test.
fn build_release(root: &Path) -> Result<(), String> {
    run_silent(
        Command::new("cargo").args(["build", "--release", "--workspace"]).current_dir(root),
    )
}

/// Extracts a `"key":"string"` value from a one-line JSON document.
fn json_str<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":\"");
    let start = text.find(&needle)? + needle.len();
    let end = text[start..].find('"')?;
    Some(&text[start..start + end])
}

/// Extracts a `"key":N` unsigned value from a one-line JSON document.
fn json_u64(text: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = text.find(&needle)? + needle.len();
    let digits: String = text[start..].chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// The spawned `act serve` process with its readiness line parsed.
struct ServeProcess {
    child: Child,
    addr: String,
}

impl ServeProcess {
    /// Spawns `act serve` with `extra` flags and waits for the readiness
    /// line (bounded — a server that never becomes ready fails the run).
    fn spawn(root: &Path, extra: &[&str]) -> Result<Self, String> {
        let mut child = Command::new(act_binary(root))
            .arg("serve")
            .arg("--allow-remote-shutdown")
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .stdin(Stdio::null())
            .spawn()
            .map_err(|err| format!("cannot spawn act serve: {err}"))?;
        let stdout = child.stdout.as_mut().ok_or("act serve stdout not piped")?;
        // Byte-wise read of the first line only: nothing buffered past the
        // newline, so the final stats line stays in the pipe for later.
        let mut ready = Vec::new();
        let mut byte = [0u8; 1];
        let started = Instant::now();
        loop {
            if started.elapsed() > Duration::from_secs(60) {
                let _ = child.kill();
                return Err("act serve never printed its readiness line".to_owned());
            }
            match stdout.read(&mut byte) {
                Ok(0) => {
                    let _ = child.kill();
                    return Err("act serve exited before becoming ready".to_owned());
                }
                Ok(_) if byte[0] == b'\n' => break,
                Ok(_) => ready.push(byte[0]),
                Err(err) => {
                    let _ = child.kill();
                    return Err(format!("reading act serve readiness: {err}"));
                }
            }
        }
        let ready = String::from_utf8_lossy(&ready).into_owned();
        let addr = json_str(&ready, "listening")
            .ok_or_else(|| format!("readiness line without `listening`: {ready}"))?
            .to_owned();
        Ok(Self { child, addr })
    }

    /// Waits (bounded) for the child to exit; returns (exit ok, remaining
    /// stdout — which ends with the final stats line).
    fn wait_for_exit(mut self, limit: Duration) -> Result<(bool, String), String> {
        let deadline = Instant::now() + limit;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    let mut rest = String::new();
                    if let Some(mut stdout) = self.child.stdout.take() {
                        let _ = stdout.read_to_string(&mut rest);
                    }
                    return Ok((status.success(), rest));
                }
                Ok(None) => {
                    if Instant::now() > deadline {
                        let _ = self.child.kill();
                        return Err(format!(
                            "act serve still running {}s after shutdown (hang)",
                            limit.as_secs()
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(err) => return Err(format!("waiting for act serve: {err}")),
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

/// One bounded HTTP exchange. Every socket operation times out, so a
/// misbehaving server shows up as an `Err`, never a hang.
fn http_request(addr: &str, raw: &[u8], timeout: Duration) -> Result<String, String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|err| format!("connect {addr}: {err}"))?;
    stream.set_read_timeout(Some(timeout)).map_err(|err| err.to_string())?;
    stream.set_write_timeout(Some(timeout)).map_err(|err| err.to_string())?;
    stream.write_all(raw).map_err(|err| format!("send: {err}"))?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response).map_err(|err| format!("read: {err}"))?;
    Ok(String::from_utf8_lossy(&response).into_owned())
}

/// Sends `raw` and drops the connection without reading — hostile-client
/// behavior the server must absorb.
fn fire_and_close(addr: &str, raw: &[u8]) {
    if let Ok(mut stream) = TcpStream::connect(addr) {
        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
        let _ = stream.write_all(raw);
    }
}

fn get_line(addr: &str, path: &str, timeout: Duration) -> Result<String, String> {
    http_request(addr, format!("GET {path} HTTP/1.1\r\nHost: soak\r\n\r\n").as_bytes(), timeout)
}

fn post_line(
    addr: &str,
    path: &str,
    body: &str,
    extra: &str,
    timeout: Duration,
) -> Result<String, String> {
    http_request(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nHost: soak\r\n{extra}Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
        timeout,
    )
}

/// HTTP status code of a raw response, `0` when unparseable/empty.
fn status_code(response: &str) -> u16 {
    response.split(' ').nth(1).and_then(|code| code.parse().ok()).unwrap_or(0)
}

/// Tallies of what the soak run observed.
#[derive(Debug, Default)]
pub struct SoakReport {
    /// Connections the harness opened.
    pub connections: usize,
    /// Responses with a 2xx status.
    pub ok_responses: usize,
    /// Responses with a 4xx/5xx/503 status (expected for hostile traffic).
    pub error_responses: usize,
    /// Connections the server dropped without a response (kill faults,
    /// hostile frames it gave up on).
    pub dropped: usize,
    /// Forced handler panics acknowledged with a 500.
    pub forced_panics: usize,
    /// `panics_caught` from the server's final stats line.
    pub server_panics_caught: u64,
    /// `workers_respawned` from the final stats line.
    pub server_workers_respawned: u64,
    /// `accepted` from the final stats line.
    pub server_accepted: u64,
    /// `finished` from the final stats line.
    pub server_finished: u64,
}

/// The deterministic chaos run. Returns the report, or the first contract
/// violation as an error.
pub fn run_soak(config: &ServiceConfig) -> Result<SoakReport, String> {
    build_release(&config.root)?;
    let connections = if config.quick { 80 } else { 320 };
    let timeout = Duration::from_secs(20);

    // The server rolls its own faults on top of the harness's explicit
    // X-Act-Fault traffic; both streams derive from the same master seed.
    let fault_spec = format!(
        "seed={},p_slow=0.10,slow_read_ms=5,p_malformed=0.08,p_panic=0.04,p_kill=0.02,\
         p_delay=0.10,eval_delay_ms=15",
        config.seed
    );
    let server = ServeProcess::spawn(
        &config.root,
        &[
            "--workers",
            "2",
            "--queue",
            "8",
            "--deadline-ms",
            "2000",
            "--drain-ms",
            "8000",
            "--faults",
            &fault_spec,
        ],
    )?;
    let addr = server.addr.clone();

    // A valid params document, fetched from the server itself. Retry a
    // few times: the very first connections can roll injected faults.
    let mut params = String::new();
    for _ in 0..10 {
        if let Ok(response) = get_line(&addr, "/v1/params/reference", timeout) {
            if status_code(&response) == 200 {
                if let Some((_, body)) = response.split_once("\r\n\r\n") {
                    params = body.trim().to_owned();
                    break;
                }
            }
        }
    }
    if params.is_empty() {
        return Err("could not fetch /v1/params/reference through the fault plan".to_owned());
    }
    let sweep_body = format!(
        "{{\"params\":{params},\"axes\":[{{\"axis\":\"soc_area_mm2\",\"values\":[50,100,150,200]}}]}}"
    );

    let mut report = SoakReport::default();
    let mut rng = config.seed;
    for i in 0..connections {
        report.connections += 1;
        // Guaranteed coverage: one forced panic and one forced kill land
        // at fixed offsets regardless of the dice.
        let forced = match i {
            5 => Some("panic"),
            11 => Some("kill"),
            _ => None,
        };
        let kind = match forced {
            Some(kind) => kind.to_owned(),
            None => {
                const MIX: [&str; 12] = [
                    "health",
                    "experiment",
                    "footprint",
                    "sweep",
                    "health",
                    "truncated",
                    "garbage",
                    "badjson",
                    "panic",
                    "delay",
                    "hostile-scenario",
                    "hostile-fleet",
                ];
                MIX[(splitmix64(&mut rng) % MIX.len() as u64) as usize].to_owned()
            }
        };
        // Hostile scenario documents: every one must come back as a clean
        // 400 (never a 500, never a hang) from /v1/scenario and /v1/fleet.
        const HOSTILE_SCENARIOS: [&str; 4] = [
            // Non-finite numeric literal — rejected by the JSON layer.
            "{\"name\":\"x\",\"chips\":[],\"dram\":[],\"ssd\":[],\"hdd\":[],\
             \"packaged_ic_count\":1e999}",
            // Chip missing its area — rejected by the schema layer.
            "{\"name\":\"x\",\"chips\":[{\"name\":\"soc\",\"node\":\"N7\",\"count\":1}],\
             \"dram\":[],\"ssd\":[],\"hdd\":[],\"packaged_ic_count\":1}",
            // Inverted triangular support — rejected by the compiler.
            "{\"name\":\"x\",\"chips\":[],\"dram\":[],\"ssd\":[],\"hdd\":[],\
             \"packaged_ic_count\":1,\
             \"workload\":{\"power_w\":5.0,\"utilization\":0.5,\"lifetime_years\":3.0,\
             \"use_intensity_g_per_kwh\":300.0},\
             \"fleet\":{\"devices\":10,\"samples\":64,\
             \"lifetime_years\":{\"dist\":\"triangular\",\"low\":9.0,\"mode\":3.0,\"high\":1.0},\
             \"use_intensity_g_per_kwh\":{\"dist\":\"point\",\"value\":300.0},\
             \"utilization\":{\"dist\":\"point\",\"value\":0.5}}}",
            // Fleet block without a workload — rejected by the compiler.
            "{\"name\":\"x\",\"chips\":[],\"dram\":[],\"ssd\":[],\"hdd\":[],\
             \"packaged_ic_count\":1,\
             \"fleet\":{\"devices\":10,\"samples\":64,\
             \"lifetime_years\":{\"dist\":\"point\",\"value\":3.0},\
             \"use_intensity_g_per_kwh\":{\"dist\":\"point\",\"value\":300.0},\
             \"utilization\":{\"dist\":\"point\",\"value\":0.5}}}",
        ];
        let outcome = match kind.as_str() {
            "health" => get_line(&addr, "/healthz", timeout),
            "experiment" => get_line(&addr, "/v1/experiments/fig1", timeout),
            "footprint" => post_line(&addr, "/v1/footprint", &params, "", timeout),
            "sweep" => post_line(&addr, "/v1/sweep", &sweep_body, "", timeout),
            "truncated" => {
                // A frame that stops mid-header; the server's read timeout
                // or disconnect handling must reclaim the worker.
                fire_and_close(&addr, b"POST /v1/footprint HTTP/1.1\r\nContent-Le");
                Ok(String::new())
            }
            "garbage" => {
                fire_and_close(&addr, b"\x00\x01\x02 total nonsense \xff\xfe\r\n\r\n");
                Ok(String::new())
            }
            "badjson" => post_line(&addr, "/v1/footprint", "{\"nope\":", "", timeout),
            "hostile-scenario" | "hostile-fleet" => {
                let path =
                    if kind == "hostile-scenario" { "/v1/scenario" } else { "/v1/fleet" };
                let body = HOSTILE_SCENARIOS[(splitmix64(&mut rng) % 4) as usize];
                let response = post_line(&addr, path, body, "", timeout);
                if let Ok(response) = &response {
                    // Injected faults may drop the connection (empty), but a
                    // delivered response must be the clean 400 contract.
                    if !response.is_empty() && status_code(response) >= 500 {
                        return Err(format!(
                            "hostile scenario payload to {path} provoked a 5xx:\n{response}"
                        ));
                    }
                }
                response
            }
            "panic" => {
                let response = post_line(
                    &addr,
                    "/v1/footprint",
                    &params,
                    "X-Act-Fault: panic\r\n",
                    timeout,
                );
                if let Ok(response) = &response {
                    if status_code(response) == 500 {
                        report.forced_panics += 1;
                    }
                }
                response
            }
            "kill" => {
                // Expected: silent connection drop, then a respawned worker.
                let _ = post_line(
                    &addr,
                    "/v1/footprint",
                    &params,
                    "X-Act-Fault: kill-worker\r\n",
                    timeout,
                );
                Ok(String::new())
            }
            _ => {
                post_line(&addr, "/v1/footprint", &params, "X-Act-Fault: delay:50\r\n", timeout)
            }
        };
        match outcome {
            Ok(response) if response.is_empty() => report.dropped += 1,
            Ok(response) => match status_code(&response) {
                200..=299 => report.ok_responses += 1,
                400..=599 => report.error_responses += 1,
                _ => report.dropped += 1,
            },
            Err(_) => report.dropped += 1,
        }
    }

    // Shutdown mid-traffic: park slow requests in flight, then SIGTERM.
    let in_flight: Vec<_> = (0..3)
        .map(|_| {
            let addr = addr.clone();
            let params = params.clone();
            std::thread::spawn(move || {
                post_line(
                    &addr,
                    "/v1/footprint",
                    &params,
                    "X-Act-Fault: delay:500\r\n",
                    timeout,
                )
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100));
    let pid = server.pid();
    #[cfg(unix)]
    let signalled = run_silent(Command::new("kill").args(["-TERM", &pid.to_string()])).is_ok();
    #[cfg(not(unix))]
    let signalled = false;
    if !signalled {
        // Fallback stop path (non-unix or no `kill` binary).
        let _ = post_line(&addr, "/admin/shutdown", "{}", "", timeout);
    }
    let _ = pid;

    // In-flight requests must drain without a client hang. A reset is
    // fine — the server's own fault plan may roll a kill on any
    // connection — but a read timeout means the drain left a client
    // dangling, which is the bug this harness exists to catch.
    for handle in in_flight {
        let result = handle.join().map_err(|_| "in-flight client panicked")?;
        match result {
            Ok(response) if status_code(&response) == 200 => report.ok_responses += 1,
            Ok(_) => report.dropped += 1,
            Err(err) if err.contains("timed out") || err.contains("TimedOut") => {
                return Err(format!("in-flight request hung during drain: {err}"));
            }
            Err(_) => report.dropped += 1,
        }
    }

    let (exit_ok, rest) = server.wait_for_exit(Duration::from_secs(30))?;
    if !exit_ok {
        return Err("act serve exited non-zero after the chaos run".to_owned());
    }
    let stats_line = rest
        .lines()
        .rev()
        .find(|line| line.contains("\"shutdown\":true"))
        .ok_or("no final stats line after shutdown")?;
    report.server_panics_caught = json_u64(stats_line, "panics_caught").unwrap_or(0);
    report.server_workers_respawned = json_u64(stats_line, "workers_respawned").unwrap_or(0);
    report.server_accepted = json_u64(stats_line, "accepted").unwrap_or(0);
    report.server_finished = json_u64(stats_line, "finished").unwrap_or(0);
    let in_flight_at_exit = json_u64(stats_line, "in_flight").unwrap_or(u64::MAX);
    let queued_at_exit = json_u64(stats_line, "queued").unwrap_or(u64::MAX);

    // The robustness contract.
    if report.forced_panics == 0 {
        return Err("no forced worker panic was acknowledged with a 500".to_owned());
    }
    if report.server_panics_caught == 0 {
        return Err("server stats report zero panics caught".to_owned());
    }
    if report.server_workers_respawned == 0 {
        return Err("server stats report zero workers respawned".to_owned());
    }
    if in_flight_at_exit != 0 || queued_at_exit != 0 {
        return Err(format!(
            "unclean drain: in_flight={in_flight_at_exit} queued={queued_at_exit}"
        ));
    }
    if report.server_accepted != report.server_finished {
        return Err(format!(
            "leaked connections: accepted={} finished={}",
            report.server_accepted, report.server_finished
        ));
    }
    if report.ok_responses == 0 {
        return Err("no request succeeded — the mix never exercised the happy path".to_owned());
    }
    Ok(report)
}

/// Latency percentiles and throughput from one loadtest run.
#[derive(Debug)]
pub struct LoadReport {
    /// Measured requests (after warmup).
    pub requests: usize,
    /// Median end-to-end latency.
    pub p50_ms: f64,
    /// 99th-percentile end-to-end latency.
    pub p99_ms: f64,
    /// Sustained request throughput.
    pub req_per_sec: f64,
    /// Seconds since the epoch at measurement time.
    pub unix_time: u64,
    /// Label carried into the trajectory record.
    pub label: Option<String>,
}

/// Renders the loadtest trajectory record. Deliberately carries no
/// `compiled_block` object, so `guard_regression` (which keys on block
/// sweep throughput) skips these records.
#[must_use]
pub fn render_load_record(report: &LoadReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"unix_time\": {},", report.unix_time);
    match &report.label {
        None => out.push_str("  \"label\": null,\n"),
        Some(label) => {
            let _ = writeln!(out, "  \"label\": \"{}\",", crate::bench::json_escape(label));
        }
    }
    out.push_str("  \"error\": null,\n");
    out.push_str("  \"server\": {\n");
    let _ = writeln!(out, "    \"endpoint\": \"/v1/footprint\",");
    let _ = writeln!(out, "    \"requests\": {},", report.requests);
    let _ = writeln!(out, "    \"p50_ms\": {:.3},", report.p50_ms);
    let _ = writeln!(out, "    \"p99_ms\": {:.3},", report.p99_ms);
    let _ = writeln!(out, "    \"req_per_sec\": {:.1}", report.req_per_sec);
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

/// Runs the loadtest: build, serve (fault-free), warm up, measure, append
/// the record to the trajectory at `config.out`.
pub fn run_loadtest(config: &ServiceConfig) -> Result<LoadReport, String> {
    build_release(&config.root)?;
    let requests = if config.quick { 100 } else { 400 };
    let timeout = Duration::from_secs(20);

    let server = ServeProcess::spawn(&config.root, &["--workers", "2"])?;
    let addr = server.addr.clone();

    let reference = get_line(&addr, "/v1/params/reference", timeout)?;
    if status_code(&reference) != 200 {
        return Err("GET /v1/params/reference failed".to_owned());
    }
    let params = reference
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.trim().to_owned())
        .ok_or("reference response without a body")?;

    for _ in 0..10 {
        let response = post_line(&addr, "/v1/footprint", &params, "", timeout)?;
        if status_code(&response) != 200 {
            return Err(format!("warmup request failed: {response}"));
        }
    }

    let mut latencies_ms = Vec::with_capacity(requests);
    let run_start = Instant::now();
    for _ in 0..requests {
        let start = Instant::now();
        let response = post_line(&addr, "/v1/footprint", &params, "", timeout)?;
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        if status_code(&response) != 200 {
            return Err(format!("measured request failed: {response}"));
        }
        latencies_ms.push(elapsed);
    }
    let total_s = run_start.elapsed().as_secs_f64();

    latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let percentile = |p: f64| -> f64 {
        let index = ((latencies_ms.len() as f64 - 1.0) * p).round() as usize;
        latencies_ms[index.min(latencies_ms.len() - 1)]
    };
    let report = LoadReport {
        requests,
        p50_ms: percentile(0.50),
        p99_ms: percentile(0.99),
        req_per_sec: requests as f64 / total_s.max(1e-9),
        unix_time: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        label: config.label.clone(),
    };

    let _ = post_line(&addr, "/admin/shutdown", "{}", "", timeout);
    let (exit_ok, _) = server.wait_for_exit(Duration::from_secs(30))?;
    if !exit_ok {
        return Err("act serve exited non-zero after the loadtest".to_owned());
    }

    let record = render_load_record(&report);
    let existing = std::fs::read_to_string(&config.out).unwrap_or_default();
    let body = crate::bench::append_record(&existing, &record);
    std::fs::write(&config.out, &body)
        .map_err(|err| format!("cannot write {}: {err}", config.out.display()))?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_varied() {
        let mut a = 42;
        let mut b = 42;
        let first: Vec<u64> = (0..8).map(|_| splitmix64(&mut a)).collect();
        let second: Vec<u64> = (0..8).map(|_| splitmix64(&mut b)).collect();
        assert_eq!(first, second);
        let distinct: std::collections::HashSet<_> = first.iter().collect();
        assert!(distinct.len() > 4);
    }

    #[test]
    fn json_extractors_pull_fields() {
        let line = "{\"listening\":\"127.0.0.1:8080\",\"workers\":4,\"pid\":123}";
        assert_eq!(json_str(line, "listening"), Some("127.0.0.1:8080"));
        assert_eq!(json_u64(line, "workers"), Some(4));
        assert_eq!(json_u64(line, "pid"), Some(123));
        assert_eq!(json_str(line, "missing"), None);
        assert_eq!(json_u64(line, "missing"), None);
    }

    #[test]
    fn load_record_skips_the_regression_guard() {
        let report = LoadReport {
            requests: 100,
            p50_ms: 1.5,
            p99_ms: 4.0,
            req_per_sec: 600.0,
            unix_time: 1,
            label: Some("pr6".to_owned()),
        };
        let record = render_load_record(&report);
        assert!(record.contains("\"p50_ms\": 1.500"));
        assert!(record.contains("\"p99_ms\": 4.000"));
        assert!(record.contains("\"req_per_sec\": 600.0"));
        // No compiled block ⇒ guard_regression must not fire even against
        // a trajectory that has one.
        let existing = "{\"schema\": \"act-bench-trajectory/2\", \"records\": [\
                        {\"compiled_block\": {\"points_per_sec\": 1000000}}]}";
        assert_eq!(crate::bench::guard_regression(existing, &record), None);
        // And the record appends into a well-formed trajectory.
        let body = crate::bench::append_record(existing, &record);
        assert_eq!(crate::bench::record_count(&body), 2);
    }

    #[test]
    fn status_codes_parse_from_raw_responses() {
        assert_eq!(status_code("HTTP/1.1 200 OK\r\n\r\n"), 200);
        assert_eq!(status_code("HTTP/1.1 503 Service Unavailable\r\n\r\n"), 503);
        assert_eq!(status_code(""), 0);
        assert_eq!(status_code("garbage"), 0);
    }
}
