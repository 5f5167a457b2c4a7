//! The `soak` chaos harness for `act serve`.
//!
//! It spawns the release `act` binary, parses its readiness line, and
//! drives traffic over raw `std::net::TcpStream` — xtask is a
//! dependency-free workspace, so there is no act-* crate to lean on and
//! every HTTP/JSON fragment here is hand-rolled.
//!
//! `soak` proves the robustness contract under a deterministic, seeded mix
//! of good, hostile and fault-injected traffic: zero client hangs (every
//! socket op has a timeout), at least one forced worker panic and one
//! forced worker kill survived, requests served on reused (kept-alive)
//! connections, a mid-traffic SIGTERM that drains in-flight and queued
//! requests cleanly, `accepted == finished` in the final stats (no leaked
//! connections), and a zero exit code. A second, short server run then
//! takes SIGTERM while a kept connection sits idle, which must close that
//! connection at once and drain as cleanly.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Configuration for `soak`.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Workspace root (where `Cargo.toml` and `target/` live).
    pub root: PathBuf,
    /// CI-sized run: less traffic, same coverage.
    pub quick: bool,
    /// Master seed for the soak traffic mix and the server fault plan.
    pub seed: u64,
}

impl ServiceConfig {
    /// Defaults rooted at `root`.
    #[must_use]
    pub fn new(root: PathBuf) -> Self {
        Self { root, quick: false, seed: 42 }
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

/// A run that fails a check returns early; the server must not outlive it.
impl Drop for ServeProcess {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Connects with every socket operation bounded by `timeout`.
fn connect(addr: &str, timeout: Duration) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|err| format!("connect {addr}: {err}"))?;
    stream.set_read_timeout(Some(timeout)).map_err(|err| err.to_string())?;
    stream.set_write_timeout(Some(timeout)).map_err(|err| err.to_string())?;
    Ok(stream)
}

/// One bounded HTTP exchange, read to EOF: `raw` declares
/// `Connection: close` (or draws an error response), so the server closes
/// after replying. Every socket operation times out, so a misbehaving
/// server shows up as an `Err`, never a hang.
fn http_request(addr: &str, raw: &[u8], timeout: Duration) -> Result<String, String> {
    let mut stream = connect(addr, timeout)?;
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

fn get_raw(path: &str, connection: &str) -> String {
    format!("GET {path} HTTP/1.1\r\nHost: soak\r\nConnection: {connection}\r\n\r\n")
}

fn post_raw(path: &str, body: &str, extra: &str, connection: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nHost: soak\r\nConnection: {connection}\r\n{extra}\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

fn get_line(addr: &str, path: &str, timeout: Duration) -> Result<String, String> {
    http_request(addr, get_raw(path, "close").as_bytes(), timeout)
}

fn post_line(
    addr: &str,
    path: &str,
    body: &str,
    extra: &str,
    timeout: Duration,
) -> Result<String, String> {
    http_request(addr, post_raw(path, body, extra, "close").as_bytes(), timeout)
}

/// Reads one `Content-Length`-framed response off a kept connection.
/// `Ok(None)` when the server closed the connection before replying (an
/// idle connection it reclaimed).
fn read_framed(stream: &mut TcpStream) -> Result<Option<String>, String> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&buf[..end]).to_ascii_lowercase();
            let length: usize = head
                .lines()
                .find_map(|line| line.strip_prefix("content-length:"))
                .and_then(|value| value.trim().parse().ok())
                .ok_or_else(|| {
                    format!("kept-connection response without Content-Length: {head}")
                })?;
            let total = end + 4 + length;
            if buf.len() > total {
                return Err("bytes past a Content-Length response".to_owned());
            }
            if buf.len() == total {
                return Ok(Some(String::from_utf8_lossy(&buf).into_owned()));
            }
        }
        let n = stream.read(&mut chunk).map_err(|err| format!("read: {err}"))?;
        if n == 0 {
            return if buf.is_empty() {
                Ok(None)
            } else {
                Err("kept-connection response cut short".to_owned())
            };
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Whether a response lets the connection carry another request.
fn keeps_alive(response: &str) -> bool {
    let head = response.split("\r\n\r\n").next().unwrap_or_default();
    head.to_ascii_lowercase().contains("\r\nconnection: keep-alive")
}

/// Sends `raws` one after another on `stream` for as long as the server
/// keeps it, reading each framed response. Returns the responses in
/// order: fewer than `raws` when a response closed the connection (a
/// fault, an error, shutdown) or the server reclaimed it while idle.
fn kept_requests(stream: &mut TcpStream, raws: &[String]) -> Result<Vec<String>, String> {
    let mut responses = Vec::with_capacity(raws.len());
    for raw in raws {
        if stream.write_all(raw.as_bytes()).is_err() {
            break;
        }
        let Some(response) = read_framed(stream)? else { break };
        let kept = keeps_alive(&response);
        responses.push(response);
        if !kept {
            break;
        }
    }
    Ok(responses)
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
    /// Responses that arrived on a connection that had carried one before.
    pub reused_responses: usize,
    /// `reused` from the chaos server's final stats line.
    pub server_reused: u64,
    /// `panics_caught` from the chaos server's final stats line.
    pub server_panics_caught: u64,
    /// `workers_respawned` from the chaos server's final stats line.
    pub server_workers_respawned: u64,
    /// `accepted` from the final stats lines, summed over both servers.
    pub server_accepted: u64,
    /// `finished` from the final stats lines, summed over both servers.
    pub server_finished: u64,
}

/// The soak servers' limits: two workers, so a few slow requests queue
/// work behind them.
const SERVE_ARGS: [&str; 8] =
    ["--workers", "2", "--queue", "8", "--deadline-ms", "2000", "--drain-ms", "8000"];

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
    let mut args = SERVE_ARGS.to_vec();
    args.extend(["--faults", &fault_spec]);
    let server = ServeProcess::spawn(&config.root, &args)?;
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
                // `kept` sends several requests but, like every other
                // kind, on one connection.
                const MIX: [&str; 12] = [
                    "health",
                    "experiment",
                    "footprint",
                    "sweep",
                    "kept",
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
        // They are sent with `X-Act-Fault: delay:0`, which overrides the
        // fault the server's plan rolls for the connection, so an injected
        // panic's 500 is never mistaken for a breach of that contract.
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
            "kept" => {
                // Fault-free requests on one reused connection; a hang
                // there fails the run, a close is the server's right.
                let raws = [
                    get_raw("/healthz", "keep-alive"),
                    post_raw("/v1/footprint", &params, "", "keep-alive"),
                    get_raw("/v1/experiments/fig1", "keep-alive"),
                ];
                let responses = match connect(&addr, timeout)
                    .and_then(|mut stream| kept_requests(&mut stream, &raws))
                {
                    Err(err) if is_timeout(&err) => {
                        return Err(format!("kept connection hung: {err}"));
                    }
                    other => other.unwrap_or_default(),
                };
                report.reused_responses += responses.len().saturating_sub(1);
                if responses.is_empty() {
                    report.dropped += 1;
                }
                for response in responses {
                    tally(&mut report, Ok(response));
                }
                continue;
            }
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
                let response =
                    post_line(&addr, path, body, "X-Act-Fault: delay:0\r\n", timeout);
                if let Ok(response) = &response {
                    if status_code(response) >= 500 {
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
        tally(&mut report, outcome);
    }

    // Shutdown mid-traffic: park slow requests in flight, then SIGTERM.
    // Two workers take two of them; the others are still queued when the
    // signal lands (even if the fault plan kills one connection at once),
    // so the drain must finish queued work too.
    let in_flight: Vec<_> = (0..4).map(|_| slow_request(&addr, &params, timeout)).collect();
    std::thread::sleep(Duration::from_millis(100));
    signal_shutdown(&server, &addr, timeout);
    for handle in in_flight {
        join_in_flight(handle, &mut report)?;
    }
    let stats_line = drained_stats(server, &mut report)?;
    report.server_panics_caught = json_u64(&stats_line, "panics_caught").unwrap_or(0);
    report.server_workers_respawned = json_u64(&stats_line, "workers_respawned").unwrap_or(0);
    report.server_reused = json_u64(&stats_line, "reused").unwrap_or(0);

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
    if report.reused_responses == 0 || report.server_reused == 0 {
        return Err(format!(
            "no request reused a kept connection (client saw {}, server counted {})",
            report.reused_responses, report.server_reused
        ));
    }
    if report.ok_responses == 0 {
        return Err("no request succeeded — the mix never exercised the happy path".to_owned());
    }

    // Shutdown with a kept connection idle, on a second server: a queued
    // job evicts every idle connection, so the two cases cannot share
    // one signal.
    idle_shutdown(config, &params, &mut report, timeout)?;
    Ok(report)
}

/// Counts one soak exchange's outcome in `report`.
fn tally(report: &mut SoakReport, outcome: Result<String, String>) {
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

/// Whether a client error is a socket timeout — a hang, not a drop.
fn is_timeout(err: &str) -> bool {
    err.contains("timed out")
        || err.contains("TimedOut")
        || err.contains("temporarily unavailable")
}

/// Starts a fault-delayed `/v1/footprint` request on its own thread.
fn slow_request(
    addr: &str,
    params: &str,
    timeout: Duration,
) -> std::thread::JoinHandle<Result<String, String>> {
    let (addr, params) = (addr.to_owned(), params.to_owned());
    std::thread::spawn(move || {
        post_line(&addr, "/v1/footprint", &params, "X-Act-Fault: delay:500\r\n", timeout)
    })
}

/// Sends SIGTERM, or on non-unix hosts (or without a `kill` binary) the
/// remote shutdown request.
fn signal_shutdown(server: &ServeProcess, addr: &str, timeout: Duration) {
    let pid = server.pid();
    #[cfg(unix)]
    let signalled = run_silent(Command::new("kill").args(["-TERM", &pid.to_string()])).is_ok();
    #[cfg(not(unix))]
    let signalled = false;
    if !signalled {
        let _ = post_line(addr, "/admin/shutdown", "{}", "", timeout);
    }
    let _ = pid;
}

/// Waits for a request that was in flight at the signal. It must drain
/// without a client hang. A reset is fine — the server's own fault plan
/// may roll a kill on any connection — but a read timeout means the drain
/// left a client dangling, which is the bug this harness exists to catch.
fn join_in_flight(
    handle: std::thread::JoinHandle<Result<String, String>>,
    report: &mut SoakReport,
) -> Result<(), String> {
    match handle.join().map_err(|_| "in-flight client panicked")? {
        Ok(response) if status_code(&response) == 200 => report.ok_responses += 1,
        Ok(_) => report.dropped += 1,
        Err(err) if is_timeout(&err) => {
            return Err(format!("in-flight request hung during drain: {err}"));
        }
        Err(_) => report.dropped += 1,
    }
    Ok(())
}

/// Waits for a signalled server to exit, checks that its drain was clean
/// (exit 0, nothing in flight or queued, `accepted == finished`), adds its
/// connection counts to `report`, and returns its final stats line.
fn drained_stats(server: ServeProcess, report: &mut SoakReport) -> Result<String, String> {
    let (exit_ok, rest) = server.wait_for_exit(Duration::from_secs(30))?;
    if !exit_ok {
        return Err("act serve exited non-zero after shutdown".to_owned());
    }
    let stats_line = rest
        .lines()
        .rev()
        .find(|line| line.contains("\"shutdown\":true"))
        .ok_or("no final stats line after shutdown")?
        .to_owned();
    let in_flight = json_u64(&stats_line, "in_flight").unwrap_or(u64::MAX);
    let queued = json_u64(&stats_line, "queued").unwrap_or(u64::MAX);
    if in_flight != 0 || queued != 0 {
        return Err(format!("unclean drain: in_flight={in_flight} queued={queued}"));
    }
    let accepted = json_u64(&stats_line, "accepted").unwrap_or(0);
    let finished = json_u64(&stats_line, "finished").unwrap_or(0);
    if accepted != finished {
        return Err(format!("leaked connections: accepted={accepted} finished={finished}"));
    }
    report.server_accepted += accepted;
    report.server_finished += finished;
    Ok(stats_line)
}

/// SIGTERM while a kept connection sits idle and one request is in
/// flight, on a fresh server whose fault plan rolls nothing (only the
/// request's `X-Act-Fault` delay applies). The in-flight request drains,
/// and the idle connection is closed by the shutdown itself, within 1 s
/// of the signal — well before its idle timeout (the 2 s request
/// deadline) would close it.
fn idle_shutdown(
    config: &ServiceConfig,
    params: &str,
    report: &mut SoakReport,
    timeout: Duration,
) -> Result<(), String> {
    let mut args = SERVE_ARGS.to_vec();
    let plan = format!("seed={}", config.seed);
    args.extend(["--faults", &plan]);
    let server = ServeProcess::spawn(&config.root, &args)?;
    let addr = server.addr.clone();
    let mut idle = idle_kept_connection(&addr, timeout)?;
    let in_flight = slow_request(&addr, params, timeout);
    std::thread::sleep(Duration::from_millis(100));
    let signalled_at = Instant::now();
    signal_shutdown(&server, &addr, timeout);
    join_in_flight(in_flight, report)?;
    match read_framed(&mut idle) {
        Ok(None) => {}
        Ok(Some(response)) => {
            return Err(format!("idle kept connection got a response: {response}"));
        }
        Err(err) if is_timeout(&err) => {
            return Err(format!("idle kept connection hung during drain: {err}"));
        }
        Err(_) => {}
    }
    let closed_after = signalled_at.elapsed();
    if closed_after > Duration::from_secs(1) {
        return Err(format!("shutdown left an idle kept connection open {closed_after:?}"));
    }
    drained_stats(server, report)?;
    Ok(())
}

/// A connection whose first request was answered `keep-alive`, left idle.
fn idle_kept_connection(addr: &str, timeout: Duration) -> Result<TcpStream, String> {
    let mut stream = connect(addr, timeout)?;
    let responses = kept_requests(&mut stream, &[get_raw("/healthz", "keep-alive")])?;
    if !responses.first().is_some_and(|response| keeps_alive(response)) {
        return Err(format!("no keep-alive answer for the idle connection: {responses:?}"));
    }
    Ok(stream)
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
    fn status_codes_parse_from_raw_responses() {
        assert_eq!(status_code("HTTP/1.1 200 OK\r\n\r\n"), 200);
        assert_eq!(status_code("HTTP/1.1 503 Service Unavailable\r\n\r\n"), 503);
        assert_eq!(status_code(""), 0);
        assert_eq!(status_code("garbage"), 0);
    }
}
