//! End-to-end tests of `act serve`: the wire contract against the real
//! binary — server NDJSON must be byte-identical to `act --json` stdout —
//! plus graceful shutdown with a final stats line.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use act_json::JsonValue;

/// `act serve` as a child process, with its readiness line parsed.
struct ServeChild {
    child: Option<Child>,
    addr: String,
}

impl ServeChild {
    fn start(extra_args: &[&str]) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_act"))
            .arg("serve")
            .arg("--allow-remote-shutdown")
            .args(extra_args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn act serve");
        let stdout = child.stdout.as_mut().expect("piped stdout");
        let mut reader = BufReader::new(stdout);
        let mut ready = String::new();
        reader.read_line(&mut ready).expect("read readiness line");
        let doc = JsonValue::parse(ready.trim()).expect("readiness line is JSON");
        let addr = doc
            .get("listening")
            .and_then(JsonValue::as_str)
            .expect("readiness line has `listening`")
            .to_owned();
        Self { child: Some(child), addr }
    }

    /// Stops the server via `/admin/shutdown` and returns (exit ok, the
    /// rest of stdout).
    fn stop(mut self) -> (bool, String) {
        let _ = request(
            &self.addr,
            b"POST /admin/shutdown HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: 2\r\n\r\n{}",
        );
        let child = self.child.take().expect("child still running");
        let out = child.wait_with_output().expect("wait for act serve");
        (out.status.success(), String::from_utf8_lossy(&out.stdout).into_owned())
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
        }
    }
}

/// One raw HTTP exchange; returns the full response text. Every `raw`
/// declares `Connection: close`, so the server ends the connection after
/// its response and `read_to_end` returns.
fn request(addr: &str, raw: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to act serve");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("set timeout");
    stream.write_all(raw).expect("send request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    String::from_utf8(response).expect("UTF-8 response")
}

/// The body of a response (after the blank line).
fn body_of(response: &str) -> &str {
    response.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or_default()
}

fn act_json_stdout(id: &str) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_act"))
        .args(["--json", "--serial", id])
        .output()
        .expect("run act --json");
    assert!(out.status.success(), "act --json {id} failed");
    out.stdout
}

#[test]
fn server_lines_are_byte_identical_to_act_json_stdout() {
    let server = ServeChild::start(&[]);
    // `fig1` is a cheap single experiment; `all` is the full multi-line
    // aggregate — both must match the CLI's stdout bytes exactly.
    for id in ["fig1", "all"] {
        let response = request(
            &server.addr,
            format!(
                "GET /v1/experiments/{id} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
            )
            .as_bytes(),
        );
        assert!(
            response.starts_with("HTTP/1.1 200"),
            "{id}: {}",
            response.lines().next().unwrap_or_default()
        );
        let body = body_of(&response).as_bytes().to_vec();
        assert_eq!(
            body,
            act_json_stdout(id),
            "GET /v1/experiments/{id} must match `act --json {id}` stdout bytes"
        );
    }
    let (ok, _) = server.stop();
    assert!(ok);
}

#[test]
fn error_responses_are_one_parseable_json_line() {
    let server = ServeChild::start(&[]);
    let bad = [
        "POST /v1/footprint HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: 9\r\n\r\n{not json"
            .to_owned(),
        "GET /no/such/route HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n".to_owned(),
        "POST /v1/sweep HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: 2\r\n\r\n{}".to_owned(),
    ];
    for raw in &bad {
        let response = request(&server.addr, raw.as_bytes());
        let body = body_of(&response);
        assert_eq!(body.matches('\n').count(), 1, "one line: {body:?}");
        let doc = JsonValue::parse(body.trim_end()).expect("error body parses");
        assert!(doc.get("error").is_some(), "error key present: {body:?}");
    }
    let (ok, _) = server.stop();
    assert!(ok);
}

#[test]
fn shutdown_prints_a_final_stats_line_and_exits_zero() {
    let server = ServeChild::start(&["--workers", "2"]);
    let health =
        request(&server.addr, b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    assert!(health.starts_with("HTTP/1.1 200"));
    let (ok, rest) = server.stop();
    assert!(ok, "act serve must exit 0 after graceful shutdown");
    let last = rest.lines().last().expect("final stats line");
    let doc = JsonValue::parse(last).expect("final line is JSON");
    assert_eq!(doc.get("shutdown").and_then(JsonValue::as_bool), Some(true));
    let stats = doc.get("stats").expect("stats object");
    assert_eq!(stats.get("in_flight").and_then(JsonValue::as_u64), Some(0));
    assert_eq!(stats.get("queued").and_then(JsonValue::as_u64), Some(0));
}

#[cfg(unix)]
#[test]
fn sigterm_triggers_the_same_graceful_shutdown() {
    let server = ServeChild::start(&[]);
    let health =
        request(&server.addr, b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    assert!(health.starts_with("HTTP/1.1 200"));

    let pid = server.child.as_ref().expect("running").id();
    let status =
        Command::new("kill").args(["-TERM", &pid.to_string()]).status().expect("send SIGTERM");
    assert!(status.success());

    // Consume the child without the admin endpoint.
    let mut server = server;
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        match server.child.as_mut().expect("running").try_wait().expect("try_wait") {
            Some(status) => {
                assert!(status.success(), "SIGTERM exit must be 0, got {status:?}");
                break;
            }
            None => {
                assert!(std::time::Instant::now() < deadline, "server must exit after SIGTERM");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    let mut rest = String::new();
    server
        .child
        .as_mut()
        .expect("running")
        .stdout
        .take()
        .expect("stdout")
        .read_to_string(&mut rest)
        .expect("read remaining stdout");
    let last = rest.lines().last().expect("final stats line after SIGTERM");
    let doc = JsonValue::parse(last).expect("final line is JSON");
    assert_eq!(doc.get("shutdown").and_then(JsonValue::as_bool), Some(true));
}

#[test]
fn serve_help_documents_the_robustness_knobs() {
    let out = Command::new(env!("CARGO_BIN_EXE_act"))
        .args(["serve", "--help"])
        .output()
        .expect("run act serve --help");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for knob in ["--deadline-ms", "--queue", "--faults", "--drain-ms", "Retry-After"] {
        assert!(text.contains(knob), "serve --help must document {knob}:\n{text}");
    }
}

#[test]
fn bad_serve_flags_are_usage_errors() {
    for args in [
        &["serve", "--workers"][..],
        &["serve", "--addr", "not-an-addr"][..],
        &["serve", "--faults", "bogus=1"][..],
        &["serve", "--frobnicate"][..],
    ] {
        let out =
            Command::new(env!("CARGO_BIN_EXE_act")).args(args).output().expect("run act serve");
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
    }
}
