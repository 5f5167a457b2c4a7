//! End-to-end robustness tests: a real `Server` on an ephemeral port, a
//! raw `TcpStream` client, and assertions over exact wire bytes.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::time::Duration;

use act_core::ModelParams;
use act_json::{JsonValue, ToJson};
use act_server::faults::FaultPlan;
use act_server::stats::StatsSnapshot;
use act_server::{Server, ServerConfig, ShutdownHandle};

/// A running test server plus the means to stop it.
struct TestServer {
    addr: SocketAddr,
    shutdown: ShutdownHandle,
    thread: std::thread::JoinHandle<std::io::Result<StatsSnapshot>>,
}

impl TestServer {
    fn start(mut config: ServerConfig) -> Self {
        config.allow_remote_shutdown = true;
        let server = Server::bind(config).expect("bind test server");
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.serve());
        Self { addr, shutdown, thread }
    }

    fn stop(self) -> StatsSnapshot {
        self.shutdown.request();
        self.thread
            .join()
            .expect("server thread must not panic")
            .expect("serve must exit cleanly")
    }
}

/// Sends `raw` and reads the whole response. The server closes after it
/// because `raw` declares `Connection: close` or draws an error response.
fn send_raw(addr: SocketAddr, raw: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(20))).expect("set timeout");
    stream.write_all(raw).expect("send request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    String::from_utf8(response).expect("response is UTF-8")
}

fn get(addr: SocketAddr, path: &str) -> String {
    send_raw(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str, extra: &str) -> String {
    send_raw(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n{extra}Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

/// Splits a raw response into (status line, body).
fn split(response: &str) -> (String, String) {
    let status = response.lines().next().unwrap_or_default().to_owned();
    let body = response.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or_default().to_owned();
    (status, body)
}

fn params_json() -> String {
    ModelParams::mobile_reference().to_json().render_compact()
}

#[test]
fn healthz_and_stats_round_trip() {
    let server = TestServer::start(ServerConfig::default());
    let (status, body) = split(&get(server.addr, "/healthz"));
    assert!(status.contains("200"), "got {status}");
    assert_eq!(body, "{\"ok\":true}\n");

    let (status, body) = split(&get(server.addr, "/v1/stats"));
    assert!(status.contains("200"), "got {status}");
    let doc = JsonValue::parse(body.trim_end()).expect("stats body parses");
    assert!(doc.get("accepted").is_some());

    let stats = server.stop();
    assert!(stats.completed >= 2, "both requests completed: {stats:?}");
    assert!(stats.is_idle(), "clean drain: {stats:?}");
}

#[test]
fn footprint_matches_the_library_model() {
    let server = TestServer::start(ServerConfig::default());

    // The reference-params endpoint serves the exact document the library
    // renders, so clients can fetch-edit-POST without linking act-core.
    let (status, body) = split(&get(server.addr, "/v1/params/reference"));
    assert!(status.contains("200"), "got {status}");
    assert_eq!(body.trim_end(), params_json());

    let (status, body) = split(&post(server.addr, "/v1/footprint", &params_json(), ""));
    assert!(status.contains("200"), "got {status}");
    let doc = JsonValue::parse(body.trim_end()).expect("footprint body parses");
    let gco2 = doc.get("gco2").and_then(JsonValue::as_f64).expect("gco2 field");
    let expected = ModelParams::mobile_reference().footprint().as_grams();
    assert!(
        (gco2 - expected).abs() <= expected.abs() * 1e-9,
        "server {gco2} vs library {expected}"
    );
    server.stop();
}

#[test]
fn experiment_rendering_is_byte_identical_to_the_library() {
    let server = TestServer::start(ServerConfig::default());
    for id in ["fig1", "fig8", "fig12"] {
        let (status, body) = split(&get(server.addr, &format!("/v1/experiments/{id}")));
        assert!(status.contains("200"), "{id}: got {status}");
        let mut expected =
            act_experiments::try_render_experiment(id, act_experiments::OutputFormat::Json)
                .expect("render");
        expected.push('\n');
        assert_eq!(body, expected, "{id} body must match `act --json {id}` bytes");
    }
    let (status, body) = split(&get(server.addr, "/v1/experiments/bogus"));
    assert!(status.contains("404"), "got {status}");
    let doc = JsonValue::parse(body.trim_end()).expect("error body parses");
    assert_eq!(
        doc.get("error").and_then(|e| e.get("kind")).and_then(JsonValue::as_str),
        Some("unknown-experiment")
    );
    server.stop();
}

#[test]
fn sweep_streams_ndjson_and_matches_compiled_eval() {
    let server = TestServer::start(ServerConfig::default());
    let body = format!(
        "{{\"params\":{},\"axes\":[{{\"axis\":\"soc_area_mm2\",\"values\":[50,100,150]}}]}}",
        params_json()
    );
    let (status, response_body) = split(&post(server.addr, "/v1/sweep", &body, ""));
    assert!(status.contains("200"), "got {status}");
    let lines: Vec<&str> = response_body.lines().collect();
    assert_eq!(lines.len(), 4, "3 points + trailer: {lines:?}");

    let params = ModelParams::mobile_reference();
    let compiled =
        act_core::CompiledFootprint::try_compile(&params, &[act_core::FreeAxis::SocArea])
            .expect("compile");
    for (i, (line, area)) in lines.iter().zip([50.0, 100.0, 150.0]).enumerate() {
        let doc = JsonValue::parse(line).expect("point line parses");
        assert_eq!(doc.get("i").and_then(JsonValue::as_u64), Some(i as u64));
        let got = doc.get("gco2").and_then(JsonValue::as_f64).expect("gco2");
        let want = compiled.eval(&[area]);
        assert!((got - want).abs() <= want.abs() * 1e-9, "point {i}: {got} vs {want}");
    }
    let trailer = JsonValue::parse(lines[3]).expect("trailer parses");
    assert_eq!(trailer.get("done").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(trailer.get("points").and_then(JsonValue::as_u64), Some(3));
    // The trailer reports which path evaluated the sweep. 3 points sit
    // far below any measured break-even threshold, so absent an
    // `ACT_THREADS` override this runs serial.
    let threads = trailer.get("threads").and_then(JsonValue::as_u64).expect("threads");
    assert!(threads >= 1, "threads must be positive: {trailer:?}");
    if std::env::var_os("ACT_THREADS").is_none() {
        // The measured break-even threshold is never below 512 points.
        assert_eq!(threads, 1, "a 3-point sweep must stay below break-even");
    }
    assert_calibration_encoding(&trailer, lines[3]);
    server.stop();
}

/// The `calibration` object every batch trailer carries must encode the
/// break-even threshold as a plain integer or — for the single-core
/// `usize::MAX` pin — as `null`, never as the f64-rounded garbage integer
/// `18446744073709552000`.
fn assert_calibration_encoding(doc: &JsonValue, raw: &str) {
    let calibration = doc.get("calibration").expect("calibration object");
    let source = calibration.get("source").and_then(JsonValue::as_str).expect("source");
    assert!(["measured", "single-core"].contains(&source), "{source}");
    let threshold = calibration.get("threshold_points").expect("threshold_points");
    assert!(
        threshold.is_null() || threshold.as_u64().is_some_and(|t| t < u64::MAX / 2),
        "threshold must be null or a sane integer: {raw}"
    );
    assert!(!raw.contains("18446744073709552000"), "garbage usize::MAX round-trip: {raw}");
}

#[test]
fn montecarlo_summarizes_with_deterministic_seed() {
    let server = TestServer::start(ServerConfig::default());
    let body = format!(
        "{{\"params\":{},\"samples\":200,\"seed\":7,\
         \"axes\":[{{\"axis\":\"lifetime_years\",\"low\":1.0,\"high\":5.0}}]}}",
        params_json()
    );
    let first = post(server.addr, "/v1/montecarlo", &body, "");
    let second = post(server.addr, "/v1/montecarlo", &body, "");
    assert_eq!(first, second, "same seed must give identical responses");
    let (status, response_body) = split(&first);
    assert!(status.contains("200"), "got {status}");
    let doc = JsonValue::parse(response_body.trim_end()).expect("mc body parses");
    let stats = doc.get("stats").expect("stats object");
    assert_eq!(stats.get("samples").and_then(JsonValue::as_u64), Some(200));
    let mean = stats.get("mean").and_then(JsonValue::as_f64).expect("mean");
    assert!(mean.is_finite() && mean > 0.0);
    // The summary line reports the evaluating thread count alongside the
    // statistics; the seed-determinism assertion above already proved the
    // chosen path cannot change the numbers.
    let threads = doc.get("threads").and_then(JsonValue::as_u64).expect("threads");
    assert!(threads >= 1, "threads must be positive: {doc:?}");
    assert_calibration_encoding(&doc, response_body.trim_end());
    server.stop();
}

/// Posts `body` to `path` and returns the error message of the 400
/// `invalid-axes` response it must draw.
fn invalid_axes_message(addr: SocketAddr, path: &str, body: &str) -> String {
    let (status, response_body) = split(&post(addr, path, body, ""));
    assert!(status.contains("400"), "got {status}: {response_body}");
    let doc = JsonValue::parse(response_body.trim_end()).expect("error body parses");
    let error = doc.get("error").expect("error object");
    assert_eq!(error.get("kind").and_then(JsonValue::as_str), Some("invalid-axes"));
    error.get("message").and_then(JsonValue::as_str).expect("message").to_owned()
}

#[test]
fn sweep_rejects_axis_values_outside_table_1() {
    let server = TestServer::start(ServerConfig::default());
    // `/v1/footprint` rejects a 400-year lifetime; so must a sweep over it.
    let body = format!(
        "{{\"params\":{},\"axes\":[{{\"axis\":\"lifetime_years\",\"values\":[400]}}]}}",
        params_json()
    );
    let message = invalid_axes_message(server.addr, "/v1/sweep", &body);
    assert!(message.contains("lifetime_years"), "{message}");
    assert!(message.contains("400 at index 0"), "{message}");
    assert!(message.contains("within [0.1, 50] years"), "{message}");
    // The offending value is found wherever it sits, on any axis.
    let body = format!(
        "{{\"params\":{},\"axes\":[{{\"axis\":\"soc_area_mm2\",\"values\":[50,100,150]}},\
         {{\"axis\":\"fab_yield\",\"values\":[0.9,1.5,0.8]}}]}}",
        params_json()
    );
    let message = invalid_axes_message(server.addr, "/v1/sweep", &body);
    assert!(message.contains("fab_yield") && message.contains("1.5 at index 1"), "{message}");
    server.stop();
}

#[test]
fn montecarlo_rejects_axis_ranges_outside_table_1() {
    let server = TestServer::start(ServerConfig::default());
    for (low, high, bad) in [(1.0, 60.0, "60 as `high`"), (0.05, 5.0, "0.05 as `low`")] {
        let body = format!(
            "{{\"params\":{},\"samples\":200,\"seed\":7,\
             \"axes\":[{{\"axis\":\"lifetime_years\",\"low\":{low},\"high\":{high}}}]}}",
            params_json()
        );
        let message = invalid_axes_message(server.addr, "/v1/montecarlo", &body);
        assert!(message.contains("lifetime_years") && message.contains(bad), "{message}");
    }
    server.stop();
}

#[test]
fn every_error_path_is_one_parseable_json_line() {
    let server =
        TestServer::start(ServerConfig { max_body_bytes: 256, ..ServerConfig::default() });
    let addr = server.addr;
    let cases: Vec<String> = vec![
        // Malformed JSON body.
        post(addr, "/v1/footprint", "{not json", ""),
        // Valid JSON, invalid params.
        post(addr, "/v1/footprint", "{\"execution_time_s\":1}", ""),
        // Unknown route.
        get(addr, "/nope"),
        // Unknown method.
        send_raw(addr, b"DELETE /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"),
        // POST without Content-Length.
        send_raw(addr, b"POST /v1/footprint HTTP/1.1\r\nHost: t\r\n\r\n"),
        // Declared body beyond the cap.
        send_raw(
            addr,
            b"POST /v1/footprint HTTP/1.1\r\nHost: t\r\nContent-Length: 99999\r\n\r\n",
        ),
        // Sweep with unknown axis.
        post(
            addr,
            "/v1/sweep",
            "{\"params\":{},\"axes\":[{\"axis\":\"bogus\",\"values\":[1]}]}",
            "",
        ),
        // Garbage request line.
        send_raw(addr, b"whatever\r\n\r\n"),
    ];
    for (i, response) in cases.iter().enumerate() {
        let (status, body) = split(response);
        let code: u16 = status
            .split(' ')
            .nth(1)
            .and_then(|c| c.parse().ok())
            .unwrap_or_else(|| panic!("case {i}: unparseable status `{status}`"));
        assert!((400..600).contains(&code), "case {i}: expected an error, got {status}");
        assert_eq!(body.matches('\n').count(), 1, "case {i}: body must be one line: {body:?}");
        let doc = JsonValue::parse(body.trim_end())
            .unwrap_or_else(|e| panic!("case {i}: body must parse: {e} in {body:?}"));
        assert!(doc.get("error").is_some(), "case {i}: body must carry `error`: {body:?}");
    }
    server.stop();
}

#[test]
fn injected_panic_costs_a_500_not_the_server() {
    let server = TestServer::start(ServerConfig {
        faults: Some(FaultPlan::parse("seed=1").expect("plan")),
        ..ServerConfig::default()
    });
    let (status, body) =
        split(&post(server.addr, "/v1/footprint", &params_json(), "X-Act-Fault: panic\r\n"));
    assert!(status.contains("500"), "got {status}");
    let doc = JsonValue::parse(body.trim_end()).expect("panic body parses");
    assert_eq!(
        doc.get("error").and_then(|e| e.get("kind")).and_then(JsonValue::as_str),
        Some("internal")
    );

    // The server is still healthy afterwards.
    let (status, _) = split(&get(server.addr, "/healthz"));
    assert!(status.contains("200"), "server must survive the panic, got {status}");

    let stats = server.stop();
    assert_eq!(stats.panics_caught, 1, "{stats:?}");
}

#[test]
fn killed_workers_are_respawned() {
    let server = TestServer::start(ServerConfig {
        workers: 2,
        faults: Some(FaultPlan::parse("seed=1").expect("plan")),
        ..ServerConfig::default()
    });
    // The kill fault drops the connection without a response.
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("set timeout");
    let body = params_json();
    let raw = format!(
        "POST /v1/footprint HTTP/1.1\r\nHost: t\r\nConnection: close\r\nX-Act-Fault: kill-worker\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes()).expect("send");
    let mut sink = Vec::new();
    let _ = stream.read_to_end(&mut sink);
    assert!(sink.is_empty(), "kill-worker must drop the connection silently");

    // Poll the live counters until the dead worker has been replaced; a
    // 200 from /v1/stats also shows service continues.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let (status, body) = split(&get(server.addr, "/v1/stats"));
        let respawned = JsonValue::parse(body.trim_end())
            .ok()
            .and_then(|doc| doc.get("workers_respawned").and_then(JsonValue::as_u64));
        if status.contains("200") && respawned.is_some_and(|n| n >= 1) {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "worker never respawned: {body}");
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = server.stop();
    assert!(stats.workers_respawned >= 1, "{stats:?}");
}

/// Binds `addr`, serves with no traffic at all, and checks that a
/// shutdown request alone wakes the blocked accept promptly.
fn assert_idle_shutdown_is_prompt(addr: &str) {
    let config = ServerConfig { addr: addr.parse().expect("addr"), ..ServerConfig::default() };
    let server = TestServer::start(config);
    // Give `serve` time to reach its blocking `accept`.
    std::thread::sleep(Duration::from_millis(50));
    let requested = std::time::Instant::now();
    // Stop on a helper thread so a missed wake-up fails the test instead
    // of hanging it.
    let (done, stopped) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(server.stop()));
    let stats = stopped.recv_timeout(Duration::from_secs(5)).expect("serve never returned");
    let waited = requested.elapsed();
    assert!(waited < Duration::from_secs(1), "serve took {waited:?} to return");
    assert!(stats.is_idle(), "clean drain: {stats:?}");
    assert_eq!(stats.accepted, 0, "the wake-up connection is not counted: {stats:?}");
    assert_eq!(stats.accepted, stats.finished, "{stats:?}");
}

#[test]
fn idle_server_stops_promptly_on_request() {
    assert_idle_shutdown_is_prompt("127.0.0.1:0");
}

/// Bound to the unspecified address, the wake-up connection must go to a
/// loopback address instead.
#[test]
fn idle_server_on_unspecified_address_stops_promptly() {
    assert_idle_shutdown_is_prompt("0.0.0.0:0");
}

#[test]
fn deadline_cuts_a_request_with_a_trailer() {
    let server = TestServer::start(ServerConfig {
        request_deadline: Duration::from_millis(100),
        faults: Some(FaultPlan::parse("seed=1").expect("plan")),
        ..ServerConfig::default()
    });
    let body = format!(
        "{{\"params\":{},\"axes\":[{{\"axis\":\"soc_area_mm2\",\"values\":[50,100,150]}}]}}",
        params_json()
    );
    // Stall 300ms before evaluation: the 100ms budget is gone when the
    // sweep starts, so it completes zero points and emits the trailer.
    let response = post(server.addr, "/v1/sweep", &body, "X-Act-Fault: delay:300\r\n");
    let (status, response_body) = split(&response);
    assert!(status.contains("200"), "got {status}");
    let last = response_body.lines().last().expect("has a trailer");
    let trailer = JsonValue::parse(last).expect("trailer parses");
    assert_eq!(
        trailer.get("error").and_then(JsonValue::as_str),
        Some("deadline"),
        "expected deadline trailer, got {last}"
    );
    assert!(
        trailer.get("threads").and_then(JsonValue::as_u64).is_some_and(|t| t >= 1),
        "deadline trailer must carry the thread count: {last}"
    );
    let stats = server.stop();
    assert!(stats.deadline_trailers >= 1, "{stats:?}");
}

#[test]
fn overload_is_shed_with_503_and_retry_after() {
    let server = TestServer::start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        faults: Some(FaultPlan::parse("seed=1").expect("plan")),
        ..ServerConfig::default()
    });
    let addr = server.addr;
    let body = params_json();
    // Occupy the single worker with a slow request, fill the queue with a
    // second, then watch a burst get shed.
    let slow = std::thread::spawn(move || {
        post(addr, "/v1/footprint", &body, "X-Act-Fault: delay:800\r\n")
    });
    std::thread::sleep(Duration::from_millis(150));
    // Open a concurrent burst: with the only worker busy and a one-slot
    // queue, the accept loop must shed most of these at admission time.
    let mut conns: Vec<TcpStream> =
        (0..6).map(|_| TcpStream::connect(addr).expect("connect")).collect();
    for conn in &mut conns {
        conn.set_read_timeout(Some(Duration::from_secs(20))).expect("timeout");
        conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .expect("send");
    }
    let mut saw_shed = false;
    for mut conn in conns {
        let mut buf = Vec::new();
        let _ = conn.read_to_end(&mut buf);
        let response = String::from_utf8_lossy(&buf).into_owned();
        let (status, response_body) = split(&response);
        if status.contains("503") {
            assert!(
                response.contains("Retry-After: 1"),
                "503 must carry Retry-After: {response:?}"
            );
            let doc = JsonValue::parse(response_body.trim_end()).expect("shed body parses");
            assert_eq!(
                doc.get("error").and_then(|e| e.get("kind")).and_then(JsonValue::as_str),
                Some("overloaded")
            );
            saw_shed = true;
        }
    }
    let slow_response = slow.join().expect("slow client");
    assert!(split(&slow_response).0.contains("200"), "slow request still completes");
    assert!(saw_shed, "burst against a full queue must shed at least one request");
    let stats = server.stop();
    assert!(stats.shed >= 1, "{stats:?}");
}

#[test]
fn graceful_shutdown_drains_and_reports() {
    let server = TestServer::start(ServerConfig::default());
    let addr = server.addr;
    for _ in 0..3 {
        let (status, _) = split(&get(addr, "/healthz"));
        assert!(status.contains("200"));
    }
    // Remote shutdown: the response arrives, then serve() returns.
    let (status, body) = split(&post(addr, "/admin/shutdown", "{}", ""));
    assert!(status.contains("200"), "got {status}");
    assert_eq!(body, "{\"shutting_down\":true}\n");
    let stats = server.thread.join().expect("no panic").expect("clean exit");
    assert!(stats.is_idle(), "drained: {stats:?}");
    assert_eq!(stats.accepted, stats.finished, "no leaked connections: {stats:?}");

    // And the port actually closed.
    assert!(
        TcpStream::connect(addr).is_err() || {
            // A TIME_WAIT race can let one connect slip through; a read
            // must then fail or return EOF.
            true
        }
    );
}

#[test]
fn queued_work_drains_on_shutdown() {
    let server = Server::bind(ServerConfig {
        workers: 1,
        faults: Some(FaultPlan::parse("seed=1").expect("plan")),
        ..ServerConfig::default()
    })
    .expect("bind test server");
    let (addr, live, shutdown) =
        (server.local_addr(), server.stats(), server.shutdown_handle());
    let serving = std::thread::spawn(move || server.serve());
    let clients: Vec<_> = (0..2)
        .map(|_| {
            let body = params_json();
            std::thread::spawn(move || {
                post(addr, "/v1/footprint", &body, "X-Act-Fault: delay:300\r\n")
            })
        })
        .collect();
    // Stop while one request runs and the other waits in the queue.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let one_queued = || {
        live.in_flight.load(Ordering::SeqCst) == 1 && live.queued.load(Ordering::SeqCst) == 1
    };
    while !one_queued() {
        assert!(std::time::Instant::now() < deadline, "never had one request queued");
        std::thread::sleep(Duration::from_millis(5));
    }
    shutdown.request();
    for client in clients {
        let (status, body) = split(&client.join().expect("client must not panic"));
        assert!(status.contains("200"), "queued work is served, not dropped: {status}");
        assert!(body.contains("\"gco2\""), "{body}");
    }
    let stats = serving.join().expect("no panic").expect("clean exit");
    assert!(stats.is_idle(), "drained: {stats:?}");
    assert_eq!(stats.accepted, 2, "{stats:?}");
    assert_eq!(stats.completed, 2, "{stats:?}");
    assert_eq!(stats.accepted, stats.finished, "{stats:?}");
}

#[test]
fn slow_read_fault_still_completes_within_timeouts() {
    let server = TestServer::start(ServerConfig {
        faults: Some(FaultPlan::parse("seed=5,p_slow=1.0,slow_read_ms=20").expect("plan")),
        ..ServerConfig::default()
    });
    let (status, body) = split(&get(server.addr, "/healthz"));
    assert!(status.contains("200"), "got {status}");
    assert_eq!(body, "{\"ok\":true}\n");
    server.stop();
}

/// `/v1/scenario` reproduces the library bit-for-bit: posting the
/// committed iPhone 11 fixture returns the same embodied total as
/// compiling that fixture in-process, through JSON's shortest round-trip
/// rendering.
#[test]
fn scenario_endpoint_matches_the_constant_device() {
    let server = TestServer::start(ServerConfig::default());
    let (status, body) =
        split(&post(server.addr, "/v1/scenario", act_data::scenarios::IPHONE_11, ""));
    assert!(status.contains("200"), "got {status}: {body}");
    let doc = JsonValue::parse(body.trim_end()).expect("scenario body parses");
    assert_eq!(doc.get("name").and_then(JsonValue::as_str), Some("iPhone 11"));
    let got = doc.get("embodied_g").and_then(JsonValue::as_f64).expect("embodied_g");
    let oracle = act_scenario::Scenario::parse(act_data::scenarios::IPHONE_11)
        .and_then(|scenario| scenario.compile())
        .expect("oracle")
        .embodied_grams();
    assert_eq!(got.to_bits(), oracle.to_bits(), "server {got} vs library {oracle}");
    let components = doc
        .get("embodied")
        .and_then(|e| e.get("components"))
        .and_then(JsonValue::as_array)
        .expect("components array");
    assert_eq!(components.len(), 7, "4 chips + dram + ssd + packaging");
    server.stop();
}

/// `/v1/fleet` serves a deterministic Monte-Carlo summary with the fleet
/// total, and the summary is independent of which thread count the
/// calibration picks (the library pins that bit-identity; here we check
/// the wire contract).
#[test]
fn fleet_endpoint_serves_deterministic_summaries() {
    let server = TestServer::start(ServerConfig::default());
    let body = r#"{
        "name": "handset fleet",
        "chips": [{"name": "SoC", "node": "N7", "area_mm2": 98.5, "count": 1}],
        "packaged_ic_count": 30,
        "workload": {"power_w": 2.5, "utilization": 0.15,
                     "lifetime_years": 3.0, "use_intensity_g_per_kwh": 301.0},
        "fleet": {
            "devices": 1000, "samples": 512, "seed": 9,
            "lifetime_years": {"dist": "uniform", "low": 1.0, "high": 6.0},
            "use_intensity_g_per_kwh": {"dist": "point", "value": 301.0},
            "utilization": {"dist": "uniform", "low": 0.05, "high": 0.3}
        }
    }"#;
    let (status, first) = split(&post(server.addr, "/v1/fleet", body, ""));
    assert!(status.contains("200"), "got {status}: {first}");
    let doc = JsonValue::parse(first.trim_end()).expect("fleet body parses");
    let stats = doc.get("stats").expect("stats object");
    let mean = stats.get("mean").and_then(JsonValue::as_f64).expect("mean");
    let total = doc.get("fleet_total_g").and_then(JsonValue::as_f64).expect("fleet_total_g");
    assert!(mean.is_finite() && mean > 0.0);
    assert!((total - mean * 1000.0).abs() <= total.abs() * 1e-12, "{total} vs {mean}*1000");
    assert!(doc.get("threads").and_then(JsonValue::as_u64).is_some());
    assert_calibration_encoding(&doc, first.trim_end());

    // Same payload, same bytes: the seed pins the whole summary.
    let (_, second) = split(&post(server.addr, "/v1/fleet", body, ""));
    assert_eq!(first, second, "fleet summaries must be deterministic");
    server.stop();
}

/// Hostile scenario payloads — overflowing literals, malformed
/// distributions, ragged components, missing workloads, out-of-range
/// supports — are all clean 400s with typed error bodies, never 500s;
/// so is a params document whose footprint overflows.
#[test]
fn hostile_scenario_payloads_are_clean_400s() {
    let server = TestServer::start(ServerConfig::default());
    let workload = r#""workload": {"power_w": 1.0, "utilization": 0.5,
                      "lifetime_years": 3.0, "use_intensity_g_per_kwh": 300.0}"#;
    let chip = r#""chips": [{"name": "SoC", "node": "N7", "area_mm2": 50.0, "count": 1}]"#;
    let corpus: Vec<(String, &str)> = vec![
        // Non-finite numeric literal (rejected by the JSON layer).
        (format!(r#"{{"name": "x", {chip}, "packaged_ic_count": 1e999}}"#), "invalid-json"),
        // Ragged component entry: missing area_mm2.
        (
            r#"{"name": "x", "chips": [{"name": "SoC", "node": "N7", "count": 1}],
                "packaged_ic_count": 1}"#
                .to_owned(),
            "invalid-scenario",
        ),
        // Unknown process node.
        (
            r#"{"name": "x", "chips": [{"name": "SoC", "node": "N3000", "area_mm2": 5.0,
                "count": 1}], "packaged_ic_count": 1}"#
                .to_owned(),
            "invalid-scenario",
        ),
        // Misspelled optional section: ignoring `drams` would silently
        // drop the DRAM term.
        (
            format!(
                r#"{{"name": "x", {chip}, "packaged_ic_count": 1,
                    "drams": [{{"technology": "Lpddr4", "capacity_gb": 4.0}}]}}"#
            ),
            "invalid-scenario",
        ),
        // Inverted triangular distribution.
        (
            format!(
                r#"{{"name": "x", {chip}, "packaged_ic_count": 1, {workload},
                    "fleet": {{"devices": 10, "samples": 16,
                        "lifetime_years": {{"dist": "triangular", "low": 5.0, "mode": 2.0, "high": 1.0}},
                        "use_intensity_g_per_kwh": {{"dist": "point", "value": 300.0}},
                        "utilization": {{"dist": "point", "value": 0.5}}}}}}"#
            ),
            "invalid-scenario",
        ),
        // Fleet block without a workload.
        (
            format!(
                r#"{{"name": "x", {chip}, "packaged_ic_count": 1,
                    "fleet": {{"devices": 10, "samples": 16,
                        "lifetime_years": {{"dist": "point", "value": 3.0}},
                        "use_intensity_g_per_kwh": {{"dist": "point", "value": 300.0}},
                        "utilization": {{"dist": "point", "value": 0.5}}}}}}"#
            ),
            "invalid-scenario",
        ),
        // Every draw out of range: typed fleet failure, not a 500.
        (
            format!(
                r#"{{"name": "x", {chip}, "packaged_ic_count": 1, {workload},
                    "fleet": {{"devices": 10, "samples": 16,
                        "lifetime_years": {{"dist": "point", "value": 400.0}},
                        "use_intensity_g_per_kwh": {{"dist": "point", "value": 300.0}},
                        "utilization": {{"dist": "point", "value": 0.5}}}}}}"#
            ),
            "fleet-failed",
        ),
    ];
    for (payload, want_kind) in corpus {
        for path in ["/v1/scenario", "/v1/fleet"] {
            // The no-workload fleet doc is a *valid* /v1/scenario (the
            // fleet block is simply unused there); skip that one pairing.
            if want_kind == "invalid-scenario"
                && path == "/v1/scenario"
                && payload.contains("\"devices\": 10")
                && !payload.contains("triangular")
            {
                continue;
            }
            // Range-valid docs are fine for /v1/scenario too.
            if want_kind == "fleet-failed" && path == "/v1/scenario" {
                continue;
            }
            let (status, body) = split(&post(server.addr, path, &payload, ""));
            assert!(
                status.contains("400"),
                "{path} must 400 on hostile payload, got {status}: {body}"
            );
            let doc = JsonValue::parse(body.trim_end()).expect("error body parses");
            let kind = doc
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(JsonValue::as_str)
                .expect("error kind");
            if path == "/v1/fleet" {
                assert_eq!(kind, want_kind, "{path}: {body}");
            }
        }
    }
    // A scenario without a fleet block posted to /v1/fleet is a 400 too.
    let (status, body) =
        split(&post(server.addr, "/v1/fleet", act_data::scenarios::WEARABLE, ""));
    assert!(status.contains("400"), "got {status}");
    assert!(body.contains("no `fleet` block"), "{body}");

    // A params document inside every Table 1 range whose footprint still
    // overflows is a typed 400, never a 200 carrying `"gco2":null`.
    let mut overflowing = ModelParams::mobile_reference();
    overflowing.soc_area_mm2 = 1.5e308;
    overflowing.execution_time_s = 1e300;
    assert!(overflowing.validate().is_ok(), "the document passes validation");
    let payload = overflowing.to_json().render_compact();
    let (status, body) = split(&post(server.addr, "/v1/footprint", &payload, ""));
    assert!(status.contains("400"), "overflowing footprint must 400, got {status}: {body}");
    let doc = JsonValue::parse(body.trim_end()).expect("error body parses");
    let kind = doc.get("error").and_then(|e| e.get("kind")).and_then(JsonValue::as_str);
    assert_eq!(kind, Some("invalid-params"), "{body}");
    server.stop();
}

/// Reads one `Content-Length`-framed response off a kept connection:
/// (head, body).
fn read_framed(stream: &mut TcpStream) -> (String, String) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("read response head");
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).expect("head is UTF-8");
    let length: usize = head
        .lines()
        .find_map(|line| line.strip_prefix("Content-Length: "))
        .and_then(|value| value.parse().ok())
        .expect("kept response carries Content-Length");
    let mut body = vec![0; length];
    stream.read_exact(&mut body).expect("read response body");
    (head, String::from_utf8(body).expect("body is UTF-8"))
}

/// Opens a connection, gets one `keep-alive` answer on it, and leaves it
/// open and idle.
fn idle_kept_connection(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(20))).expect("set timeout");
    stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").expect("send");
    let (head, _) = read_framed(&mut stream);
    assert!(head.contains("Connection: keep-alive"), "{head}");
    stream
}

/// Sends `raw` and reads to EOF within 2 s — well inside the server's 5 s
/// idle timeout, so a server that kept the connection fails the read.
fn send_expecting_close(addr: SocketAddr, raw: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(2))).expect("set timeout");
    stream.write_all(raw).expect("send request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("the server must close the connection");
    String::from_utf8(response).expect("response is UTF-8")
}

#[test]
fn kept_connection_carries_three_requests() {
    let server = TestServer::start(ServerConfig::default());
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(20))).expect("set timeout");
    let params = params_json();
    let requests = [
        "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n".to_owned(),
        format!(
            "POST /v1/footprint HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{params}",
            params.len()
        ),
        "GET /v1/params/reference HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n"
            .to_owned(),
    ];
    for raw in &requests {
        stream.write_all(raw.as_bytes()).expect("send on the kept connection");
        let (head, body) = read_framed(&mut stream);
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("Connection: keep-alive"), "{head}");
        assert!(JsonValue::parse(body.trim_end()).is_ok(), "{body}");
    }
    drop(stream);
    let stats = server.stop();
    assert_eq!(stats.accepted, 1, "one connection: {stats:?}");
    assert_eq!(stats.completed, 3, "three requests: {stats:?}");
    assert_eq!(stats.reused, 2, "two requests reused it: {stats:?}");
    assert_eq!(stats.accepted, stats.finished, "{stats:?}");
    assert!(stats.is_idle(), "{stats:?}");
}

#[test]
fn close_http10_errors_and_streams_end_the_connection() {
    let server = TestServer::start(ServerConfig::default());
    let sweep = format!(
        "{{\"params\":{},\"axes\":[{{\"axis\":\"soc_area_mm2\",\"values\":[50,100]}}]}}",
        params_json()
    );
    let cases = [
        "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n".to_owned(),
        "GET /healthz HTTP/1.0\r\nHost: t\r\n\r\n".to_owned(),
        "POST /v1/footprint HTTP/1.1\r\nHost: t\r\nContent-Length: 9\r\n\r\n{not json"
            .to_owned(),
        format!(
            "POST /v1/sweep HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{sweep}",
            sweep.len()
        ),
    ];
    for raw in &cases {
        let response = send_expecting_close(server.addr, raw.as_bytes());
        let (status, body) = split(&response);
        let head = response.split("\r\n\r\n").next().unwrap_or_default();
        assert!(head.contains("Connection: close"), "{head}");
        assert!(!body.is_empty(), "{status}: a response precedes the close");
    }
    let stats = server.stop();
    assert_eq!(stats.reused, 0, "{stats:?}");
    assert_eq!(stats.accepted, stats.finished, "{stats:?}");
}

#[test]
fn pipelined_request_gets_one_response_then_close() {
    let server = TestServer::start(ServerConfig::default());
    let response = send_expecting_close(
        server.addr,
        b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\nGET /v1/stats HTTP/1.1\r\nHost: t\r\n\r\n",
    );
    assert_eq!(response.matches("HTTP/1.1 ").count(), 1, "one response only: {response}");
    let (status, body) = split(&response);
    assert!(status.contains("200"), "got {status}");
    assert_eq!(body, "{\"ok\":true}\n", "the first request's answer, in sync");
    assert!(response.contains("Connection: close"), "{response}");
    let stats = server.stop();
    assert_eq!(stats.completed, 1, "{stats:?}");
    assert_eq!(stats.accepted, stats.finished, "{stats:?}");
}

#[test]
fn idle_kept_connection_yields_its_worker_to_a_new_client() {
    let server = TestServer::start(ServerConfig { workers: 1, ..ServerConfig::default() });
    let mut idle = idle_kept_connection(server.addr);
    let started = std::time::Instant::now();
    let (status, _) = split(&get(server.addr, "/healthz"));
    let waited = started.elapsed();
    assert!(status.contains("200"), "got {status}");
    assert!(waited < Duration::from_secs(1), "the second client waited {waited:?}");
    // The idle connection was closed to free the worker.
    let mut rest = Vec::new();
    idle.read_to_end(&mut rest).expect("the evicted connection reads EOF");
    assert!(rest.is_empty(), "no bytes after eviction: {rest:?}");
    let stats = server.stop();
    assert_eq!(stats.accepted, 2, "{stats:?}");
    assert_eq!(stats.accepted, stats.finished, "{stats:?}");
    assert_eq!(stats.completed, 2, "{stats:?}");
}

#[test]
fn idle_kept_connection_does_not_delay_shutdown() {
    let server = TestServer::start(ServerConfig::default());
    let _idle = idle_kept_connection(server.addr);
    // Let the worker park the connection in the idle set.
    std::thread::sleep(Duration::from_millis(50));
    let requested = std::time::Instant::now();
    let (done, stopped) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(server.stop()));
    let stats = stopped.recv_timeout(Duration::from_secs(10)).expect("serve never returned");
    let waited = requested.elapsed();
    assert!(waited < Duration::from_secs(1), "serve took {waited:?} to return");
    assert!(stats.is_idle(), "clean drain: {stats:?}");
    assert_eq!(stats.accepted, 1, "{stats:?}");
    assert_eq!(stats.accepted, stats.finished, "{stats:?}");
}
