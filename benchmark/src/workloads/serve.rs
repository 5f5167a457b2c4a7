//! `serve`: the real `act serve` binary (default flags plus
//! `--allow-remote-shutdown`) under seeded open-loop Poisson traffic.
//!
//! It is the only workload that reaches act-server's accept loop, queue
//! and HTTP code, act-json body parsing and NDJSON response writing.
//! Small routes are dominated by per-connection overhead, batch routes by
//! parsing plus streaming, so a connection fix and a streaming fix each
//! show on one class and not the other.
//!
//! Mix: 70 % `/v1/footprint` (half repeat one of 8 documents, half are
//! unique perturbations), 15 % `/v1/scenario` (the six fixtures), 10 %
//! `/v1/sweep` (16,384 points × 2 axes), 5 % `/v1/fleet` (20k samples).
//! Phases, as shares of the run's seconds: warm-up at `lo` (10 %), `lo`
//! (40 %), `hi` (25 %), then closed-loop capacity on the small routes
//! (25 %). The client uses at most `nproc` threads and connections, so
//! the server never has more than `nproc` requests in flight and a late
//! arrival waits in the client, where its due-time latency counts it.

use std::io::Read;
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use act_core::{CompiledFootprint, FreeAxis, ModelParams};
use act_dse::McBuffer;
use act_json::{format_float, FromJson, JsonObject, JsonValue, ToJson};
use act_rng::Rng;
use act_scenario::Scenario;

use super::{finish, EndToEnd};
use crate::http::{Client, Timing};
use crate::metrics::{Outcome, Values};
use crate::schedule::{poisson, Route};
use crate::stats::{beyond, fnv1a, median, percentile, supported_percentile, Fnv};
use crate::trace::Tracer;
use crate::{procfs, RunConfig, Workload};

/// The `lo` arrival rate, requests/s: about 25 % of the mixed-traffic
/// closed-loop capacity on `nproc` connections measured when this
/// benchmark was introduced (311–455 req/s over three 5 s runs on a
/// 2-core host). Fixed, never recomputed per run.
pub const LO_RPS: f64 = 85.0;
/// The `hi` arrival rate, requests/s: about 60 % of that capacity.
pub const HI_RPS: f64 = 205.0;
/// Points per `/v1/sweep` request.
pub const SWEEP_POINTS: usize = 16_384;
/// Samples per `/v1/fleet` request.
pub const FLEET_SAMPLES: usize = 20_000;
/// Latency limit on the small routes' tail, ms.
pub const SMALL_P99_LIMIT_MS: f64 = 10.0;
/// Latency limit on the batch routes' p95, ms.
pub const BATCH_P95_LIMIT_MS: f64 = 50.0;
/// Fixed footprint documents that repeating requests pick from.
const FOOTPRINT_DOCS: u64 = 8;
/// Distinct sweep documents per run (each ~600 KB).
const SWEEP_DOCS: u64 = 4;
/// Small requests the closed loop cycles through.
const CAPACITY_POOL: u64 = 512;
/// Bound on every socket operation and on the server's shutdown.
const TIMEOUT: Duration = Duration::from_secs(30);

/// How a response is checked against the in-process result.
#[derive(Debug)]
enum Expect {
    /// The exact body.
    Exact(Vec<u8>),
    /// A sweep stream: the point lines (digest) and a `done` trailer.
    Sweep { lines_digest: u64, points: usize },
    /// A fleet summary: the in-process answer's bit patterns.
    Fleet { stats: [u64; 5], rejected: u64, devices: u64, total_bits: u64 },
}

/// One request ready to send.
#[derive(Clone, Debug)]
struct Request {
    route: Route,
    body: Arc<Vec<u8>>,
    expect: Arc<Expect>,
}

/// The seeded documents and their in-process answers.
struct Corpus {
    base: ModelParams,
    footprints: Vec<Request>,
    scenarios: Vec<Request>,
    sweeps: Vec<Request>,
    fleets: Vec<Request>,
}

fn request(route: Route, body: String, expect: Expect) -> Request {
    Request { route, body: Arc::new(body.into_bytes()), expect: Arc::new(expect) }
}

impl Corpus {
    fn new(seed: u64) -> Result<Self, String> {
        let base = ModelParams::mobile_reference();
        let footprints = (0..FOOTPRINT_DOCS)
            .map(|i| footprint(&perturb(&base, act_rng::split_seed(seed, i))))
            .collect::<Result<_, _>>()?;
        let scenarios = act_data::scenarios::ALL
            .iter()
            .map(|text| scenario(text))
            .collect::<Result<_, _>>()?;
        let sweeps = (0..SWEEP_DOCS)
            .map(|i| sweep(&base, act_rng::split_seed(seed ^ 0x5eed, i)))
            .collect::<Result<_, _>>()?;
        let fleets = super::fleet::documents(seed ^ 0xf1ee, FLEET_SAMPLES)?
            .iter()
            .map(|text| fleet(text))
            .collect::<Result<_, _>>()?;
        Ok(Self { base, footprints, scenarios, sweeps, fleets })
    }

    /// The request an arrival's `pick` selects. Even footprint picks
    /// repeat a fixed document; odd ones perturb the base uniquely.
    fn pick(&self, route: Route, pick: u64) -> Result<Request, String> {
        let choose = |docs: &[Request]| docs[(pick % docs.len() as u64) as usize].clone();
        Ok(match route {
            Route::Footprint if pick % 2 == 1 => footprint(&perturb(&self.base, pick))?,
            Route::Footprint => choose(&self.footprints[..]),
            Route::Scenario => choose(&self.scenarios),
            Route::Sweep => choose(&self.sweeps),
            Route::Fleet => choose(&self.fleets),
        })
    }

    /// One request of each route (the warm-up that ends a server's set-up).
    fn one_of_each(&self) -> [Request; 4] {
        [
            self.footprints[0].clone(),
            self.scenarios[0].clone(),
            self.sweeps[0].clone(),
            self.fleets[0].clone(),
        ]
    }
}

/// The reference device with seeded area, grid, lifetime and energy.
fn perturb(base: &ModelParams, seed: u64) -> ModelParams {
    let mut rng = Rng::seed_from_u64(seed);
    let mut params = base.clone();
    params.soc_area_mm2 = rng.gen_range(20.0..400.0);
    params.use_intensity_g_per_kwh = rng.gen_range(50.0..800.0);
    params.lifetime_years = rng.gen_range(1.0..8.0);
    params.energy_j = rng.gen_range(1_000.0..20_000.0);
    params
}

fn footprint(params: &ModelParams) -> Result<Request, String> {
    let kernel = CompiledFootprint::try_compile(params, &[]).map_err(|err| err.to_string())?;
    let expect = format!("{{\"gco2\":{}}}\n", format_float(kernel.eval(&[])));
    Ok(request(
        Route::Footprint,
        params.to_json().render_compact(),
        Expect::Exact(expect.into_bytes()),
    ))
}

/// The line `/v1/scenario` answers with, built the same way in process.
fn scenario(text: &str) -> Result<Request, String> {
    let compiled = Scenario::parse(text)
        .and_then(|scenario| scenario.compile())
        .map_err(|err| err.to_string())?;
    let mut obj = JsonObject::new()
        .with("name", compiled.name().to_json())
        .with("embodied_g", compiled.embodied_grams().to_json())
        .with("embodied", compiled.embodied().to_json());
    if let Some(device) = compiled.device() {
        obj = obj.with("device", device.to_json());
    }
    let mut line = JsonValue::Object(obj).render_compact();
    line.push('\n');
    Ok(request(Route::Scenario, text.to_owned(), Expect::Exact(line.into_bytes())))
}

fn sweep(base: &ModelParams, seed: u64) -> Result<Request, String> {
    let columns = super::sweep::columns(seed, SWEEP_POINTS);
    let axis = |name: &str, values: &[f64]| act_json::obj! { "axis": name, "values": values };
    let body = act_json::obj! {
        "params": base,
        "axes": [axis("soc_area_mm2", &columns[0]), axis("use_intensity_g_per_kwh", &columns[1])],
    };
    let kernel =
        CompiledFootprint::try_compile(base, &[FreeAxis::SocArea, FreeAxis::UseIntensity])
            .map_err(|err| err.to_string())?;
    let mut values = vec![0.0; SWEEP_POINTS];
    let cols: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
    kernel.plan().eval_block(&cols, 0..SWEEP_POINTS, &mut values);
    let mut digest = Fnv::default();
    for (i, value) in values.iter().enumerate() {
        digest.write(format!("{{\"i\":{i},\"gco2\":{}}}\n", format_float(*value)).as_bytes());
    }
    let expect = Expect::Sweep { lines_digest: digest.finish(), points: SWEEP_POINTS };
    Ok(request(Route::Sweep, body.render_compact(), expect))
}

fn fleet(text: &str) -> Result<Request, String> {
    let answer =
        super::fleet::run_document(text, 1, &mut McBuffer::new(), &Tracer::new(false), 0)?;
    let compiled = Scenario::parse(text)
        .and_then(|scenario| scenario.compile())
        .map_err(|err| err.to_string())?;
    let devices = compiled.fleet().map_or(0, act_scenario::FleetKernel::devices);
    let s = &answer.outcome.stats;
    let expect = Expect::Fleet {
        stats: [
            s.mean.to_bits(),
            s.p05.to_bits(),
            s.p50.to_bits(),
            s.p95.to_bits(),
            s.samples as u64,
        ],
        rejected: answer.outcome.rejected as u64,
        devices,
        total_bits: answer.total_g.to_bits(),
    };
    Ok(request(Route::Fleet, text.to_owned(), expect))
}

/// Checks one 200 body; returns the `threads` a batch route reported.
fn check(expect: &Expect, body: &[u8]) -> Result<Option<f64>, String> {
    match expect {
        Expect::Exact(want) if body == want.as_slice() => Ok(None),
        Expect::Exact(want) => Err(format!(
            "body {:?} != expected {:?}",
            String::from_utf8_lossy(&body[..body.len().min(120)]),
            String::from_utf8_lossy(&want[..want.len().min(120)])
        )),
        Expect::Sweep { lines_digest, points } => {
            let text = std::str::from_utf8(body).map_err(|_| "sweep body is not UTF-8")?;
            let trailer_at = text.trim_end_matches('\n').rfind('\n').map_or(0, |i| i + 1);
            let (lines, trailer) = text.split_at(trailer_at);
            if lines.matches('\n').count() != *points
                || fnv1a(lines.as_bytes()) != *lines_digest
            {
                return Err("sweep point lines differ from the in-process sweep".to_owned());
            }
            let trailer = JsonValue::parse(trailer.trim()).map_err(|err| err.to_string())?;
            let done = trailer.get("done").and_then(JsonValue::as_bool) == Some(true)
                && trailer.get("points").and_then(JsonValue::as_u64) == Some(*points as u64)
                && trailer.get("rejected").and_then(JsonValue::as_u64) == Some(0);
            if !done {
                return Err(format!(
                    "sweep trailer {} is not a clean done",
                    trailer.render_compact()
                ));
            }
            Ok(trailer.get("threads").and_then(JsonValue::as_f64))
        }
        Expect::Fleet { stats, rejected, devices, total_bits } => {
            let text = std::str::from_utf8(body).map_err(|_| "fleet body is not UTF-8")?;
            let doc = JsonValue::parse(text.trim()).map_err(|err| err.to_string())?;
            let summary = doc.get("stats").map(act_dse::McStats::from_json);
            let got = match summary {
                Some(Ok(s)) => [
                    s.mean.to_bits(),
                    s.p05.to_bits(),
                    s.p50.to_bits(),
                    s.p95.to_bits(),
                    s.samples as u64,
                ],
                _ => return Err("fleet response has no stats".to_owned()),
            };
            let total = doc.get("fleet_total_g").and_then(JsonValue::as_f64).map(f64::to_bits);
            let same = got == *stats
                && doc.get("rejected").and_then(JsonValue::as_u64) == Some(*rejected)
                && doc.get("devices").and_then(JsonValue::as_u64) == Some(*devices)
                && total == Some(*total_bits);
            if !same {
                return Err("fleet summary differs from the in-process run".to_owned());
            }
            Ok(doc.get("threads").and_then(JsonValue::as_f64))
        }
    }
}

/// One request's fate.
#[derive(Clone, Debug)]
struct Record {
    route: Route,
    due: Instant,
    timing: Option<Timing>,
    threads: Option<f64>,
    error: Option<String>,
}

impl Record {
    fn ok(&self) -> bool {
        self.error.is_none() && self.timing.is_some()
    }

    /// Latency from the due time to the last byte, ms.
    fn latency_ms(&self) -> Option<f64> {
        self.timing.map(|t| ms(t.last_byte.saturating_duration_since(self.due)))
    }

    /// How late the generator sent it, ms.
    fn late_ms(&self) -> Option<f64> {
        self.timing.map(|t| ms(t.start.saturating_duration_since(self.due)))
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn send(client: &mut Client, req: &Request, due: Instant) -> Record {
    let mut record = Record { route: req.route, due, timing: None, threads: None, error: None };
    match client.send("POST", req.route.path(), &req.body) {
        Ok((response, timing)) => {
            record.timing = Some(timing);
            if response.status != 200 {
                record.error = Some(format!(
                    "HTTP {} from {}: {}",
                    response.status,
                    req.route.path(),
                    String::from_utf8_lossy(&response.body[..response.body.len().min(200)])
                        .trim()
                ));
            } else {
                match check(&req.expect, &response.body) {
                    Ok(threads) => record.threads = threads,
                    Err(err) => record.error = Some(format!("{}: {err}", req.route.path())),
                }
            }
        }
        Err(err) => record.error = Some(format!("{}: {err}", req.route.path())),
    }
    record
}

/// Sends every request at its due time (seconds after `start`) from
/// `threads` client threads; returns records in schedule order and the
/// connections opened.
fn open_loop(
    addr: SocketAddr,
    plan: &[(f64, Request)],
    threads: usize,
    start: Instant,
) -> (Vec<Record>, u64) {
    let next = AtomicUsize::new(0);
    let mut results: Vec<(usize, Record)> = Vec::with_capacity(plan.len());
    let mut connects = 0;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::new(addr, TIMEOUT);
                    let mut mine = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some((due_s, req)) = plan.get(k) else { break };
                        let due = start + Duration::from_secs_f64(*due_s);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        mine.push((k, send(&mut client, req, due)));
                    }
                    (mine, client.connects)
                })
            })
            .collect();
        for worker in workers {
            let (mine, opened) = worker.join().expect("a load-generator thread panicked");
            results.extend(mine);
            connects += opened;
        }
    });
    results.sort_by_key(|(k, _)| *k);
    (results.into_iter().map(|(_, record)| record).collect(), connects)
}

/// Closed loop: `conns` clients each send their next request as soon as
/// the previous one completes, for `seconds`. Returns the records, the
/// elapsed seconds until the last response, and the connections opened.
fn closed_loop(
    addr: SocketAddr,
    pool: &[Request],
    conns: usize,
    seconds: f64,
) -> (Vec<Record>, f64, u64) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut records = Vec::new();
    let mut connects = 0;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::new(addr, TIMEOUT);
                    let mut mine = Vec::new();
                    while Instant::now() < end {
                        let req = &pool[next.fetch_add(1, Ordering::Relaxed) % pool.len()];
                        mine.push(send(&mut client, req, Instant::now()));
                    }
                    (mine, client.connects)
                })
            })
            .collect();
        for worker in workers {
            let (mine, opened) = worker.join().expect("a closed-loop client thread panicked");
            records.extend(mine);
            connects += opened;
        }
    });
    (records, start.elapsed().as_secs_f64(), connects)
}

/// A running `act serve`; stopped (and reaped) on drop at the latest.
struct ServeProcess {
    child: Child,
    addr: SocketAddr,
}

impl ServeProcess {
    fn spawn(act: &Path) -> Result<Self, String> {
        let mut child = Command::new(act)
            .args(["serve", "--allow-remote-shutdown"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|err| format!("cannot spawn {}: {err}", act.display()))?;
        // Byte-wise, so nothing past the readiness line is consumed.
        let mut line = Vec::new();
        let mut byte = [0u8; 1];
        let read = match child.stdout.as_mut() {
            Some(stdout) => loop {
                match stdout.read(&mut byte) {
                    Ok(1) if byte[0] == b'\n' => break Ok(()),
                    Ok(1) => line.push(byte[0]),
                    Ok(_) => break Err("act serve exited before it was ready".to_owned()),
                    Err(err) => break Err(format!("reading the readiness line: {err}")),
                }
            },
            None => Err("act serve stdout was not piped".to_owned()),
        };
        let mut server = Self { child, addr: SocketAddr::from(([127, 0, 0, 1], 0)) };
        read?;
        let ready =
            JsonValue::parse(&String::from_utf8_lossy(&line)).map_err(|err| err.to_string())?;
        server.addr = ready
            .get("listening")
            .and_then(JsonValue::as_str)
            .and_then(|addr| addr.parse().ok())
            .ok_or("readiness line without a `listening` address")?;
        Ok(server)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks for a graceful shutdown and waits for the exit.
    fn stop(&mut self) -> Result<(), String> {
        let mut client = Client::new(self.addr, TIMEOUT);
        client
            .send("POST", "/admin/shutdown", b"")
            .map_err(|err| format!("shutdown: {err}"))?;
        let deadline = Instant::now() + TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("act serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("act serve did not stop after shutdown".to_owned()),
                Err(err) => return Err(format!("waiting for act serve: {err}")),
            }
        }
    }

    fn stats(&self) -> Result<JsonValue, String> {
        let mut client = Client::new(self.addr, TIMEOUT);
        let (response, _) =
            client.send("GET", "/v1/stats", b"").map_err(|err| err.to_string())?;
        JsonValue::parse(String::from_utf8_lossy(&response.body).trim())
            .map_err(|err| err.to_string())
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Spawns a server and warms it with one request per route; returns it
/// with its set-up time (spawn → warm) and its peak memory once warm.
fn start_server(act: &Path, corpus: &Corpus) -> Result<(ServeProcess, f64, f64), String> {
    let spawned = Instant::now();
    let server = ServeProcess::spawn(act)?;
    let mut client = Client::new(server.addr, TIMEOUT);
    for req in corpus.one_of_each() {
        if let Some(err) = send(&mut client, &req, Instant::now()).error {
            return Err(format!("warm-up: {err}"));
        }
    }
    let took = spawned.elapsed().as_secs_f64();
    let rss =
        procfs::peak_rss_mb(Some(server.pid())).ok_or("cannot read the server's VmHWM")?;
    Ok((server, took, rss))
}

/// Set-up time and warm memory of fresh servers.
#[derive(Default)]
struct WarmServers {
    setup_s: Vec<f64>,
    rss_mb: Vec<f64>,
}

impl WarmServers {
    fn add(&mut self, took: f64, rss: f64) {
        self.setup_s.push(took);
        self.rss_mb.push(rss);
    }

    /// Spawns, warms, measures and stops one more server.
    fn probe(&mut self, act: &Path, corpus: &Corpus) -> Result<(), String> {
        let (mut server, took, rss) = start_server(act, corpus)?;
        self.add(took, rss);
        server.stop()
    }
}

/// The seeded schedule of one open-loop phase.
fn phase_plan(
    corpus: &Corpus,
    seed: u64,
    rate: f64,
    seconds: f64,
) -> Result<Vec<(f64, Request)>, String> {
    poisson(seed, rate, seconds)
        .into_iter()
        .map(|arrival| Ok((arrival.due_s, corpus.pick(arrival.route, arrival.pick)?)))
        .collect()
}

/// Client threads and connections: one per core, never more.
fn client_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A counter's growth between two `/v1/stats` snapshots.
fn delta(before: &JsonValue, after: &JsonValue, key: &str) -> f64 {
    let get = |doc: &JsonValue| doc.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
    get(after) - get(before)
}

fn latencies(records: &[Record], small: bool) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.ok() && r.route.is_small() == small)
        .filter_map(Record::latency_ms)
        .collect()
}

fn timing_ms(records: &[Record], small: bool, f: fn(&Timing) -> Duration) -> f64 {
    median(
        &records
            .iter()
            .filter(|r| r.ok() && r.route.is_small() == small)
            .filter_map(|r| r.timing.as_ref().map(|t| ms(f(t))))
            .collect::<Vec<_>>(),
    )
}

/// Report lines for one open-loop phase: per class the median and tail
/// (the percentile the sample supports, p99 / p95 at most), whether the
/// phase met the latency limit, and the backlog it ended with.
fn phase_lines(name: &str, rate: f64, records: &[Record], outcome: &mut Outcome) {
    let small = latencies(records, true);
    let batch = latencies(records, false);
    let tail = |n: usize, want: f64| supported_percentile(n).min(want);
    let (ps, pb) = (tail(small.len(), 99.0), tail(batch.len(), 95.0));
    let failed = records.iter().filter(|r| !r.ok()).count();
    let met = failed == 0
        && percentile(&small, ps) <= SMALL_P99_LIMIT_MS
        && percentile(&batch, pb) <= BATCH_P95_LIMIT_MS;
    let backlog = records.last().and_then(Record::late_ms).unwrap_or(0.0);
    for (class, values, p) in [("small", &small, ps), ("batch", &batch, pb)] {
        outcome.line(format!(
            "serve {name}.{class}_p50_ms {:.4} ms, {name}.{class}_p{p}_ms {:.4} ms (n={}, {} beyond p{p})",
            median(values),
            percentile(values, p),
            values.len(),
            beyond(values.len(), p)
        ));
    }
    outcome.line(format!(
        "serve {name} at {rate} req/s: {} sent, {failed} failed, limit (small p{ps} ≤ {SMALL_P99_LIMIT_MS} ms, batch p{pb} ≤ {BATCH_P95_LIMIT_MS} ms) {}, backlog {backlog:.3} ms",
        records.len(),
        if met { "met" } else { "missed" }
    ));
}

/// Records each request's client-side phases as spans.
fn trace_records(tracer: &Tracer, records: &[Record], first_req: u64) {
    for (i, record) in records.iter().enumerate() {
        let Some(t) = record.timing else { continue };
        let req = first_req + i as u64;
        let root = tracer.record("serve.request", 0, req, record.due, t.last_byte);
        tracer.record("gen.late", root, req, record.due, t.start);
        tracer.record("http.connect", root, req, t.start, t.connected);
        tracer.record("http.send", root, req, t.connected, t.sent);
        tracer.record("server.wait", root, req, t.sent, t.first_byte);
        tracer.record("http.transfer", root, req, t.first_byte, t.last_byte);
    }
}

/// In-process time of what `/v1/footprint` does with a body: parse,
/// decode, compile, evaluate, format — ms, median over `bodies`.
fn footprint_handler_ms(bodies: &[&[u8]]) -> f64 {
    let times: Vec<f64> = bodies
        .iter()
        .map(|body| {
            let start = Instant::now();
            let text = String::from_utf8_lossy(body);
            let value = JsonValue::parse(&text)
                .ok()
                .and_then(|doc| ModelParams::from_json(&doc).ok())
                .and_then(|params| CompiledFootprint::try_compile(&params, &[]).ok())
                .map(|kernel| format_float(kernel.eval(&[])));
            std::hint::black_box(value);
            ms(start.elapsed())
        })
        .collect();
    median(&times)
}

/// What the main server went through while it was measured.
struct ServerSide {
    stats_before: JsonValue,
    stats_after: JsonValue,
    cpu_s: Option<f64>,
    loaded_rss_mb: Option<f64>,
}

/// The act-server per-layer values, timed from the client: request
/// phases of the `lo` records, connections opened per request over every
/// measured request, and the server's own counters and CPU.
fn server_layers(
    lo: &[(f64, Request)],
    lo_records: &[Record],
    requests: usize,
    connects: u64,
    late_ms: &[f64],
    server: &ServerSide,
) -> Values {
    let mut layers = Values::default();
    let connect_us = median(
        &lo_records
            .iter()
            .filter_map(|r| r.timing.filter(|t| !t.reused))
            .map(|t| ms(t.connected - t.start) * 1e3)
            .collect::<Vec<_>>(),
    );
    let footprint_bodies: Vec<&[u8]> = lo
        .iter()
        .filter(|(_, req)| req.route == Route::Footprint)
        .map(|(_, req)| req.body.as_slice())
        .collect();
    let footprint_ttfb = median(
        &lo_records
            .iter()
            .filter(|r| r.ok() && r.route == Route::Footprint)
            .filter_map(|r| r.timing.map(|t| ms(t.first_byte - t.sent)))
            .collect::<Vec<_>>(),
    );
    let batch_threads: Vec<f64> = lo_records.iter().filter_map(|r| r.threads).collect();
    layers.set("server.connect_us", connect_us);
    layers.set("server.small_ttfb_ms", timing_ms(lo_records, true, |t| t.first_byte - t.sent));
    layers.set("server.overhead_ms", footprint_ttfb - footprint_handler_ms(&footprint_bodies));
    layers.set("server.conns_per_req", connects as f64 / requests as f64);
    layers.set("server.batch_ttfb_ms", timing_ms(lo_records, false, |t| t.first_byte - t.sent));
    layers.set(
        "server.transfer_ms",
        timing_ms(lo_records, false, |t| t.last_byte - t.first_byte),
    );
    layers.set("server.batch_threads", median(&batch_threads));
    for (metric, key) in [
        ("server.shed", "shed"),
        ("server.timeouts", "timeouts"),
        ("server.bad_requests", "bad_requests"),
        ("server.deadline_trailers", "deadline_trailers"),
    ] {
        layers.set(metric, delta(&server.stats_before, &server.stats_after, key));
    }
    if let Some(cpu) = server.cpu_s {
        layers.set("server.cpu_s", cpu);
    }
    if let Some(rss) = server.loaded_rss_mb {
        layers.set("server.loaded_rss_mb", rss);
    }
    layers.set("gen.late_p99_ms", percentile(late_ms, 99.0));
    layers
}

/// Seconds of `lo` traffic the reconstructed server probe sends.
const PROBE_SECONDS: f64 = 1.0;

/// The act-server layer timed on its own, for the traced runs of
/// workloads that do not reach it: a fresh server under `PROBE_SECONDS`
/// of `lo` traffic.
///
/// # Errors
///
/// A message when the server cannot start or a request fails its check.
pub(crate) fn server_probe(config: &RunConfig) -> Result<Values, String> {
    let corpus = Corpus::new(config.seed)?;
    let plan = phase_plan(&corpus, config.seed ^ 2, LO_RPS, PROBE_SECONDS)?;
    let (mut server, _, _) = start_server(&config.act_exe, &corpus)?;
    let stats_before = server.stats()?;
    let cpu_before = procfs::cpu_seconds(Some(server.pid()));
    let (records, connects) = open_loop(server.addr, &plan, client_threads(), Instant::now());
    let side = ServerSide {
        cpu_s: procfs::cpu_seconds(Some(server.pid())).zip(cpu_before).map(|(a, b)| a - b),
        stats_after: server.stats()?,
        stats_before,
        loaded_rss_mb: procfs::peak_rss_mb(Some(server.pid())),
    };
    server.stop()?;
    if let Some(err) = records.iter().find_map(|r| r.error.as_ref()) {
        return Err(format!("server probe: {err}"));
    }
    let late: Vec<f64> = records.iter().filter_map(Record::late_ms).collect();
    Ok(server_layers(&plan, &records, records.len(), connects, &late, &side))
}

pub(crate) fn run(config: &RunConfig) -> Result<Outcome, String> {
    let act = config.act_exe.as_path();
    let mut outcome = Outcome::default();
    let tracer = Tracer::new(config.trace);
    let corpus = Corpus::new(config.seed)?;
    let threads = client_threads();
    let s = config.seconds;

    let warm = phase_plan(&corpus, config.seed ^ 1, LO_RPS, 0.10 * s)?;
    let lo = phase_plan(&corpus, config.seed ^ 2, LO_RPS, 0.40 * s)?;
    let hi = phase_plan(&corpus, config.seed ^ 3, HI_RPS, 0.25 * s)?;
    let mut rng = Rng::seed_from_u64(config.seed ^ 4);
    let pool: Vec<Request> = (0..CAPACITY_POOL)
        .map(|_| {
            let route = Route::small_from(&mut rng);
            corpus.pick(route, rng.next_u64())
        })
        .collect::<Result<_, _>>()?;

    // Fresh servers are set up between the phases, while the main server
    // idles, so set-up samples the same stretch of host conditions as
    // the load does.
    let mut fresh = WarmServers::default();
    let (mut server, took, rss) = start_server(act, &corpus)?;
    fresh.add(took, rss);
    fresh.probe(act, &corpus)?;
    let (warm_records, _) = open_loop(server.addr, &warm, threads, Instant::now());
    let stats_before = server.stats()?;
    let (server_cpu0, client_cpu0) =
        (procfs::cpu_seconds(Some(server.pid())), procfs::cpu_seconds(None));
    fresh.probe(act, &corpus)?;
    let (lo_records, lo_conns) = open_loop(server.addr, &lo, threads, Instant::now());
    fresh.probe(act, &corpus)?;
    let (hi_records, hi_conns) = open_loop(server.addr, &hi, threads, Instant::now());
    fresh.probe(act, &corpus)?;
    let (cap_records, cap_s, cap_conns) = closed_loop(server.addr, &pool, threads, 0.25 * s);
    let side = ServerSide {
        cpu_s: procfs::cpu_seconds(Some(server.pid())).zip(server_cpu0).map(|(a, b)| a - b),
        stats_after: server.stats()?,
        stats_before,
        loaded_rss_mb: procfs::peak_rss_mb(Some(server.pid())),
    };
    let client_cpu = procfs::cpu_seconds(None).zip(client_cpu0).map(|(a, b)| a - b);
    server.stop()?;

    let phases = [&warm_records, &lo_records, &hi_records, &cap_records];
    for record in phases.iter().flat_map(|records| records.iter()) {
        outcome.attempted += 1;
        if let Some(err) = &record.error {
            outcome.fail(format!("serve: {err}"));
        }
    }
    let mut digest = Fnv::default();
    for req in lo.iter().map(|(_, req)| req) {
        digest.write(req.route.path().as_bytes());
        digest.write(&req.body);
    }
    outcome.digest = digest.finish();

    phase_lines("lo", LO_RPS, &lo_records, &mut outcome);
    phase_lines("hi", HI_RPS, &hi_records, &mut outcome);
    let cap_ok = cap_records.iter().filter(|r| r.ok()).count();
    let capacity_rps = cap_ok as f64 / cap_s;
    outcome.line(format!(
        "serve capacity_rps {capacity_rps:.3} req/s (closed loop, {threads} connections, small routes, {cap_ok} requests in {cap_s:.3} s)"
    ));

    let late: Vec<f64> =
        lo_records.iter().chain(&hi_records).filter_map(Record::late_ms).collect();
    let requests = lo_records.len() + hi_records.len() + cap_records.len();
    let mut layers = server_layers(
        &lo,
        &lo_records,
        requests,
        lo_conns + hi_conns + cap_conns,
        &late,
        &side,
    );
    if let (Some(server_cpu), Some(client_cpu)) = (side.cpu_s, client_cpu) {
        layers.set("proc.cpu_s", server_cpu + client_cpu);
    }
    if config.trace {
        trace_records(&tracer, &lo_records, 0);
        trace_records(&tracer, &hi_records, lo_records.len() as u64);
    }

    let e2e = EndToEnd {
        setup_s: fresh.setup_s,
        peak_rss_mb: fresh.rss_mb,
        throughput_per_s: capacity_rps,
        throughput_unit: "req/s, closed-loop capacity on the small routes",
    };
    finish(Workload::Serve, config, &tracer, &mut outcome, &e2e, &layers)?;
    Ok(outcome)
}
