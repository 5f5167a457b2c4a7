//! Request routing and the model endpoints.
//!
//! Every response body is NDJSON: one complete JSON document per line,
//! including every error path — a client (or the soak harness) can always
//! parse line-by-line without sniffing content types. Experiment renderings
//! are byte-identical to `act --json <id>` stdout lines, with the same
//! single newline. The server renders through `try_render_experiment`, as
//! `act --serial` does; the default CLI path renders through the job list
//! (`par_try_render_experiments`). The bytes are the contract, pinned by
//! `every_request_matches_the_serial_render_on_every_policy` (job list =
//! serial render, act-experiments) and
//! `experiment_rendering_is_byte_identical_to_the_library` (server = library).
//!
//! Sweeps (`/v1/sweep`) and fleet Monte-Carlo runs (`/v1/fleet`) honor
//! the per-request deadline through [`act_dse::EvalBudget`]: a request
//! that runs out of time streams the results it finished and ends with a
//! `{"error":"deadline",...}` trailer instead of hanging or being killed
//! mid-write.
//!
//! Both batch endpoints consult the calibrated [`Parallelism::Auto`]
//! policy per request: batches past the break-even threshold evaluate on
//! the `act_dse` worker pool (bit-identical to the serial path), smaller
//! ones stay serial. Every sweep trailer and fleet summary carries the
//! `threads` the evaluation actually used, so a client can see which path
//! served it.

use std::io::Write;
use std::time::Instant;

use act_core::{CompiledFootprint, FreeAxis, ModelParams};
use act_dse::{
    calibration, par_sweep_compiled_block_budgeted, BatchOutput, BatchRun, EvalBudget,
    McBuffer, McError, Parallelism, PointBatch,
};
use act_experiments::{concrete_experiment_ids, try_render_experiment, OutputFormat};
use act_json::{format_float, FromJson, JsonValue, ToJson};

use crate::faults::FaultDecision;
use crate::http::{Connection, Request, Status};
use crate::stats::ServerStats;
use crate::{ServerConfig, MAX_SWEEP_POINTS};

/// How a dispatched request ended, for the caller's accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteOutcome {
    /// 2xx, complete response.
    Completed,
    /// 4xx — the client's fault.
    ClientError,
    /// 2xx head, but the stream ended with a deadline trailer.
    DeadlinePartial,
    /// The request asked the server to shut down (and was honored).
    ShutdownRequested,
}

/// Renders the uniform one-line error body:
/// `{"error":{"kind":"...","message":"..."}}` plus newline.
#[must_use]
pub fn error_line(kind: &str, message: &str) -> String {
    let obj = act_json::JsonObject::new().with(
        "error",
        JsonValue::Object(
            act_json::JsonObject::new()
                .with("kind", JsonValue::String(kind.to_owned()))
                .with("message", JsonValue::String(message.to_owned())),
        ),
    );
    let mut line = JsonValue::Object(obj).render_compact();
    line.push('\n');
    line
}

/// A validation failure mapped to one status + one error line.
struct Reject {
    status: Status,
    kind: &'static str,
    message: String,
}

impl Reject {
    fn bad(kind: &'static str, message: impl Into<String>) -> Self {
        Self { status: Status::BadRequest, kind, message: message.into() }
    }

    /// Writes the reject's status and error line.
    fn respond(self, conn: &mut Connection<'_>) -> std::io::Result<RouteOutcome> {
        conn.respond(self.status, &error_line(self.kind, &self.message))?;
        Ok(RouteOutcome::ClientError)
    }
}

/// Dispatches one parsed request and writes the full response.
///
/// Returns the outcome for counter accounting, or the I/O error if the
/// peer vanished mid-write (the caller just drops the connection). Whether
/// the connection stays open afterwards is `conn`'s to say.
///
/// # Errors
///
/// Propagates socket write errors.
pub fn dispatch(
    conn: &mut Connection<'_>,
    request: &Request,
    config: &ServerConfig,
    stats: &ServerStats,
    deadline: Instant,
    fault: &FaultDecision,
) -> std::io::Result<RouteOutcome> {
    if fault.panic_in_handler {
        panic!("injected handler panic (X-Act-Fault/plan)");
    }
    if let Some(delay) = fault.eval_delay {
        std::thread::sleep(delay);
    }

    let method = request.method.as_str();
    let path = request.path.as_str();
    match (method, path) {
        ("GET", "/healthz") => {
            conn.respond(Status::Ok, "{\"ok\":true}\n")?;
            Ok(RouteOutcome::Completed)
        }
        ("GET", "/v1/stats") => {
            // Two throughput readings compare only when their hosts ran
            // the same block-kernel instance, so the stats name it.
            let mut doc = stats.snapshot().to_json();
            if let JsonValue::Object(fields) = &mut doc {
                fields.insert("vector_tier", act_core::wide::vector_tier().to_json());
            }
            let mut line = doc.render_compact();
            line.push('\n');
            conn.respond(Status::Ok, &line)?;
            Ok(RouteOutcome::Completed)
        }
        ("GET", "/v1/params/reference") => {
            // The mobile reference configuration, ready to edit and POST
            // back to /v1/footprint — also how dependency-free harnesses
            // obtain a valid params document.
            let mut line = ModelParams::mobile_reference().to_json().render_compact();
            line.push('\n');
            conn.respond(Status::Ok, &line)?;
            Ok(RouteOutcome::Completed)
        }
        ("GET", "/v1/experiments") => {
            let ids = concrete_experiment_ids();
            let obj = act_json::JsonObject::new().with("experiments", ids.to_json());
            let mut line = JsonValue::Object(obj).render_compact();
            line.push('\n');
            conn.respond(Status::Ok, &line)?;
            Ok(RouteOutcome::Completed)
        }
        ("GET", _) if path.starts_with("/v1/experiments/") => {
            let id = path.strip_prefix("/v1/experiments/").unwrap_or_default();
            match try_render_experiment(id, OutputFormat::Json) {
                Ok(rendered) => {
                    // Byte-identical to `act --json <id>`: rendering + "\n".
                    let mut body = rendered;
                    body.push('\n');
                    conn.respond(Status::Ok, &body)?;
                    Ok(RouteOutcome::Completed)
                }
                Err(act_experiments::ExperimentError::UnknownId(id)) => {
                    let body =
                        error_line("unknown-experiment", &format!("no experiment `{id}`"));
                    conn.respond(Status::NotFound, &body)?;
                    Ok(RouteOutcome::ClientError)
                }
                Err(err) => {
                    let body = error_line("experiment-failed", &err.to_string());
                    conn.respond(Status::InternalError, &body)?;
                    Ok(RouteOutcome::ClientError)
                }
            }
        }
        ("POST", "/v1/footprint") => handle_footprint(conn, request),
        ("POST", "/v1/scenario") => handle_scenario(conn, request),
        ("POST", "/v1/fleet") => handle_fleet(conn, request, stats, deadline),
        ("POST", "/v1/sweep") => handle_sweep(conn, request, stats, deadline),
        ("POST", "/admin/shutdown") => {
            if config.allow_remote_shutdown {
                conn.close();
                conn.respond(Status::Ok, "{\"shutting_down\":true}\n")?;
                Ok(RouteOutcome::ShutdownRequested)
            } else {
                let body = error_line("forbidden", "remote shutdown is disabled");
                conn.respond(Status::NotFound, &body)?;
                Ok(RouteOutcome::ClientError)
            }
        }
        ("GET" | "POST", _) => {
            let body = error_line("not-found", &format!("no route for {method} {path}"));
            conn.respond(Status::NotFound, &body)?;
            Ok(RouteOutcome::ClientError)
        }
        _ => {
            let body = error_line("method-not-allowed", &format!("method {method}"));
            conn.respond(Status::MethodNotAllowed, &body)?;
            Ok(RouteOutcome::ClientError)
        }
    }
}

/// Parses the request body as UTF-8 JSON, mapping failures to one reject.
fn parse_body(request: &Request) -> Result<JsonValue, Reject> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| Reject::bad("invalid-body", "request body is not UTF-8"))?;
    JsonValue::parse(text).map_err(|err| Reject::bad("invalid-json", err.to_string()))
}

/// `POST /v1/footprint` — one `ModelParams` document in, one
/// `{"gco2":...}` line out. Compiled through `CompiledFootprint` with no
/// free axes so it exercises the same kernel path as sweeps; a
/// non-finite footprint is a 400 `invalid-params`, like any bad input.
fn handle_footprint(
    conn: &mut Connection<'_>,
    request: &Request,
) -> std::io::Result<RouteOutcome> {
    let result = parse_body(request).and_then(|doc| {
        let params = ModelParams::from_json(&doc)
            .map_err(|err| Reject::bad("invalid-params", err.to_string()))?;
        // Params that validate can still overflow (a huge area times a
        // huge run time); the checked evaluation reports that as an error.
        CompiledFootprint::try_compile(&params, &[])
            .and_then(|compiled| compiled.try_eval(&[]))
            .map_err(|err| Reject::bad("invalid-params", err.to_string()))
    });
    match result {
        Ok(gco2) => {
            let body = format!("{{\"gco2\":{}}}\n", format_float(gco2));
            conn.respond(Status::Ok, &body)?;
            Ok(RouteOutcome::Completed)
        }
        Err(reject) => reject.respond(conn),
    }
}

/// Parses and compiles a scenario document from the request body,
/// folding every failure layer (UTF-8, JSON, schema, validation, model)
/// into one 400 reject — hostile payloads never reach a 500.
fn parse_scenario(request: &Request) -> Result<act_scenario::CompiledScenario, Reject> {
    let doc = parse_body(request)?;
    let scenario = act_scenario::Scenario::from_json(&doc)
        .map_err(|err| Reject::bad("invalid-scenario", err.to_string()))?;
    scenario.compile().map_err(|err| Reject::bad("invalid-scenario", err.to_string()))
}

/// `POST /v1/scenario` — one scenario document in, one line out with the
/// embodied breakdown and (when a workload is present) the single-device
/// footprint. The lowering is the exact constant-path fold, so posting a
/// committed fixture reproduces the built-in device bit-for-bit.
fn handle_scenario(
    conn: &mut Connection<'_>,
    request: &Request,
) -> std::io::Result<RouteOutcome> {
    match parse_scenario(request) {
        Ok(compiled) => {
            let mut obj = act_json::JsonObject::new()
                .with("name", JsonValue::String(compiled.name().to_owned()))
                .with("embodied_g", compiled.embodied_grams().to_json())
                .with("embodied", compiled.embodied().to_json());
            if let Some(device) = compiled.device() {
                obj = obj.with("device", device.to_json());
            }
            let mut line = JsonValue::Object(obj).render_compact();
            line.push('\n');
            conn.respond(Status::Ok, &line)?;
            Ok(RouteOutcome::Completed)
        }
        Err(reject) => reject.respond(conn),
    }
}

/// `POST /v1/fleet` — a scenario document with a `fleet` block in, one
/// Monte-Carlo summary line out: per-device stats plus the fleet total,
/// the `threads` the run used and the calibration. The run rides the
/// budgeted block machinery, so the outcome is bit-identical whichever
/// thread count the calibration picks. A run cut off by its budget
/// streams the summary and then a deadline trailer; one cut off before
/// its first block ([`McError::NoSamples`]: compiling already rejected
/// `samples == 0`) streams the trailer alone, `completed: 0`. Any other
/// run error is a 400 `fleet-failed`.
fn handle_fleet(
    conn: &mut Connection<'_>,
    request: &Request,
    stats: &ServerStats,
    deadline: Instant,
) -> std::io::Result<RouteOutcome> {
    let compiled = match parse_scenario(request) {
        Ok(compiled) => compiled,
        Err(reject) => return reject.respond(conn),
    };
    let Some(fleet) = compiled.fleet() else {
        return Reject::bad("invalid-scenario", "scenario has no `fleet` block").respond(conn);
    };

    let mut buf = McBuffer::default();
    let budget = EvalBudget::with_deadline(deadline);
    let threads = Parallelism::Auto.resolve_for(fleet.samples()).workers;
    let (summary, completed) = match fleet.run(threads, &mut buf, &budget) {
        Ok((outcome, run)) => {
            let mut doc = outcome.to_json();
            if let JsonValue::Object(obj) = &mut doc {
                obj.insert("devices", fleet.devices().to_json());
                obj.insert("fleet_total_g", fleet.fleet_total_grams(&outcome).to_json());
                obj.insert("threads", threads.to_json());
                obj.insert("calibration", calibration().to_json());
            }
            let mut line = doc.render_compact();
            line.push('\n');
            match run {
                BatchRun::Completed => {
                    conn.respond(Status::Ok, &line)?;
                    return Ok(RouteOutcome::Completed);
                }
                BatchRun::DeadlineExceeded { completed } => (Some(line), completed),
            }
        }
        Err(McError::NoSamples) => (None, 0),
        Err(err) => return Reject::bad("fleet-failed", err.to_string()).respond(conn),
    };
    ServerStats::bump(&stats.deadline_trailers);
    let mut out = conn.stream(Status::Ok)?;
    if let Some(line) = summary {
        out.write_all(line.as_bytes())?;
    }
    write_deadline_trailer(&mut out, completed, threads)?;
    out.flush()?;
    Ok(RouteOutcome::DeadlinePartial)
}

/// Maps an axis name from the wire (`"soc_area_mm2"`, `"dram[0]"`, ...)
/// to the corresponding [`FreeAxis`]. Names match the `ModelParams` JSON
/// fields, so a client sweeps exactly the fields it posted.
fn parse_axis_name(name: &str) -> Result<FreeAxis, Reject> {
    let indexed = |prefix: &str| -> Option<usize> {
        name.strip_prefix(prefix)?.strip_suffix(']')?.parse().ok()
    };
    match name {
        "execution_time_s" => Ok(FreeAxis::ExecutionTime),
        "lifetime_years" => Ok(FreeAxis::Lifetime),
        "soc_area_mm2" => Ok(FreeAxis::SocArea),
        "use_intensity_g_per_kwh" => Ok(FreeAxis::UseIntensity),
        "fab_intensity_g_per_kwh" => Ok(FreeAxis::FabIntensity),
        "fab_yield" => Ok(FreeAxis::FabYield),
        "energy_j" => Ok(FreeAxis::Energy),
        _ => {
            if let Some(i) = indexed("dram[") {
                Ok(FreeAxis::DramCapacity(i))
            } else if let Some(i) = indexed("ssd[") {
                Ok(FreeAxis::SsdCapacity(i))
            } else if let Some(i) = indexed("hdd[") {
                Ok(FreeAxis::HddCapacity(i))
            } else {
                Err(Reject::bad("unknown-axis", format!("unknown axis `{name}`")))
            }
        }
    }
}

/// The process-wide break-even calibration as a compact JSON fragment for
/// trailers. An unbounded threshold (the single-core pin) encodes as
/// `null`, never as `usize::MAX` rounded through f64.
fn calibration_fragment() -> String {
    calibration().to_json().render_compact()
}

/// The decoded, validated body of a sweep request.
struct SweepRequest {
    compiled: CompiledFootprint,
    batch: PointBatch,
}

/// Reads a `/v1/sweep` body: the `params` document, then the non-empty
/// `axes` array one entry at a time (its name, then its `values`), so an
/// entry is checked in full before the next entry's name is read.
fn parse_sweep(request: &Request) -> Result<SweepRequest, Reject> {
    let doc = parse_body(request)?;
    let params =
        doc.get("params").ok_or_else(|| Reject::bad("invalid-params", "missing `params`"))?;
    let params = ModelParams::from_json(params)
        .map_err(|err| Reject::bad("invalid-params", err.to_string()))?;
    let entries = doc
        .get("axes")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| Reject::bad("invalid-axes", "missing `axes` array"))?;
    if entries.is_empty() {
        return Err(Reject::bad("invalid-axes", "`axes` must not be empty"));
    }
    let mut axes = Vec::new();
    let mut columns: Vec<Vec<f64>> = Vec::new();
    for entry in entries {
        let name = entry
            .get("axis")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| Reject::bad("invalid-axes", "axis entry missing `axis` name"))?;
        let axis = parse_axis_name(name)?;
        axes.push(axis);
        let values = entry.get("values").and_then(JsonValue::as_array).ok_or_else(|| {
            Reject::bad("invalid-axes", format!("axis `{name}` missing `values` array"))
        })?;
        // The limit comes before decoding: an oversized axis is a 413
        // without one of its values read.
        let len = values.len();
        if len > MAX_SWEEP_POINTS {
            return Err(Reject {
                status: Status::PayloadTooLarge,
                kind: "too-many-points",
                message: format!("{len} points exceed the {MAX_SWEEP_POINTS}-point limit"),
            });
        }
        let column: Vec<f64> = values
            .iter()
            .enumerate()
            .map(|(index, v)| {
                let value = v.as_f64().ok_or_else(|| {
                    Reject::bad("invalid-axes", format!("axis `{name}` has a non-number value"))
                })?;
                // The block kernel does not validate points itself; this
                // keeps a sweep to the Table 1 ranges `/v1/footprint`
                // enforces.
                axis.check(value).map_err(|err| {
                    Reject::bad(
                        "invalid-axes",
                        format!("axis `{name}` value {value} at index {index}: {err}"),
                    )
                })?;
                Ok(value)
            })
            .collect::<Result<_, _>>()?;
        if len == 0 {
            return Err(Reject::bad("invalid-axes", format!("axis `{name}` has no values")));
        }
        if let Some(n) = columns.first().map(Vec::len).filter(|&n| n != len) {
            return Err(Reject::bad(
                "invalid-axes",
                format!("axis `{name}` has {len} values, expected {n}"),
            ));
        }
        columns.push(column);
    }
    let compiled = CompiledFootprint::try_compile(&params, &axes)
        .map_err(|err| Reject::bad("invalid-params", err.to_string()))?;
    // The per-axis checks above already reject empty/ragged columns, but a
    // hostile body must never reach the panicking constructor: the typed
    // shape check turns any slip into a 400, not a caught panic.
    let batch = PointBatch::try_from_columns(columns)
        .map_err(|err| Reject::bad("invalid-axes", err.to_string()))?;
    Ok(SweepRequest { compiled, batch })
}

/// `POST /v1/sweep` — streams one `{"i":N,"gco2":...}` line per point
/// (or `{"i":N,"error":reason}` for rejected points), then a trailer.
fn handle_sweep(
    conn: &mut Connection<'_>,
    request: &Request,
    stats: &ServerStats,
    deadline: Instant,
) -> std::io::Result<RouteOutcome> {
    let sweep = match parse_sweep(request) {
        Ok(sweep) => sweep,
        Err(reject) => return reject.respond(conn),
    };
    let points = sweep.batch.len();

    let mut out = BatchOutput::default();
    let budget = EvalBudget::with_deadline(deadline);
    // Lower the kernel once to its block-vectorized plan: chunks of the
    // batch evaluate as whole column ranges (no per-point gather or enum
    // dispatch), bit-identical to the interpreted model.
    let plan = sweep.compiled.plan();
    let block_kernel = |cols: &[&[f64]], range: std::ops::Range<usize>, out: &mut [f64]| {
        plan.eval_block(cols, range, out);
    };
    // The calibrated policy decides serial vs. pool; both paths produce
    // bit-identical values, so clients cannot observe which ran except
    // through the `threads` field in the trailer.
    let threads = Parallelism::Auto.resolve_for(points).workers;
    let run = par_sweep_compiled_block_budgeted(
        Parallelism::threads(threads),
        &sweep.batch,
        block_kernel,
        &mut out,
        &budget,
    );

    // Evaluation is done; stream the results through one buffer. Writes
    // after this point are covered by the socket write timeout, not the
    // eval budget.
    let mut stream = conn.stream(Status::Ok)?;
    let completed = match run {
        BatchRun::Completed => points,
        BatchRun::DeadlineExceeded { completed } => completed,
    };
    let mut rejected_iter = out.rejected().iter().peekable();
    for (i, value) in out.values().iter().take(completed).enumerate() {
        if rejected_iter.peek().is_some_and(|r| r.index == i) {
            let reason = rejected_iter.next().map(|r| r.reason.as_str()).unwrap_or("rejected");
            let obj = act_json::JsonObject::new()
                .with("i", i.to_json())
                .with("error", JsonValue::String(reason.to_owned()));
            writeln!(stream, "{}", JsonValue::Object(obj).render_compact())?;
        } else {
            writeln!(stream, "{{\"i\":{i},\"gco2\":{}}}", format_float(*value))?;
        }
    }
    let outcome = match run {
        BatchRun::Completed => {
            writeln!(
                stream,
                "{{\"done\":true,\"points\":{},\"rejected\":{},\"threads\":{threads},\"calibration\":{}}}",
                points,
                out.rejected().len(),
                calibration_fragment(),
            )?;
            RouteOutcome::Completed
        }
        BatchRun::DeadlineExceeded { completed } => {
            ServerStats::bump(&stats.deadline_trailers);
            write_deadline_trailer(&mut stream, completed, threads)?;
            RouteOutcome::DeadlinePartial
        }
    };
    stream.flush()?;
    Ok(outcome)
}

/// The `{"error":"deadline",...}` line that ends a stream cut off by its
/// budget after `completed` results on `threads` threads.
fn write_deadline_trailer(
    out: &mut impl Write,
    completed: usize,
    threads: usize,
) -> std::io::Result<()> {
    writeln!(
        out,
        "{{\"error\":\"deadline\",\"completed\":{completed},\"threads\":{threads},\"calibration\":{}}}",
        calibration_fragment(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_names_cover_every_free_axis() {
        assert_eq!(parse_axis_name("execution_time_s").ok(), Some(FreeAxis::ExecutionTime));
        assert_eq!(parse_axis_name("lifetime_years").ok(), Some(FreeAxis::Lifetime));
        assert_eq!(parse_axis_name("soc_area_mm2").ok(), Some(FreeAxis::SocArea));
        assert_eq!(
            parse_axis_name("use_intensity_g_per_kwh").ok(),
            Some(FreeAxis::UseIntensity)
        );
        assert_eq!(
            parse_axis_name("fab_intensity_g_per_kwh").ok(),
            Some(FreeAxis::FabIntensity)
        );
        assert_eq!(parse_axis_name("fab_yield").ok(), Some(FreeAxis::FabYield));
        assert_eq!(parse_axis_name("energy_j").ok(), Some(FreeAxis::Energy));
        assert_eq!(parse_axis_name("dram[0]").ok(), Some(FreeAxis::DramCapacity(0)));
        assert_eq!(parse_axis_name("ssd[2]").ok(), Some(FreeAxis::SsdCapacity(2)));
        assert_eq!(parse_axis_name("hdd[1]").ok(), Some(FreeAxis::HddCapacity(1)));
        assert!(parse_axis_name("bogus").is_err());
        assert!(parse_axis_name("dram[x]").is_err());
    }

    #[test]
    fn error_lines_are_parseable_json() {
        let line = error_line("bad-request", "something \"quoted\" broke");
        let doc = JsonValue::parse(line.trim_end()).unwrap();
        assert_eq!(
            doc.get("error").and_then(|e| e.get("kind")).and_then(JsonValue::as_str),
            Some("bad-request")
        );
        assert!(line.ends_with('\n'));
        assert_eq!(line.matches('\n').count(), 1);
    }
}
