//! The reproduction harness: one module per figure/table of the ACT paper.
//!
//! Every module exposes a `run()` function returning a typed result struct
//! whose `Display` implementation prints the same rows/series the paper
//! reports, computed on the calling thread. [`par_try_render_experiments`]
//! renders any request as one flat job list on the pool: one job per
//! independent simulator run of the two FTL-bound experiments (fig15 and
//! ablations, each split into its runs and an `assemble` step) and one
//! per other experiment, heaviest first, each fault-isolated. Its output
//! is byte-identical to the serial rendering. Tests in each module pin
//! the paper's qualitative claims: who wins under each metric, by roughly
//! what factor, and where crossovers fall. EXPERIMENTS.md records
//! paper-vs-measured for each.
//!
//! # Examples
//!
//! ```
//! let fig12 = act_experiments::fig12::run();
//! assert_eq!(fig12.optimum(act_core::OptimizationMetric::Cdp), 1024);
//! println!("{fig12}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use act_dse::Parallelism;

pub mod ablations;
pub mod ext_datacenter;
pub mod ext_devices;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig4;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
mod jobs;
pub mod render;
pub mod table12;
pub mod table4;
pub mod tables;

/// Experiment IDs in paper order, as accepted by [`try_render_experiment`].
pub const EXPERIMENT_IDS: [&str; 21] = [
    "fig1",
    "fig4",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "table4",
    "table5-11",
    "table12",
    "ablations",
    "datacenter",
    "devices",
    "all",
];

/// Serializes a result struct to one compact JSON line — experiment
/// results contain only plain data, and `ToJson` is total, so this cannot
/// fail. Compact (not pretty) so each experiment is a single line on
/// stdout: `act --json a b c` emits newline-delimited JSON that per-line
/// consumers (`jq`, the CLI tests) can parse without a streaming parser.
fn json<T: act_json::ToJson>(value: &T) -> String {
    value.to_json().render_compact()
}

/// Renders `value` in `format`.
fn format_result<T: act_json::ToJson + std::fmt::Display>(
    value: &T,
    format: OutputFormat,
) -> String {
    match format {
        OutputFormat::Text => value.to_string(),
        OutputFormat::Json => json(value),
    }
}

/// Renders one experiment (or `"all"`) in `format` on the calling
/// thread. Returns `None` for an unknown ID.
fn render(id: &str, format: OutputFormat) -> Option<String> {
    let out = match id {
        "fig1" => format_result(&fig1::run(), format),
        "fig4" => format_result(&fig4::run(), format),
        "fig6" => format_result(&fig6::run(), format),
        "fig7" => format_result(&fig7::run(), format),
        "fig8" => format_result(&fig8::run(), format),
        "fig9" => format_result(&fig9::run(), format),
        "fig10" => format_result(&fig10::run(), format),
        "fig11" => format_result(&fig11::run(), format),
        "fig12" => format_result(&fig12::run(), format),
        "fig13" => format_result(&fig13::run(), format),
        "fig14" => format_result(&fig14::run(), format),
        "fig15" => format_result(&fig15::run(), format),
        "fig16" => format_result(&fig16::run(), format),
        "fig17" => format_result(&fig17::run(), format),
        "table4" => format_result(&table4::run(), format),
        "table5-11" => format_result(&tables::run(), format),
        "table12" => format_result(&table12::run(), format),
        "ablations" => format_result(&ablations::run(), format),
        "datacenter" => format_result(&ext_datacenter::run(), format),
        "devices" => format_result(&ext_devices::run(), format),
        "all" => assemble_all(format, |sub| render(sub, format).ok_or(())).ok()?,
        _ => return None,
    };
    Some(out)
}

/// Assembles `"all"` from each concrete experiment's rendering, in paper
/// order, stopping at the first error. Text joins the bodies with
/// newlines. JSON splices each compact body verbatim into
/// `{"id":"<id>","result":<body>}` inside one array: the bodies are
/// already compact JSON, so parsing and re-rendering them would only
/// reproduce the same bytes.
fn assemble_all<B: AsRef<str>, E>(
    format: OutputFormat,
    mut part: impl FnMut(&'static str) -> Result<B, E>,
) -> Result<String, E> {
    let mut out = String::new();
    if format == OutputFormat::Json {
        out.push('[');
    }
    for (i, id) in concrete_experiment_ids().into_iter().enumerate() {
        let body = part(id)?;
        let body = body.as_ref();
        match format {
            OutputFormat::Text => {
                out.push_str(body);
                out.push('\n');
            }
            OutputFormat::Json => {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"id\":");
                out.push_str(&json(&id));
                out.push_str(",\"result\":");
                out.push_str(body);
                out.push('}');
            }
        }
    }
    if format == OutputFormat::Json {
        out.push(']');
    }
    Ok(out)
}

/// Output format accepted by [`try_render_experiment`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputFormat {
    /// The human-readable rendering, one report per experiment.
    Text,
    /// The compact one-line JSON rendering of each experiment's typed
    /// result. For `"all"`, a JSON array of `{"id": ..., "result": ...}`
    /// objects, one per concrete experiment in paper order.
    Json,
}

/// Error returned by [`try_render_experiment`]: either the ID is unknown,
/// or the experiment itself failed (panicked) while running.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExperimentError {
    /// The requested ID is not in [`EXPERIMENT_IDS`].
    UnknownId(String),
    /// The experiment started but failed; `message` carries the panic
    /// payload so callers can report a structured diagnostic.
    Failed {
        /// The experiment that failed.
        id: String,
        /// The captured panic message.
        message: String,
    },
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownId(id) => {
                write!(f, "unknown experiment `{id}` (try `act list`)")
            }
            Self::Failed { id, message } => {
                write!(f, "experiment `{id}` failed: {message}")
            }
        }
    }
}

impl std::error::Error for ExperimentError {}

/// Postfix lookup for values that exist by construction of the result
/// structs (every `run()` builds its rows from fixed configuration tables
/// and committed device documents). A miss means the experiment itself is
/// broken, so this panics with a message naming the violated invariant
/// instead of a bare `expect`.
pub(crate) trait Present<T> {
    /// Unwraps, naming the construction invariant that guarantees presence.
    fn present(self, invariant: &str) -> T;
}

impl<T> Present<T> for Option<T> {
    fn present(self, invariant: &str) -> T {
        match self {
            Some(value) => value,
            None => panic!("experiment invariant violated: {invariant}"),
        }
    }
}

impl<T, E: std::fmt::Display> Present<T> for Result<T, E> {
    fn present(self, invariant: &str) -> T {
        match self {
            Ok(value) => value,
            Err(err) => panic!("experiment invariant violated: {invariant}: {err}"),
        }
    }
}

/// One committed device document of [`act_data::scenarios`], parsed and
/// compiled through the same path `/v1/scenario` and `act fleet` take.
pub(crate) fn device(doc: &str) -> act_scenario::CompiledScenario {
    act_scenario::Scenario::parse(doc)
        .and_then(|scenario| scenario.compile())
        .present("committed device documents parse and compile")
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(msg) = payload.downcast_ref::<&str>() {
        (*msg).to_owned()
    } else if let Some(msg) = payload.downcast_ref::<String>() {
        msg.clone()
    } else {
        "experiment panicked".to_owned()
    }
}

/// Renders one experiment (or `"all"`) in `format`, entirely on the
/// calling thread. An unknown ID or a panicking experiment becomes an
/// [`ExperimentError`] instead of aborting the caller, so a batch run can
/// report one failure and keep rendering the rest.
///
/// # Errors
///
/// Returns [`ExperimentError::UnknownId`] when `id` is not in
/// [`EXPERIMENT_IDS`], and [`ExperimentError::Failed`] when the experiment
/// panics while running.
///
/// # Examples
///
/// ```
/// use act_experiments::{try_render_experiment, ExperimentError, OutputFormat};
///
/// let out = try_render_experiment("fig12", OutputFormat::Text).unwrap();
/// assert!(!out.is_empty());
/// let err = try_render_experiment("bogus", OutputFormat::Text).unwrap_err();
/// assert!(matches!(err, ExperimentError::UnknownId(_)));
/// ```
pub fn try_render_experiment(
    id: &str,
    format: OutputFormat,
) -> Result<String, ExperimentError> {
    if !EXPERIMENT_IDS.contains(&id) {
        return Err(ExperimentError::UnknownId(id.to_owned()));
    }
    let rendered =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| render(id, format)));
    match rendered {
        Ok(Some(out)) => Ok(out),
        Ok(None) => Err(ExperimentError::UnknownId(id.to_owned())),
        Err(payload) => Err(ExperimentError::Failed {
            id: id.to_owned(),
            message: panic_message(payload.as_ref()),
        }),
    }
}

/// The concrete experiment IDs — [`EXPERIMENT_IDS`] without the `"all"`
/// meta-entry — in paper order.
#[must_use]
pub fn concrete_experiment_ids() -> Vec<&'static str> {
    EXPERIMENT_IDS.iter().copied().filter(|id| *id != "all").collect()
}

/// Wraps a concrete experiment's failure as an `"all"` failure, preserving
/// the serial contract (a failure inside `all` is reported against `all`)
/// while keeping the failing sub-experiment named in the message.
fn lift_all_error(err: &ExperimentError) -> ExperimentError {
    ExperimentError::Failed { id: "all".to_owned(), message: err.to_string() }
}

/// Parallel variant of [`try_render_experiment`]: one request of one ID,
/// rendered as [`par_try_render_experiments`] renders every request.
///
/// # Errors
///
/// As [`par_try_render_experiments`].
///
/// # Examples
///
/// ```
/// use act_dse::Parallelism;
/// use act_experiments::{par_try_render_experiment, try_render_experiment, OutputFormat};
///
/// let parallel =
///     par_try_render_experiment("fig12", OutputFormat::Text, Parallelism::Auto).unwrap();
/// assert_eq!(parallel, try_render_experiment("fig12", OutputFormat::Text).unwrap());
/// ```
pub fn par_try_render_experiment(
    id: &str,
    format: OutputFormat,
    parallelism: Parallelism,
) -> Result<String, ExperimentError> {
    jobs::render_request(&[id], format, parallelism)
        .pop()
        .present("one result per requested ID")
}

/// Renders every requested experiment (or `"all"`) in `format`, one
/// result per ID in request order, from one job list on `parallelism`.
///
/// Each FTL-bound experiment contributes one job per simulator run
/// (fig15's seven rows and the ablations' two WA points), and every
/// other experiment one job that renders it whole. The jobs run on one
/// [`act_dse::par_map_ordered`] call, heaviest first by each simulator
/// run's expected flash page writes, so the light experiments run beside
/// the tail of the simulator runs. An experiment requested more than
/// once, alone or inside `"all"`, is rendered once. Each job is
/// fault-isolated, and a failure is charged to its own experiment. The
/// output is byte-identical to [`try_render_experiment`] for each ID
/// whenever every experiment succeeds, under any policy, and
/// [`Parallelism::Serial`] runs every job on the calling thread.
///
/// # Errors
///
/// Each result is [`ExperimentError::UnknownId`] for an ID outside
/// [`EXPERIMENT_IDS`], or [`ExperimentError::Failed`] naming the
/// experiment whose job panicked. A failing sub-experiment of `"all"`
/// surfaces as [`ExperimentError::Failed`] with `id == "all"` (a failure
/// inside `all` is reported against `all`, as in the serial rendering)
/// and a message naming the concrete experiment that failed.
///
/// # Examples
///
/// ```
/// use act_dse::Parallelism;
/// use act_experiments::{par_try_render_experiments, ExperimentError, OutputFormat};
///
/// let rendered =
///     par_try_render_experiments(&["fig15", "bogus"], OutputFormat::Json, Parallelism::Auto);
/// assert!(rendered[0].as_ref().is_ok_and(|json| json.contains("wa_simulated")));
/// assert!(matches!(rendered[1], Err(ExperimentError::UnknownId(_))));
/// ```
pub fn par_try_render_experiments<S: AsRef<str>>(
    ids: &[S],
    format: OutputFormat,
    parallelism: Parallelism,
) -> Vec<Result<String, ExperimentError>> {
    jobs::render_request(ids, format, parallelism)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_renders_nonempty_text() {
        for id in EXPERIMENT_IDS {
            let text = try_render_experiment(id, OutputFormat::Text)
                .unwrap_or_else(|err| panic!("{id}: {err}"));
            assert!(text.len() > 80, "{id} rendered only {} bytes", text.len());
        }
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(try_render_experiment("fig99", OutputFormat::Text).is_err());
    }

    #[test]
    fn every_concrete_experiment_serializes_to_json() {
        for id in EXPERIMENT_IDS.iter().filter(|id| **id != "all") {
            let json = try_render_experiment(id, OutputFormat::Json)
                .unwrap_or_else(|err| panic!("{id} should serialize: {err}"));
            let parsed =
                act_json::JsonValue::parse(&json).unwrap_or_else(|e| panic!("{id}: {e}"));
            assert!(
                matches!(
                    parsed,
                    act_json::JsonValue::Object(_)
                        | act_json::JsonValue::Array(_)
                        | act_json::JsonValue::Null
                ),
                "{id}"
            );
        }
    }

    #[test]
    fn all_serializes_to_a_json_array_of_every_experiment() {
        let json =
            try_render_experiment("all", OutputFormat::Json).expect("`all` should serialize");
        let parsed = act_json::JsonValue::parse(&json).unwrap();
        // The spliced assembly is exactly what rendering the parsed tree
        // gives back.
        assert_eq!(parsed.render_compact(), json);
        let entries = parsed.as_array().expect("`all` should be a JSON array");
        assert_eq!(entries.len(), EXPERIMENT_IDS.len() - 1);
        for (entry, id) in entries.iter().zip(EXPERIMENT_IDS) {
            assert_eq!(entry["id"], id, "entries should follow paper order");
            assert!(!entry["result"].is_null(), "{id} result should be present");
        }
    }

    #[test]
    fn try_render_distinguishes_unknown_ids() {
        let err = try_render_experiment("fig99", OutputFormat::Json).unwrap_err();
        assert_eq!(err, ExperimentError::UnknownId("fig99".to_owned()));
        assert!(err.to_string().contains("fig99"));
        let text = try_render_experiment("fig12", OutputFormat::Text).unwrap();
        assert_eq!(Some(text), render("fig12", OutputFormat::Text));
        let json = try_render_experiment("fig12", OutputFormat::Json).unwrap();
        assert_eq!(Some(json), render("fig12", OutputFormat::Json));
    }

    #[test]
    fn parallel_all_matches_serial_all_byte_for_byte() {
        for format in [OutputFormat::Text, OutputFormat::Json] {
            let serial = try_render_experiment("all", format).unwrap();
            let seq = par_try_render_experiment("all", format, Parallelism::Serial).unwrap();
            let par =
                par_try_render_experiment("all", format, Parallelism::threads(4)).unwrap();
            assert_eq!(serial, seq, "{format:?}");
            assert_eq!(serial, par, "{format:?}");
        }
    }

    #[test]
    fn parallel_concrete_ids_delegate_to_serial() {
        let cases = [
            ("table4", OutputFormat::Json, Parallelism::Auto),
            ("fig15", OutputFormat::Text, Parallelism::threads(4)),
            ("fig15", OutputFormat::Json, Parallelism::threads(4)),
            ("ablations", OutputFormat::Text, Parallelism::threads(4)),
            ("ablations", OutputFormat::Json, Parallelism::threads(4)),
        ];
        for (id, format, parallelism) in cases {
            let serial = try_render_experiment(id, format).unwrap();
            let par = par_try_render_experiment(id, format, parallelism).unwrap();
            assert_eq!(serial, par, "{id} {format:?}");
        }
        let err = par_try_render_experiment("fig99", OutputFormat::Text, Parallelism::Auto)
            .unwrap_err();
        assert_eq!(err, ExperimentError::UnknownId("fig99".to_owned()));
    }

    #[test]
    fn concrete_ids_exclude_the_all_meta_entry() {
        let ids = concrete_experiment_ids();
        assert_eq!(ids.len(), EXPERIMENT_IDS.len() - 1);
        assert!(!ids.contains(&"all"));
        assert_eq!(ids[0], "fig1");
    }

    #[test]
    fn panic_messages_are_extracted_from_payloads() {
        let caught = std::panic::catch_unwind(|| panic!("boom: {}", 42)).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "boom: 42");
        let caught = std::panic::catch_unwind(|| panic!("static payload")).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "static payload");
    }
}
