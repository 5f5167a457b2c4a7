//! The one job list behind [`crate::par_try_render_experiments`]: one
//! job per FTL simulator run and one per other experiment, heaviest
//! first, on one pool pass; then each experiment is assembled from its
//! jobs' outputs, and each requested ID is answered in request order.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use act_dse::Parallelism;
use act_ssd::{
    analytical_write_amplification, FtlConfig, FtlSimulator, OverProvisioning, TracePattern,
    WriteTrace,
};

use crate::{
    ablations, assemble_all, concrete_experiment_ids, fig15, format_result, lift_all_error,
    panic_message, render, ExperimentError, OutputFormat, Present, EXPERIMENT_IDS,
};

/// One independent FTL simulator run: the steady-state write
/// amplification of [`FtlConfig::small`] at `pf`, under a uniform random
/// trace seeded with `seed`, measured over `measure_writes` writes after
/// the simulator's warm-up.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct FtlRun {
    /// The drive's over-provisioning factor.
    pub(crate) pf: OverProvisioning,
    /// The write trace's seed.
    pub(crate) seed: u64,
    /// Host writes measured after the warm-up.
    pub(crate) measure_writes: u64,
}

impl FtlRun {
    /// Runs the simulation and returns the measured write amplification.
    pub(crate) fn simulate(&self) -> f64 {
        let config = FtlConfig::small(self.pf);
        let mut ftl = FtlSimulator::new(config);
        let mut trace =
            WriteTrace::new(TracePattern::UniformRandom, config.logical_pages(), self.seed);
        ftl.measure_steady_state_wa(&mut trace, self.measure_writes)
    }

    /// The run's expected flash page writes: its trace writes (the
    /// warm-up's `2 × logical_pages` and the measured ones), each
    /// amplified by [`analytical_write_amplification`] at `pf`. Page
    /// writes and the garbage collection behind them are a run's time,
    /// so this orders runs by cost without timing any of them.
    fn estimated_page_writes(&self) -> f64 {
        let trace_writes = 2 * FtlConfig::small(self.pf).logical_pages() + self.measure_writes;
        trace_writes as f64 * analytical_write_amplification(self.pf)
    }
}

/// An experiment made of independent simulator runs: the runs, and how
/// their write amplifications become its rendering.
struct Split {
    runs: fn() -> Vec<FtlRun>,
    assemble: fn(&[f64], OutputFormat) -> String,
}

/// The split of an FTL-bound experiment; `None` for one that renders in
/// one piece.
fn split(id: &str) -> Option<Split> {
    match id {
        "fig15" => Some(Split {
            runs: fig15::ftl_runs,
            assemble: |wa, format| format_result(&fig15::assemble(wa), format),
        }),
        "ablations" => Some(Split {
            runs: ablations::ftl_runs,
            assemble: |wa, format| format_result(&ablations::assemble(wa), format),
        }),
        _ => None,
    }
}

/// One entry of the job list.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Job {
    /// One simulator run of an FTL-bound experiment.
    Simulate(FtlRun),
    /// A whole experiment that renders in one piece.
    Render(&'static str),
}

/// What a job produced.
enum Done {
    /// A simulator run's write amplification.
    Wa(f64),
    /// A rendered experiment.
    Rendered(String),
}

impl Job {
    /// Runs the job.
    fn run(self, format: OutputFormat) -> Done {
        match self {
            Self::Simulate(run) => Done::Wa(run.simulate()),
            Self::Render(id) => {
                Done::Rendered(render(id, format).present("concrete IDs render"))
            }
        }
    }

    /// The job's cost estimate: a simulator run's page writes, and zero
    /// for a render, which takes a small fraction of one run.
    fn weight(&self) -> f64 {
        match self {
            Self::Simulate(run) => run.estimated_page_writes(),
            Self::Render(_) => 0.0,
        }
    }
}

/// Renders each of `ids` in `format`, in request order, from one job
/// list on `parallelism`.
pub(crate) fn render_request<S: AsRef<str>>(
    ids: &[S],
    format: OutputFormat,
    parallelism: Parallelism,
) -> Vec<Result<String, ExperimentError>> {
    render_jobs(ids, format, parallelism, &|job| job.run(format))
}

/// [`render_request`] with each job run by `run`, so a test can plant a
/// failing job.
fn render_jobs<S: AsRef<str>>(
    ids: &[S],
    format: OutputFormat,
    parallelism: Parallelism,
    run: &(dyn Fn(Job) -> Done + Sync),
) -> Vec<Result<String, ExperimentError>> {
    // The concrete experiments the request needs, each once.
    let mut experiments: Vec<&'static str> = Vec::new();
    for id in ids {
        let parts = match id.as_ref() {
            "all" => concrete_experiment_ids(),
            id => EXPERIMENT_IDS.iter().copied().filter(|known| *known == id).collect(),
        };
        for part in parts {
            if !experiments.contains(&part) {
                experiments.push(part);
            }
        }
    }
    // The job list, each experiment's jobs in one span of it.
    let mut jobs = Vec::new();
    let mut spans: Vec<Range<usize>> = Vec::with_capacity(experiments.len());
    for &id in &experiments {
        let start = jobs.len();
        match split(id) {
            Some(split) => jobs.extend((split.runs)().into_iter().map(Job::Simulate)),
            None => jobs.push(Job::Render(id)),
        }
        spans.push(start..jobs.len());
    }
    // Heaviest first; the stable sort keeps the renders in list order.
    let weights: Vec<f64> = jobs.iter().map(Job::weight).collect();
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]));
    let finished = act_dse::par_map_ordered(parallelism, &order, |_, &j| {
        catch_unwind(AssertUnwindSafe(|| run(jobs[j]))).map_err(|p| panic_message(p.as_ref()))
    });
    let mut outputs: Vec<Option<Result<Done, String>>> = jobs.iter().map(|_| None).collect();
    for (j, output) in order.into_iter().zip(finished) {
        outputs[j] = Some(output);
    }
    let results: Vec<Result<String, ExperimentError>> = experiments
        .iter()
        .zip(spans)
        .map(|(&id, span)| {
            assemble(id, outputs[span].iter_mut().filter_map(Option::take), format)
        })
        .collect();
    let result_of = |id: &str| {
        let at = experiments.iter().position(|e| *e == id).present("every part was requested");
        results[at].as_deref().map_err(Clone::clone)
    };
    ids.iter()
        .map(|id| match id.as_ref() {
            "all" => assemble_all(format, |sub| result_of(sub).map_err(|e| lift_all_error(&e))),
            id if EXPERIMENT_IDS.contains(&id) => result_of(id).map(str::to_owned),
            id => Err(ExperimentError::UnknownId(id.to_owned())),
        })
        .collect()
}

/// One experiment's rendering from its jobs' outputs, in job order: the
/// first failed job fails the experiment, a render job is the rendering,
/// and a split experiment's write amplifications are assembled here,
/// fault-isolated as the jobs are.
fn assemble(
    id: &'static str,
    outputs: impl Iterator<Item = Result<Done, String>>,
    format: OutputFormat,
) -> Result<String, ExperimentError> {
    let failed = |message| ExperimentError::Failed { id: id.to_owned(), message };
    let mut wa = Vec::new();
    for output in outputs {
        match output.map_err(failed)? {
            Done::Rendered(text) => return Ok(text),
            Done::Wa(value) => wa.push(value),
        }
    }
    catch_unwind(|| {
        (split(id).present("only a split experiment simulates").assemble)(&wa, format)
    })
    .map_err(|p| failed(panic_message(p.as_ref())))
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;
    use crate::{par_try_render_experiment, try_render_experiment};

    const FORMATS: [OutputFormat; 2] = [OutputFormat::Text, OutputFormat::Json];

    /// The serial policy and one to four workers.
    fn policies() -> [Parallelism; 5] {
        let t = Parallelism::threads;
        [Parallelism::Serial, t(1), t(2), t(3), t(4)]
    }

    fn serial(id: &str, format: OutputFormat) -> Result<String, ExperimentError> {
        try_render_experiment(id, format)
    }

    /// Every ID, `all` and mixed lists, in text and JSON, on every
    /// policy: each result is the serial rendering of its ID, byte for
    /// byte.
    #[test]
    fn every_request_matches_the_serial_render_on_every_policy() {
        let every: Vec<&str> = EXPERIMENT_IDS.to_vec();
        let requests: [&[&str]; 6] = [
            &every,
            &["all"],
            &["fig15", "fig12"],
            &["ablations", "all", "fig15"],
            &["fig12", "fig12", "table4", "fig12"],
            &["fig9", "bogus", "ablations"],
        ];
        for format in FORMATS {
            let rendered: Vec<_> = EXPERIMENT_IDS.map(|id| serial(id, format)).into();
            let want = |id: &str| match EXPERIMENT_IDS.iter().position(|known| *known == id) {
                Some(at) => rendered[at].clone(),
                None => serial(id, format),
            };
            for parallelism in policies() {
                for ids in requests {
                    let got = render_request(ids, format, parallelism);
                    let want: Vec<_> = ids.iter().map(|id| want(id)).collect();
                    assert!(got == want, "{ids:?} {format:?} {parallelism:?}");
                }
            }
            // Each ID alone, as `act <id>` and `/v1/experiments/<id>` ask.
            for id in EXPERIMENT_IDS {
                let got = par_try_render_experiment(id, format, Parallelism::threads(2));
                assert!(got == want(id), "{id} {format:?} alone");
            }
        }
    }

    /// The nine simulator runs start first, heaviest first by their page
    /// write estimate (fig15's 4 % row leads), and the renders follow in
    /// paper order.
    #[test]
    fn the_heaviest_jobs_run_first() {
        let seen = Mutex::new(Vec::new());
        let results = render_jobs(&["all"], OutputFormat::Json, Parallelism::Serial, &|job| {
            seen.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(job);
            job.run(OutputFormat::Json)
        });
        assert!(results[0] == serial("all", OutputFormat::Json));
        let seen = seen.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
        let (runs, renders) = seen.split_at(9);
        let weights: Vec<f64> = runs.iter().map(Job::weight).collect();
        assert!(weights.windows(2).all(|w| w[0] >= w[1]), "{weights:?}");
        assert_eq!(runs[0], Job::Simulate(fig15::ftl_runs()[0]));
        let mut simulated: Vec<FtlRun> = fig15::ftl_runs();
        simulated.extend(ablations::ftl_runs());
        assert!(simulated.iter().all(|run| runs.contains(&Job::Simulate(*run))));
        let light: Vec<Job> = concrete_experiment_ids()
            .into_iter()
            .filter(|id| split(id).is_none())
            .map(Job::Render)
            .collect();
        assert_eq!(renders, light);
    }

    /// A panicking job fails only its own experiment, with the shape a
    /// panicking serial render has; inside `all` the failure is lifted
    /// to `all` and names the sub-experiment; everything else renders.
    #[test]
    fn a_panicking_job_fails_only_its_own_experiment() {
        let fig15_row = Job::Simulate(fig15::ftl_runs()[2]);
        for (faulty, victim) in [(fig15_row, "fig15"), (Job::Render("fig12"), "fig12")] {
            for format in FORMATS {
                for parallelism in policies() {
                    let ids = ["fig9", "fig15", "all", "fig12", "ablations"];
                    let got = render_jobs(&ids, format, parallelism, &|job| {
                        assert!(job != faulty, "synthetic fault in {victim}");
                        job.run(format)
                    });
                    let failed = ExperimentError::Failed {
                        id: victim.to_owned(),
                        message: format!("synthetic fault in {victim}"),
                    };
                    for (id, result) in ids.iter().zip(got) {
                        let want = match *id {
                            "all" => Err(lift_all_error(&failed)),
                            id if id == victim => Err(failed.clone()),
                            id => serial(id, format),
                        };
                        assert!(result == want, "{id} ({victim} faulty) {parallelism:?}");
                    }
                }
            }
        }
    }
}
