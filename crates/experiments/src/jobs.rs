//! The one job list behind [`crate::par_try_render_experiments`]: one
//! job per distinct simulated over-provisioning point and one per other
//! experiment, heaviest first, on one pool pass; then each experiment is
//! assembled from its jobs' outputs, and each requested ID is answered in
//! request order.

use std::panic::{catch_unwind, AssertUnwindSafe};

use act_dse::Parallelism;
use act_ssd::{analytical_write_amplification, FtlConfig, OverProvisioning};

use crate::{
    ablations, assemble_all, concrete_experiment_ids, fig15, format_result, lift_all_error,
    panic_message, render, ExperimentError, OutputFormat, Present, EXPERIMENT_IDS,
};

/// An experiment made of Figure 15 simulations: the over-provisioning
/// points it simulates, and how their write amplifications become its
/// rendering.
struct Split {
    points: fn() -> Vec<OverProvisioning>,
    assemble: fn(&[f64], OutputFormat) -> String,
}

/// The split of an FTL-bound experiment; `None` for one that renders in
/// one piece.
fn split(id: &str) -> Option<Split> {
    match id {
        "fig15" => Some(Split {
            points: fig15::op_grid,
            assemble: |wa, format| format_result(&fig15::assemble(wa), format),
        }),
        "ablations" => Some(Split {
            points: ablations::wa_points,
            assemble: |wa, format| format_result(&ablations::assemble(wa), format),
        }),
        _ => None,
    }
}

/// One entry of the job list.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Job {
    /// One Figure 15 simulation ([`fig15::simulate_wa`]) at a point,
    /// shared by every experiment that reads that point.
    Simulate(OverProvisioning),
    /// A whole experiment that renders in one piece.
    Render(&'static str),
}

/// What a job produced.
enum Done {
    /// A simulation's write amplification.
    Wa(f64),
    /// A rendered experiment.
    Rendered(String),
}

impl Job {
    /// Runs the job.
    fn run(self, format: OutputFormat) -> Done {
        match self {
            Self::Simulate(pf) => Done::Wa(fig15::simulate_wa(pf)),
            Self::Render(id) => {
                Done::Rendered(render(id, format).present("concrete IDs render"))
            }
        }
    }

    /// The job's cost estimate, and zero for a render, which takes a
    /// small fraction of one simulation. A simulation's is its expected
    /// flash page writes: its trace writes (the warm-up's
    /// `2 × logical_pages` and the measured ones), each amplified by
    /// [`analytical_write_amplification`] at its point. Page writes and
    /// the garbage collection behind them are a simulation's time, so
    /// this orders them by cost without timing any of them.
    fn weight(&self) -> f64 {
        match *self {
            Self::Simulate(pf) => {
                let trace_writes =
                    2 * FtlConfig::small(pf).logical_pages() + fig15::MEASURE_WRITES;
                trace_writes as f64 * analytical_write_amplification(pf)
            }
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
    // The job list, each job once however many experiments read it, and
    // each experiment's jobs as indices into it.
    let mut jobs: Vec<Job> = Vec::new();
    let mut index_of = |job: Job| match jobs.iter().position(|known| *known == job) {
        Some(at) => at,
        None => {
            jobs.push(job);
            jobs.len() - 1
        }
    };
    let spans: Vec<Vec<usize>> = experiments
        .iter()
        .map(|&id| match split(id) {
            Some(split) => {
                (split.points)().into_iter().map(|pf| index_of(Job::Simulate(pf))).collect()
            }
            None => vec![index_of(Job::Render(id))],
        })
        .collect();
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
        .zip(&spans)
        .map(|(&id, span)| assemble(id, span, &mut outputs, format))
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

/// One experiment's rendering from the outputs of its jobs (`span`), in
/// its order: the first failed job fails the experiment, so a failed
/// shared simulation fails every experiment that reads it; a render
/// job's text moves out as the rendering; and a split experiment's write
/// amplifications are assembled here, fault-isolated as the jobs are.
fn assemble(
    id: &'static str,
    span: &[usize],
    outputs: &mut [Option<Result<Done, String>>],
    format: OutputFormat,
) -> Result<String, ExperimentError> {
    let failed = |message| ExperimentError::Failed { id: id.to_owned(), message };
    let mut wa = Vec::with_capacity(span.len());
    for &j in span {
        match outputs[j].as_mut().present("every job ran") {
            Ok(Done::Wa(value)) => wa.push(*value),
            Ok(Done::Rendered(text)) => return Ok(std::mem::take(text)),
            Err(message) => return Err(failed(message.clone())),
        }
    }
    catch_unwind(|| {
        (split(id).present("only a split experiment simulates").assemble)(&wa, format)
    })
    .map_err(|p| failed(panic_message(p.as_ref())))
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
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

    /// The seven simulations start first, each grid point once (the
    /// ablations' two points are among them), heaviest first by their
    /// page write estimate (the 4 % row leads), and the renders follow in
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
        let (runs, renders) = seen.split_at(7);
        let weights: Vec<f64> = runs.iter().map(Job::weight).collect();
        assert!(weights.windows(2).all(|w| w[0] >= w[1]), "{weights:?}");
        let grid = fig15::op_grid();
        assert_eq!(runs[0], Job::Simulate(grid[0]));
        for pf in &grid {
            let times = runs.iter().filter(|job| **job == Job::Simulate(*pf)).count();
            assert_eq!(times, 1, "{pf}");
        }
        assert!(ablations::wa_points().iter().all(|pf| grid.contains(pf)));
        let light: Vec<Job> = concrete_experiment_ids()
            .into_iter()
            .filter(|id| split(id).is_none())
            .map(Job::Render)
            .collect();
        assert_eq!(renders, light);
    }

    /// A request simulates each point once however many experiments read
    /// it: the ablations alone simulate their two points, and beside
    /// fig15 they add none to its seven.
    #[test]
    fn each_point_is_simulated_once_per_request() {
        let requests: [(&[&str], usize); 3] =
            [(&["ablations"], 2), (&["fig15", "ablations"], 7), (&["all", "ablations"], 7)];
        for (ids, want) in requests {
            let simulated = AtomicUsize::new(0);
            render_jobs(ids, OutputFormat::Text, Parallelism::Serial, &|job| {
                if matches!(job, Job::Simulate(_)) {
                    simulated.fetch_add(1, Ordering::Relaxed);
                }
                job.run(OutputFormat::Text)
            });
            assert_eq!(simulated.into_inner(), want, "{ids:?}");
        }
    }

    /// A panicking job fails only the experiments that read it, with the
    /// shape a panicking serial render has: fig15's 4 % row fails fig15
    /// alone, the 16 % simulation fig15 and the ablations. Inside `all`
    /// the failure is lifted to `all` and names the first failed
    /// sub-experiment; everything else renders.
    #[test]
    fn a_panicking_job_fails_only_its_own_experiment() {
        let grid = fig15::op_grid();
        let cases: [(Job, &[&str]); 3] = [
            (Job::Simulate(grid[0]), &["fig15"]),
            (Job::Simulate(grid[2]), &["fig15", "ablations"]),
            (Job::Render("fig12"), &["fig12"]),
        ];
        for (faulty, victims) in cases {
            let message = format!("synthetic fault in {faulty:?}");
            let failed = |id: &str| ExperimentError::Failed {
                id: id.to_owned(),
                message: message.clone(),
            };
            for format in FORMATS {
                for parallelism in policies() {
                    let ids = ["fig9", "fig15", "all", "fig12", "ablations"];
                    let got = render_jobs(&ids, format, parallelism, &|job| {
                        assert!(job != faulty, "{message}");
                        job.run(format)
                    });
                    for (id, result) in ids.iter().zip(got) {
                        let want = match *id {
                            "all" => Err(lift_all_error(&failed(victims[0]))),
                            id if victims.contains(&id) => Err(failed(id)),
                            id => serial(id, format),
                        };
                        assert!(result == want, "{id} ({faulty:?} faulty) {parallelism:?}");
                    }
                }
            }
        }
    }
}
