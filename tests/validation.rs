//! Workspace-level validation tests: the fallible model APIs agree with
//! the panicking paths on valid inputs, reject poisoned inputs with a
//! usable `source()` chain, and the DSE loops degrade gracefully over
//! mixed-validity design spaces instead of aborting.

use std::error::Error as _;

use act::core::{total_footprint, try_total_footprint, ModelParams, Validate};
use act::dse::{sweep_finite, try_monte_carlo, try_sweep, McError, Parallelism};
use act::experiments::{try_render_experiment, ExperimentError, OutputFormat, EXPERIMENT_IDS};
use act::units::{MassCo2, TimeSpan};

#[test]
fn fallible_paths_agree_on_the_reference_params() {
    let params = ModelParams::mobile_reference();
    let footprint = params.try_footprint().expect("reference params are valid");
    assert_eq!(footprint, params.footprint());
    assert_eq!(params.try_embodied().unwrap().total(), params.embodied());
    assert_eq!(params.try_operational().unwrap(), params.operational());
    assert!(footprint.as_grams().is_finite() && footprint.as_grams() >= 0.0);
}

#[test]
fn poisoned_params_are_rejected_with_a_source_chain() {
    let mut params = ModelParams::mobile_reference();
    params.soc_area_mm2 = f64::NAN;
    assert!(params.try_footprint().is_err());
    assert!(params.try_embodied().is_err());

    // ModelError -> ParamsError -> UnitError, walkable via source().
    let model_err = Validate::validate(&params).unwrap_err();
    let params_err = model_err.source().expect("ModelError chains to ParamsError");
    assert!(params_err.source().is_some(), "ParamsError chains to UnitError");
    assert!(model_err.to_string().contains("area"), "{model_err}");
}

#[test]
fn out_of_range_lifetime_is_rejected() {
    let mut params = ModelParams::mobile_reference();
    params.lifetime_years = -3.0;
    let err = params.try_footprint().unwrap_err();
    assert!(err.to_string().contains("lifetime"), "{err}");
}

#[test]
fn try_total_footprint_guards_the_paper_equation() {
    let op = MassCo2::kilograms(10.0);
    let em = MassCo2::kilograms(50.0);
    let run = TimeSpan::years(1.0);
    let life = TimeSpan::years(3.0);
    assert_eq!(
        try_total_footprint(op, em, run, life).unwrap(),
        total_footprint(op, em, run, life)
    );
    assert!(try_total_footprint(op, em, run, TimeSpan::ZERO).is_err());
    assert!(try_total_footprint(op, em, TimeSpan::years(-1.0), life).is_err());
    assert!(try_total_footprint(MassCo2::ZERO / 0.0, em, run, life).is_err());
}

#[test]
fn sweeps_skip_invalid_design_points_and_report_them() {
    let lifetimes = vec![-1.0, 0.0, 1.0, 2.0, f64::NAN, 4.0];
    let outcome = try_sweep(Parallelism::Serial, lifetimes, |lt| {
        let mut p = ModelParams::mobile_reference();
        p.lifetime_years = *lt;
        p.try_footprint().map(|m| m.as_kilograms())
    });
    assert_eq!(outcome.results.len(), 3);
    assert_eq!(outcome.rejected_count(), 3);
    assert!(!outcome.is_clean());
    assert_eq!(outcome.summary(), "3/6 points evaluated, 3 rejected");
    for (_, kg) in &outcome.results {
        assert!(kg.is_finite() && *kg >= 0.0);
    }
    for rejected in &outcome.rejected {
        assert!(!rejected.reason.is_empty());
    }
}

#[test]
fn finite_sweeps_reject_poles() {
    let outcome = sweep_finite(Parallelism::Serial, [4.0f64, 0.0, 1.0], |x| 1.0 / x);
    assert_eq!(outcome.results.len(), 2);
    assert_eq!(outcome.rejected[0].index, 1);
}

#[test]
fn monte_carlo_skips_non_finite_draws() {
    let outcome = try_monte_carlo(Parallelism::Serial, 500, 7, |rng| {
        let y: f64 = rng.gen_range(-0.2..1.0);
        100.0 / y.max(0.0)
    })
    .expect("some draws are finite");
    assert!(outcome.rejected > 0);
    assert_eq!(outcome.stats.samples + outcome.rejected, 500);
    assert!(outcome.stats.mean.is_finite());
    assert_eq!(
        try_monte_carlo(Parallelism::Serial, 0, 7, |_| 1.0).unwrap_err(),
        McError::NoSamples
    );
}

#[test]
fn all_experiments_render_as_one_json_array() {
    let json = try_render_experiment("all", OutputFormat::Json)
        .expect("`all` is supported in JSON mode");
    let parsed = act_json::JsonValue::parse(&json).unwrap();
    let entries = parsed.as_array().expect("`all` should parse as an array");
    assert_eq!(entries.len(), EXPERIMENT_IDS.len() - 1);
    assert!(entries.iter().all(|e| !e["id"].is_null() && !e["result"].is_null()));
}

#[test]
fn unknown_experiments_are_structured_errors() {
    let err = try_render_experiment("bogus", OutputFormat::Json).unwrap_err();
    assert!(matches!(err, ExperimentError::UnknownId(_)));
    assert!(err.to_string().contains("bogus"));
}

/// Deterministic sweep over the corners and interior of Table 1's valid
/// ranges.
#[test]
fn in_domain_params_always_yield_finite_nonnegative_footprints() {
    for exec_s in [60.0, 3.6e3, 1e6] {
        for lifetime in [0.5, 3.0, 10.0] {
            for area in [1.0, 100.7, 500.0] {
                for (use_ci, fab_ci, fab_yield, energy) in [
                    (10.0, 10.0, 0.5, 0.0),
                    (583.0, 700.0, 0.875, 3.2e8),
                    (1500.0, 1500.0, 1.0, 1e9),
                ] {
                    let mut p = ModelParams::mobile_reference();
                    p.execution_time_s = exec_s;
                    p.lifetime_years = lifetime;
                    p.soc_area_mm2 = area;
                    p.use_intensity_g_per_kwh = use_ci;
                    p.fab_intensity_g_per_kwh = fab_ci;
                    p.fab_yield = fab_yield;
                    p.energy_j = energy;
                    let footprint = p.try_footprint().expect("params are in-domain");
                    assert!(footprint.as_grams().is_finite());
                    assert!(footprint.as_grams() >= 0.0);
                    let embodied = p.try_embodied().expect("params are in-domain");
                    assert!(embodied.total().as_grams().is_finite());
                }
            }
        }
    }
}

/// Sweeps over adversarial lifetime vectors (every IEEE special value)
/// never panic and always account for every point.
#[test]
fn arbitrary_lifetime_sweeps_never_panic() {
    let specials =
        [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0, f64::MIN, f64::MAX, 3.0];
    let vectors: Vec<Vec<f64>> = vec![
        Vec::new(),
        specials.to_vec(),
        specials.iter().rev().copied().collect(),
        vec![f64::NAN; 20],
        (0..20).map(f64::from).collect(),
    ];
    for lifetimes in vectors {
        let n = lifetimes.len();
        let outcome = try_sweep(Parallelism::Serial, lifetimes, |lt| {
            let mut p = ModelParams::mobile_reference();
            p.lifetime_years = *lt;
            p.try_footprint()
        });
        assert_eq!(outcome.total_points(), n);
        assert_eq!(outcome.results.len() + outcome.rejected_count(), n);
    }
}
