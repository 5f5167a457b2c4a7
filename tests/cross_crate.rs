//! Cross-crate integration: the substrates and the carbon model compose
//! into full pipelines the way a downstream user would wire them.

use act::accel::{AccelConfig, Network};
use act::core::{
    total_footprint, CompiledFootprint, FabScenario, FreeAxis, ModelParams, OperationalModel,
    SystemSpec,
};
use act::data::{
    DramTechnology, EnergySource, Location, ProcessNode, SsdTechnology, MOBILE_SOCS,
};
use act::dse::{logspace, par_sweep_compiled_block_with, BatchOutput, Parallelism, PointBatch};
use act::experiments::{try_render_experiment, OutputFormat};
use act::soc::{geekbench_suite, DvfsGovernor, SocSimulator};
use act::ssd::{LifetimeModel, OverProvisioning};
use act::units::{Capacity, MassCo2, TimeSpan};

#[test]
fn phone_pipeline_soc_sim_feeds_carbon_model() {
    // Simulate a workload suite, then carbon-account the measured energy.
    let soc = &MOBILE_SOCS[0];
    let suite = geekbench_suite();
    let run = SocSimulator::new(soc).run_suite(&suite);

    let embodied = SystemSpec::builder()
        .soc(soc.name, soc.die_area(), soc.node)
        .dram(soc.dram, soc.dram_capacity())
        .packaged_ics(2)
        .build()
        .embodied(&FabScenario::default())
        .total();

    let op = OperationalModel::new(Location::World.carbon_intensity());
    let suite_time: TimeSpan = run.runs.iter().map(|r| r.time).sum();
    let cf =
        total_footprint(op.footprint(run.energy), embodied, suite_time, TimeSpan::years(3.0));
    // One suite run amortizes a vanishing share of lifetime embodied carbon.
    assert!(cf > op.footprint(run.energy));
    assert!(cf < op.footprint(run.energy) + embodied * 1e-3);
}

#[test]
fn accelerator_pipeline_under_deployment_scenarios() {
    // Evaluate an accelerator, then compare total footprints of deploying
    // it in a dirty-grid vs clean-grid region over one year at 30 FPS.
    let config = AccelConfig::new(256);
    let eval = config.evaluate(&Network::mobile_vision());
    let embodied = FabScenario::default().carbon_per_area(config.node()) * config.area();

    let inferences_per_year = TimeSpan::years(1.0).as_seconds() * 30.0;
    let yearly_energy = eval.energy() * inferences_per_year;

    let dirty = OperationalModel::new(Location::India.carbon_intensity());
    let clean = OperationalModel::new(EnergySource::Wind.carbon_intensity());

    let life = TimeSpan::years(3.0);
    let dirty_cf =
        total_footprint(dirty.footprint(yearly_energy), embodied, TimeSpan::years(1.0), life);
    let clean_cf =
        total_footprint(clean.footprint(yearly_energy), embodied, TimeSpan::years(1.0), life);

    assert!(dirty_cf > clean_cf);
    // Moving to the clean grid grows the embodied share of the total
    // footprint by more than an order of magnitude.
    let amortized = embodied * (1.0 / 3.0);
    let clean_share = amortized / clean_cf;
    let dirty_share = amortized / dirty_cf;
    assert!(
        clean_share > 10.0 * dirty_share,
        "shares: clean {clean_share}, dirty {dirty_share}"
    );
}

#[test]
fn storage_pipeline_reliability_to_platform_footprint() {
    // Over-provisioning changes both the embodied footprint (more flash)
    // and the replacement cadence; wire the SSD model into the embodied
    // model at device scale.
    let model = LifetimeModel::default();
    let user_capacity = Capacity::gigabytes(512.0);
    let horizon = 4.0;

    let footprint = |pf: f64| -> MassCo2 {
        let pf = OverProvisioning::new(pf).unwrap();
        let physical = user_capacity * pf.physical_capacity_factor();
        let one_device = SystemSpec::builder()
            .soc("controller", act::units::Area::square_millimeters(60.0), ProcessNode::N28)
            .dram(DramTechnology::Ddr4_10nm, Capacity::gigabytes(1.0))
            .ssd(SsdTechnology::V3NandTlc, physical)
            .packaged_ics(4)
            .build()
            .embodied(&FabScenario::default())
            .total();
        let replacements = (horizon / model.lifetime_years(pf)).max(1.0);
        one_device * replacements
    };

    let lean = footprint(0.04);
    let tuned = footprint(0.34);
    assert!(
        tuned < lean * 0.5,
        "reliability investment should halve the footprint: {lean} vs {tuned}"
    );
}

#[test]
fn dvfs_policy_affects_the_carbon_bottom_line() {
    // A governor decision made inside the SoC simulator is visible in the
    // final carbon number.
    let soc = MOBILE_SOCS.iter().find(|s| s.name == "Snapdragon 845").expect("present");
    let suite = geekbench_suite();
    let op = OperationalModel::new(Location::UnitedStates.carbon_intensity());

    let perf = SocSimulator::new(soc).run_suite(&suite);
    let ondemand =
        SocSimulator::new(soc).with_governor(DvfsGovernor::OnDemand).run_suite(&suite);

    assert!(op.footprint(ondemand.energy) < op.footprint(perf.energy));
}

#[test]
fn cli_experiment_registry_is_complete() {
    // Every ID the CLI advertises renders.
    for id in act::experiments::EXPERIMENT_IDS {
        assert!(try_render_experiment(id, OutputFormat::Text).is_ok(), "{id}");
    }
}

#[test]
fn umbrella_crate_re_exports_compose() {
    // Spot-check that the re-exported names resolve and interoperate.
    let cpa = FabScenario::default().carbon_per_area(ProcessNode::N5);
    let die = act::units::Area::square_millimeters(100.0);
    let mass: MassCo2 = cpa * die;
    assert!(mass.as_kilograms() > 1.0);
}

/// The compiled block path through the act-dse engine is bit-identical
/// to the full per-point `ModelParams` pipeline: a 10k-point SoC-area
/// sweep (the `compiled` bench's workload), serial and pooled.
#[test]
fn compiled_block_sweep_matches_the_per_point_pipeline() {
    let params = ModelParams::mobile_reference();
    let areas = logspace(10.0, 1000.0, 10_000);
    let plan = CompiledFootprint::compile(&params, &[FreeAxis::SocArea]).plan();
    let batch = PointBatch::single_axis(areas.clone());
    for parallelism in [Parallelism::Serial, Parallelism::threads(3)] {
        let mut out = BatchOutput::new();
        par_sweep_compiled_block_with(
            parallelism,
            &batch,
            |cols, range, slot| plan.eval_block(cols, range, slot),
            &mut out,
        );
        assert!(out.is_clean());
        for (area, block) in areas.iter().zip(out.values()) {
            let mut point = params.clone();
            point.soc_area_mm2 = *area;
            let per_point = point.footprint().as_grams();
            assert_eq!(
                block.to_bits(),
                per_point.to_bits(),
                "{parallelism:?}, area {area}: block {block} vs per-point {per_point}"
            );
        }
    }
}

/// A finite lifetime whose conversion to seconds overflows (`f64::MAX`
/// years) is a rejected point of a block sweep in every build: it neither
/// trips the unit layer's debug assertion nor amortizes the embodied
/// carbon to zero. Points beside it keep the per-point pipeline's bits.
#[test]
fn an_overflowing_lifetime_is_a_rejected_point_not_a_panic() {
    let params = ModelParams::mobile_reference();
    let plan =
        CompiledFootprint::compile(&params, &[FreeAxis::Lifetime, FreeAxis::Energy]).plan();
    let lifetimes = vec![3.0, f64::MAX, 5.0, -f64::MAX];
    let energies = vec![1e6; lifetimes.len()];
    let batch = PointBatch::from_columns(vec![lifetimes.clone(), energies]);
    for parallelism in [Parallelism::Serial, Parallelism::threads(2)] {
        let mut out = BatchOutput::new();
        par_sweep_compiled_block_with(
            parallelism,
            &batch,
            |cols, range, slot| plan.eval_block(cols, range, slot),
            &mut out,
        );
        let rejected: Vec<usize> = out.rejected().iter().map(|point| point.index).collect();
        assert_eq!(rejected, [1, 3], "{parallelism:?}: {:?}", out.rejected());
        for i in [0, 2] {
            let mut point = params.clone();
            point.lifetime_years = lifetimes[i];
            point.energy_j = 1e6;
            assert_eq!(out.values()[i].to_bits(), point.footprint().as_grams().to_bits());
        }
    }
}
