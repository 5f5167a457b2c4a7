//! Integration tests for the capabilities built beyond the paper's
//! artifacts: full life-cycle assembly, transport, carbon-aware scheduling,
//! uncertainty propagation, and the extension studies.

use act::core::{
    FabScenario, FreightMode, IntensityProfile, LifecycleEstimate, ModelParams, TransportLeg,
    TransportModel,
};
use act::data::{reports, scenarios, Location};
use act::dse::{monte_carlo, triangular, Parallelism};
use act::experiments::{try_render_experiment, OutputFormat};
use act::scenario::{CompiledScenario, Scenario};
use act::units::{CarbonIntensity, Energy, Fraction, MassCo2};

/// One committed device document, compiled under its default fab.
fn device(doc: &str) -> CompiledScenario {
    Scenario::parse(doc).and_then(|scenario| scenario.compile()).expect("device compiles")
}

#[test]
fn full_lifecycle_assembly_from_act_components() {
    // Build the iPhone 11's four phases: ACT manufacturing, modeled
    // transport, report use/EOL — and confirm the assembly still tells the
    // Figure 1 story (manufacturing-dominated).
    let manufacturing_ics = device(scenarios::IPHONE_11).embodied().total();
    // ICs are ~44 % of manufacturing; scale up to whole-device.
    let manufacturing = manufacturing_ics / reports::IC_SHARE_OF_MANUFACTURING;

    let transport = TransportModel::new(
        0.4,
        vec![
            TransportLeg { mode: FreightMode::Air, distance_km: 10_000.0 },
            TransportLeg { mode: FreightMode::Road, distance_km: 500.0 },
        ],
    )
    .footprint();

    let lifecycle =
        LifecycleEstimate::from_report(&reports::IPHONE_11).with_manufacturing(manufacturing);
    let assembled = LifecycleEstimate { transport, ..lifecycle };

    assert!(assembled.is_embodied_dominated());
    // The assembled total lands in the same regime as the published report.
    let ratio = assembled.total() / reports::IPHONE_11.total();
    assert!((0.6..=1.4).contains(&ratio), "ratio {ratio}");
}

#[test]
fn scheduling_and_grid_choice_compose() {
    // The cleanest window on a solar grid beats the *average* hour, and a
    // hydro grid beats both.
    let solar = IntensityProfile::solar_grid(Location::Taiwan.carbon_intensity(), 0.7);
    let energy = Energy::kilowatt_hours(2.0);
    let scheduled = solar.window_footprint(solar.cleanest_window_start(4), 4, energy);
    let average = solar.daily_average() * energy;
    let hydro = Location::Iceland.carbon_intensity() * energy;
    assert!(scheduled < average);
    assert!(hydro < scheduled);
}

#[test]
fn monte_carlo_brackets_the_point_estimate() {
    let fairphone = device(scenarios::FAIRPHONE_3);
    let spec = fairphone.system();
    let point = spec.embodied(&FabScenario::default()).total().as_kilograms();
    let stats = monte_carlo(Parallelism::Auto, 2_000, 9, |rng| {
        let y = triangular(rng, 0.7, 0.875, 0.98);
        let fab = FabScenario::default().with_yield(Fraction::new(y).unwrap());
        spec.embodied(&fab).total().as_kilograms()
    });
    assert!(stats.p05 <= point && point <= stats.p95, "{point} outside {stats:?}");
}

#[test]
fn params_facade_round_trips_through_json_config() {
    // A downstream tool can store a Table-1 config and re-evaluate it.
    let mut params = ModelParams::mobile_reference();
    params.use_intensity_g_per_kwh = Location::Europe.carbon_intensity().as_grams_per_kwh();
    use act_json::{FromJson, ToJson};
    let json = params.to_json().render_compact();
    let restored = ModelParams::from_json(&act_json::JsonValue::parse(&json).unwrap()).unwrap();
    assert_eq!(restored.footprint(), params.footprint());
    assert!(restored.footprint() > MassCo2::ZERO);
}

#[test]
fn fab_bounds_contain_all_named_scenarios() {
    let ipad = device(scenarios::IPAD);
    let spec = ipad.system();
    let (lo, hi) = spec.embodied_bounds(&FabScenario::default());
    for fab in [FabScenario::default(), FabScenario::taiwan_grid(), FabScenario::renewable()] {
        let e = spec.embodied(&fab).total();
        assert!(lo <= e && e <= hi, "{e} outside [{lo}, {hi}]");
    }
    // Carbon-free fabs with maximal abatement can undercut the solar bound:
    // the band is an energy-source band, not an absolute floor.
    let free = spec.embodied(&FabScenario::carbon_free()).total();
    assert!(free <= hi);
}

#[test]
fn extension_experiments_are_registered() {
    for id in ["ablations", "datacenter", "devices"] {
        assert!(try_render_experiment(id, OutputFormat::Text).is_ok(), "{id}");
        assert!(try_render_experiment(id, OutputFormat::Json).is_ok(), "{id}");
    }
}

#[test]
fn sea_freight_and_grid_shifts_compound() {
    // Two operational decarbonization levers compose multiplicatively
    // against the air-freight + dirty-grid baseline.
    let air = TransportModel::new(
        0.4,
        vec![TransportLeg { mode: FreightMode::Air, distance_km: 9_000.0 }],
    );
    let sea = air.sea_freight_alternative();
    assert!(air.footprint() / sea.footprint() > 30.0);
    let dirty = CarbonIntensity::grams_per_kwh(700.0) * Energy::kilowatt_hours(10.0);
    let clean = CarbonIntensity::grams_per_kwh(30.0) * Energy::kilowatt_hours(10.0);
    let combined = (air.footprint() + dirty) / (sea.footprint() + clean);
    assert!(combined > 10.0, "combined factor {combined}");
}
