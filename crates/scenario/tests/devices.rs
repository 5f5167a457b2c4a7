//! The committed device documents (`act_data::scenarios`) are the only
//! copy of the paper's teardowns, so these tests pin them: the teardown
//! data itself, and the embodied footprint each one compiles to, bit for
//! bit.
//!
//! The pinned bits were captured at commit `11c85c9`, where the devices
//! still also existed as Rust constants, from the constant path's
//! `SystemSpec` oracle, which a golden test there held bit-identical to
//! `Scenario::compile`. A change to a document, to the fold order in
//! `Scenario::compile` (chips, then DRAM, SSD, HDD, then packaging) or to
//! the embodied model fails here on the first differing bit.

use act_core::{
    CompiledFootprint, ComponentKind, FabScenario, FreeAxis, OperationalModel, UsePhase,
};
use act_data::scenarios;
use act_scenario::{CompiledScenario, Scenario, Workload};
use act_units::{CarbonIntensity, Energy, Fraction, TimeSpan};

/// One document's pinned result.
struct Pin {
    doc: &'static str,
    name: &'static str,
    /// `embodied_grams().to_bits()` under the default, `coal()` and
    /// `renewable()` fabs.
    totals: [u64; 3],
    /// Label, kind and footprint bits of every component under the default
    /// fab, in fold order.
    components: &'static [(&'static str, ComponentKind, u64)],
}

const PINS: [Pin; 6] = [
    Pin {
        doc: scenarios::IPHONE_11,
        name: "iPhone 11",
        totals: [0x40d0_33ca_c083_126f, 0x40d3_f7bc_a2ab_7265, 0x40c8_2fb9_cfe6_b8ca],
        components: &[
            ("A13 Bionic SoC", ComponentKind::Soc, 0x4099_988e_c65d_09a8),
            ("Camera ICs", ComponentKind::Soc, 0x40a2_936d_b6db_6db7),
            ("Modem", ComponentKind::Soc, 0x4089_b41d_41d4_1d42),
            ("Other ICs", ComponentKind::Soc, 0x40ba_0199_9999_9999),
            ("LPDDR4", ComponentKind::Dram, 0x4068_0000_0000_0000),
            ("V3 NAND TLC", ComponentKind::Ssd, 0x4079_3333_3333_3333),
            ("30 packaged ICs", ComponentKind::Packaging, 0x40b1_9400_0000_0000),
        ],
    },
    Pin {
        doc: scenarios::IPAD,
        name: "iPad",
        totals: [0x40d3_ef66_6666_6666, 0x40d8_7cca_f8af_8af8, 0x40cd_ef45_7c57_c57d],
        components: &[
            ("A10 Fusion SoC", ComponentKind::Soc, 0x409a_c649_2492_4925),
            ("Camera ICs", ComponentKind::Soc, 0x4096_4a83_a83a_83a8),
            ("Wireless", ComponentKind::Soc, 0x4089_b41d_41d4_1d42),
            ("Other ICs", ComponentKind::Soc, 0x40c3_bca4_9249_2492),
            ("LPDDR4", ComponentKind::Dram, 0x4062_0000_0000_0000),
            ("V3 NAND TLC", ComponentKind::Ssd, 0x4069_3333_3333_3333),
            ("40 packaged ICs", ComponentKind::Packaging, 0x40b7_7000_0000_0000),
        ],
    },
    Pin {
        doc: scenarios::FAIRPHONE_3,
        name: "Fairphone 3",
        totals: [0x40c6_507a_e147_ae14, 0x40cb_9f5c_28f5_c28f, 0x40c0_8591_6872_b021],
        components: &[
            ("CPU (SoC)", ComponentKind::Soc, 0x4091_22be_2be2_be2c),
            ("Other ICs", ComponentKind::Soc, 0x40b8_3446_3796_ac9e),
            ("LPDDR4", ComponentKind::Dram, 0x4068_0000_0000_0000),
            ("10nm NAND", ComponentKind::Ssd, 0x4084_0000_0000_0000),
            ("22 packaged ICs", ComponentKind::Packaging, 0x40a9_c800_0000_0000),
        ],
    },
    Pin {
        doc: scenarios::DELL_R740,
        name: "Dell R740",
        totals: [0x4110_4f28_80bb_3ee7, 0x4110_d5e5_93bf_a260, 0x410f_783e_2285_ff6a],
        components: &[
            ("Xeon CPUs", ComponentKind::Soc, 0x40d2_94df_d130_4638),
            ("Chipset + NICs + BMC", ComponentKind::Soc, 0x40b2_936d_b6db_6db7),
            ("10nm DDR4", ComponentKind::Dram, 0x40e2_4800_0000_0000),
            ("V3 NAND TLC", ComponentKind::Ssd, 0x4108_6999_9999_9999),
            ("40 packaged ICs", ComponentKind::Packaging, 0x40b7_7000_0000_0000),
        ],
    },
    Pin {
        doc: scenarios::LAPTOP,
        name: "Laptop (thin-and-light)",
        totals: [0x40d6_4e88_af8a_f8b0, 0x40db_7bd5_f15f_15f1, 0x40d0_a843_d70a_3d70],
        components: &[
            ("SoC", ComponentKind::Soc, 0x40a5_de19_9999_999a),
            ("Wireless + controllers", ComponentKind::Soc, 0x4093_4715_f15f_15f2),
            ("Other ICs", ComponentKind::Soc, 0x40c4_e5db_6db6_db6e),
            ("LPDDR4", ComponentKind::Dram, 0x4078_0000_0000_0000),
            ("V3 NAND TLC", ComponentKind::Ssd, 0x40a9_3333_3333_3333),
            ("30 packaged ICs", ComponentKind::Packaging, 0x40b1_9400_0000_0000),
        ],
    },
    Pin {
        doc: scenarios::WEARABLE,
        name: "Wearable (smartwatch)",
        totals: [0x40aa_2e3a_83a8_3a84, 0x40af_66f8_af8a_f8af, 0x40a4_7b79_6ac9_dfd1],
        components: &[
            ("SiP SoC", ComponentKind::Soc, 0x4089_fc57_c57c_57c6),
            ("Sensors + radio", ComponentKind::Soc, 0x4090_b7e2_be2b_e2be),
            ("LPDDR4", ComponentKind::Dram, 0x4048_0000_0000_0000),
            ("V3 NAND TLC", ComponentKind::Ssd, 0x4069_3333_3333_3333),
            ("8 packaged ICs", ComponentKind::Packaging, 0x4092_c000_0000_0000),
        ],
    },
];

fn parse(doc: &str) -> Scenario {
    Scenario::parse(doc).unwrap_or_else(|err| panic!("device document must parse: {err}"))
}

fn compile(scenario: &Scenario) -> CompiledScenario {
    scenario.compile().unwrap_or_else(|err| panic!("{}: must compile: {err}", scenario.name))
}

/// Every document compiles to its pinned per-component and total bits
/// under the default fab.
#[test]
fn every_device_document_compiles_to_its_pinned_bits() {
    assert_eq!(scenarios::ALL.len(), PINS.len());
    for (pin, doc) in PINS.iter().zip(scenarios::ALL) {
        assert_eq!(pin.doc, doc, "{}: PINS follows scenarios::ALL order", pin.name);
        let scenario = parse(pin.doc);
        assert_eq!(scenario.name, pin.name);

        let compiled = compile(&scenario);
        let grams = compiled.embodied_grams();
        assert_eq!(grams.to_bits(), pin.totals[0], "{}: total {grams} g", pin.name);
        let parts: Vec<_> = compiled.embodied().components().collect();
        assert_eq!(parts.len(), pin.components.len(), "{}: component count", pin.name);
        for (part, &(label, kind, bits)) in parts.iter().zip(pin.components) {
            assert_eq!(part.label, label, "{}: component label", pin.name);
            assert_eq!(part.kind, kind, "{}: kind of {label}", pin.name);
            assert_eq!(
                part.footprint.as_grams().to_bits(),
                bits,
                "{}: footprint bits of {label}",
                pin.name
            );
        }
    }
}

/// Every document, compiled with an explicit `default()`, `coal()` or
/// `renewable()` fab profile, lands on its pinned total bits.
#[test]
fn every_device_document_compiles_to_its_pinned_totals_under_each_fab() {
    for pin in &PINS {
        let mut scenario = parse(pin.doc);
        for (fab, bits) in
            [FabScenario::default(), FabScenario::coal(), FabScenario::renewable()]
                .into_iter()
                .zip(pin.totals)
        {
            scenario.fab = Some(fab);
            let grams = compile(&scenario).embodied_grams();
            assert_eq!(grams.to_bits(), bits, "{}: total {grams} g under {fab:?}", pin.name);
        }
    }
}

/// `CompiledScenario::system` re-evaluates the document's bill of
/// materials under another fab to exactly the bits compiling the document
/// with that fab gives.
#[test]
fn system_reevaluates_under_another_fab_bitwise() {
    for pin in &PINS {
        let default = compile(&parse(pin.doc));
        for (fab, bits) in
            [FabScenario::coal(), FabScenario::renewable()].into_iter().zip(&pin.totals[1..])
        {
            let grams = default.system().embodied(&fab).total().as_grams();
            assert_eq!(grams.to_bits(), *bits, "{} under {fab:?}", pin.name);
        }
    }
}

/// The fleet fixture's workload, given to every device document below.
fn fixture_workload() -> Workload {
    let doc = include_str!("../../cli/tests/fixtures/fleet_server.json");
    parse(doc).workload.expect("the fleet fixture has a workload")
}

/// The interpreted eq. 1 over a whole lifetime (`T = LT`): eq. 2's
/// operational term plus eq. 3's embodied total, no amortization.
fn interpreted(workload: &Workload, embodied_g: f64) -> f64 {
    let lifetime_s = TimeSpan::years(workload.lifetime_years).as_seconds();
    let energy = Energy::joules(workload.power_w * workload.utilization * lifetime_s);
    let intensity = CarbonIntensity::grams_per_kwh(workload.use_intensity_g_per_kwh);
    OperationalModel::new(intensity).footprint(energy).as_grams() + embodied_g
}

/// The fleet fixture's workload, and the same workload on a zero-carbon
/// grid: there the operational term is `0.0` and the plan's result is its
/// embodied sum alone, so a change in the sum's last bit is not absorbed
/// by a server-class operational term.
fn workloads() -> [Workload; 2] {
    let workload = fixture_workload();
    [workload.clone(), Workload { use_intensity_g_per_kwh: 0.0, ..workload }]
}

/// Every device document with the fleet fixture's workload: the lowered
/// plan at the workload point, under the default, coal and renewable
/// fabs, is bit for bit the operational model plus the interpreted
/// embodied total. The plan adds one term per component in
/// `SystemSpec::embodied`'s order, so a reordered lowering (packaging
/// before storage, say) fails here.
#[test]
fn lowered_device_plans_match_the_interpreted_model_bitwise() {
    for workload in workloads() {
        for pin in &PINS {
            let mut scenario = parse(pin.doc);
            scenario.workload = Some(workload.clone());
            for fab in [FabScenario::default(), FabScenario::coal(), FabScenario::renewable()] {
                scenario.fab = Some(fab);
                let compiled = compile(&scenario);
                let embodied = compiled.system().try_embodied(&fab).expect("embodied").total();
                let want = interpreted(&workload, embodied.as_grams());
                let got = compiled.device().expect("device footprint").total_g;
                let context = format!("{} under {fab:?}, {workload:?}", pin.name);
                assert_eq!(got.to_bits(), want.to_bits(), "{context}");
            }
        }
    }
}

/// The same devices lowered with the fab yield (and the grid intensity)
/// free: the plan at three yields is bit for bit the interpreted model
/// under a fab with that yield, every logic die reading the yield column.
#[test]
fn lowered_plans_with_a_free_yield_match_the_interpreted_model_bitwise() {
    let workload = fixture_workload();
    let lifetime_s = TimeSpan::years(workload.lifetime_years).as_seconds();
    let use_phase = UsePhase {
        execution_time_s: lifetime_s,
        lifetime_years: workload.lifetime_years,
        use_intensity_g_per_kwh: workload.use_intensity_g_per_kwh,
        energy_j: workload.power_w * workload.utilization * lifetime_s,
    };
    let axes = [FreeAxis::FabYield, FreeAxis::UseIntensity];
    for pin in &PINS {
        let system = compile(&parse(pin.doc)).system().clone();
        let fab = FabScenario::default();
        let kernel =
            CompiledFootprint::try_lower(&system, &fab, &use_phase, &axes).expect("lowers");
        for fab_yield in [0.5, 0.875, 0.97] {
            let with_yield = fab.with_yield(Fraction::new(fab_yield).expect("a yield"));
            let embodied_g = system.embodied(&with_yield).total().as_grams();
            for workload in workloads() {
                let intensity = workload.use_intensity_g_per_kwh;
                let want = interpreted(&workload, embodied_g);
                let got = kernel.eval(&[fab_yield, intensity]);
                let context = format!("{} at yield {fab_yield}, {intensity} g/kWh", pin.name);
                assert_eq!(got.to_bits(), want.to_bits(), "{context}");
            }
        }
    }
}

#[test]
fn iphone_11_matches_teardown() {
    let iphone = parse(scenarios::IPHONE_11);
    assert_eq!(iphone.chips[0].area_mm2, 98.5);
    assert_eq!(iphone.dram.iter().map(|d| d.capacity_gb).sum::<f64>(), 4.0);
    assert_eq!(iphone.ssd.iter().map(|s| s.capacity_gb).sum::<f64>(), 64.0);
    assert!(iphone.packaged_ic_count >= iphone.chips.len() as u32);
}

#[test]
fn ipad_has_more_board_silicon_than_iphone() {
    // The larger iPad board carries more aggregate IC area (Figure 4:
    // 21 kg vs 17 kg embodied).
    let area = |doc| parse(doc).chips.iter().map(|c| c.area_mm2).sum::<f64>();
    let (ipad, iphone) = (area(scenarios::IPAD), area(scenarios::IPHONE_11));
    assert!(ipad > iphone, "{ipad} <= {iphone}");
}

#[test]
fn server_capacities_dwarf_mobile() {
    let server = parse(scenarios::DELL_R740);
    assert!(server.dram.iter().map(|d| d.capacity_gb).sum::<f64>() > 100.0);
    assert!(server.ssd.iter().map(|s| s.capacity_gb).sum::<f64>() > 10_000.0);
}

#[test]
fn chip_totals_aggregate() {
    let total = parse(scenarios::IPHONE_11).chips.iter().map(|c| c.area_mm2).sum::<f64>();
    assert!((total - (98.5 + 200.0 + 60.0 + 560.0)).abs() < 1e-9);
}

#[test]
fn all_devices_have_positive_entries() {
    for doc in scenarios::ALL {
        let device = parse(doc);
        assert!(!device.chips.is_empty(), "{}", device.name);
        for chip in &device.chips {
            assert!(chip.area_mm2 > 0.0 && chip.count > 0);
        }
        assert!(device.packaged_ic_count > 0);
    }
}
