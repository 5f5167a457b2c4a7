//! Ablation benches for the design choices DESIGN.md calls out: each bench
//! sweeps one modeling assumption and measures the cost of re-evaluating
//! the affected artifact, while the printed-once summary shows the
//! sensitivity.

use act_bench::{black_box, Harness};
use act_core::FabScenario;
use act_data::{scenarios, Abatement, DramTechnology, ProcessNode};
use act_scenario::Scenario;
use act_ssd::{
    analytical_write_amplification, FtlConfig, FtlSimulator, OverProvisioning, TracePattern,
    WriteTrace,
};
use act_units::{Area, Capacity, Fraction};

fn main() {
    let mut h = Harness::from_env();

    // Yield sensitivity: ECF of a 7 nm flagship die across Y in [0.5, 1.0].
    h.bench("ablate_yield", || {
        let mut total = 0.0;
        for y in [0.5, 0.625, 0.75, 0.875, 1.0] {
            let fab = FabScenario::default().with_yield(Fraction::new_const(y));
            total += (fab.carbon_per_area(ProcessNode::N7) * Area::square_millimeters(90.0))
                .as_grams();
        }
        black_box(total)
    });

    // Abatement sensitivity: CPA across all nodes under 95/97/99 % abatement.
    h.bench("ablate_abatement", || {
        let mut total = 0.0;
        for abatement in Abatement::ALL {
            let fab = FabScenario::default().with_abatement(abatement);
            for node in ProcessNode::ALL {
                total += fab.carbon_per_area(node).as_grams_per_cm2();
            }
        }
        black_box(total)
    });

    // Fab energy-source sensitivity: device embodied footprint under four
    // fab scenarios.
    let iphone = match Scenario::parse(scenarios::IPHONE_11).and_then(|s| s.compile()) {
        Ok(compiled) => compiled,
        Err(err) => panic!("the iPhone 11 document must compile: {err}"),
    };
    let spec = iphone.system();
    h.bench("ablate_fab_ci", || {
        let mut total = 0.0;
        for fab in [
            FabScenario::coal(),
            FabScenario::taiwan_grid(),
            FabScenario::default(),
            FabScenario::renewable(),
        ] {
            total += spec.embodied(&fab).total().as_kilograms();
        }
        black_box(total)
    });

    // Analytical vs simulated write amplification at the first-life optimum.
    let pf = OverProvisioning::new_const(0.16);
    h.bench("ablate_wa_model/analytical", || black_box(analytical_write_amplification(pf)));
    h.bench("ablate_wa_model/ftl_simulated", || {
        let config = FtlConfig::small(pf);
        let mut ftl = FtlSimulator::new(config);
        let mut trace = WriteTrace::new(TracePattern::UniformRandom, config.logical_pages(), 3);
        black_box(ftl.measure_steady_state_wa(&mut trace, 20_000))
    });

    // The 4 % row of Figure 15: the GC-bound FTL run (WA ~7.4) and the
    // longest job of a parallel `act all`, so a regression in garbage
    // collection shows here and not only inside the whole fig15 bench.
    h.bench("ftl/steady_state_pf04", || {
        let config = FtlConfig::small(OverProvisioning::new_const(0.04));
        let mut ftl = FtlSimulator::new(config);
        let mut trace = WriteTrace::new(TracePattern::UniformRandom, config.logical_pages(), 7);
        black_box(ftl.measure_steady_state_wa(&mut trace, 40_000))
    });

    // DRAM-node assignment sensitivity: a 4 GB phone's memory footprint
    // under every characterized DRAM technology.
    h.bench("ablate_dram_node", || {
        let mut total = 0.0;
        for tech in DramTechnology::ALL {
            total += (tech.carbon_per_gb() * Capacity::gigabytes(4.0)).as_grams();
        }
        black_box(total)
    });

    h.finish();
}
