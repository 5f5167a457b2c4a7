//! Uncertainty quantification: how confident can a carbon label be?
//! Propagates yield, fab-energy and abatement uncertainty through the
//! embodied model with Monte-Carlo sampling and the Figure-6 bounds.
//!
//! ```text
//! cargo run --example uncertainty
//! ```

use act::core::FabScenario;
use act::data::{scenarios, Abatement};
use act::dse::{par_monte_carlo_compiled_block_with, try_triangular, McBuffer, Parallelism};
use act::scenario::Scenario;
use act::units::{CarbonIntensity, Fraction};

fn main() {
    let iphone = Scenario::parse(scenarios::IPHONE_11)
        .and_then(|scenario| scenario.compile())
        .expect("the iPhone 11 document compiles");
    let spec = iphone.system();

    // Point estimate and analytical bounds (Figure 6's band).
    let default_fab = FabScenario::default();
    let point = spec.embodied(&default_fab).total();
    let (lower, upper) = spec.embodied_bounds(&default_fab);
    println!(
        "iPhone 11 ICs — point estimate {:.1} kg CO2, analytical band [{:.1}, {:.1}] kg",
        point.as_kilograms(),
        lower.as_kilograms(),
        upper.as_kilograms()
    );

    // Monte Carlo over the three fab unknowns. The sampler evaluates the
    // whole model for sample `k` into column 0; the kernel copies it out.
    let model = |rng: &mut act_rng::Rng| {
        // Yield: expert-judgment triangular around 0.875.
        let y = try_triangular(rng, 0.7, 0.875, 0.98).expect("valid triangular");
        // Fab energy CI: anywhere between mostly-solar and the full grid.
        let ci = rng.gen_range(150.0..583.0);
        // Abatement: fabs report 95-99 %.
        let abatement = match rng.gen_range(0..3_u32) {
            0 => Abatement::Percent95,
            1 => Abatement::Percent97,
            _ => Abatement::Percent99,
        };
        let fab = FabScenario::with_intensity(CarbonIntensity::grams_per_kwh(ci))
            .with_yield(Fraction::new(y).expect("triangular stays in range"))
            .with_abatement(abatement);
        spec.embodied(&fab).total().as_kilograms()
    };
    let stats = par_monte_carlo_compiled_block_with(
        Parallelism::Auto,
        5_000,
        2022,
        1,
        |rng, k, cols| cols[0][k] = model(rng),
        |cols, range, out| out.copy_from_slice(&cols[0][range]),
        &mut McBuffer::new(),
    )
    .expect("every draw is finite")
    .stats;

    println!("\nMonte Carlo over yield x fab CI x abatement ({} samples):", stats.samples);
    println!(
        "  mean {:.1} kg   p05 {:.1} kg   median {:.1} kg   p95 {:.1} kg",
        stats.mean, stats.p05, stats.p50, stats.p95
    );
    println!("  relative p05-p95 spread: {:.0}% of the mean", stats.relative_spread() * 100.0);
    println!(
        "\nA device carbon label quoted without its fab assumptions can be \
         off by tens of percent — publish the scenario with the number."
    );
}
