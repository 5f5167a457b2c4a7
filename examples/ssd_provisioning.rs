//! The Recycle case study: pick an SSD over-provisioning factor that
//! survives a second life, cross-checking the analytical write-amplification
//! model against the FTL simulator (paper Figure 15).
//!
//! ```text
//! cargo run --example ssd_provisioning
//! ```

use act::experiments::fig15;
use act::ssd::{
    analytical_write_amplification, effective_embodied, FtlConfig, FtlSimulator, LifetimeModel,
    OverProvisioning, TracePattern, WriteTrace,
};

fn main() {
    let model = LifetimeModel::default();
    println!(
        "Lifetime model: PEC={}, DWPD={}, Rcompress={}\n",
        model.program_erase_cycles, model.disk_writes_per_day, model.compression_rate
    );

    println!(
        "{:>5} {:>10} {:>10} {:>9} {:>14} {:>14}",
        "PF", "WA model", "WA (sim)", "life yr", "1st-life CO2", "2nd-life CO2"
    );
    let baseline = effective_embodied(OverProvisioning::new(0.04).unwrap(), 2.0, &model);
    let mut best_first = (f64::INFINITY, 0.0);
    let mut best_second = (f64::INFINITY, 0.0);
    for step in 0..7 {
        let pf = OverProvisioning::new(0.04 + 0.06 * f64::from(step)).unwrap();
        let wa = analytical_write_amplification(pf);

        // Empirical cross-check on a small simulated device, with
        // Figure 15's trace seed and length, so this column reads as
        // `act fig15`'s "WA (FTL sim)".
        let config = FtlConfig::small(pf);
        let mut ftl = FtlSimulator::new(config);
        let mut trace = WriteTrace::new(
            TracePattern::UniformRandom,
            config.logical_pages(),
            fig15::TRACE_SEED,
        );
        let wa_sim = ftl.measure_steady_state_wa(&mut trace, fig15::MEASURE_WRITES);

        let first = effective_embodied(pf, 2.0, &model) / baseline;
        let second = effective_embodied(pf, 4.0, &model) / baseline;
        if first < best_first.0 {
            best_first = (first, pf.get());
        }
        if second < best_second.0 {
            best_second = (second, pf.get());
        }
        println!(
            "{:>5} {:>10.2} {:>10.2} {:>9.2} {:>14.2} {:>14.2}",
            pf.to_string(),
            wa,
            wa_sim,
            model.lifetime_years(pf),
            first,
            second
        );
    }

    println!(
        "\nFirst-life optimum: {:.0}% over-provisioning; \
         enabling a second life requires {:.0}%.",
        best_first.1 * 100.0,
        best_second.1 * 100.0
    );
    println!(
        "Per service-year, the second-life drive embodies {:.2}x less carbon.",
        (best_first.0 / 2.0) / (best_second.0 / 4.0)
    );
}
