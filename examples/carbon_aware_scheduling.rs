//! Carbon-aware scheduling on a solar-heavy grid: when should a datacenter
//! run its daily batch job, and how does the residual footprint compare to
//! the servers' amortized embodied carbon?
//!
//! ```text
//! cargo run --example carbon_aware_scheduling
//! ```

use act::core::IntensityProfile;
use act::data::{scenarios, Location};
use act::scenario::Scenario;
use act::units::{Energy, Power, TimeSpan};

fn main() {
    // A grid like Taiwan's decarbonizing with 70 % midday solar coverage.
    let grid = IntensityProfile::solar_grid(Location::Taiwan.carbon_intensity(), 0.7);

    println!("Hourly grid intensity (g CO2/kWh):");
    for hour in (0..24).step_by(3) {
        println!("  {:02}:00  {:>6.0}", hour, grid.at_hour(hour).as_grams_per_kwh());
    }
    println!("  daily average {:>6.0}\n", grid.daily_average().as_grams_per_kwh());

    // A 4-hour batch job on a 350 W server.
    let duration_hours = 4;
    let energy: Energy = Power::watts(350.0) * TimeSpan::hours(duration_hours as f64);

    let naive = grid.window_footprint(0, duration_hours, energy);
    let start = grid.cleanest_window_start(duration_hours);
    let scheduled = grid.window_footprint(start, duration_hours, energy);
    println!(
        "4-hour 350 W batch job:\n  run at midnight: {:.0} g CO2\n  \
         run at {start:02}:00 (cleanest window): {:.0} g CO2\n  \
         carbon-aware scheduling saves {:.0}%\n",
        naive.as_grams(),
        scheduled.as_grams(),
        (1.0 - scheduled / naive) * 100.0
    );

    // Perspective: the server's own embodied carbon, amortized per day of
    // a 4-year life, is on the same scale as everything scheduling can
    // save — so manufacturing can no longer be ignored (the ACT thesis).
    let server = Scenario::parse(scenarios::DELL_R740)
        .and_then(|scenario| scenario.compile())
        .expect("the Dell R740 document compiles")
        .embodied()
        .total();
    let per_day = server * (1.0 / (4.0 * 365.0));
    println!(
        "Server embodied carbon: {:.0} kg total, {:.0} g per day of a 4-year life.",
        server.as_kilograms(),
        per_day.as_grams()
    );
    println!(
        "Daily scheduling saving ({:.0} g) and the daily embodied bill ({:.0} g) \
         are the same order of magnitude — operational optimization alone \
         cannot finish the job; Reduce/Reuse/Recycle the hardware too.",
        (naive - scheduled).as_grams(),
        per_day.as_grams(),
    );
}
