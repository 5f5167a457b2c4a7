//! **Extension study** (not a paper artifact): server-fleet refresh cadence
//! under different grids — Table 2's "sustainable data center" use case,
//! carried to the Figure-14 methodology at server scale.
//!
//! A Dell R740-class server's embodied carbon is fixed by manufacturing;
//! its operational carbon depends on the hosting grid and PUE. On dirty
//! grids, efficiency gains of newer hardware argue for fast refresh; on
//! hydro-powered grids the embodied bill dominates and long lifetimes win.

use std::fmt;

use act_core::OperationalModel;
use act_data::{scenarios, Location};
use act_soc::ReplacementModel;
use act_units::{MassCo2, Power, TimeSpan};

use crate::render::TextTable;

/// Average server power draw.
pub const SERVER_POWER_W: f64 = 350.0;

/// Data-center power usage effectiveness.
pub const PUE: f64 = 1.2;

/// Annual efficiency improvement of successive server generations.
pub const SERVER_IMPROVEMENT: f64 = 1.15;

act_json::json_struct! {
    [ToJson]
    /// One hosting-grid scenario.
    #[derive(Clone, Debug)]
    pub struct GridRow {
        /// Hosting location.
        pub location: Location,
        /// First-year operational footprint of one server.
        pub first_year_operational: MassCo2,
        /// Embodied-to-first-year-operational ratio (the `β` of the sweep).
        pub embodied_ratio: f64,
        /// Footprint-optimal refresh cadence in years.
        pub optimal_lifetime_years: u32,
    }
}

act_json::json_struct! {
    [ToJson]
    /// The study.
    #[derive(Clone, Debug)]
    pub struct DatacenterResult {
        /// Embodied carbon of one server.
        pub server_embodied: MassCo2,
        /// One row per hosting grid.
        pub rows: Vec<GridRow>,
    }
}

/// Runs the study over a spectrum of grids.
#[must_use]
pub fn run() -> DatacenterResult {
    let server_embodied = crate::device(scenarios::DELL_R740).embodied().total();
    let yearly_energy = Power::watts(SERVER_POWER_W) * TimeSpan::years(1.0);
    let rows = [
        Location::India,
        Location::UnitedStates,
        Location::Europe,
        Location::Brazil,
        Location::Iceland,
    ]
    .into_iter()
    .map(|location| {
        let op = OperationalModel::new(location.carbon_intensity()).with_effectiveness(PUE);
        let first_year = op.footprint(yearly_energy);
        let embodied_ratio = server_embodied.ratio(first_year);
        let model = ReplacementModel {
            horizon_years: 10,
            embodied_per_device: embodied_ratio,
            improvement_rate: SERVER_IMPROVEMENT,
        };
        GridRow {
            location,
            first_year_operational: first_year,
            embodied_ratio,
            optimal_lifetime_years: model.optimal_lifetime_years(),
        }
    })
    .collect();
    DatacenterResult { server_embodied, rows }
}

impl fmt::Display for DatacenterResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Extension: server refresh cadence by grid (server embodied {:.0} kg, \
             {} W at PUE {PUE}, {}x/yr generational efficiency)",
            self.server_embodied.as_kilograms(),
            SERVER_POWER_W,
            SERVER_IMPROVEMENT
        )?;
        let mut t = TextTable::new(
            "Optimal server lifetime over a 10-year horizon",
            &["grid", "g CO2/kWh", "op kg/yr", "embodied/op", "optimal lifetime"],
        );
        for r in &self.rows {
            t.row(vec![
                r.location.to_string(),
                format!("{:.0}", r.location.carbon_intensity().as_grams_per_kwh()),
                format!("{:.0}", r.first_year_operational.as_kilograms()),
                format!("{:.2}", r.embodied_ratio),
                format!("{} years", r.optimal_lifetime_years),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cleaner_grids_favor_longer_server_lifetimes() {
        let r = run();
        // Rows are ordered dirty -> clean; optima must not decrease.
        for pair in r.rows.windows(2) {
            assert!(
                pair[1].optimal_lifetime_years >= pair[0].optimal_lifetime_years,
                "{} ({} yr) -> {} ({} yr)",
                pair[0].location,
                pair[0].optimal_lifetime_years,
                pair[1].location,
                pair[1].optimal_lifetime_years
            );
        }
    }

    #[test]
    fn dirty_grids_refresh_fast_clean_grids_hold() {
        let r = run();
        let india = r.rows.iter().find(|x| x.location == Location::India).unwrap();
        let iceland = r.rows.iter().find(|x| x.location == Location::Iceland).unwrap();
        assert!(india.optimal_lifetime_years <= 4, "India {}", india.optimal_lifetime_years);
        assert!(
            iceland.optimal_lifetime_years >= 6,
            "Iceland {}",
            iceland.optimal_lifetime_years
        );
    }

    #[test]
    fn embodied_ratio_spans_an_order_of_magnitude_across_grids() {
        let r = run();
        let min = r.rows.iter().map(|x| x.embodied_ratio).fold(f64::INFINITY, f64::min);
        let max = r.rows.iter().map(|x| x.embodied_ratio).fold(0.0, f64::max);
        assert!(max / min > 10.0, "{min}..{max}");
    }

    #[test]
    fn server_embodied_is_server_scale() {
        let kg = run().server_embodied.as_kilograms();
        assert!((150.0..=600.0).contains(&kg), "{kg} kg");
    }

    #[test]
    fn renders_all_grids() {
        let s = run().to_string();
        assert!(s.contains("India") && s.contains("Iceland"));
    }
}
