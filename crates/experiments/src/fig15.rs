//! Figure 15: SSD over-provisioning — write amplification and lifetime
//! (top), effective embodied carbon for first- and second-life horizons
//! (bottom), with the FTL simulator cross-checking the analytical WA curve.

use std::fmt;

use act_ssd::{
    analytical_write_amplification, effective_embodied, FtlConfig, FtlSimulator, LifetimeModel,
    OverProvisioning, TracePattern, WriteTrace,
};

use crate::render::TextTable;
use crate::Present;

/// First-life deployment horizon in years.
pub const FIRST_LIFE_YEARS: f64 = 2.0;

/// Second-life (recycled) deployment horizon in years.
pub const SECOND_LIFE_YEARS: f64 = 4.0;

/// The seed of every simulated write trace.
pub const TRACE_SEED: u64 = 7;

/// Host writes measured after the simulator's warm-up.
pub const MEASURE_WRITES: u64 = 40_000;

/// The over-provisioning grid of the study (4 % … 40 % in 6 % steps).
#[must_use]
pub fn op_grid() -> Vec<OverProvisioning> {
    (0..7).map(|i| OverProvisioning::new_const(0.04 + 0.06 * f64::from(i))).collect()
}

act_json::json_struct! {
    [ToJson]
    /// One over-provisioning point.
    #[derive(Clone, Debug)]
    pub struct OpRow {
        /// The over-provisioning factor.
        pub pf: OverProvisioning,
        /// Analytical write amplification.
        pub wa_analytical: f64,
        /// FTL-simulator-measured write amplification (uniform random writes).
        pub wa_simulated: f64,
        /// Lifetime under the Meza model with analytical WA.
        pub lifetime_years: f64,
        /// Effective embodied carbon for a first-life horizon, normalized to
        /// the 4 % baseline.
        pub first_life: f64,
        /// Effective embodied carbon for a second-life horizon, normalized to
        /// the 4 % baseline at the first-life horizon.
        pub second_life: f64,
    }
}

act_json::json_struct! {
    [ToJson]
    /// The full study.
    #[derive(Clone, Debug)]
    pub struct Fig15Result {
        /// Rows over the over-provisioning grid.
        pub rows: Vec<OpRow>,
    }
}

/// The steady-state write amplification of [`FtlConfig::small`] at `pf`,
/// under a uniform random trace seeded with [`TRACE_SEED`], measured over
/// [`MEASURE_WRITES`] writes after the warm-up. Each call builds its own
/// simulator and trace, so the runs are independent; one per row of
/// [`op_grid`] is nearly all of the study's time.
pub(crate) fn simulate_wa(pf: OverProvisioning) -> f64 {
    let config = FtlConfig::small(pf);
    let mut ftl = FtlSimulator::new(config);
    let mut trace =
        WriteTrace::new(TracePattern::UniformRandom, config.logical_pages(), TRACE_SEED);
    ftl.measure_steady_state_wa(&mut trace, MEASURE_WRITES)
}

/// Builds the study from the simulated write amplification at each
/// point of [`op_grid`], in order.
pub(crate) fn assemble(wa_simulated: &[f64]) -> Fig15Result {
    let model = LifetimeModel::default();
    let grid = op_grid();
    // The carbon terms: two closed-form `effective_embodied` points per PF
    // (first- and second-life horizons), interleaved. Fourteen scalar
    // calls need no batch engine.
    let carbon: Vec<f64> = grid
        .iter()
        .flat_map(|&pf| [(pf, FIRST_LIFE_YEARS), (pf, SECOND_LIFE_YEARS)])
        .map(|(pf, horizon)| effective_embodied(pf, horizon, &model))
        .collect();
    let baseline = carbon[0];
    let rows = grid
        .into_iter()
        .zip(wa_simulated)
        .enumerate()
        .map(|(i, (pf, &wa_simulated))| OpRow {
            pf,
            wa_analytical: analytical_write_amplification(pf),
            wa_simulated,
            lifetime_years: model.lifetime_years(pf),
            first_life: carbon[2 * i] / baseline,
            second_life: carbon[2 * i + 1] / baseline,
        })
        .collect();
    Fig15Result { rows }
}

/// Runs the study on the calling thread: one simulation per row of
/// [`op_grid`], one after another, then `assemble`.
#[must_use]
pub fn run() -> Fig15Result {
    let wa: Vec<f64> = op_grid().into_iter().map(simulate_wa).collect();
    assemble(&wa)
}

impl Fig15Result {
    fn optimal_by<F: Fn(&OpRow) -> f64>(&self, cost: F) -> &OpRow {
        self.rows.iter().min_by(|a, b| cost(a).total_cmp(&cost(b))).present("grid is nonempty")
    }

    /// The first-life-optimal over-provisioning (paper: 16 %).
    #[must_use]
    pub fn first_life_optimal(&self) -> &OpRow {
        self.optimal_by(|r| r.first_life)
    }

    /// The second-life-optimal over-provisioning (paper: 34 %).
    #[must_use]
    pub fn second_life_optimal(&self) -> &OpRow {
        self.optimal_by(|r| r.second_life)
    }

    /// Per-service-year embodied reduction of the second-life optimum over
    /// the first-life optimum (paper: ≈1.8×).
    #[must_use]
    pub fn second_life_reduction(&self) -> f64 {
        let first = self.first_life_optimal();
        let second = self.second_life_optimal();
        (first.first_life / FIRST_LIFE_YEARS) / (second.second_life / SECOND_LIFE_YEARS)
    }
}

impl fmt::Display for Fig15Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(
            "Figure 15: SSD over-provisioning study",
            &[
                "PF",
                "WA (model)",
                "WA (FTL sim)",
                "lifetime yr",
                "1st life CO2",
                "2nd life CO2",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.pf.to_string(),
                format!("{:.2}", r.wa_analytical),
                format!("{:.2}", r.wa_simulated),
                format!("{:.2}", r.lifetime_years),
                format!("{:.2}", r.first_life),
                format!("{:.2}", r.second_life),
            ]);
        }
        write!(f, "{t}")?;
        writeln!(
            f,
            "  first-life optimal PF {} | second-life optimal PF {} | per-year reduction {:.2}x",
            self.first_life_optimal().pf,
            self.second_life_optimal().pf,
            self.second_life_reduction()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_life_optimum_is_16_percent() {
        let r = run();
        assert!((r.first_life_optimal().pf.get() - 0.16).abs() < 1e-9);
    }

    #[test]
    fn second_life_optimum_is_34_percent() {
        let r = run();
        assert!((r.second_life_optimal().pf.get() - 0.34).abs() < 1e-9);
    }

    #[test]
    fn second_life_reduces_per_year_embodied_by_about_1_8x() {
        let reduction = run().second_life_reduction();
        assert!((1.6..=2.0).contains(&reduction), "reduction {reduction}");
    }

    #[test]
    fn wa_falls_and_lifetime_grows_along_the_grid() {
        let r = run();
        for pair in r.rows.windows(2) {
            assert!(pair[1].wa_analytical < pair[0].wa_analytical);
            assert!(pair[1].lifetime_years > pair[0].lifetime_years);
        }
    }

    #[test]
    fn ftl_simulation_tracks_the_analytical_curve() {
        for row in run().rows {
            let ratio = row.wa_simulated / row.wa_analytical;
            assert!(
                (0.5..=1.5).contains(&ratio),
                "PF {}: simulated {} vs analytical {}",
                row.pf,
                row.wa_simulated,
                row.wa_analytical
            );
        }
    }

    #[test]
    fn under_provisioning_is_penalized_by_replacements() {
        // The 4 % baseline wears out in ~half a year: its effective
        // embodied carbon towers over the optimum.
        let r = run();
        assert!(r.rows[0].first_life > 2.0 * r.first_life_optimal().first_life);
    }

    #[test]
    fn renders_grid_and_optima() {
        let s = run().to_string();
        assert!(s.contains("16%") && s.contains("34%"));
    }
}
