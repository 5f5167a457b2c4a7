//! Figure 8: the carbon-optimization design space of thirteen commodity
//! mobile SoCs — performance (a), energy (b), embodied carbon (c), and the
//! optimization-metric view (d).
//!
//! Performance and TDP come from the measured-score database in `act-data`;
//! the `act-soc` simulator independently reproduces the trends (its score is
//! included per row as a cross-check). Embodied carbon is the ACT model on
//! each SoC's die, era-appropriate DRAM and packaging.

use crate::Present;
use std::fmt;

use act_core::{DesignPoint, FabScenario, OptimizationMetric, SystemSpec};
use act_data::{SocFamily, SocSpec, MOBILE_SOCS};
use act_soc::{geekbench_suite, SocSimulator};
use act_units::{MassCo2, TimeSpan};

use crate::render::{kg, TextTable};

/// Work quantum: the suite is taken to run for `SCORE_TIME_CONSTANT /
/// score` seconds, so faster SoCs finish the same work sooner.
const SCORE_TIME_CONSTANT: f64 = 1e6;

act_json::json_struct! {
    [ToJson]
    /// One SoC's coordinates in the design space.
    #[derive(Clone, Debug)]
    pub struct SocRow {
        /// The SoC under evaluation.
        pub soc: &'static SocSpec,
        /// Embodied footprint of SoC die + DRAM + packaging.
        pub embodied: MassCo2,
        /// Cross-check: the `act-soc` simulator's suite score.
        pub simulated_score: f64,
        /// The design point used for metric evaluation.
        pub design: DesignPoint,
    }
}

act_json::json_struct! {
    [ToJson]
    /// The full survey.
    #[derive(Clone, Debug)]
    pub struct Fig8Result {
        /// One row per SoC, in the paper's plotting order.
        pub rows: Vec<SocRow>,
    }
}

/// Runs the survey under the default fab scenario.
#[must_use]
pub fn run() -> Fig8Result {
    let fab = FabScenario::default();
    let suite = geekbench_suite();
    let rows = MOBILE_SOCS
        .iter()
        .map(|soc| {
            let embodied = SystemSpec::builder()
                .soc(soc.name, soc.die_area(), soc.node)
                .dram(soc.dram, soc.dram_capacity())
                .packaged_ics(2)
                .build()
                .embodied(&fab)
                .total();
            let delay = TimeSpan::seconds(SCORE_TIME_CONSTANT / soc.reference_score);
            let energy = soc.tdp() * delay;
            let simulated_score = SocSimulator::new(soc).run_suite(&suite).score;
            SocRow {
                soc,
                embodied,
                simulated_score,
                design: DesignPoint { embodied, energy, delay, area: soc.die_area() },
            }
        })
        .collect();
    Fig8Result { rows }
}

impl Fig8Result {
    /// The SoC a metric selects across all families.
    #[must_use]
    pub fn winner(&self, metric: OptimizationMetric) -> &SocRow {
        self.rows
            .iter()
            .min_by(|a, b| metric.score(&a.design).total_cmp(&metric.score(&b.design)))
            .present("survey is nonempty")
    }

    /// The SoC with the lowest embodied footprint (Figure 8c's minimum).
    #[must_use]
    pub fn embodied_minimum(&self) -> &SocRow {
        self.rows
            .iter()
            .min_by(|a, b| a.embodied.total_cmp(&b.embodied))
            .present("survey is nonempty")
    }

    /// Figure 8(d): metric values within one family, normalized to the
    /// newest member.
    #[must_use]
    pub fn normalized(
        &self,
        family: SocFamily,
        metric: OptimizationMetric,
    ) -> Vec<(String, f64)> {
        let in_family: Vec<&SocRow> =
            self.rows.iter().filter(|r| r.soc.family == family).collect();
        let newest = in_family.iter().max_by_key(|r| r.soc.year).present("family is nonempty");
        let base = metric.score(&newest.design);
        in_family
            .iter()
            .map(|r| (r.soc.name.to_owned(), metric.score(&r.design) / base))
            .collect()
    }
}

impl fmt::Display for Fig8Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(
            "Figure 8: mobile SoC survey",
            &["SoC", "node", "score", "sim score", "TDP W", "embodied kg"],
        );
        for r in &self.rows {
            t.row(vec![
                r.soc.name.to_owned(),
                r.soc.node.to_string(),
                format!("{:.0}", r.soc.reference_score),
                format!("{:.0}", r.simulated_score),
                format!("{:.1}", r.soc.tdp_w),
                kg(r.embodied),
            ]);
        }
        write!(f, "{t}")?;

        // Figure 8(d): per-family metric series normalized to the newest
        // member.
        let mut d = TextTable::new(
            "Figure 8(d): metrics normalized to each family's newest SoC",
            &["SoC", "EDP", "EDAP", "CDP", "CEP", "C2EP"],
        );
        for family in SocFamily::ALL {
            let series: Vec<Vec<(String, f64)>> = [
                OptimizationMetric::Edp,
                OptimizationMetric::Edap,
                OptimizationMetric::Cdp,
                OptimizationMetric::Cep,
                OptimizationMetric::C2ep,
            ]
            .iter()
            .map(|m| self.normalized(family, *m))
            .collect();
            for (i, (name, _)) in series[0].iter().enumerate() {
                let mut cells = vec![name.clone()];
                for metric_series in &series {
                    cells.push(format!("{:.2}", metric_series[i].1));
                }
                d.row(cells);
            }
        }
        write!(f, "{d}")?;

        writeln!(f, "  metric winners:")?;
        for metric in OptimizationMetric::ALL {
            writeln!(f, "    {metric:<5} -> {}", self.winner(metric).soc.name)?;
        }
        writeln!(f, "    lowest embodied -> {}", self.embodied_minimum().soc.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_winners_match_the_paper() {
        // "The optimal hardware in terms of EDP, EDAP, embodied carbon,
        // CEP, and C2EP are the Kirin 990, Snapdragon 865, Snapdragon 835,
        // Kirin 980, and Kirin 980, respectively."
        let r = run();
        assert_eq!(r.winner(OptimizationMetric::Edp).soc.name, "Kirin 990");
        assert_eq!(r.winner(OptimizationMetric::Edap).soc.name, "Snapdragon 865");
        assert_eq!(r.embodied_minimum().soc.name, "Snapdragon 835");
        assert_eq!(r.winner(OptimizationMetric::Cep).soc.name, "Kirin 980");
        assert_eq!(r.winner(OptimizationMetric::C2ep).soc.name, "Kirin 980");
    }

    #[test]
    fn energy_and_carbon_metrics_disagree() {
        // The headline of Section 4: carbon-aware optimization selects
        // different hardware than energy-centric optimization.
        let r = run();
        assert_ne!(
            r.winner(OptimizationMetric::Edp).soc.name,
            r.winner(OptimizationMetric::Cep).soc.name
        );
    }

    #[test]
    fn embodied_carbon_fluctuates_across_snapdragon_generations() {
        // Figure 8(c): Snapdragon embodied carbon is non-monotonic in time.
        let r = run();
        let snapdragons: Vec<&SocRow> = {
            let mut v: Vec<&SocRow> =
                r.rows.iter().filter(|row| row.soc.family == SocFamily::Snapdragon).collect();
            v.sort_by_key(|row| row.soc.year);
            v
        };
        let series: Vec<f64> = snapdragons.iter().map(|r| r.embodied.as_kilograms()).collect();
        let monotonic_up = series.windows(2).all(|w| w[1] >= w[0]);
        let monotonic_down = series.windows(2).all(|w| w[1] <= w[0]);
        assert!(!monotonic_up && !monotonic_down, "series {series:?}");
    }

    #[test]
    fn energy_and_carbon_series_diverge_within_every_family() {
        // Figure 8(d)'s arrows: in each family some older SoC looks worse
        // than the newest under EDP but *better* under C2EP.
        let r = run();
        for family in SocFamily::ALL {
            let edp = r.normalized(family, OptimizationMetric::Edp);
            let c2ep = r.normalized(family, OptimizationMetric::C2ep);
            let diverges = edp.iter().zip(&c2ep).any(|((name_e, e), (name_c, c))| {
                assert_eq!(name_e, name_c);
                *e > 1.0 && *c < 1.0
            });
            assert!(diverges, "{family}: no divergent SoC");
        }
    }

    #[test]
    fn normalization_anchors_the_newest_soc_at_one() {
        let r = run();
        for family in SocFamily::ALL {
            let series = r.normalized(family, OptimizationMetric::Cdp);
            let newest = act_data::newest_in_family(family);
            let anchor = series.iter().find(|(n, _)| n == newest.name).unwrap();
            assert!((anchor.1 - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn simulator_cross_check_tracks_reference_scores() {
        for row in run().rows {
            let ratio = row.simulated_score / row.soc.reference_score;
            assert!((0.65..=1.35).contains(&ratio), "{}: sim/ref ratio {ratio}", row.soc.name);
        }
    }

    #[test]
    fn embodied_magnitudes_are_mobile_ic_scale() {
        for row in run().rows {
            let kg = row.embodied.as_kilograms();
            assert!((1.0..=3.5).contains(&kg), "{}: {kg} kg", row.soc.name);
        }
    }

    #[test]
    fn renders_thirteen_rows_and_winners() {
        let s = run().to_string();
        assert!(s.contains("Kirin 990") && s.contains("metric winners"));
    }
}
