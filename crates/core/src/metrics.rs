//! Table 2's use-case dependent optimization metrics: the classic EDP/EDAP
//! next to ACT's carbon-aware CDP, CEP, C²EP and CE²P.

use std::fmt;

use act_units::{Area, Energy, MassCo2, TimeSpan};

act_json::json_struct! {
    [ToJson]
    /// The coordinates of one hardware design in the optimization space:
    /// embodied carbon `C`, energy `E`, delay `D` and area `A`.
    ///
    /// # Examples
    ///
    /// ```
    /// use act_core::{DesignPoint, OptimizationMetric};
    /// use act_units::{Area, Energy, MassCo2, TimeSpan};
    ///
    /// let cpu = DesignPoint {
    ///     embodied: MassCo2::grams(253.0),
    ///     energy: Energy::millijoules(39.6),
    ///     delay: TimeSpan::milliseconds(6.0),
    ///     area: Area::square_millimeters(16.3),
    /// };
    /// assert!(OptimizationMetric::Cdp.score(&cpu) > 0.0);
    /// ```
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct DesignPoint {
        /// Embodied carbon footprint `C`.
        pub embodied: MassCo2,
        /// Operational energy `E` for the task of interest.
        pub energy: Energy,
        /// Task delay `D`.
        pub delay: TimeSpan,
        /// Silicon area `A`.
        pub area: Area,
    }
}

act_json::json_enum! {
    [ToJson]
    /// A hardware optimization metric from ACT's Table 2. Lower is better for
    /// all of them.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub enum OptimizationMetric {
        /// Energy-delay product: classic operational-energy optimization
        /// (e.g. mobile).
        Edp,
        /// Energy-delay-area product: energy plus capital cost (e.g. mobile).
        Edap,
        /// Carbon-delay product: balance embodied CO₂ and performance
        /// (e.g. sustainable data centers).
        Cdp,
        /// Carbon-energy product: balance embodied CO₂ and energy
        /// (e.g. sustainable mobile devices).
        Cep,
        /// Carbon²-energy product: prioritize embodied CO₂ — systems powered by
        /// renewable/carbon-free energy.
        C2ep,
        /// Carbon-energy² product: prioritize energy — systems powered by
        /// "brown" energy.
        Ce2p,
    }
}

impl OptimizationMetric {
    /// All metrics in Table 2 order.
    pub const ALL: [Self; 6] =
        [Self::Edp, Self::Edap, Self::Cdp, Self::Cep, Self::C2ep, Self::Ce2p];

    /// The four carbon-aware metrics ACT introduces.
    pub const CARBON_AWARE: [Self; 4] = [Self::Cdp, Self::Cep, Self::C2ep, Self::Ce2p];

    /// Evaluates the metric on a design point. Scores are products of base
    /// units (grams, joules, seconds, cm²); only ratios between designs are
    /// meaningful.
    #[must_use]
    pub fn score(&self, point: &DesignPoint) -> f64 {
        let c = point.embodied.as_grams();
        let e = point.energy.as_joules();
        let d = point.delay.as_seconds();
        let a = point.area.as_square_centimeters();
        match self {
            Self::Edp => e * d,
            Self::Edap => e * d * a,
            Self::Cdp => c * d,
            Self::Cep => c * e,
            Self::C2ep => c * c * e,
            Self::Ce2p => c * e * e,
        }
    }

    /// Table 2's use-case description.
    #[must_use]
    pub fn use_case(&self) -> &'static str {
        match self {
            Self::Edp => "energy optimization (e.g., mobile)",
            Self::Edap => "energy and cost optimization (e.g., mobile)",
            Self::Cdp => "balance CO2 and perf. (e.g., sustainable data center)",
            Self::Cep => "balance CO2 and energy (e.g., sustainable mobile device)",
            Self::C2ep => "sustainable device dominated by embodied footprint",
            Self::Ce2p => "sustainable device dominated by operational footprint",
        }
    }

    /// Index of the design with the lowest (best) score. Returns `None` for
    /// an empty slice or when every design scores NaN; designs with NaN
    /// scores are never selected.
    #[must_use]
    pub fn best<'a, I>(&self, designs: I) -> Option<usize>
    where
        I: IntoIterator<Item = &'a DesignPoint>,
    {
        designs
            .into_iter()
            .map(|p| self.score(p))
            .enumerate()
            .filter(|(_, score)| !score.is_nan())
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(i, _)| i)
    }
}

impl fmt::Display for OptimizationMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Self::Edp => "EDP",
            Self::Edap => "EDAP",
            Self::Cdp => "CDP",
            Self::Cep => "CEP",
            Self::C2ep => "C2EP",
            Self::Ce2p => "CE2P",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(c: f64, e: f64, d: f64, a: f64) -> DesignPoint {
        DesignPoint {
            embodied: MassCo2::grams(c),
            energy: Energy::joules(e),
            delay: TimeSpan::seconds(d),
            area: Area::square_centimeters(a),
        }
    }

    #[test]
    fn scores_are_the_advertised_products() {
        let p = point(2.0, 3.0, 5.0, 7.0);
        assert!((OptimizationMetric::Edp.score(&p) - 15.0).abs() < 1e-12);
        assert!((OptimizationMetric::Edap.score(&p) - 105.0).abs() < 1e-12);
        assert!((OptimizationMetric::Cdp.score(&p) - 10.0).abs() < 1e-12);
        assert!((OptimizationMetric::Cep.score(&p) - 6.0).abs() < 1e-12);
        assert!((OptimizationMetric::C2ep.score(&p) - 12.0).abs() < 1e-12);
        assert!((OptimizationMetric::Ce2p.score(&p) - 18.0).abs() < 1e-12);
    }

    #[test]
    fn carbon_weighting_orders_designs_differently() {
        // A lean, slow design vs an over-provisioned fast one.
        let lean = point(1.0, 2.0, 4.0, 0.5);
        let big = point(4.0, 1.0, 1.0, 2.0);
        // Pure performance metrics favor the big design...
        assert!(OptimizationMetric::Edp.score(&big) < OptimizationMetric::Edp.score(&lean));
        // ...while embodied-heavy metrics favor the lean one.
        assert!(OptimizationMetric::C2ep.score(&lean) < OptimizationMetric::C2ep.score(&big));
    }

    #[test]
    fn best_selects_minimum() {
        let designs =
            [point(1.0, 1.0, 1.0, 1.0), point(0.5, 1.0, 1.0, 1.0), point(2.0, 0.1, 1.0, 1.0)];
        assert_eq!(OptimizationMetric::Cdp.best(&designs), Some(1));
        assert_eq!(OptimizationMetric::Edp.best(&designs), Some(2));
        assert_eq!(OptimizationMetric::Cdp.best([].iter()), None);
    }

    #[test]
    fn best_skips_nan_scores_instead_of_panicking() {
        // A poisoned embodied value, produced by arithmetic rather than a
        // constructor (constructors debug-assert finiteness).
        let mut poisoned = point(1.0, 1.0, 1.0, 1.0);
        poisoned.embodied = MassCo2::ZERO / 0.0;
        assert!(OptimizationMetric::Cdp.score(&poisoned).is_nan());
        let designs = [poisoned, point(0.5, 1.0, 1.0, 1.0)];
        assert_eq!(OptimizationMetric::Cdp.best(&designs), Some(1));
        assert_eq!(OptimizationMetric::Cdp.best(&[poisoned]), None);
    }

    #[test]
    fn carbon_aware_partition() {
        let aware = OptimizationMetric::CARBON_AWARE;
        assert!(!aware.contains(&OptimizationMetric::Edp));
        assert!(!aware.contains(&OptimizationMetric::Edap));
        assert_eq!(aware.len() + 2, OptimizationMetric::ALL.len());
    }

    #[test]
    fn table2_use_cases_present() {
        for m in OptimizationMetric::ALL {
            assert!(!m.use_case().is_empty());
            assert!(!m.to_string().is_empty());
        }
        assert_eq!(OptimizationMetric::C2ep.to_string(), "C2EP");
    }
}
