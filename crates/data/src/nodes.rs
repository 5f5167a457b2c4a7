//! Tables 7 and 8: per-node fab energy (`EPA`), fab gas emissions (`GPA`)
//! under different abatement strategies, and raw-material carbon (`MPA`).

use std::fmt;
use std::str::FromStr;

use act_units::{EnergyPerArea, MassPerArea};

/// Raw-material procurement footprint per wafer area (Table 8): 500 g CO₂/cm².
pub const MPA: MassPerArea = MassPerArea::grams_per_cm2(500.0);

act_json::json_enum! {
    [ToJson, FromJson]
    /// A logic process technology node covered by ACT's fab characterization
    /// (Table 7, 28 nm down to 3 nm, from imec's IEDM 2020 DTCO study).
    ///
    /// # Examples
    ///
    /// ```
    /// use act_data::{Abatement, ProcessNode};
    ///
    /// let n7 = ProcessNode::N7Euv;
    /// assert_eq!(n7.energy_per_area().as_kwh_per_cm2(), 2.15);
    /// assert_eq!(n7.gas_per_area(Abatement::Percent99).as_grams_per_cm2(), 200.0);
    /// // 16 nm-class designs map onto the 14 nm characterization.
    /// assert_eq!(ProcessNode::from_nanometers(16), ProcessNode::N14);
    /// ```
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub enum ProcessNode {
        /// 28 nm planar.
        N28,
        /// 20 nm planar.
        N20,
        /// 14 nm FinFET (also used for 16 nm-class designs).
        N14,
        /// 10 nm FinFET (also used for 8 nm-class designs).
        N10,
        /// 7 nm FinFET, immersion lithography.
        N7,
        /// 7 nm FinFET with EUV.
        N7Euv,
        /// 7 nm FinFET with EUV double patterning.
        N7EuvDp,
        /// 5 nm.
        N5,
        /// 3 nm.
        N3,
    }
}

act_json::json_enum! {
    [ToJson, FromJson]
    /// Fab gaseous-abatement effectiveness. Table 7 tabulates the 95 % and 99 %
    /// columns; 97 % — the level TSMC reports — is linearly interpolated and is
    /// ACT's default.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
    pub enum Abatement {
        /// 95 % of fab gases abated (upper-bound emissions).
        Percent95,
        /// 97 % abated — TSMC's reported effectiveness, the model default.
        #[default]
        Percent97,
        /// 99 % abated (lower-bound emissions).
        Percent99,
    }
}

/// Table 7 fab energy per area (`EPA`), kWh/cm², in [`ProcessNode::ALL`]
/// order.
const EPA_KWH_PER_CM2: [f64; 9] = [0.9, 1.2, 1.2, 1.475, 1.52, 2.15, 2.15, 2.75, 2.75];

/// Table 7 fab gas emissions per area (`GPA`), g CO₂/cm², as
/// `(95 % abated, 99 % abated)` bounds, in [`ProcessNode::ALL`] order.
const GPA_G_PER_CM2: [(f64, f64); 9] = [
    (175.0, 100.0),
    (190.0, 110.0),
    (200.0, 125.0),
    (240.0, 150.0),
    (350.0, 200.0),
    (350.0, 200.0),
    (350.0, 200.0),
    (430.0, 225.0),
    (470.0, 275.0),
];

// Compile-time audit of the Table 7 characterization: fab energy and gas
// footprints must be positive, better abatement must strictly lower
// emissions, and both must grow monotonically toward newer nodes (the
// paper's central "newer nodes cost more embodied carbon" trend). A typo in
// the constants above fails the build rather than skewing every figure.
const _: () = {
    let mut i = 0;
    while i < EPA_KWH_PER_CM2.len() {
        assert!(EPA_KWH_PER_CM2[i] > 0.0, "Table 7: EPA must be positive");
        let (g95, g99) = GPA_G_PER_CM2[i];
        assert!(g99 > 0.0, "Table 7: GPA must be positive");
        assert!(g99 < g95, "Table 7: 99% abatement must beat 95%");
        if i > 0 {
            assert!(
                EPA_KWH_PER_CM2[i - 1] <= EPA_KWH_PER_CM2[i],
                "Table 7: EPA must be monotone toward newer nodes"
            );
            assert!(
                GPA_G_PER_CM2[i - 1].0 <= g95 && GPA_G_PER_CM2[i - 1].1 <= g99,
                "Table 7: GPA must be monotone toward newer nodes"
            );
        }
        i += 1;
    }
    assert!(MPA.as_grams_per_cm2() > 0.0, "Table 8: MPA must be positive");
};

impl ProcessNode {
    /// All nodes in Table 7 order (oldest first).
    pub const ALL: [Self; 9] = [
        Self::N28,
        Self::N20,
        Self::N14,
        Self::N10,
        Self::N7,
        Self::N7Euv,
        Self::N7EuvDp,
        Self::N5,
        Self::N3,
    ];

    /// Position in [`Self::ALL`] / the Table 7 row order.
    const fn row(self) -> usize {
        self as usize
    }

    /// Fab energy consumed per manufactured area, `EPA` (Table 7).
    #[must_use]
    pub fn energy_per_area(self) -> EnergyPerArea {
        EnergyPerArea::kwh_per_cm2(EPA_KWH_PER_CM2[self.row()])
    }

    /// Fab gas/chemical emissions per manufactured area, `GPA` (Table 7),
    /// under the given abatement strategy.
    #[must_use]
    pub fn gas_per_area(self, abatement: Abatement) -> MassPerArea {
        let (abated95, abated99) = GPA_G_PER_CM2[self.row()];
        let g_per_cm2 = match abatement {
            Abatement::Percent95 => abated95,
            Abatement::Percent97 => (abated95 + abated99) / 2.0,
            Abatement::Percent99 => abated99,
        };
        MassPerArea::grams_per_cm2(g_per_cm2)
    }

    /// Raw-material procurement footprint per area, `MPA` (Table 8). The
    /// characterization is node-independent.
    #[must_use]
    pub fn materials_per_area(self) -> MassPerArea {
        MPA
    }

    /// Nominal feature size in nanometers. EUV 7 nm variants all report 7.
    #[must_use]
    pub fn nanometers(self) -> u32 {
        match self {
            Self::N28 => 28,
            Self::N20 => 20,
            Self::N14 => 14,
            Self::N10 => 10,
            Self::N7 | Self::N7Euv | Self::N7EuvDp => 7,
            Self::N5 => 5,
            Self::N3 => 3,
        }
    }

    /// Maps an arbitrary nominal feature size onto the closest characterized
    /// node (rounding toward the older node for in-between classes, e.g.
    /// 16 nm → [`ProcessNode::N14`], 8 nm → [`ProcessNode::N10`]).
    #[must_use]
    pub fn from_nanometers(nm: u32) -> Self {
        match nm {
            0..=4 => Self::N3,
            5..=6 => Self::N5,
            7 => Self::N7Euv,
            8..=9 => Self::N10,
            10..=13 => Self::N10,
            14..=17 => Self::N14,
            18..=24 => Self::N20,
            _ => Self::N28,
        }
    }
}

impl fmt::Display for ProcessNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Self::N28 => "28nm",
            Self::N20 => "20nm",
            Self::N14 => "14nm",
            Self::N10 => "10nm",
            Self::N7 => "7nm",
            Self::N7Euv => "7nm-EUV",
            Self::N7EuvDp => "7nm-EUV-DP",
            Self::N5 => "5nm",
            Self::N3 => "3nm",
        };
        f.write_str(name)
    }
}

/// Error returned when parsing an unknown process-node name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeParseError {
    input: String,
}

impl fmt::Display for NodeParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown process node `{}`", self.input)
    }
}

impl std::error::Error for NodeParseError {}

impl FromStr for ProcessNode {
    type Err = NodeParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let normalized = s.trim().to_ascii_lowercase();
        let node = match normalized.as_str() {
            "28" | "28nm" => Self::N28,
            "20" | "20nm" => Self::N20,
            "14" | "14nm" | "16" | "16nm" => Self::N14,
            "10" | "10nm" => Self::N10,
            "7" | "7nm" => Self::N7,
            "7euv" | "7nm-euv" | "7-euv" => Self::N7Euv,
            "7euvdp" | "7nm-euv-dp" | "7-euv-dp" => Self::N7EuvDp,
            "5" | "5nm" => Self::N5,
            "3" | "3nm" => Self::N3,
            _ => return Err(NodeParseError { input: s.to_owned() }),
        };
        Ok(node)
    }
}

impl Abatement {
    /// All abatement levels, least effective first.
    pub const ALL: [Self; 3] = [Self::Percent95, Self::Percent97, Self::Percent99];

    /// The abated share as a percentage.
    #[must_use]
    pub fn percent(self) -> f64 {
        match self {
            Self::Percent95 => 95.0,
            Self::Percent97 => 97.0,
            Self::Percent99 => 99.0,
        }
    }
}

impl fmt::Display for Abatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}% abated", self.percent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table7_epa_matches_paper() {
        let expect = [
            (ProcessNode::N28, 0.9),
            (ProcessNode::N20, 1.2),
            (ProcessNode::N14, 1.2),
            (ProcessNode::N10, 1.475),
            (ProcessNode::N7, 1.52),
            (ProcessNode::N7Euv, 2.15),
            (ProcessNode::N7EuvDp, 2.15),
            (ProcessNode::N5, 2.75),
            (ProcessNode::N3, 2.75),
        ];
        for (node, kwh) in expect {
            assert_eq!(node.energy_per_area().as_kwh_per_cm2(), kwh, "{node}");
        }
    }

    #[test]
    fn table7_gpa_matches_paper() {
        let expect = [
            (ProcessNode::N28, 175.0, 100.0),
            (ProcessNode::N20, 190.0, 110.0),
            (ProcessNode::N14, 200.0, 125.0),
            (ProcessNode::N10, 240.0, 150.0),
            (ProcessNode::N7, 350.0, 200.0),
            (ProcessNode::N7Euv, 350.0, 200.0),
            (ProcessNode::N7EuvDp, 350.0, 200.0),
            (ProcessNode::N5, 430.0, 225.0),
            (ProcessNode::N3, 470.0, 275.0),
        ];
        for (node, g95, g99) in expect {
            assert_eq!(node.gas_per_area(Abatement::Percent95).as_grams_per_cm2(), g95);
            assert_eq!(node.gas_per_area(Abatement::Percent99).as_grams_per_cm2(), g99);
            let g97 = node.gas_per_area(Abatement::Percent97).as_grams_per_cm2();
            assert!(g99 < g97 && g97 < g95, "{node}: 97% must sit between bounds");
        }
    }

    #[test]
    fn epa_rises_with_newer_nodes() {
        for pair in ProcessNode::ALL.windows(2) {
            assert!(
                pair[0].energy_per_area() <= pair[1].energy_per_area(),
                "{} -> {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn gpa_rises_with_newer_nodes() {
        for abatement in Abatement::ALL {
            for pair in ProcessNode::ALL.windows(2) {
                assert!(pair[0].gas_per_area(abatement) <= pair[1].gas_per_area(abatement));
            }
        }
    }

    #[test]
    fn better_abatement_lowers_gpa() {
        for node in ProcessNode::ALL {
            assert!(
                node.gas_per_area(Abatement::Percent99)
                    < node.gas_per_area(Abatement::Percent95)
            );
        }
    }

    #[test]
    fn mpa_is_table8() {
        assert_eq!(MPA.as_grams_per_cm2(), 500.0);
        assert_eq!(ProcessNode::N7.materials_per_area(), MPA);
    }

    #[test]
    fn nm_mapping_round_trips_characterized_nodes() {
        for node in [ProcessNode::N28, ProcessNode::N20, ProcessNode::N14, ProcessNode::N10] {
            assert_eq!(ProcessNode::from_nanometers(node.nanometers()), node);
        }
        assert_eq!(ProcessNode::from_nanometers(7), ProcessNode::N7Euv);
        assert_eq!(ProcessNode::from_nanometers(16), ProcessNode::N14);
        assert_eq!(ProcessNode::from_nanometers(8), ProcessNode::N10);
        assert_eq!(ProcessNode::from_nanometers(5), ProcessNode::N5);
        assert_eq!(ProcessNode::from_nanometers(3), ProcessNode::N3);
        assert_eq!(ProcessNode::from_nanometers(65), ProcessNode::N28);
    }

    #[test]
    fn parse_from_str() {
        assert_eq!("7nm".parse::<ProcessNode>().unwrap(), ProcessNode::N7);
        assert_eq!(" 16NM ".parse::<ProcessNode>().unwrap(), ProcessNode::N14);
        assert_eq!("7euv".parse::<ProcessNode>().unwrap(), ProcessNode::N7Euv);
        let err = "90nm".parse::<ProcessNode>().unwrap_err();
        assert!(err.to_string().contains("90nm"));
    }

    #[test]
    fn display_and_abatement_labels() {
        assert_eq!(ProcessNode::N7EuvDp.to_string(), "7nm-EUV-DP");
        assert_eq!(Abatement::Percent97.to_string(), "97% abated");
        assert_eq!(Abatement::default(), Abatement::Percent97);
    }
}
