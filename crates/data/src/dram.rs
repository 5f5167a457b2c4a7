//! Table 9: embodied carbon of DRAM technologies (SK hynix characterization).

use std::fmt;

use act_units::MassPerCapacity;

act_json::json_enum! {
    [ToJson, FromJson]
    /// A DRAM manufacturing technology with its embodied carbon per gigabyte
    /// (ACT Table 9).
    ///
    /// # Examples
    ///
    /// ```
    /// use act_data::DramTechnology;
    ///
    /// let modern = DramTechnology::Lpddr4;
    /// assert_eq!(modern.carbon_per_gb().as_grams_per_gb(), 48.0);
    /// assert!(modern.carbon_per_gb() < DramTechnology::Ddr3_50nm.carbon_per_gb());
    /// ```
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
    #[allow(non_camel_case_types)]
    pub enum DramTechnology {
        /// 50 nm DDR3 (600 g CO₂/GB) — the node legacy LCAs assume.
        Ddr3_50nm,
        /// 40 nm DDR3 (315 g CO₂/GB).
        Ddr3_40nm,
        /// 30 nm DDR3 (230 g CO₂/GB).
        Ddr3_30nm,
        /// 30 nm LPDDR3 (201 g CO₂/GB).
        Lpddr3_30nm,
        /// 20 nm LPDDR3 (184 g CO₂/GB).
        Lpddr3_20nm,
        /// 20 nm LPDDR2 (159 g CO₂/GB).
        Lpddr2_20nm,
        /// LPDDR4-class (48 g CO₂/GB).
        Lpddr4,
        /// 1x nm-class (10 nm) DDR4 (65 g CO₂/GB).
        Ddr4_10nm,
    }
}

/// Table 9 embodied carbon per gigabyte, g CO₂/GB, in
/// [`DramTechnology::ALL`] order.
const CPS_G_PER_GB: [f64; 8] = [600.0, 315.0, 230.0, 201.0, 184.0, 159.0, 48.0, 65.0];

// Compile-time audit of Table 9: every footprint is positive, and within
// the DDR3 family (rows 0–2) newer nodes are strictly cleaner per GB.
const _: () = {
    let mut i = 0;
    while i < CPS_G_PER_GB.len() {
        assert!(CPS_G_PER_GB[i] > 0.0, "Table 9: CPS must be positive");
        i += 1;
    }
    assert!(
        CPS_G_PER_GB[2] < CPS_G_PER_GB[1] && CPS_G_PER_GB[1] < CPS_G_PER_GB[0],
        "Table 9: DDR3 scaling must improve per-GB carbon"
    );
};

impl DramTechnology {
    /// All technologies in Table 9 order.
    pub const ALL: [Self; 8] = [
        Self::Ddr3_50nm,
        Self::Ddr3_40nm,
        Self::Ddr3_30nm,
        Self::Lpddr3_30nm,
        Self::Lpddr3_20nm,
        Self::Lpddr2_20nm,
        Self::Lpddr4,
        Self::Ddr4_10nm,
    ];

    /// Embodied carbon per gigabyte (Table 9).
    #[must_use]
    pub fn carbon_per_gb(self) -> MassPerCapacity {
        MassPerCapacity::grams_per_gb(CPS_G_PER_GB[self as usize])
    }
}

impl fmt::Display for DramTechnology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Self::Ddr3_50nm => "50nm DDR3",
            Self::Ddr3_40nm => "40nm DDR3",
            Self::Ddr3_30nm => "30nm DDR3",
            Self::Lpddr3_30nm => "30nm LPDDR3",
            Self::Lpddr3_20nm => "20nm LPDDR3",
            Self::Lpddr2_20nm => "20nm LPDDR2",
            Self::Lpddr4 => "LPDDR4",
            Self::Ddr4_10nm => "10nm DDR4",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table9_values_match_paper() {
        let expect = [
            (DramTechnology::Ddr3_50nm, 600.0),
            (DramTechnology::Ddr3_40nm, 315.0),
            (DramTechnology::Ddr3_30nm, 230.0),
            (DramTechnology::Lpddr3_30nm, 201.0),
            (DramTechnology::Lpddr3_20nm, 184.0),
            (DramTechnology::Lpddr2_20nm, 159.0),
            (DramTechnology::Lpddr4, 48.0),
            (DramTechnology::Ddr4_10nm, 65.0),
        ];
        for (tech, g) in expect {
            assert_eq!(tech.carbon_per_gb().as_grams_per_gb(), g, "{tech}");
        }
    }

    #[test]
    fn ddr3_scaling_monotonically_improves() {
        // Within the DDR3 family, newer nodes are strictly cleaner per GB.
        assert!(
            DramTechnology::Ddr3_40nm.carbon_per_gb()
                < DramTechnology::Ddr3_50nm.carbon_per_gb()
        );
        assert!(
            DramTechnology::Ddr3_30nm.carbon_per_gb()
                < DramTechnology::Ddr3_40nm.carbon_per_gb()
        );
    }

    #[test]
    fn modern_parts_are_an_order_cleaner_than_50nm() {
        let legacy = DramTechnology::Ddr3_50nm.carbon_per_gb();
        assert!(legacy.ratio(DramTechnology::Lpddr4.carbon_per_gb()) > 10.0);
        assert!(legacy.ratio(DramTechnology::Ddr4_10nm.carbon_per_gb()) > 9.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(DramTechnology::Lpddr4.to_string(), "LPDDR4");
        assert_eq!(DramTechnology::Ddr3_50nm.to_string(), "50nm DDR3");
    }
}
