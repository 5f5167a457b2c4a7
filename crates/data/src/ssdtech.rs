//! Table 10: embodied carbon of SSD/NAND storage technologies.

use std::fmt;

use act_units::MassPerCapacity;

act_json::json_enum! {
    [ToJson, FromJson]
    /// An SSD/NAND manufacturing technology or characterized product with its
    /// embodied carbon per gigabyte (ACT Table 10).
    ///
    /// Entries come from two characterization styles: device-level semiconductor
    /// data (the NAND nodes) and component-level vendor reports (Western Digital
    /// and Seagate Nytro lines).
    ///
    /// # Examples
    ///
    /// ```
    /// use act_data::SsdTechnology;
    ///
    /// let v3 = SsdTechnology::V3NandTlc;
    /// assert_eq!(v3.carbon_per_gb().as_grams_per_gb(), 6.3);
    /// assert!(v3.is_device_level());
    /// ```
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub enum SsdTechnology {
        /// 30 nm planar NAND (30 g CO₂/GB).
        Nand30nm,
        /// 20 nm planar NAND (15 g CO₂/GB).
        Nand20nm,
        /// 10 nm-class planar NAND (10 g CO₂/GB).
        Nand10nm,
        /// 1z nm NAND TLC (5.6 g CO₂/GB).
        Nand1zTlc,
        /// V3 (3D) NAND TLC (6.3 g CO₂/GB) — ACT's modern-node reference.
        V3NandTlc,
        /// Western Digital 2016 fleet average (24.4 g CO₂/GB).
        WesternDigital2016,
        /// Western Digital 2017 fleet average (17.9 g CO₂/GB).
        WesternDigital2017,
        /// Western Digital 2018 fleet average (12.5 g CO₂/GB).
        WesternDigital2018,
        /// Western Digital 2019 fleet average (10.7 g CO₂/GB).
        WesternDigital2019,
        /// Seagate Nytro 1551 (3.95 g CO₂/GB).
        Nytro1551,
        /// Seagate Nytro 3530 (6.21 g CO₂/GB).
        Nytro3530,
        /// Seagate Nytro 3331 (16.92 g CO₂/GB).
        Nytro3331,
    }
}

/// Table 10 embodied carbon per gigabyte, g CO₂/GB, in
/// [`SsdTechnology::ALL`] order.
const CPS_G_PER_GB: [f64; 12] =
    [30.0, 15.0, 10.0, 5.6, 6.3, 24.4, 17.9, 12.5, 10.7, 3.95, 6.21, 16.92];

// Compile-time audit of Table 10: every footprint is positive, planar NAND
// scaling (rows 0–2) strictly improves per GB, and the Western Digital
// fleet (rows 5–8) improves year over year.
const _: () = {
    let mut i = 0;
    while i < CPS_G_PER_GB.len() {
        assert!(CPS_G_PER_GB[i] > 0.0, "Table 10: CPS must be positive");
        i += 1;
    }
    assert!(
        CPS_G_PER_GB[2] < CPS_G_PER_GB[1] && CPS_G_PER_GB[1] < CPS_G_PER_GB[0],
        "Table 10: planar NAND scaling must improve per-GB carbon"
    );
    let mut y = 5;
    while y < 8 {
        assert!(
            CPS_G_PER_GB[y + 1] < CPS_G_PER_GB[y],
            "Table 10: WD fleet must improve year over year"
        );
        y += 1;
    }
};

impl SsdTechnology {
    /// All entries in Table 10 order.
    pub const ALL: [Self; 12] = [
        Self::Nand30nm,
        Self::Nand20nm,
        Self::Nand10nm,
        Self::Nand1zTlc,
        Self::V3NandTlc,
        Self::WesternDigital2016,
        Self::WesternDigital2017,
        Self::WesternDigital2018,
        Self::WesternDigital2019,
        Self::Nytro1551,
        Self::Nytro3530,
        Self::Nytro3331,
    ];

    /// Embodied carbon per gigabyte (Table 10).
    #[must_use]
    pub fn carbon_per_gb(self) -> MassPerCapacity {
        MassPerCapacity::grams_per_gb(CPS_G_PER_GB[self as usize])
    }

    /// `true` for device-level semiconductor characterization (the black bars
    /// of Figure 7), `false` for component-level vendor analyses (grey bars).
    #[must_use]
    pub fn is_device_level(self) -> bool {
        matches!(
            self,
            Self::Nand30nm
                | Self::Nand20nm
                | Self::Nand10nm
                | Self::Nand1zTlc
                | Self::V3NandTlc
        )
    }
}

impl fmt::Display for SsdTechnology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Self::Nand30nm => "30nm NAND",
            Self::Nand20nm => "20nm NAND",
            Self::Nand10nm => "10nm NAND",
            Self::Nand1zTlc => "1z NAND TLC",
            Self::V3NandTlc => "V3 NAND TLC",
            Self::WesternDigital2016 => "Western Digital 2016",
            Self::WesternDigital2017 => "Western Digital 2017",
            Self::WesternDigital2018 => "Western Digital 2018",
            Self::WesternDigital2019 => "Western Digital 2019",
            Self::Nytro1551 => "Seagate Nytro 1551",
            Self::Nytro3530 => "Seagate Nytro 3530",
            Self::Nytro3331 => "Seagate Nytro 3331",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table10_values_match_paper() {
        let expect = [
            (SsdTechnology::Nand30nm, 30.0),
            (SsdTechnology::Nand20nm, 15.0),
            (SsdTechnology::Nand10nm, 10.0),
            (SsdTechnology::Nand1zTlc, 5.6),
            (SsdTechnology::V3NandTlc, 6.3),
            (SsdTechnology::WesternDigital2016, 24.4),
            (SsdTechnology::WesternDigital2017, 17.9),
            (SsdTechnology::WesternDigital2018, 12.5),
            (SsdTechnology::WesternDigital2019, 10.7),
            (SsdTechnology::Nytro1551, 3.95),
            (SsdTechnology::Nytro3530, 6.21),
            (SsdTechnology::Nytro3331, 16.92),
        ];
        for (tech, g) in expect {
            assert_eq!(tech.carbon_per_gb().as_grams_per_gb(), g, "{tech}");
        }
    }

    #[test]
    fn planar_nand_scaling_improves_per_gb() {
        assert!(
            SsdTechnology::Nand20nm.carbon_per_gb() < SsdTechnology::Nand30nm.carbon_per_gb()
        );
        assert!(
            SsdTechnology::Nand10nm.carbon_per_gb() < SsdTechnology::Nand20nm.carbon_per_gb()
        );
    }

    #[test]
    fn wd_fleet_improves_year_over_year() {
        let wd = [
            SsdTechnology::WesternDigital2016,
            SsdTechnology::WesternDigital2017,
            SsdTechnology::WesternDigital2018,
            SsdTechnology::WesternDigital2019,
        ];
        for pair in wd.windows(2) {
            assert!(pair[1].carbon_per_gb() < pair[0].carbon_per_gb());
        }
    }

    #[test]
    fn device_level_partition() {
        let device = SsdTechnology::ALL.iter().filter(|t| t.is_device_level()).count();
        assert_eq!(device, 5);
    }
}
