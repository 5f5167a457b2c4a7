//! Table 11: embodied carbon of Seagate HDD products.

use std::fmt;

use act_units::MassPerCapacity;

act_json::json_enum! {
    [ToJson]
    /// Market segment of an HDD product line.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    pub enum HddClass {
        /// Consumer drives (BarraCuda, FireCuda).
        Consumer,
        /// Enterprise drives (Exos).
        Enterprise,
    }
}

act_json::json_enum! {
    [ToJson, FromJson]
    /// A Seagate HDD product with its embodied carbon per gigabyte (ACT Table 11,
    /// from Seagate product sustainability reports).
    ///
    /// # Examples
    ///
    /// ```
    /// use act_data::{HddClass, HddModel};
    ///
    /// let exos = HddModel::ExosX12;
    /// assert_eq!(exos.class(), HddClass::Enterprise);
    /// assert_eq!(exos.carbon_per_gb().as_grams_per_gb(), 1.14);
    /// ```
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub enum HddModel {
        /// BarraCuda 3.5" (4.57 g CO₂/GB).
        BarraCuda,
        /// BarraCuda 2.5" (10.32 g CO₂/GB).
        BarraCuda2,
        /// BarraCuda Pro (2.35 g CO₂/GB).
        BarraCudaPro,
        /// FireCuda (5.1 g CO₂/GB).
        FireCuda,
        /// FireCuda 3.5" (9.1 g CO₂/GB).
        FireCuda2,
        /// Exos 2X14 (1.65 g CO₂/GB).
        Exos2x14,
        /// Exos X12 (1.14 g CO₂/GB).
        ExosX12,
        /// Exos X16 (1.33 g CO₂/GB).
        ExosX16,
        /// Exos 15E900 (20.5 g CO₂/GB).
        Exos15e900,
        /// Exos 10E2400 (10.3 g CO₂/GB).
        Exos10e2400,
    }
}

/// Table 11 embodied carbon per gigabyte, g CO₂/GB, in [`HddModel::ALL`]
/// order.
const CPS_G_PER_GB: [f64; 10] = [4.57, 10.32, 2.35, 5.1, 9.1, 1.65, 1.14, 1.33, 20.5, 10.3];

// Compile-time audit of Table 11: every per-GB footprint is positive.
const _: () = {
    let mut i = 0;
    while i < CPS_G_PER_GB.len() {
        assert!(CPS_G_PER_GB[i] > 0.0, "Table 11: CPS must be positive");
        i += 1;
    }
};

impl HddModel {
    /// All models in Table 11 order.
    pub const ALL: [Self; 10] = [
        Self::BarraCuda,
        Self::BarraCuda2,
        Self::BarraCudaPro,
        Self::FireCuda,
        Self::FireCuda2,
        Self::Exos2x14,
        Self::ExosX12,
        Self::ExosX16,
        Self::Exos15e900,
        Self::Exos10e2400,
    ];

    /// Embodied carbon per gigabyte (Table 11).
    #[must_use]
    pub fn carbon_per_gb(self) -> MassPerCapacity {
        MassPerCapacity::grams_per_gb(CPS_G_PER_GB[self as usize])
    }

    /// Market segment (Table 11's "Type" column).
    #[must_use]
    pub fn class(self) -> HddClass {
        match self {
            Self::BarraCuda
            | Self::BarraCuda2
            | Self::BarraCudaPro
            | Self::FireCuda
            | Self::FireCuda2 => HddClass::Consumer,
            Self::Exos2x14
            | Self::ExosX12
            | Self::ExosX16
            | Self::Exos15e900
            | Self::Exos10e2400 => HddClass::Enterprise,
        }
    }
}

impl fmt::Display for HddModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Self::BarraCuda => "BarraCuda",
            Self::BarraCuda2 => "BarraCuda2",
            Self::BarraCudaPro => "BarraCuda Pro",
            Self::FireCuda => "FireCuda",
            Self::FireCuda2 => "FireCuda 2",
            Self::Exos2x14 => "Exos2x14",
            Self::ExosX12 => "Exosx12",
            Self::ExosX16 => "Exosx16",
            Self::Exos15e900 => "Exos15e900",
            Self::Exos10e2400 => "Exos10e2400",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table11_values_match_paper() {
        let expect = [
            (HddModel::BarraCuda, 4.57),
            (HddModel::BarraCuda2, 10.32),
            (HddModel::BarraCudaPro, 2.35),
            (HddModel::FireCuda, 5.1),
            (HddModel::FireCuda2, 9.1),
            (HddModel::Exos2x14, 1.65),
            (HddModel::ExosX12, 1.14),
            (HddModel::ExosX16, 1.33),
            (HddModel::Exos15e900, 20.5),
            (HddModel::Exos10e2400, 10.3),
        ];
        for (model, g) in expect {
            assert_eq!(model.carbon_per_gb().as_grams_per_gb(), g, "{model}");
        }
    }

    #[test]
    fn class_assignment_matches_table() {
        assert_eq!(HddModel::BarraCuda.class(), HddClass::Consumer);
        assert_eq!(HddModel::FireCuda2.class(), HddClass::Consumer);
        assert_eq!(HddModel::ExosX16.class(), HddClass::Enterprise);
        assert_eq!(HddModel::Exos10e2400.class(), HddClass::Enterprise);
    }

    #[test]
    fn high_capacity_enterprise_is_cleanest_per_gb() {
        // The helium-era Exos X drives amortize mechanics over huge capacity.
        let min = HddModel::ALL
            .iter()
            .min_by(|a, b| a.carbon_per_gb().total_cmp(&b.carbon_per_gb()))
            .copied()
            .unwrap();
        assert_eq!(min, HddModel::ExosX12);
    }
}
