//! Table 5: carbon efficiency of energy-generation sources.

use std::fmt;

use act_units::CarbonIntensity;

act_json::json_enum! {
    [ToJson]
    /// An electricity-generation source with its average carbon intensity and
    /// energy-payback time, as tabulated in ACT's Table 5.
    ///
    /// # Examples
    ///
    /// ```
    /// use act_data::EnergySource;
    ///
    /// let wind = EnergySource::Wind;
    /// assert_eq!(wind.carbon_intensity().as_grams_per_kwh(), 11.0);
    /// assert!(wind.carbon_intensity() < EnergySource::Coal.carbon_intensity());
    /// ```
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub enum EnergySource {
        /// Coal-fired generation (820 g CO₂/kWh).
        Coal,
        /// Natural-gas generation (490 g CO₂/kWh).
        Gas,
        /// Biomass generation (230 g CO₂/kWh).
        Biomass,
        /// Photovoltaic solar (41 g CO₂/kWh).
        Solar,
        /// Geothermal (38 g CO₂/kWh).
        Geothermal,
        /// Hydropower (24 g CO₂/kWh).
        Hydropower,
        /// Nuclear (12 g CO₂/kWh).
        Nuclear,
        /// Onshore/offshore wind (11 g CO₂/kWh).
        Wind,
    }
}

/// Table 5 average carbon intensity, g CO₂/kWh, in [`EnergySource::ALL`]
/// order (dirtiest first).
const CI_G_PER_KWH: [f64; 8] = [820.0, 490.0, 230.0, 41.0, 38.0, 24.0, 12.0, 11.0];

/// Table 5 typical energy-payback time, months, in [`EnergySource::ALL`]
/// order. Ranges in the paper are represented by their midpoint; "≤ 12"
/// by 12.
const PAYBACK_MONTHS: [f64; 8] = [2.0, 1.0, 12.0, 36.0, 72.0, 24.0, 2.0, 12.0];

// Compile-time audit of Table 5: intensities positive and sorted dirtiest
// first (the ordering the figures and blending helpers rely on), payback
// times positive.
const _: () = {
    let mut i = 0;
    while i < CI_G_PER_KWH.len() {
        assert!(CI_G_PER_KWH[i] > 0.0, "Table 5: carbon intensity must be positive");
        assert!(PAYBACK_MONTHS[i] > 0.0, "Table 5: payback time must be positive");
        if i > 0 {
            assert!(
                CI_G_PER_KWH[i - 1] >= CI_G_PER_KWH[i],
                "Table 5: sources must be ordered dirtiest first"
            );
        }
        i += 1;
    }
};

impl EnergySource {
    /// All sources in Table 5 order (dirtiest first).
    pub const ALL: [Self; 8] = [
        Self::Coal,
        Self::Gas,
        Self::Biomass,
        Self::Solar,
        Self::Geothermal,
        Self::Hydropower,
        Self::Nuclear,
        Self::Wind,
    ];

    /// Average carbon intensity of this source (Table 5).
    #[must_use]
    pub fn carbon_intensity(self) -> CarbonIntensity {
        CarbonIntensity::grams_per_kwh(CI_G_PER_KWH[self as usize])
    }

    /// Typical energy-payback time in months (Table 5). Ranges in the paper
    /// are represented by their midpoint; "≤ 12" by 12.
    #[must_use]
    pub fn energy_payback_months(self) -> f64 {
        PAYBACK_MONTHS[self as usize]
    }
}

impl fmt::Display for EnergySource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Self::Coal => "coal",
            Self::Gas => "gas",
            Self::Biomass => "biomass",
            Self::Solar => "solar",
            Self::Geothermal => "geothermal",
            Self::Hydropower => "hydropower",
            Self::Nuclear => "nuclear",
            Self::Wind => "wind",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_values_match_paper() {
        let expect = [
            (EnergySource::Coal, 820.0),
            (EnergySource::Gas, 490.0),
            (EnergySource::Biomass, 230.0),
            (EnergySource::Solar, 41.0),
            (EnergySource::Geothermal, 38.0),
            (EnergySource::Hydropower, 24.0),
            (EnergySource::Nuclear, 12.0),
            (EnergySource::Wind, 11.0),
        ];
        for (source, g) in expect {
            assert_eq!(source.carbon_intensity().as_grams_per_kwh(), g, "{source}");
        }
    }

    #[test]
    fn ordering_is_dirtiest_first() {
        let all = EnergySource::ALL;
        for pair in all.windows(2) {
            assert!(
                pair[0].carbon_intensity() >= pair[1].carbon_intensity(),
                "{} should be at least as dirty as {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn renewables_are_cleaner_than_fossil() {
        use EnergySource::{Biomass, Gas, Geothermal, Hydropower, Solar, Wind};
        for source in [Solar, Geothermal, Hydropower, Wind, Biomass] {
            assert!(source.carbon_intensity() < Gas.carbon_intensity());
        }
    }

    #[test]
    fn payback_times_positive() {
        for source in EnergySource::ALL {
            assert!(source.energy_payback_months() > 0.0);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(EnergySource::Solar.to_string(), "solar");
        assert_eq!(EnergySource::Hydropower.to_string(), "hydropower");
    }
}
