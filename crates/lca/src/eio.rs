//! Economic input-output LCA emulation: carbon from dollars.

use act_units::MassCo2;

act_json::json_struct! {
    [ToJson]
    /// An EIO-LCA-style estimator: emissions are the product of a component's
    /// economic cost and an industry-wide carbon-per-dollar factor.
    ///
    /// The paper criticizes this methodology — component prices move for
    /// non-environmental reasons, and a single sector factor cannot distinguish
    /// a 7 nm SoC from a 28 nm microcontroller — but it is the baseline that
    /// several published electronics LCAs rest on, so it is reproduced here.
    ///
    /// # Examples
    ///
    /// ```
    /// use act_lca::EioLca;
    ///
    /// let eio = EioLca::semiconductor_sector();
    /// let soc = eio.estimate(50.0);
    /// let pricier_soc = eio.estimate(100.0);
    /// // Doubling the price doubles the "footprint" — price, not physics.
    /// assert!((pricier_soc / soc - 2.0).abs() < 1e-12);
    /// ```
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct EioLca {
        kg_co2_per_dollar: f64,
    }
}

impl EioLca {
    /// An estimator with an explicit sector factor (kg CO₂ per US dollar).
    ///
    /// # Panics
    ///
    /// Panics if the factor is not positive.
    #[must_use]
    pub fn new(kg_co2_per_dollar: f64) -> Self {
        assert!(kg_co2_per_dollar > 0.0, "sector factor must be positive");
        Self { kg_co2_per_dollar }
    }

    /// The semiconductor-sector average factor used by EIO-LCA-style tools
    /// for electronics (~0.45 kg CO₂ per dollar of component cost).
    #[must_use]
    pub fn semiconductor_sector() -> Self {
        Self::new(0.45)
    }

    /// Estimated footprint of a component costing `dollars`.
    ///
    /// # Panics
    ///
    /// Panics if `dollars` is negative.
    #[must_use]
    pub fn estimate(&self, dollars: f64) -> MassCo2 {
        assert!(dollars >= 0.0, "cost cannot be negative");
        MassCo2::kilograms(self.kg_co2_per_dollar * dollars)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_scales_linearly_with_price() {
        let eio = EioLca::new(0.5);
        assert!((eio.estimate(10.0).as_kilograms() - 5.0).abs() < 1e-12);
        assert_eq!(eio.estimate(0.0), MassCo2::ZERO);
    }

    #[test]
    fn cannot_distinguish_nodes() {
        // The methodological flaw ACT fixes: same price, same "footprint",
        // regardless of manufacturing reality.
        let eio = EioLca::semiconductor_sector();
        let soc_7nm = eio.estimate(80.0);
        let mcu_28nm = eio.estimate(80.0);
        assert_eq!(soc_7nm, mcu_28nm);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_factor_rejected() {
        let _ = EioLca::new(0.0);
    }

    #[test]
    #[should_panic(expected = "cannot be negative")]
    fn negative_cost_rejected() {
        let _ = EioLca::semiconductor_sector().estimate(-1.0);
    }
}
