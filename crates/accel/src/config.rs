//! Accelerator hardware configuration and its area model.

use act_data::ProcessNode;
use act_units::Area;

use crate::layer::Network;
use crate::perf::Evaluation;

/// Feature size the area/energy constants are calibrated at (the paper's
/// 16 nm NVDLA).
const BASE_NM: f64 = 16.0;

/// Fixed controller/buffer/IO block at 16 nm, mm².
const FIXED_AREA_MM2: f64 = 0.5;

/// Per-MAC datapath + SRAM area at 16 nm, mm².
const MAC_AREA_MM2: f64 = 0.95e-3;

/// Exponent for per-MAC area scaling with feature size (logic scales
/// slightly sub-quadratically once SRAM is included).
const MAC_SCALING_EXP: f64 = 1.8;

/// Exponent for fixed-block scaling (IO and analog barely scale).
const FIXED_SCALING_EXP: f64 = 0.6;

act_json::json_struct! {
    [ToJson]
    /// An NVDLA-like accelerator configuration: MAC-array width, process node
    /// and clock.
    ///
    /// # Examples
    ///
    /// ```
    /// use act_accel::AccelConfig;
    ///
    /// let nvdla_large = AccelConfig::new(2048);
    /// let in_28nm = AccelConfig::new(2048).with_nanometers(28);
    /// assert!(in_28nm.area() > nvdla_large.area());
    /// ```
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct AccelConfig {
        macs: u32,
        nanometers: u32,
        frequency_ghz: f64,
    }
}

impl AccelConfig {
    /// A 16 nm configuration at the 500 MHz the study assumes.
    ///
    /// # Panics
    ///
    /// Panics if `macs` is zero.
    #[must_use]
    pub fn new(macs: u32) -> Self {
        assert!(macs > 0, "an accelerator needs at least one MAC");
        Self { macs, nanometers: 16, frequency_ghz: 0.5 }
    }

    /// Re-targets the configuration to another feature size (e.g. 28 nm for
    /// Figure 13's technology comparison).
    ///
    /// # Panics
    ///
    /// Panics if `nanometers` is zero.
    #[must_use]
    pub fn with_nanometers(mut self, nanometers: u32) -> Self {
        assert!(nanometers > 0, "feature size must be positive");
        self.nanometers = nanometers;
        self
    }

    /// Overrides the clock frequency.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not positive.
    #[must_use]
    pub fn with_frequency_ghz(mut self, ghz: f64) -> Self {
        assert!(ghz > 0.0, "frequency must be positive");
        self.frequency_ghz = ghz;
        self
    }

    /// MAC-array width.
    #[must_use]
    pub fn macs(&self) -> u32 {
        self.macs
    }

    /// Nominal feature size in nanometers.
    #[must_use]
    pub fn nanometers(&self) -> u32 {
        self.nanometers
    }

    /// Clock frequency in GHz.
    #[must_use]
    pub fn frequency_ghz(&self) -> f64 {
        self.frequency_ghz
    }

    /// The characterized process node used for carbon accounting.
    #[must_use]
    pub fn node(&self) -> ProcessNode {
        ProcessNode::from_nanometers(self.nanometers)
    }

    /// Feature-size scale factor relative to the 16 nm calibration point.
    pub(crate) fn node_scale(&self) -> f64 {
        f64::from(self.nanometers) / BASE_NM
    }

    /// Die area of the accelerator: fixed block plus MAC array, scaled by
    /// feature size.
    #[must_use]
    pub fn area(&self) -> Area {
        let s = self.node_scale();
        let fixed = FIXED_AREA_MM2 * s.powf(FIXED_SCALING_EXP);
        let array = f64::from(self.macs) * MAC_AREA_MM2 * s.powf(MAC_SCALING_EXP);
        Area::square_millimeters(fixed + array)
    }

    /// Evaluates latency, throughput and energy on a network.
    #[must_use]
    pub fn evaluate(&self, network: &Network) -> Evaluation {
        Evaluation::compute(self, network)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_matches_calibration_at_16nm() {
        // 256 MACs: 0.5 + 256 * 0.95e-3 = 0.743 mm².
        let a = AccelConfig::new(256).area().as_square_millimeters();
        assert!((a - 0.7432).abs() < 1e-3, "{a}");
        // 2048 MACs: 0.5 + 1.9456 = 2.446 mm².
        let a = AccelConfig::new(2048).area().as_square_millimeters();
        assert!((a - 2.4456).abs() < 1e-3, "{a}");
    }

    #[test]
    fn area_grows_with_macs_and_feature_size() {
        assert!(AccelConfig::new(512).area() > AccelConfig::new(256).area());
        assert!(
            AccelConfig::new(512).with_nanometers(28).area() > AccelConfig::new(512).area()
        );
    }

    #[test]
    fn mac_area_scales_superlinearly_with_nm() {
        // The 28 nm per-MAC area should be (28/16)^1.8 = 2.74x the 16 nm one.
        let a16 = AccelConfig::new(2048).area().as_square_millimeters()
            - AccelConfig::new(1024).area().as_square_millimeters();
        let a28 = AccelConfig::new(2048).with_nanometers(28).area().as_square_millimeters()
            - AccelConfig::new(1024).with_nanometers(28).area().as_square_millimeters();
        assert!((a28 / a16 - 2.74).abs() < 0.02, "{}", a28 / a16);
    }

    #[test]
    fn node_mapping_uses_characterized_nodes() {
        assert_eq!(AccelConfig::new(64).node(), ProcessNode::N14);
        assert_eq!(AccelConfig::new(64).with_nanometers(28).node(), ProcessNode::N28);
    }

    #[test]
    #[should_panic(expected = "at least one MAC")]
    fn zero_macs_rejected() {
        let _ = AccelConfig::new(0);
    }

    #[test]
    fn builder_overrides() {
        let c = AccelConfig::new(64).with_frequency_ghz(1.0).with_nanometers(7);
        assert_eq!(c.frequency_ghz(), 1.0);
        assert_eq!(c.nanometers(), 7);
        assert_eq!(c.macs(), 64);
    }
}
