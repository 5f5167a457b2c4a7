//! The energy model: MAC switching energy, DRAM traffic with small-buffer
//! refetch, and array leakage.

use act_units::{Energy, Power, TimeSpan};

use crate::config::AccelConfig;
use crate::layer::Network;

/// Energy per MAC operation at 16 nm, picojoules (datapath + local SRAM).
const MAC_ENERGY_PJ: f64 = 1.5;

/// DRAM energy per inference at 16 nm for the 3.8 GMAC reference network
/// when the on-chip buffer holds a full weight tile, millijoules.
const DRAM_BASE_MJ: f64 = 1.9;

/// MACs per inference of the reference network the DRAM constant is
/// calibrated for; other networks scale proportionally.
const REFERENCE_MACS: f64 = 3.8e9;

/// Array width at which the conv buffer first holds a full weight tile;
/// narrower arrays re-fetch weights from DRAM.
const REFETCH_KNEE_MACS: f64 = 512.0;

/// Refetch growth exponent below the knee.
const REFETCH_EXP: f64 = 1.1;

/// Fixed leakage of the controller/buffer block at 16 nm, milliwatts.
const STATIC_BASE_MW: f64 = 20.0;

/// Per-MAC leakage at 16 nm, milliwatts.
const STATIC_PER_MAC_MW: f64 = 0.35;

/// Total energy for one inference.
pub(crate) fn per_inference(
    config: &AccelConfig,
    network: &Network,
    latency: TimeSpan,
) -> Energy {
    // Switching energy scales linearly with feature size (lower V at
    // smaller nodes), leakage with the node scale as well.
    let s = config.node_scale();
    let macs = network.total_macs();

    let compute = Energy::joules(macs * MAC_ENERGY_PJ * 1e-12 * s);

    let refetch = (REFETCH_KNEE_MACS / f64::from(config.macs())).powf(REFETCH_EXP).max(1.0);
    let dram = Energy::millijoules(DRAM_BASE_MJ * (macs / REFERENCE_MACS) * refetch);

    let static_power =
        Power::milliwatts((STATIC_BASE_MW + STATIC_PER_MAC_MW * f64::from(config.macs())) * s);
    let leakage = static_power * latency;

    compute + dram + leakage
}

#[cfg(test)]
mod tests {
    use super::*;

    fn energy(macs: u32) -> f64 {
        AccelConfig::new(macs).evaluate(&Network::mobile_vision()).energy().as_millijoules()
    }

    #[test]
    fn energy_magnitudes_are_millijoule_scale() {
        for m in [64, 256, 1024] {
            let e = energy(m);
            assert!((5.0..60.0).contains(&e), "{m} MACs -> {e} mJ");
        }
    }

    #[test]
    fn narrow_arrays_pay_dram_refetch() {
        // Below the 512-MAC knee energy rises steeply as arrays narrow.
        assert!(energy(64) > 1.5 * energy(256));
        assert!(energy(128) > 1.2 * energy(256));
    }

    #[test]
    fn wide_arrays_pay_leakage() {
        assert!(energy(2048) > energy(512));
    }

    #[test]
    fn refetch_ratio_between_256_and_512_matches_calibration() {
        // The CEP/CE2P split in Figure 12 depends on this ratio sitting
        // between 1.15 and 1.33 (see DESIGN.md).
        let ratio = energy(256) / energy(512);
        assert!((1.15..=1.33).contains(&ratio), "E(256)/E(512) = {ratio}");
    }

    #[test]
    fn older_node_consumes_more_energy() {
        let net = Network::mobile_vision();
        let e16 = AccelConfig::new(512).evaluate(&net).energy();
        let e28 = AccelConfig::new(512).with_nanometers(28).evaluate(&net).energy();
        assert!(e28 > e16);
    }
}
