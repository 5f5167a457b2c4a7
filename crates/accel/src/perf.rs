//! The performance model: per-layer cycle counts with array-utilization
//! derating.

use act_units::{Energy, Throughput, TimeSpan};

use crate::config::AccelConfig;
use crate::energy;
use crate::layer::Network;

act_json::json_struct! {
    [ToJson]
    /// Per-layer cycle accounting: where an inference spends its time.
    #[derive(Clone, Debug, PartialEq)]
    pub struct LayerReport {
        /// Layer label.
        pub name: String,
        /// Cycles spent in the layer.
        pub cycles: f64,
        /// Array utilization during the layer.
        pub utilization: f64,
        /// Fraction of total inference cycles.
        pub share: f64,
    }
}

/// Per-layer breakdown of an inference — the view a designer uses to find
/// the layers that starve a wide array.
///
/// # Examples
///
/// ```
/// use act_accel::{layer_breakdown, AccelConfig, Network};
///
/// let report = layer_breakdown(&AccelConfig::new(2048), &Network::mobile_vision());
/// let total: f64 = report.iter().map(|l| l.share).sum();
/// assert!((total - 1.0).abs() < 1e-9);
/// ```
#[must_use]
pub fn layer_breakdown(config: &AccelConfig, network: &Network) -> Vec<LayerReport> {
    let mut reports: Vec<LayerReport> = network
        .layers()
        .iter()
        .map(|layer| {
            let utilization = layer.utilization(config.macs());
            let cycles = layer.macs() / (f64::from(config.macs()) * utilization);
            LayerReport { name: layer.name().to_owned(), cycles, utilization, share: 0.0 }
        })
        .collect();
    let total: f64 = reports.iter().map(|r| r.cycles).sum();
    for r in &mut reports {
        r.share = r.cycles / total;
    }
    reports
}

act_json::json_struct! {
    [ToJson]
    /// The result of running a network on an accelerator configuration.
    ///
    /// # Examples
    ///
    /// ```
    /// use act_accel::{AccelConfig, Network};
    ///
    /// let eval = AccelConfig::new(256).evaluate(&Network::mobile_vision());
    /// // A 256-MAC array at 500 MHz clears the paper's 30 FPS QoS bar.
    /// assert!(eval.throughput().as_per_second() > 30.0);
    /// ```
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct Evaluation {
        latency: TimeSpan,
        energy: Energy,
    }
}

impl Evaluation {
    pub(crate) fn compute(config: &AccelConfig, network: &Network) -> Self {
        let mut cycles = 0.0;
        for layer in network.layers() {
            let utilization = layer.utilization(config.macs());
            cycles += layer.macs() / (f64::from(config.macs()) * utilization);
        }
        let latency = TimeSpan::seconds(cycles / (config.frequency_ghz() * 1e9));
        let energy = energy::per_inference(config, network, latency);
        Self { latency, energy }
    }

    /// Single-inference latency.
    #[must_use]
    pub fn latency(&self) -> TimeSpan {
        self.latency
    }

    /// Inference throughput (`1 / latency`).
    #[must_use]
    pub fn throughput(&self) -> Throughput {
        Throughput::per_second(1.0 / self.latency.as_seconds())
    }

    /// Energy per inference.
    #[must_use]
    pub fn energy(&self) -> Energy {
        self.energy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use act_dse_shim::powers_of_two;

    // Tiny local copy to avoid a dev-dependency cycle; mirrors
    // `act_dse::powers_of_two`.
    mod act_dse_shim {
        pub fn powers_of_two(lo: u32, hi: u32) -> Vec<u32> {
            let mut v = Vec::new();
            let mut x = lo;
            while x <= hi {
                v.push(x);
                x *= 2;
            }
            v
        }
    }

    fn eval(macs: u32) -> Evaluation {
        AccelConfig::new(macs).evaluate(&Network::mobile_vision())
    }

    #[test]
    fn performance_improves_monotonically_with_macs() {
        let mut last = f64::INFINITY;
        for m in powers_of_two(64, 2048) {
            let lat = eval(m).latency().as_seconds();
            assert!(lat < last, "{m} MACs should be faster");
            last = lat;
        }
    }

    #[test]
    fn scaling_is_sublinear_at_the_wide_end() {
        // Diminishing returns: 8x the MACs buys well under 8x the speed.
        let speedup = eval(256).latency().ratio(eval(2048).latency());
        assert!((4.0..7.9).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn qos_boundary_sits_between_128_and_256_macs() {
        // Figure 13 (left): 256 MACs is the leanest config at 30 FPS.
        assert!(eval(128).throughput().as_per_second() < 30.0);
        assert!(eval(256).throughput().as_per_second() > 30.0);
    }

    #[test]
    fn energy_per_inference_has_interior_minimum() {
        // Small arrays pay DRAM refetch, large arrays pay leakage: the
        // energy bowl bottoms out at the 512-MAC configuration.
        let energies: Vec<f64> = powers_of_two(64, 2048)
            .into_iter()
            .map(|m| eval(m).energy().as_millijoules())
            .collect();
        let min_idx =
            energies.iter().enumerate().min_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        assert_eq!(min_idx, 3, "energy minimum should be 512 MACs: {energies:?}");
    }

    #[test]
    fn layer_breakdown_reconciles_with_total_latency() {
        let config = AccelConfig::new(512);
        let network = Network::mobile_vision();
        let report = layer_breakdown(&config, &network);
        assert_eq!(report.len(), network.layers().len());
        let cycles: f64 = report.iter().map(|l| l.cycles).sum();
        let latency = cycles / (config.frequency_ghz() * 1e9);
        let direct = config.evaluate(&network).latency().as_seconds();
        assert!((latency - direct).abs() < direct * 1e-12);
    }

    #[test]
    fn narrow_early_layers_dominate_wide_arrays() {
        // On a 2048-MAC array, the low-parallelism stem/early layers have
        // the worst utilization in the report.
        let report = layer_breakdown(&AccelConfig::new(2048), &Network::mobile_vision());
        let min_util = report
            .iter()
            .min_by(|a, b| a.utilization.partial_cmp(&b.utilization).unwrap())
            .unwrap();
        assert!(
            min_util.name == "stem"
                || min_util.name.starts_with("conv1")
                || min_util.name == "classifier",
            "worst-utilized layer {}",
            min_util.name
        );
    }

    #[test]
    fn higher_clock_means_lower_latency() {
        let net = Network::mobile_vision();
        let slow = AccelConfig::new(512).evaluate(&net);
        let fast = AccelConfig::new(512).with_frequency_ghz(1.0).evaluate(&net);
        assert!((slow.latency().ratio(fast.latency()) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_is_latency_inverse() {
        let e = eval(512);
        let product = e.latency().as_seconds() * e.throughput().as_per_second();
        assert!((product - 1.0).abs() < 1e-12);
    }
}
