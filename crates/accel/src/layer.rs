//! DNN layer shapes and networks for the accelerator model.

/// One layer of a neural network, described by the quantities the
/// accelerator model needs: its MAC count and its available parallelism.
#[derive(Clone, Debug, PartialEq)]
pub enum Layer {
    /// A 2-D convolution.
    Conv {
        /// Layer label.
        name: String,
        /// Output feature-map height.
        out_h: u32,
        /// Output feature-map width.
        out_w: u32,
        /// Output channels.
        out_c: u32,
        /// Input channels.
        in_c: u32,
        /// Kernel height.
        k_h: u32,
        /// Kernel width.
        k_w: u32,
    },
    /// A fully connected layer.
    Fc {
        /// Layer label.
        name: String,
        /// Input features.
        in_features: u32,
        /// Output features.
        out_features: u32,
    },
}

impl act_json::ToJson for Layer {
    fn to_json(&self) -> act_json::JsonValue {
        match self {
            Self::Conv { name, out_h, out_w, out_c, in_c, k_h, k_w } => act_json::obj! {
                "Conv": act_json::obj! {
                    "name": name,
                    "out_h": out_h,
                    "out_w": out_w,
                    "out_c": out_c,
                    "in_c": in_c,
                    "k_h": k_h,
                    "k_w": k_w,
                },
            },
            Self::Fc { name, in_features, out_features } => act_json::obj! {
                "Fc": act_json::obj! {
                    "name": name,
                    "in_features": in_features,
                    "out_features": out_features,
                },
            },
        }
    }
}

impl act_json::FromJson for Layer {
    fn from_json(value: &act_json::JsonValue) -> Result<Self, act_json::JsonError> {
        use act_json::JsonError;
        let object = value
            .as_object()
            .ok_or_else(|| JsonError::type_mismatch("a layer object", value))?;
        let field = |body: &act_json::JsonValue, name: &str| {
            body.get(name).cloned().ok_or_else(|| JsonError::missing_field(name))
        };
        if let Some(body) = object.get("Conv") {
            Ok(Self::Conv {
                name: String::from_json(&field(body, "name")?)?,
                out_h: u32::from_json(&field(body, "out_h")?)?,
                out_w: u32::from_json(&field(body, "out_w")?)?,
                out_c: u32::from_json(&field(body, "out_c")?)?,
                in_c: u32::from_json(&field(body, "in_c")?)?,
                k_h: u32::from_json(&field(body, "k_h")?)?,
                k_w: u32::from_json(&field(body, "k_w")?)?,
            })
        } else if let Some(body) = object.get("Fc") {
            Ok(Self::Fc {
                name: String::from_json(&field(body, "name")?)?,
                in_features: u32::from_json(&field(body, "in_features")?)?,
                out_features: u32::from_json(&field(body, "out_features")?)?,
            })
        } else {
            Err(JsonError::new("expected a `Conv` or `Fc` layer variant"))
        }
    }
}

/// Mapping-efficiency scale: how many MACs one unit of layer parallelism
/// keeps busy. Calibrated so a 2048-MAC array reaches the ~65 % aggregate
/// utilization NVDLA-class accelerators report on vision networks.
const PARALLELISM_SCALE: f64 = 3.0;

impl Layer {
    /// Shorthand for a square-kernel convolution.
    #[must_use]
    pub fn conv(name: &str, out_hw: u32, out_c: u32, in_c: u32, k: u32) -> Self {
        Self::Conv {
            name: name.to_owned(),
            out_h: out_hw,
            out_w: out_hw,
            out_c,
            in_c,
            k_h: k,
            k_w: k,
        }
    }

    /// Shorthand for a fully connected layer.
    #[must_use]
    pub fn fc(name: &str, in_features: u32, out_features: u32) -> Self {
        Self::Fc { name: name.to_owned(), in_features, out_features }
    }

    /// The layer's label.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            Self::Conv { name, .. } | Self::Fc { name, .. } => name,
        }
    }

    /// Multiply-accumulate operations the layer performs.
    #[must_use]
    pub fn macs(&self) -> f64 {
        match *self {
            Self::Conv { out_h, out_w, out_c, in_c, k_h, k_w, .. } => {
                f64::from(out_h)
                    * f64::from(out_w)
                    * f64::from(out_c)
                    * f64::from(in_c)
                    * f64::from(k_h)
                    * f64::from(k_w)
            }
            Self::Fc { in_features, out_features, .. } => {
                f64::from(in_features) * f64::from(out_features)
            }
        }
    }

    /// Effective parallelism the layer exposes to the MAC array: output
    /// channels × kernel area (the NVDLA atomic-K / atomic-C mapping axes),
    /// scaled by the mapping efficiency.
    #[must_use]
    pub fn parallelism(&self) -> f64 {
        let axes = match *self {
            Self::Conv { out_c, k_h, k_w, .. } => {
                f64::from(out_c) * f64::from(k_h) * f64::from(k_w)
            }
            Self::Fc { out_features, .. } => f64::from(out_features),
        };
        axes * PARALLELISM_SCALE
    }

    /// Array utilization of an `m`-MAC array on this layer: `P / (P + m)`.
    /// A layer with abundant parallelism keeps even a wide array near-busy;
    /// a narrow layer starves it.
    #[must_use]
    pub fn utilization(&self, m: u32) -> f64 {
        let p = self.parallelism();
        p / (p + f64::from(m))
    }
}

act_json::json_struct! {
    [ToJson]
    /// A feed-forward network: an ordered list of layers.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Network {
        name: String,
        layers: Vec<Layer>,
    }
}

impl Network {
    /// Creates a network from layers.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty.
    #[must_use]
    pub fn new(name: impl Into<String>, layers: Vec<Layer>) -> Self {
        assert!(!layers.is_empty(), "a network needs at least one layer");
        Self { name: name.into(), layers }
    }

    /// The ~3.8 GMAC mobile vision network used by the Reduce case study:
    /// a VGG-style stack of 3×3 convolution groups at 56/28/14/7-pixel
    /// resolutions, representative of the paper's 30 FPS image-processing
    /// QoS scenario.
    #[must_use]
    pub fn mobile_vision() -> Self {
        let mut layers = vec![Layer::conv("stem", 56, 64, 3, 7)];
        for (group, (hw, ch)) in
            [(56u32, 64u32), (28, 128), (14, 256), (7, 512)].into_iter().enumerate()
        {
            for i in 0..8 {
                let in_c = if i == 0 && group > 0 { ch / 2 } else { ch };
                layers.push(Layer::conv(&format!("conv{}_{i}", group + 1), hw, ch, in_c, 3));
            }
        }
        layers.push(Layer::fc("classifier", 512, 1000));
        Self::new("mobile-vision", layers)
    }

    /// A ResNet-50-like 4.1 GMAC classifier: bottleneck-style stacks with
    /// 1×1 and 3×3 convolutions at 56/28/14/7-pixel resolutions.
    #[must_use]
    pub fn resnet50() -> Self {
        let mut layers = vec![Layer::conv("stem", 112, 64, 3, 7)];
        for (stage, (hw, ch, blocks)) in
            [(56u32, 64u32, 3u32), (28, 128, 4), (14, 256, 6), (7, 512, 3)]
                .into_iter()
                .enumerate()
        {
            for block in 0..blocks {
                layers.push(Layer::conv(
                    &format!("s{}b{block}_reduce", stage + 1),
                    hw,
                    ch,
                    ch * 4 / if block == 0 && stage > 0 { 2 } else { 1 },
                    1,
                ));
                layers.push(Layer::conv(&format!("s{}b{block}_3x3", stage + 1), hw, ch, ch, 3));
                layers.push(Layer::conv(
                    &format!("s{}b{block}_expand", stage + 1),
                    hw,
                    ch * 4,
                    ch,
                    1,
                ));
            }
        }
        layers.push(Layer::fc("classifier", 2048, 1000));
        Self::new("resnet50-like", layers)
    }

    /// A MobileNet-class ~0.6 GMAC network: narrow early layers, pointwise-
    /// heavy later stages. Exercises the QoS study at the light end.
    #[must_use]
    pub fn mobilenet() -> Self {
        let mut layers = vec![Layer::conv("stem", 112, 32, 3, 3)];
        for (i, (hw, out_c, in_c)) in [
            (112u32, 64u32, 32u32),
            (56, 128, 64),
            (56, 128, 128),
            (28, 256, 128),
            (28, 256, 256),
            (14, 512, 256),
            (14, 512, 512),
            (14, 512, 512),
            (7, 1024, 512),
        ]
        .into_iter()
        .enumerate()
        {
            layers.push(Layer::conv(&format!("pw{i}"), hw, out_c, in_c, 1));
        }
        layers.push(Layer::fc("classifier", 1024, 1000));
        Self::new("mobilenet-like", layers)
    }

    /// Network label.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The layers in execution order.
    #[must_use]
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Total MACs per inference.
    #[must_use]
    pub fn total_macs(&self) -> f64 {
        self.layers.iter().map(Layer::macs).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// MAC-weighted aggregate utilization of an `m`-MAC array: total work
    /// divided by total busy-adjusted work. The calibration tests below
    /// pin it, since every layer's latency goes through `utilization`.
    fn aggregate_utilization(network: &Network, m: u32) -> f64 {
        let adjusted: f64 = network.layers().iter().map(|l| l.macs() / l.utilization(m)).sum();
        network.total_macs() / adjusted
    }

    #[test]
    fn conv_mac_count() {
        let l = Layer::conv("c", 56, 64, 64, 3);
        assert!((l.macs() - 56.0 * 56.0 * 64.0 * 64.0 * 9.0).abs() < 1.0);
    }

    #[test]
    fn fc_mac_count() {
        let l = Layer::fc("f", 512, 1000);
        assert!((l.macs() - 512_000.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_decreases_with_array_width() {
        let l = Layer::conv("c", 28, 128, 128, 3);
        assert!(l.utilization(64) > l.utilization(512));
        assert!(l.utilization(512) > l.utilization(4096));
    }

    #[test]
    fn utilization_in_unit_range() {
        let l = Layer::conv("c", 7, 512, 512, 3);
        for m in [1, 64, 2048, 1 << 20] {
            let u = l.utilization(m);
            assert!(u > 0.0 && u <= 1.0);
        }
    }

    #[test]
    fn wide_layers_feed_wide_arrays_better() {
        let narrow = Layer::conv("narrow", 56, 64, 64, 3);
        let wide = Layer::conv("wide", 7, 512, 512, 3);
        assert!(wide.utilization(2048) > narrow.utilization(2048));
    }

    #[test]
    fn mobile_vision_totals_about_3_8_gmac() {
        let n = Network::mobile_vision();
        let gmacs = n.total_macs() / 1e9;
        assert!((3.3..=4.0).contains(&gmacs), "network is {gmacs} GMACs");
        assert_eq!(n.layers().len(), 34);
    }

    #[test]
    fn mobile_vision_aggregate_utilization_matches_calibration() {
        let n = Network::mobile_vision();
        let u256 = aggregate_utilization(&n, 256);
        let u2048 = aggregate_utilization(&n, 2048);
        assert!((0.90..=0.96).contains(&u256), "util(256) = {u256}");
        assert!((0.58..=0.70).contains(&u2048), "util(2048) = {u2048}");
        assert!(u256 > u2048);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn empty_network_rejected() {
        let _ = Network::new("empty", vec![]);
    }

    #[test]
    fn resnet50_is_about_4_gmacs() {
        let gmacs = Network::resnet50().total_macs() / 1e9;
        assert!((3.0..=5.5).contains(&gmacs), "{gmacs} GMACs");
    }

    #[test]
    fn mobilenet_is_light() {
        let mobile = Network::mobilenet().total_macs();
        let vision = Network::mobile_vision().total_macs();
        assert!(mobile < 0.3 * vision, "mobilenet {mobile} vs vision {vision}");
    }

    #[test]
    fn pointwise_networks_starve_wide_arrays_harder() {
        // 1x1 convolutions expose 9x less kernel parallelism than 3x3.
        let mobilenet = aggregate_utilization(&Network::mobilenet(), 2048);
        let vision = aggregate_utilization(&Network::mobile_vision(), 2048);
        assert!(mobilenet < vision, "mobilenet {mobilenet} vs vision {vision}");
    }

    #[test]
    fn layer_names_accessible() {
        let n = Network::mobile_vision();
        assert_eq!(n.layers()[0].name(), "stem");
        assert_eq!(n.name(), "mobile-vision");
    }
}
