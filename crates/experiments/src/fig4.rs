//! Figure 4: embodied IC carbon for the iPhone 11 and iPad — ACT's
//! bottom-up estimate with its per-IC breakdown, next to the opaque
//! top-down LCA estimate.

use std::fmt;

use act_core::{ComponentKind, EmbodiedReport};
use act_data::{reports, scenarios};
use act_lca::top_down_ic_estimate;
use act_units::MassCo2;

use crate::render::{kg, TextTable};

act_json::json_struct! {
    [ToJson]
    /// One device's bottom-up vs top-down comparison.
    #[derive(Clone, Debug)]
    pub struct DeviceEstimate {
        /// Device name.
        pub name: String,
        /// ACT's per-IC breakdown.
        pub act: EmbodiedReport,
        /// The LCA-based top-down IC estimate.
        pub lca: MassCo2,
    }
}

impl DeviceEstimate {
    /// ACT total across ICs.
    #[must_use]
    pub fn act_total(&self) -> MassCo2 {
        self.act.total()
    }
}

act_json::json_struct! {
    [ToJson]
    /// Both devices of Figure 4.
    #[derive(Clone, Debug)]
    pub struct Fig4Result {
        /// iPhone 11 (paper: ACT 17 kg vs LCA 23 kg).
        pub iphone: DeviceEstimate,
        /// iPad (paper: ACT 21 kg vs LCA 28 kg).
        pub ipad: DeviceEstimate,
    }
}

/// Runs the experiment under the paper's default fab scenario (the
/// device documents name no fab).
#[must_use]
pub fn run() -> Fig4Result {
    let estimate = |doc, report| {
        let device = crate::device(doc);
        DeviceEstimate {
            name: device.name().to_owned(),
            act: device.embodied().clone(),
            lca: top_down_ic_estimate(report),
        }
    };
    Fig4Result {
        iphone: estimate(scenarios::IPHONE_11, &reports::IPHONE_11),
        ipad: estimate(scenarios::IPAD, &reports::IPAD),
    }
}

impl fmt::Display for Fig4Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(
            "Figure 4: embodied IC carbon, ACT (bottom-up) vs LCA (top-down), kg CO2",
            &["device", "ACT", "LCA", "SoC", "DRAM", "NAND", "packaging", "other logic"],
        );
        for d in [&self.iphone, &self.ipad] {
            let soc_total = d.act.by_kind(ComponentKind::Soc);
            let named_soc: MassCo2 = d
                .act
                .components()
                .filter(|c| c.kind == ComponentKind::Soc && c.label.contains("SoC"))
                .map(|c| c.footprint)
                .sum();
            t.row(vec![
                d.name.clone(),
                kg(d.act_total()),
                kg(d.lca),
                kg(named_soc),
                kg(d.act.by_kind(ComponentKind::Dram)),
                kg(d.act.by_kind(ComponentKind::Ssd)),
                kg(d.act.by_kind(ComponentKind::Packaging)),
                kg(soc_total - named_soc),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_match_paper_bars() {
        let r = run();
        // Paper: iPhone ACT 17, LCA 23; iPad ACT 21, LCA 28.
        let iphone_act = r.iphone.act_total().as_kilograms();
        let ipad_act = r.ipad.act_total().as_kilograms();
        assert!((15.0..=19.0).contains(&iphone_act), "iPhone ACT {iphone_act}");
        assert!((18.5..=23.5).contains(&ipad_act), "iPad ACT {ipad_act}");
        assert!((r.iphone.lca.as_kilograms() - 23.0).abs() < 0.5);
        assert!((r.ipad.lca.as_kilograms() - 28.0).abs() < 0.5);
    }

    #[test]
    fn act_sits_below_the_topdown_lca_for_both_devices() {
        let r = run();
        for d in [&r.iphone, &r.ipad] {
            let ratio = d.lca.ratio(d.act_total());
            assert!((1.15..=1.55).contains(&ratio), "{}: LCA/ACT ratio {ratio}", d.name);
        }
    }

    #[test]
    fn ipad_exceeds_iphone_in_both_methodologies() {
        let r = run();
        assert!(r.ipad.act_total() > r.iphone.act_total());
        assert!(r.ipad.lca > r.iphone.lca);
    }

    #[test]
    fn breakdown_has_every_component_class() {
        let r = run();
        for kind in [
            ComponentKind::Soc,
            ComponentKind::Dram,
            ComponentKind::Ssd,
            ComponentKind::Packaging,
        ] {
            assert!(r.iphone.act.by_kind(kind).as_grams() > 0.0, "iPhone missing {kind}");
        }
    }

    #[test]
    fn renders_totals() {
        let s = run().to_string();
        assert!(s.contains("iPhone 11") && s.contains("iPad"));
    }
}
