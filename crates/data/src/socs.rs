//! The commodity mobile SoC database behind Figures 8 and 14.
//!
//! ACT characterizes three mobile SoC families — Samsung Exynos, Qualcomm
//! Snapdragon and HiSilicon Kirin — across several generations, using
//! Geekbench 5 measurements averaged over phones in the wild and TDP-based
//! power. We do not have those phones; this table encodes publicly reported
//! specifications (process node, die size, DRAM provisioning, TDP class) plus
//! a reference aggregate performance score in the spirit of the paper's
//! Geekbench geometric mean. The microarchitecture fields feed the `act-soc`
//! simulator, which independently reproduces the generational trends.

use std::fmt;

use act_units::{Area, Capacity, Power};

use crate::{DramTechnology, ProcessNode};

act_json::json_enum! {
    [ToJson]
    /// A mobile SoC family (vendor line) surveyed in Figure 8.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub enum SocFamily {
        /// Samsung Exynos.
        Exynos,
        /// Qualcomm Snapdragon.
        Snapdragon,
        /// HiSilicon Kirin.
        Kirin,
    }
}

impl SocFamily {
    /// All families in the paper's plotting order.
    pub const ALL: [Self; 3] = [Self::Exynos, Self::Snapdragon, Self::Kirin];
}

impl fmt::Display for SocFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Self::Exynos => "Exynos",
            Self::Snapdragon => "Snapdragon",
            Self::Kirin => "Kirin",
        };
        f.write_str(name)
    }
}

act_json::json_struct! {
    [ToJson]
    /// A homogeneous CPU cluster inside an SoC (one big.LITTLE tier).
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct ClusterSpec {
        /// Marketing name of the core microarchitecture.
        pub core: &'static str,
        /// Number of cores in the cluster.
        pub count: u32,
        /// Peak clock frequency in GHz.
        pub freq_ghz: f64,
        /// Per-GHz performance index relative to a Cortex-A53 (= 1.0).
        pub ipc_index: f64,
    }
}

act_json::json_struct! {
    [ToJson]
    /// One mobile SoC entry of the Figure 8 survey.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct SocSpec {
        /// Vendor family.
        pub family: SocFamily,
        /// Marketing name, e.g. `"Snapdragon 865"`.
        pub name: &'static str,
        /// Release year (drives the Figure 14 efficiency trend).
        pub year: u32,
        /// Logic process node the SoC is fabricated in.
        pub node: ProcessNode,
        /// Die area in mm².
        pub die_mm2: f64,
        /// Thermal design power in watts (the paper's power proxy).
        pub tdp_w: f64,
        /// DRAM the SoC ships with, in GB.
        pub dram_gb: f64,
        /// DRAM manufacturing technology of that era's parts.
        pub dram: DramTechnology,
        /// Aggregate mobile benchmark score (geometric mean over the seven
        /// Geekbench-style workloads, higher is faster).
        pub reference_score: f64,
        /// CPU cluster configuration, biggest tier first.
        pub clusters: &'static [ClusterSpec],
    }
}

impl SocSpec {
    /// Die area as a typed quantity.
    #[must_use]
    pub fn die_area(&self) -> Area {
        Area::square_millimeters(self.die_mm2)
    }

    /// TDP as a typed quantity.
    #[must_use]
    pub fn tdp(&self) -> Power {
        Power::watts(self.tdp_w)
    }

    /// DRAM capacity as a typed quantity.
    #[must_use]
    pub fn dram_capacity(&self) -> Capacity {
        Capacity::gigabytes(self.dram_gb)
    }

    /// Energy-efficiency proxy used by Figure 14: score per TDP watt.
    #[must_use]
    pub fn efficiency_score(&self) -> f64 {
        self.reference_score / self.tdp_w
    }
}

const fn cluster(core: &'static str, count: u32, freq_ghz: f64, ipc_index: f64) -> ClusterSpec {
    ClusterSpec { core, count, freq_ghz, ipc_index }
}

/// The thirteen SoCs surveyed in Figure 8, in the paper's x-axis order
/// (Exynos 9820 → … → Kirin 960).
pub const MOBILE_SOCS: [SocSpec; 13] = [
    SocSpec {
        family: SocFamily::Exynos,
        name: "Exynos 9820",
        year: 2019,
        node: ProcessNode::N10, // Samsung 8 nm maps onto the 10 nm class
        die_mm2: 127.0,
        tdp_w: 5.0,
        dram_gb: 8.0,
        dram: DramTechnology::Lpddr4,
        reference_score: 2600.0,
        clusters: &[
            cluster("M4", 2, 2.73, 2.6),
            cluster("Cortex-A75", 2, 2.31, 2.1),
            cluster("Cortex-A55", 4, 1.95, 1.1),
        ],
    },
    SocSpec {
        family: SocFamily::Exynos,
        name: "Exynos 9810",
        year: 2018,
        node: ProcessNode::N10,
        die_mm2: 118.0,
        tdp_w: 5.2,
        dram_gb: 4.0,
        dram: DramTechnology::Lpddr4,
        reference_score: 2100.0,
        clusters: &[cluster("M3", 4, 2.7, 2.2), cluster("Cortex-A55", 4, 1.79, 1.1)],
    },
    SocSpec {
        family: SocFamily::Exynos,
        name: "Exynos 8895",
        year: 2017,
        node: ProcessNode::N10,
        die_mm2: 88.0,
        tdp_w: 5.0,
        dram_gb: 4.0,
        dram: DramTechnology::Lpddr4,
        reference_score: 1500.0,
        clusters: &[cluster("M2", 4, 2.31, 1.9), cluster("Cortex-A53", 4, 1.69, 1.0)],
    },
    SocSpec {
        family: SocFamily::Exynos,
        name: "Exynos 7420",
        year: 2015,
        node: ProcessNode::N14,
        die_mm2: 78.0,
        tdp_w: 5.0,
        dram_gb: 3.0,
        dram: DramTechnology::Lpddr3_20nm,
        reference_score: 1100.0,
        clusters: &[cluster("Cortex-A57", 4, 2.1, 1.35), cluster("Cortex-A53", 4, 1.5, 1.0)],
    },
    SocSpec {
        family: SocFamily::Snapdragon,
        name: "Snapdragon 865",
        year: 2020,
        node: ProcessNode::N7,
        die_mm2: 83.5,
        tdp_w: 6.5,
        dram_gb: 8.0,
        dram: DramTechnology::Lpddr4,
        reference_score: 3300.0,
        clusters: &[
            cluster("Cortex-A77", 1, 2.84, 3.0),
            cluster("Cortex-A77", 3, 2.42, 3.0),
            cluster("Cortex-A55", 4, 1.8, 1.1),
        ],
    },
    SocSpec {
        family: SocFamily::Snapdragon,
        name: "Snapdragon 855",
        year: 2019,
        node: ProcessNode::N7,
        die_mm2: 73.3,
        tdp_w: 5.5,
        dram_gb: 6.0,
        dram: DramTechnology::Lpddr4,
        reference_score: 2700.0,
        clusters: &[
            cluster("Cortex-A76", 1, 2.84, 2.6),
            cluster("Cortex-A76", 3, 2.42, 2.6),
            cluster("Cortex-A55", 4, 1.78, 1.1),
        ],
    },
    SocSpec {
        family: SocFamily::Snapdragon,
        name: "Snapdragon 845",
        year: 2018,
        node: ProcessNode::N10,
        die_mm2: 94.0,
        tdp_w: 5.0,
        dram_gb: 6.0,
        dram: DramTechnology::Lpddr4,
        reference_score: 2200.0,
        clusters: &[cluster("Cortex-A75", 4, 2.8, 2.1), cluster("Cortex-A55", 4, 1.77, 1.1)],
    },
    SocSpec {
        family: SocFamily::Snapdragon,
        name: "Snapdragon 835",
        year: 2017,
        node: ProcessNode::N10,
        die_mm2: 72.3,
        tdp_w: 4.5,
        dram_gb: 4.0,
        dram: DramTechnology::Lpddr4,
        reference_score: 1700.0,
        clusters: &[cluster("Cortex-A73", 4, 2.45, 1.8), cluster("Cortex-A53", 4, 1.9, 1.0)],
    },
    SocSpec {
        family: SocFamily::Snapdragon,
        name: "Snapdragon 820",
        year: 2016,
        node: ProcessNode::N14,
        die_mm2: 113.0,
        tdp_w: 5.5,
        dram_gb: 4.0,
        dram: DramTechnology::Lpddr3_20nm,
        reference_score: 1400.0,
        clusters: &[cluster("Kryo", 2, 2.15, 2.0), cluster("Kryo", 2, 1.59, 2.0)],
    },
    SocSpec {
        family: SocFamily::Kirin,
        name: "Kirin 990",
        year: 2019,
        node: ProcessNode::N7,
        die_mm2: 90.0,
        tdp_w: 4.8,
        dram_gb: 8.0,
        dram: DramTechnology::Lpddr4,
        reference_score: 2900.0,
        clusters: &[
            cluster("Cortex-A76", 2, 2.86, 2.6),
            cluster("Cortex-A76", 2, 2.36, 2.6),
            cluster("Cortex-A55", 4, 1.95, 1.1),
        ],
    },
    SocSpec {
        family: SocFamily::Kirin,
        name: "Kirin 980",
        year: 2018,
        node: ProcessNode::N7,
        die_mm2: 74.1,
        tdp_w: 4.6,
        dram_gb: 6.0,
        dram: DramTechnology::Lpddr4,
        reference_score: 2500.0,
        clusters: &[
            cluster("Cortex-A76", 2, 2.6, 2.6),
            cluster("Cortex-A76", 2, 1.92, 2.6),
            cluster("Cortex-A55", 4, 1.8, 1.1),
        ],
    },
    SocSpec {
        family: SocFamily::Kirin,
        name: "Kirin 970",
        year: 2017,
        node: ProcessNode::N10,
        die_mm2: 96.7,
        tdp_w: 5.0,
        dram_gb: 6.0,
        dram: DramTechnology::Lpddr4,
        reference_score: 1600.0,
        clusters: &[cluster("Cortex-A73", 4, 2.36, 1.8), cluster("Cortex-A53", 4, 1.8, 1.0)],
    },
    SocSpec {
        family: SocFamily::Kirin,
        name: "Kirin 960",
        year: 2016,
        node: ProcessNode::N14, // TSMC 16 nm maps onto the 14 nm class
        die_mm2: 110.0,
        tdp_w: 5.2,
        dram_gb: 4.0,
        dram: DramTechnology::Lpddr3_20nm,
        reference_score: 1500.0,
        clusters: &[cluster("Cortex-A73", 4, 2.36, 1.8), cluster("Cortex-A53", 4, 1.84, 1.0)],
    },
];

/// The newest SoC of a family — Figure 8(d)'s normalization baseline.
#[must_use]
pub fn newest_in_family(family: SocFamily) -> &'static SocSpec {
    MOBILE_SOCS
        .iter()
        .filter(|s| s.family == family)
        .max_by_key(|s| s.year)
        .expect("every family has at least one SoC")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total multi-core compute capacity in (GHz × IPC-index) units: the
    /// first-order performance the cluster table must agree with.
    fn compute_capacity(soc: &SocSpec) -> f64 {
        soc.clusters.iter().map(|c| f64::from(c.count) * c.freq_ghz * c.ipc_index).sum()
    }

    #[test]
    fn thirteen_socs_across_three_families() {
        assert_eq!(MOBILE_SOCS.len(), 13);
        for family in SocFamily::ALL {
            assert!(MOBILE_SOCS.iter().any(|s| s.family == family));
        }
        let exynos = MOBILE_SOCS.iter().filter(|s| s.family == SocFamily::Exynos).count();
        let snapdragon =
            MOBILE_SOCS.iter().filter(|s| s.family == SocFamily::Snapdragon).count();
        let kirin = MOBILE_SOCS.iter().filter(|s| s.family == SocFamily::Kirin).count();
        assert_eq!((exynos, snapdragon, kirin), (4, 5, 4));
    }

    #[test]
    fn newer_socs_within_family_are_faster() {
        for family in SocFamily::ALL {
            let mut in_family: Vec<_> =
                MOBILE_SOCS.iter().filter(|s| s.family == family).collect();
            in_family.sort_by_key(|s| s.year);
            for pair in in_family.windows(2) {
                assert!(
                    pair[1].reference_score > pair[0].reference_score,
                    "{} should outperform {}",
                    pair[1].name,
                    pair[0].name
                );
            }
        }
    }

    #[test]
    fn newest_per_family_matches_paper_baselines() {
        assert_eq!(newest_in_family(SocFamily::Exynos).name, "Exynos 9820");
        assert_eq!(newest_in_family(SocFamily::Snapdragon).name, "Snapdragon 865");
        assert_eq!(newest_in_family(SocFamily::Kirin).name, "Kirin 990");
    }

    #[test]
    fn specs_are_physically_sane() {
        for soc in &MOBILE_SOCS {
            assert!(soc.die_mm2 > 50.0 && soc.die_mm2 < 150.0, "{}", soc.name);
            assert!(soc.tdp_w > 3.0 && soc.tdp_w < 8.0, "{}", soc.name);
            assert!(soc.dram_gb >= 3.0 && soc.dram_gb <= 8.0, "{}", soc.name);
            assert!(!soc.clusters.is_empty());
            assert!(compute_capacity(soc) > 5.0);
            assert!((2015..=2020).contains(&soc.year));
        }
    }

    #[test]
    fn compute_capacity_tracks_reference_score_in_rank_within_family() {
        for family in SocFamily::ALL {
            let mut in_family: Vec<_> =
                MOBILE_SOCS.iter().filter(|s| s.family == family).collect();
            in_family
                .sort_by(|a, b| a.reference_score.partial_cmp(&b.reference_score).unwrap());
            for pair in in_family.windows(2) {
                assert!(
                    compute_capacity(pair[1]) >= compute_capacity(pair[0]) * 0.85,
                    "{} vs {}",
                    pair[1].name,
                    pair[0].name
                );
            }
        }
    }

    #[test]
    fn dram_technology_matches_era() {
        for soc in &MOBILE_SOCS {
            if soc.year <= 2016 {
                assert_eq!(soc.dram, DramTechnology::Lpddr3_20nm, "{}", soc.name);
            } else {
                assert_eq!(soc.dram, DramTechnology::Lpddr4, "{}", soc.name);
            }
        }
    }

    #[test]
    fn efficiency_improves_year_over_year_in_aggregate() {
        // Figure 14 (left): roughly 1.21x annual energy-efficiency gains.
        let mut by_year: Vec<_> = MOBILE_SOCS.iter().collect();
        by_year.sort_by_key(|s| s.year);
        let oldest = by_year.first().unwrap();
        let newest = by_year.last().unwrap();
        let years = f64::from(newest.year - oldest.year);
        let annual = (newest.efficiency_score() / oldest.efficiency_score()).powf(1.0 / years);
        assert!(
            (1.10..=1.35).contains(&annual),
            "annual efficiency improvement {annual} out of the paper's band"
        );
    }
}
