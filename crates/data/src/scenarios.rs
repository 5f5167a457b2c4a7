//! Bill-of-material teardowns for the platforms ACT characterizes
//! bottom-up (Figure 4 and the device-class and data-center studies), as
//! committed `act-scenario` JSON documents.
//!
//! Each constant is the verbatim text of a file under
//! `crates/data/scenarios/`, and these files are the only copy of the
//! device data: the experiments, `/v1/scenario`, `act fleet` and the
//! benchmark all parse and compile them through `act-scenario`. Hardware
//! specifications follow publicly available device teardowns. Die areas
//! for "camera" and "other" ICs aggregate the many small analog, RF,
//! power-management and sensor dies on each board; their totals are
//! calibrated so the ACT model's platform estimates land on the paper's
//! Figure 4 results (iPhone 11 ≈ 17 kg, iPad ≈ 21 kg of IC embodied
//! carbon). `act-scenario`'s fixture pin test holds every document to
//! its embodied bits.

/// Apple iPhone 11 (A13 Bionic, 4 GB LPDDR4X, 64 GB NAND).
pub const IPHONE_11: &str = include_str!("../scenarios/iphone_11.json");
/// Apple iPad, 7th generation (A10 Fusion, 3 GB LPDDR4, 32 GB NAND).
pub const IPAD: &str = include_str!("../scenarios/ipad.json");
/// Fairphone 3 (Snapdragon 632-class 14 nm SoC, 4 GB LPDDR4, 64 GB
/// eMMC). The "CPU" area aggregates the SoC package contents the
/// Fairphone LCA attributes to the processor.
pub const FAIRPHONE_3: &str = include_str!("../scenarios/fairphone_3.json");
/// Dell PowerEdge R740 server (2× 14 nm Xeon, 576 GB DDR4, ~31 TB SSD).
pub const DELL_R740: &str = include_str!("../scenarios/dell_r740.json");
/// A 2020-class thin-and-light laptop (5 nm Arm SoC, 8 GB LPDDR4X,
/// 512 GB NAND).
pub const LAPTOP: &str = include_str!("../scenarios/laptop.json");
/// A smartwatch-class wearable (7 nm SiP, 1 GB DRAM, 32 GB NAND).
pub const WEARABLE: &str = include_str!("../scenarios/wearable.json");

/// All documents, paper platforms first.
pub const ALL: [&str; 6] = [IPHONE_11, IPAD, FAIRPHONE_3, DELL_R740, LAPTOP, WEARABLE];
