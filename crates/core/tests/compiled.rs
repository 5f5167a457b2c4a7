//! Deterministic tests pinning the compiled-kernel contract: for valid
//! `ModelParams` and every subset of free axes, [`CompiledFootprint::eval`]
//! is **bit-for-bit** identical to substituting the point into the params
//! and calling the interpreted oracle [`ModelParams::try_footprint`] — and
//! the `act_core::memo` caches never change a result, under concurrency
//! included.
//!
//! Cases come from a seeded `act_rng` stream, so the suite covers a wide —
//! and exactly reproducible — slice of the case space.

use act_core::{memo, CompiledFootprint, FreeAxis, ModelParams};
use act_data::{DramTechnology, HddModel, ProcessNode, SsdTechnology};
use act_rng::Rng;
use act_units::{Capacity, TimeSpan};

/// The seven scalar (non-storage) axes, in a fixed order for masking.
const SCALAR_AXES: [FreeAxis; 7] = [
    FreeAxis::ExecutionTime,
    FreeAxis::Lifetime,
    FreeAxis::SocArea,
    FreeAxis::UseIntensity,
    FreeAxis::FabIntensity,
    FreeAxis::FabYield,
    FreeAxis::Energy,
];

/// Randomized cases per property — each derives its params, mask and point
/// from one seeded stream, so failures replay exactly.
const CASES: u64 = 64;

/// Draws `ModelParams` strictly inside Table 1's valid ranges, with 0–2
/// entries per storage population.
fn draw_params(rng: &mut Rng) -> ModelParams {
    let node = ProcessNode::ALL[rng.gen_range(0..ProcessNode::ALL.len())];
    let storage_len = |rng: &mut Rng| rng.gen_range(0..3_usize);
    let dram = (0..storage_len(rng))
        .map(|_| {
            let i = rng.gen_range(0..DramTechnology::ALL.len());
            (DramTechnology::ALL[i], rng.gen_range(0.0..2048.0))
        })
        .collect();
    let ssd = (0..storage_len(rng))
        .map(|_| {
            let i = rng.gen_range(0..SsdTechnology::ALL.len());
            (SsdTechnology::ALL[i], rng.gen_range(0.0..4096.0))
        })
        .collect();
    let hdd = (0..storage_len(rng))
        .map(|_| {
            let i = rng.gen_range(0..HddModel::ALL.len());
            (HddModel::ALL[i], rng.gen_range(0.0..8192.0))
        })
        .collect();
    ModelParams {
        execution_time_s: rng.gen_range(0.0..1e6),
        lifetime_years: rng.gen_range(0.1..50.0),
        packaged_ic_count: rng.gen_range(0..8_u32),
        soc_area_mm2: rng.gen_range(0.0..1500.0),
        process_node: node,
        use_intensity_g_per_kwh: rng.gen_range(0.0..2000.0),
        fab_intensity_g_per_kwh: rng.gen_range(0.0..2000.0),
        fab_yield: rng.gen_range(0.05..1.0),
        dram,
        ssd,
        hdd,
        energy_j: rng.gen_range(0.0..1e9),
    }
}

/// Selects a subset of the axes available for `params` from the bits of
/// `mask`: seven scalar axes first, then one capacity axis per storage
/// population entry.
fn free_axes(params: &ModelParams, mask: u32) -> Vec<FreeAxis> {
    let mut axes = Vec::new();
    let mut bit = 0u32;
    let mut take = |axis: FreeAxis| {
        if mask & (1 << bit) != 0 {
            axes.push(axis);
        }
        bit += 1;
    };
    for axis in SCALAR_AXES {
        take(axis);
    }
    for k in 0..params.dram.len() {
        take(FreeAxis::DramCapacity(k));
    }
    for k in 0..params.ssd.len() {
        take(FreeAxis::SsdCapacity(k));
    }
    for k in 0..params.hdd.len() {
        take(FreeAxis::HddCapacity(k));
    }
    axes
}

/// Maps a unit draw `u ∈ [0, 1)` onto a valid coordinate for `axis`.
fn coordinate(axis: FreeAxis, u: f64) -> f64 {
    match axis {
        FreeAxis::ExecutionTime => u * 1e6,
        FreeAxis::Lifetime => 0.1 + u * 49.0,
        FreeAxis::SocArea => u * 1500.0,
        FreeAxis::UseIntensity | FreeAxis::FabIntensity => u * 2000.0,
        FreeAxis::FabYield => 0.05 + u * 0.95,
        FreeAxis::Energy => u * 1e9,
        FreeAxis::DramCapacity(_) | FreeAxis::SsdCapacity(_) | FreeAxis::HddCapacity(_) => {
            u * 4096.0
        }
    }
}

/// Draws an in-range point for `axes` from the case's unit-draw stream.
fn draw_point(rng: &mut Rng, axes: &[FreeAxis]) -> Vec<f64> {
    axes.iter().map(|axis| coordinate(*axis, rng.gen::<f64>())).collect()
}

/// The interpreted oracle: substitute the point into a clone of `params`
/// field-by-field, then run the full per-point pipeline.
fn oracle(params: &ModelParams, axes: &[FreeAxis], point: &[f64]) -> f64 {
    let mut substituted = params.clone();
    for (axis, value) in axes.iter().zip(point) {
        match axis {
            FreeAxis::ExecutionTime => substituted.execution_time_s = *value,
            FreeAxis::Lifetime => substituted.lifetime_years = *value,
            FreeAxis::SocArea => substituted.soc_area_mm2 = *value,
            FreeAxis::UseIntensity => substituted.use_intensity_g_per_kwh = *value,
            FreeAxis::FabIntensity => substituted.fab_intensity_g_per_kwh = *value,
            FreeAxis::FabYield => substituted.fab_yield = *value,
            FreeAxis::Energy => substituted.energy_j = *value,
            FreeAxis::DramCapacity(k) => substituted.dram[*k].1 = *value,
            FreeAxis::SsdCapacity(k) => substituted.ssd[*k].1 = *value,
            FreeAxis::HddCapacity(k) => substituted.hdd[*k].1 = *value,
        }
    }
    substituted.try_footprint().expect("substituted params stay valid").as_grams()
}

/// The headline property: any axis subset, any in-range point — compiled
/// and interpreted paths agree to the last bit.
#[test]
fn compiled_eval_matches_try_footprint_bitwise() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(act_rng::split_seed(0xC0DE, case));
        let params = draw_params(&mut rng);
        let mask: u32 = rng.gen();
        let axes = free_axes(&params, mask);
        let kernel = match CompiledFootprint::try_compile(&params, &axes) {
            Ok(kernel) => kernel,
            Err(err) => panic!("case {case}: valid params must compile: {err}"),
        };
        assert_eq!(kernel.arity(), axes.len());
        assert_eq!(kernel.axes(), axes.as_slice());
        let point = draw_point(&mut rng, &axes);
        let compiled = kernel.eval(&point);
        let interpreted = oracle(&params, &axes, &point);
        assert_eq!(
            compiled.to_bits(),
            interpreted.to_bits(),
            "case {case}, axes {axes:?}: compiled {compiled} vs interpreted {interpreted}"
        );
    }
}

/// A baseline in which every eq. 1 term is exactly zero and the `T/LT`
/// ratio is exactly `1.0`, so the one term a case switches back on *is*
/// the footprint: a last-bit change in that term cannot be absorbed by a
/// larger addend or rounded away by the amortization multiply.
fn silent(node: ProcessNode) -> ModelParams {
    ModelParams {
        execution_time_s: TimeSpan::years(3.0).as_seconds(),
        lifetime_years: 3.0,
        packaged_ic_count: 0,
        soc_area_mm2: 0.0,
        process_node: node,
        use_intensity_g_per_kwh: 0.0,
        fab_intensity_g_per_kwh: 0.0,
        fab_yield: 1.0,
        dram: Vec::new(),
        ssd: Vec::new(),
        hdd: Vec::new(),
        energy_j: 0.0,
    }
}

/// One term of eq. 1 / eq. 5 in isolation: its baseline, its free axes
/// and the coordinate range of each.
struct Isolated {
    term: String,
    params: ModelParams,
    axes: Vec<(FreeAxis, f64, f64)>,
}

/// One isolated case per term, per process node or storage technology.
fn isolated_terms() -> Vec<Isolated> {
    let mut cases = Vec::new();
    for node in ProcessNode::ALL {
        let soc = ModelParams { soc_area_mm2: 100.0, ..silent(node) };
        // Eq. 5 with CI_fab × EPA dominating GPA + MPA.
        cases.push(Isolated {
            term: format!("CPA energy, {node:?}"),
            params: soc.clone(),
            axes: vec![
                (FreeAxis::FabIntensity, 200.0, 2000.0),
                (FreeAxis::FabYield, 0.05, 1.0),
                (FreeAxis::SocArea, 1.0, 1500.0),
            ],
        });
        // Eq. 5 with the constant GPA + MPA dominating a small CI_fab × EPA:
        // the regime where `(energy + GPA) + MPA` rounds twice.
        cases.push(Isolated {
            term: format!("GPA + MPA, {node:?}"),
            params: soc,
            axes: vec![
                (FreeAxis::FabIntensity, 0.0, 20.0),
                (FreeAxis::FabYield, 0.05, 1.0),
                (FreeAxis::SocArea, 1.0, 1500.0),
            ],
        });
    }
    for technology in DramTechnology::ALL {
        cases.push(Isolated {
            term: format!("DRAM, {technology:?}"),
            params: ModelParams { dram: vec![(technology, 1.0)], ..silent(ProcessNode::N7) },
            axes: vec![(FreeAxis::DramCapacity(0), 0.0, 4096.0)],
        });
    }
    for technology in SsdTechnology::ALL {
        cases.push(Isolated {
            term: format!("SSD, {technology:?}"),
            params: ModelParams { ssd: vec![(technology, 1.0)], ..silent(ProcessNode::N7) },
            axes: vec![(FreeAxis::SsdCapacity(0), 0.0, 4096.0)],
        });
    }
    for model in HddModel::ALL {
        cases.push(Isolated {
            term: format!("HDD, {model:?}"),
            params: ModelParams { hdd: vec![(model, 1.0)], ..silent(ProcessNode::N7) },
            axes: vec![(FreeAxis::HddCapacity(0), 0.0, 8192.0)],
        });
    }
    // Packaging alone, under a free amortization ratio.
    for count in [1, 7, 30, 255] {
        cases.push(Isolated {
            term: format!("packaging, {count} ICs"),
            params: ModelParams { packaged_ic_count: count, ..silent(ProcessNode::N7) },
            axes: vec![(FreeAxis::ExecutionTime, 0.0, 1e9), (FreeAxis::Lifetime, 0.1, 50.0)],
        });
    }
    // The operational term (eq. 2) alone.
    cases.push(Isolated {
        term: "operational".to_owned(),
        params: silent(ProcessNode::N7),
        axes: vec![(FreeAxis::UseIntensity, 0.0, 2000.0), (FreeAxis::Energy, 0.0, 1e9)],
    });
    cases
}

/// Each eq. 1 / eq. 5 term on its own: per-point `eval` matches the
/// oracle bit for bit, and `eval_block` matches `eval`, on 256 points per
/// case. With every other term zero, reassociating the eq. 5 additions or
/// turning the yield division into a reciprocal multiply shows up in the
/// result.
#[test]
fn every_isolated_term_reaches_the_result_bitwise() {
    const POINTS: usize = 256;
    for (case, isolated) in isolated_terms().into_iter().enumerate() {
        let Isolated { term, params, axes } = isolated;
        let free: Vec<FreeAxis> = axes.iter().map(|(axis, _, _)| *axis).collect();
        let kernel = match CompiledFootprint::try_compile(&params, &free) {
            Ok(kernel) => kernel,
            Err(err) => panic!("{term}: valid params must compile: {err}"),
        };
        let mut rng = Rng::seed_from_u64(act_rng::split_seed(0x1507, case as u64));
        let columns: Vec<Vec<f64>> = axes
            .iter()
            .map(|&(_, low, high)| (0..POINTS).map(|_| rng.gen_range(low..high)).collect())
            .collect();
        let views: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
        let mut block = vec![f64::NAN; POINTS];
        kernel.plan().eval_block(&views, 0..POINTS, &mut block);
        for (i, blocked) in block.iter().enumerate() {
            let point: Vec<f64> = columns.iter().map(|column| column[i]).collect();
            let compiled = kernel.eval(&point);
            let interpreted = oracle(&params, &free, &point);
            assert_eq!(
                compiled.to_bits(),
                interpreted.to_bits(),
                "{term} at {point:?}: compiled {compiled} vs interpreted {interpreted}"
            );
            assert_eq!(
                blocked.to_bits(),
                compiled.to_bits(),
                "{term} at {point:?}: block {blocked} vs eval {compiled}"
            );
        }
    }
}

/// Arity-zero kernels fold the whole model into one constant equal to the
/// oracle's result for the baseline.
#[test]
fn fully_folded_kernel_matches_baseline_footprint() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(act_rng::split_seed(0xF01D, case));
        let params = draw_params(&mut rng);
        let kernel = match CompiledFootprint::try_compile(&params, &[]) {
            Ok(kernel) => kernel,
            Err(err) => panic!("case {case}: valid params must compile: {err}"),
        };
        let baseline = params.try_footprint().expect("valid params evaluate").as_grams();
        assert_eq!(kernel.eval(&[]).to_bits(), baseline.to_bits(), "case {case}");
    }
}

/// `try_eval` never disagrees with `eval` on in-range points.
#[test]
fn try_eval_agrees_with_eval_on_valid_points() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(act_rng::split_seed(0x7E57, case));
        let params = draw_params(&mut rng);
        let mask: u32 = rng.gen();
        let axes = free_axes(&params, mask);
        let kernel = match CompiledFootprint::try_compile(&params, &axes) {
            Ok(kernel) => kernel,
            Err(err) => panic!("case {case}: valid params must compile: {err}"),
        };
        let point = draw_point(&mut rng, &axes);
        let unchecked = kernel.eval(&point);
        match kernel.try_eval(&point) {
            Ok(checked) => assert_eq!(checked.to_bits(), unchecked.to_bits(), "case {case}"),
            // `try_eval` additionally rejects non-finite totals; `eval`
            // must then have produced exactly such a value.
            Err(_) => assert!(!unchecked.is_finite(), "case {case}"),
        }
    }
}

/// The memo caches are transparent: kernels compiled with interning
/// disabled and enabled evaluate identically (the cache may only ever
/// return what the direct computation would).
#[test]
fn memoization_never_changes_a_compiled_result() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(act_rng::split_seed(0x3E30, case));
        let params = draw_params(&mut rng);
        let mask: u32 = rng.gen();
        let axes = free_axes(&params, mask);
        let point = draw_point(&mut rng, &axes);
        memo::set_enabled(false);
        let cold = CompiledFootprint::compile(&params, &axes).eval(&point);
        memo::set_enabled(true);
        let warm = CompiledFootprint::compile(&params, &axes).eval(&point);
        assert_eq!(cold.to_bits(), warm.to_bits(), "case {case}");
    }
}

/// Hammers the sharded caches from eight threads with a shared key set and
/// checks every hit against the direct computation, bit for bit.
#[test]
fn memo_cache_is_bitwise_consistent_under_concurrent_access() {
    memo::set_enabled(true);
    let params = ModelParams::mobile_reference();
    let fab = params.try_fab_scenario().expect("reference fab scenario");
    let capacities = [0.0, 1.0, 8.0, 128.0, 2048.0];

    // Direct (uncached) expectations, computed once up front.
    let expected_cpa: Vec<u64> = ProcessNode::ALL
        .iter()
        .map(|node| fab.carbon_per_area(*node).as_grams_per_cm2().to_bits())
        .collect();
    let expected_dram: Vec<u64> = capacities
        .iter()
        .map(|gb| {
            (DramTechnology::Lpddr4.carbon_per_gb() * Capacity::gigabytes(*gb))
                .as_grams()
                .to_bits()
        })
        .collect();

    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                for _ in 0..200 {
                    for (node, want) in ProcessNode::ALL.iter().zip(&expected_cpa) {
                        let got = memo::carbon_per_area(&fab, *node).as_grams_per_cm2();
                        assert_eq!(got.to_bits(), *want, "cpa({node:?}) diverged");
                    }
                    for (gb, want) in capacities.iter().zip(&expected_dram) {
                        let got = memo::dram_embodied(
                            DramTechnology::Lpddr4,
                            Capacity::gigabytes(*gb),
                        )
                        .as_grams();
                        assert_eq!(got.to_bits(), *want, "dram({gb} GB) diverged");
                    }
                }
            });
        }
    });
}
