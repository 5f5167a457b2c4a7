//! Fleet Monte-Carlo contract tests: thread-count bit-identity, the
//! point-distribution ↔ single-device consistency law, per-draw identity
//! of the column sampler with the scalar `Rng` API, rejection
//! accounting, deadline prefix determinism, and compile-time validation
//! of fleet blocks.

use std::time::{Duration, Instant};

use act_core::{OperationalModel, INTENSITY_RANGE, LIFETIME_RANGE};
use act_dse::{
    mc_sample_seed, try_triangular, BatchRun, EvalBudget, McBuffer, McError, McOutcome,
};
use act_rng::Rng;
use act_scenario::{Distribution, Scenario, ScenarioError};
use act_units::{CarbonIntensity, Energy, SECONDS_PER_YEAR};

/// A phone-class scenario with genuinely random distributions.
fn fleet_doc() -> &'static str {
    r#"{
        "name": "handset fleet",
        "chips": [{"name": "SoC", "node": "N7", "area_mm2": 98.5, "count": 1}],
        "dram": [{"technology": "Lpddr4", "capacity_gb": 4.0}],
        "ssd": [{"technology": "V3NandTlc", "capacity_gb": 64.0}],
        "packaged_ic_count": 30,
        "workload": {
            "power_w": 2.5, "utilization": 0.15,
            "lifetime_years": 3.0, "use_intensity_g_per_kwh": 301.0
        },
        "fleet": {
            "devices": 1000000, "samples": 4096, "seed": 7,
            "lifetime_years": {"dist": "triangular", "low": 1.0, "mode": 3.0, "high": 6.0},
            "use_intensity_g_per_kwh": {"dist": "normal", "mean": 301.0, "std_dev": 80.0},
            "utilization": {"dist": "uniform", "low": 0.05, "high": 0.3}
        }
    }"#
}

/// The draws as a multiset: their bit patterns, sorted. A run's buffer
/// holds its draws in no particular order, so draws compare this way.
fn draw_bits(draws: impl Iterator<Item = f64>) -> Vec<u64> {
    let mut bits: Vec<u64> = draws.map(f64::to_bits).collect();
    bits.sort_unstable();
    bits
}

/// Asserts that `outcome` is the summary of `draws` (in sample order,
/// rejected ones NaN) by definition, bit for bit: the finite draws'
/// Neumaier-compensated mean in sample order and their percentiles
/// `sorted[round((n - 1) * q)]`.
fn assert_reference(outcome: Result<McOutcome, McError>, draws: &[f64], context: &str) {
    let finite: Vec<f64> = draws.iter().copied().filter(|v| v.is_finite()).collect();
    let rejected = draws.len() - finite.len();
    if finite.is_empty() {
        assert_eq!(outcome, Err(McError::AllRejected { rejected }), "{context}");
        return;
    }
    let outcome = outcome.unwrap_or_else(|err| panic!("{context}: {err}"));
    let (mut sum, mut compensation) = (0.0_f64, 0.0_f64);
    for &v in &finite {
        let t = sum + v;
        compensation += if sum.abs() >= v.abs() { (sum - t) + v } else { (v - t) + sum };
        sum = t;
    }
    let total = if sum.is_finite() { sum + compensation } else { sum };
    let mut sorted = finite;
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize].to_bits();
    let stats = &outcome.stats;
    assert_eq!((stats.samples, outcome.rejected), (sorted.len(), rejected), "{context}");
    assert_eq!(
        [stats.mean, stats.p05, stats.p50, stats.p95].map(f64::to_bits),
        [(total / sorted.len() as f64).to_bits(), at(0.05), at(0.5), at(0.95)],
        "mean, p05, p50, p95: {context}"
    );
}

/// Sharding is a scheduling decision, never a numerical one: the serial
/// and 8-thread runs agree on every statistic and every draw, bit for
/// bit.
#[test]
fn fleet_outcome_is_bit_identical_across_thread_counts() {
    let compiled = Scenario::parse(fleet_doc()).expect("parse").compile().expect("compile");
    let fleet = compiled.fleet().expect("fleet block");
    let budget = EvalBudget::unlimited();

    let mut serial_buf = McBuffer::new();
    let (serial, run) = fleet.run(1, &mut serial_buf, &budget).expect("serial run");
    assert_eq!(run, BatchRun::Completed);

    let mut par_buf = McBuffer::new();
    let (par, run) = fleet.run(8, &mut par_buf, &budget).expect("parallel run");
    assert_eq!(run, BatchRun::Completed);

    assert_eq!(serial.stats.mean.to_bits(), par.stats.mean.to_bits());
    assert_eq!(serial.stats.p05.to_bits(), par.stats.p05.to_bits());
    assert_eq!(serial.stats.p50.to_bits(), par.stats.p50.to_bits());
    assert_eq!(serial.stats.p95.to_bits(), par.stats.p95.to_bits());
    assert_eq!(serial.stats.samples, par.stats.samples);
    assert_eq!(serial.rejected, par.rejected);
    assert_eq!(serial_buf.draws().len(), par_buf.draws().len());
    assert_eq!(draw_bits(serial_buf.draws()), draw_bits(par_buf.draws()));
    // The fleet total scales the per-device mean; with a million devices
    // it must dwarf a single handset's footprint.
    assert!(fleet.fleet_total_grams(&serial) > serial.stats.mean * 1e5);
}

/// The committed server-class fleet fixture, pinned bit for bit: the
/// embodied total, the device footprint, the Monte-Carlo statistics and
/// the fleet total, identical on 1 and 2 threads. A lowering that drops
/// the embodied term or amortizes it by anything but exactly `T/LT = 1`
/// moves every one of these bits.
#[test]
fn server_fleet_fixture_is_pinned_bitwise() {
    let doc = include_str!("../../cli/tests/fixtures/fleet_server.json");
    let compiled = Scenario::parse(doc).expect("parse").compile().expect("compile");
    assert_eq!(compiled.embodied_grams().to_bits(), 0x4110_4f28_80bb_3ee7);
    let device = compiled.device().expect("device footprint");
    assert_eq!(device.operational_g.to_bits(), 0x4145_5550_0000_0000);
    assert_eq!(device.total_g.to_bits(), 0x4147_5f35_1017_67dd);

    let fleet = compiled.fleet().expect("fleet block");
    for threads in [1, 2] {
        let mut buf = McBuffer::new();
        let (outcome, run) =
            fleet.run(threads, &mut buf, &EvalBudget::unlimited()).expect("fleet run");
        assert_eq!(run, BatchRun::Completed);
        let stats = &outcome.stats;
        let bits = [stats.mean, stats.p05, stats.p50, stats.p95].map(f64::to_bits);
        assert_eq!(
            bits,
            [
                0x4149_3185_dca8_8a8b,
                0x4138_56ac_d911_4b01,
                0x4147_bb3e_b533_9b8b,
                0x4155_a71b_0ca1_bb72
            ],
            "mean, p05, p50, p95 on {threads} thread(s)"
        );
        assert_eq!((stats.samples, outcome.rejected), (20_000, 0), "{threads} thread(s)");
        assert_eq!(fleet.fleet_total_grams(&outcome).to_bits(), 0x4253_3898_70e9_5633);
    }
}

/// The reported percentiles are order statistics of the finite draws:
/// bit for bit `sorted[round((n - 1) * q)]`, whatever the thread count.
#[test]
fn fleet_percentiles_are_sorted_order_statistics_of_the_draws() {
    let compiled = Scenario::parse(fleet_doc()).expect("parse").compile().expect("compile");
    let fleet = compiled.fleet().expect("fleet block");
    for threads in [1, 2] {
        let mut buf = McBuffer::new();
        let (outcome, run) =
            fleet.run(threads, &mut buf, &EvalBudget::unlimited()).expect("fleet run");
        assert_eq!(run, BatchRun::Completed);
        assert_eq!(outcome.stats.samples + outcome.rejected, fleet.samples());

        let mut sorted: Vec<f64> = buf.draws().filter(|v| v.is_finite()).collect();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(sorted.len(), outcome.stats.samples);
        let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize].to_bits();
        assert_eq!(outcome.stats.p05.to_bits(), at(0.05), "p05, {threads} thread(s)");
        assert_eq!(outcome.stats.p50.to_bits(), at(0.5), "p50, {threads} thread(s)");
        assert_eq!(outcome.stats.p95.to_bits(), at(0.95), "p95, {threads} thread(s)");
    }
}

/// Point distributions pin every draw to the workload's values, so each
/// Monte-Carlo sample reproduces the single-device footprint exactly —
/// the fleet path and the device path are the same kernel. Checked for
/// the reference workload and 16 seeded workloads spanning the validated
/// ranges; 257 samples run both the lane body and the scalar tail.
#[test]
fn point_distributions_reproduce_the_device_footprint_bitwise() {
    let mut rng = Rng::seed_from_u64(0xf1ee7);
    let mut workloads = vec![(2.5, 0.15, 3.0, 301.0)];
    workloads.extend((0..16).map(|_| {
        let power_w = 10f64.powf(rng.gen_range(-3.0..6.0));
        let utilization = rng.gen_range(0.0..1.0);
        let lifetime_years = rng.gen_range(0.1..50.0);
        let intensity = rng.gen_range(0.0..2000.0);
        (power_w, utilization, lifetime_years, intensity)
    }));
    for (power_w, utilization, lifetime_years, intensity) in workloads {
        let doc = format!(
            r#"{{
            "name": "degenerate fleet",
            "chips": [{{"name": "SoC", "node": "N7", "area_mm2": 98.5, "count": 1}}],
            "packaged_ic_count": 30,
            "workload": {{
                "power_w": {power_w}, "utilization": {utilization},
                "lifetime_years": {lifetime_years}, "use_intensity_g_per_kwh": {intensity}
            }},
            "fleet": {{
                "devices": 50, "samples": 257, "seed": 1,
                "lifetime_years": {{"dist": "point", "value": {lifetime_years}}},
                "use_intensity_g_per_kwh": {{"dist": "point", "value": {intensity}}},
                "utilization": {{"dist": "point", "value": {utilization}}}
            }}
        }}"#
        );
        let workload =
            format!("{power_w} W, u {utilization}, {lifetime_years} y, {intensity} g/kWh");
        let compiled = Scenario::parse(&doc).expect("parse").compile().expect("compile");
        let device = compiled.device().expect("device footprint");
        let fleet = compiled.fleet().expect("fleet block");

        let mut buf = McBuffer::new();
        let (outcome, _) = fleet.run(1, &mut buf, &EvalBudget::unlimited()).expect("run");
        assert_eq!(outcome.rejected, 0, "{workload}");
        assert_eq!(buf.draws().len(), 257, "{workload}");
        for draw in buf.draws() {
            assert_eq!(
                draw.to_bits(),
                device.total_g.to_bits(),
                "a sample diverged from the device footprint at {workload}"
            );
        }
    }
}

/// `{"dist": ...}` for a distribution.
fn dist_json(dist: Distribution) -> String {
    match dist {
        Distribution::Point { value } => format!(r#"{{"dist": "point", "value": {value:?}}}"#),
        Distribution::Uniform { low, high } => {
            format!(r#"{{"dist": "uniform", "low": {low:?}, "high": {high:?}}}"#)
        }
        Distribution::Triangular { low, mode, high } => format!(
            r#"{{"dist": "triangular", "low": {low:?}, "mode": {mode:?}, "high": {high:?}}}"#
        ),
        Distribution::Normal { mean, std_dev } => {
            format!(r#"{{"dist": "normal", "mean": {mean:?}, "std_dev": {std_dev:?}}}"#)
        }
    }
}

/// One draw through the scalar `Rng` API: the interpreted form the
/// column sampler must reproduce bit for bit.
fn scalar_draw(dist: Distribution, rng: &mut Rng) -> f64 {
    match dist {
        Distribution::Point { value } => value,
        Distribution::Uniform { low, high } => rng.gen_range(low..high),
        Distribution::Triangular { low, mode, high } => {
            try_triangular(rng, low, mode, high).expect("valid triangular")
        }
        Distribution::Normal { mean, std_dev } => rng.normal_with(mean, std_dev),
    }
}

/// Every distribution kind in every slot (lifetime, intensity,
/// utilization), with sample counts that are not a multiple of a block or
/// a lane pair, on 1 and 3 threads and under a deadline: `McBuffer::draws()`
/// holds exactly the scalar re-derivations of the (completed) samples —
/// each sample's `Rng` from `mc_sample_seed`, three scalar draws in the
/// contract's order, the Table 1 range check, and the operational model
/// plus the embodied total — bit for bit, and the outcome is their
/// summary by definition. Each kind's parameters put some draws out of
/// range, so rejections are covered too.
#[test]
fn column_sampler_matches_scalar_draws_bitwise() {
    let kinds: [[Distribution; 4]; 3] = [
        [
            Distribution::Point { value: 3.0 },
            Distribution::Uniform { low: 0.5, high: 8.0 },
            Distribution::Triangular { low: 0.05, mode: 2.0, high: 3.0 },
            Distribution::Normal { mean: 4.0, std_dev: 3.0 },
        ],
        [
            Distribution::Point { value: 301.0 },
            Distribution::Uniform { low: 0.0, high: 900.0 },
            Distribution::Triangular { low: 30.0, mode: 380.0, high: 2100.0 },
            Distribution::Normal { mean: 380.0, std_dev: 200.0 },
        ],
        [
            Distribution::Point { value: 0.2 },
            Distribution::Uniform { low: 0.05, high: 0.95 },
            Distribution::Triangular { low: 0.0, mode: 0.3, high: 1.0 },
            Distribution::Normal { mean: 0.2, std_dev: 0.15 },
        ],
    ];
    let power_w = 2.5;
    for rotation in 0..4 {
        let [lifetime, intensity, utilization] =
            [0, 1, 2].map(|slot| kinds[slot][(rotation + slot) % 4]);
        for samples in [63, 4097] {
            let seed = 11 + rotation as u64;
            let doc = format!(
                r#"{{
                "name": "every kind",
                "chips": [{{"name": "SoC", "node": "N7", "area_mm2": 98.5, "count": 1}}],
                "packaged_ic_count": 30,
                "workload": {{
                    "power_w": {power_w}, "utilization": 0.2,
                    "lifetime_years": 3.0, "use_intensity_g_per_kwh": 301.0
                }},
                "fleet": {{
                    "devices": 10, "samples": {samples}, "seed": {seed},
                    "lifetime_years": {},
                    "use_intensity_g_per_kwh": {},
                    "utilization": {}
                }}
            }}"#,
                dist_json(lifetime),
                dist_json(intensity),
                dist_json(utilization),
            );
            let compiled = Scenario::parse(&doc).expect("parse").compile().expect("compile");
            let embodied_g = compiled.embodied_grams();
            let expected: Vec<f64> = (0..samples)
                .map(|i| {
                    let mut rng = Rng::seed_from_u64(mc_sample_seed(seed, i as u64));
                    let l = scalar_draw(lifetime, &mut rng);
                    let ci = scalar_draw(intensity, &mut rng);
                    let u = scalar_draw(utilization, &mut rng);
                    if !(LIFETIME_RANGE.contains(&l)
                        && INTENSITY_RANGE.contains(&ci)
                        && (0.0..=1.0).contains(&u))
                    {
                        return f64::NAN;
                    }
                    // Eq. 1 over the whole lifetime: `T/LT = 1`.
                    let energy = Energy::joules(power_w * u * (l * SECONDS_PER_YEAR));
                    let intensity = CarbonIntensity::grams_per_kwh(ci);
                    OperationalModel::new(intensity).footprint(energy).as_grams() + embodied_g
                })
                .collect();
            let rejected = expected.iter().filter(|v| v.is_nan()).count();
            let context = format!("rotation {rotation}, {samples} samples");
            assert!(rejected < samples, "{context}: every draw rejected");

            let fleet = compiled.fleet().expect("fleet block");
            let check = |buf: &McBuffer, expected: &[f64], label: &str| {
                assert_eq!(
                    draw_bits(buf.draws()),
                    draw_bits(expected.iter().copied()),
                    "{context}, {label}: the draws differ from the scalar path"
                );
            };
            for threads in [1, 3] {
                let mut buf = McBuffer::new();
                let result = fleet.run(threads, &mut buf, &EvalBudget::unlimited());
                let label = format!("{threads} threads");
                let outcome = result.map(|(outcome, run)| {
                    assert_eq!(run, BatchRun::Completed, "{context}, {label}");
                    outcome
                });
                assert_eq!(outcome.map(|o| o.rejected), Ok(rejected), "{context}, {label}");
                assert_reference(outcome, &expected, &format!("{context}, {label}"));
                check(&buf, &expected, &label);
            }
            let budget = EvalBudget::with_deadline(Instant::now() + Duration::from_micros(300))
                .check_every(16);
            let mut buf = McBuffer::new();
            let result = fleet.run(1, &mut buf, &budget);
            let completed = match result {
                Ok((_, BatchRun::Completed)) => samples,
                Ok((_, BatchRun::DeadlineExceeded { completed })) => completed,
                Err(McError::AllRejected { rejected }) => rejected,
                Err(McError::NoSamples) => continue,
                Err(other) => panic!("{context}: unexpected error {other:?}"),
            };
            let prefix = &expected[..completed];
            assert_reference(result.map(|(outcome, _)| outcome), prefix, &context);
            check(&buf, prefix, "deadline prefix");
        }
    }
}

/// Out-of-range draws (a wide normal's tail) are counted as rejections;
/// the surviving statistics stay finite.
#[test]
fn out_of_range_draws_are_rejected_not_poisoned() {
    let doc = r#"{
        "name": "noisy fleet",
        "chips": [{"name": "SoC", "node": "N7", "area_mm2": 50.0, "count": 1}],
        "packaged_ic_count": 8,
        "workload": {
            "power_w": 1.0, "utilization": 0.5,
            "lifetime_years": 3.0, "use_intensity_g_per_kwh": 300.0
        },
        "fleet": {
            "devices": 10, "samples": 2048, "seed": 42,
            "lifetime_years": {"dist": "normal", "mean": 3.0, "std_dev": 10.0},
            "use_intensity_g_per_kwh": {"dist": "point", "value": 300.0},
            "utilization": {"dist": "point", "value": 0.5}
        }
    }"#;
    let compiled = Scenario::parse(doc).expect("parse").compile().expect("compile");
    let fleet = compiled.fleet().expect("fleet block");
    let mut buf = McBuffer::new();
    let (outcome, _) = fleet.run(1, &mut buf, &EvalBudget::unlimited()).expect("run");
    assert!(outcome.rejected > 0, "a std_dev-10 normal must throw tails outside [0.1, 50]");
    assert!(outcome.stats.samples + outcome.rejected == 2048);
    for stat in [outcome.stats.mean, outcome.stats.p05, outcome.stats.p50, outcome.stats.p95] {
        assert!(stat.is_finite());
    }
}

/// A distribution whose entire support is out of range rejects every
/// draw and surfaces as the typed `AllRejected` error, never a panic.
#[test]
fn fully_out_of_range_support_is_all_rejected() {
    let doc = r#"{
        "name": "broken fleet",
        "chips": [{"name": "SoC", "node": "N7", "area_mm2": 50.0, "count": 1}],
        "packaged_ic_count": 8,
        "workload": {
            "power_w": 1.0, "utilization": 0.5,
            "lifetime_years": 3.0, "use_intensity_g_per_kwh": 300.0
        },
        "fleet": {
            "devices": 10, "samples": 64, "seed": 3,
            "lifetime_years": {"dist": "point", "value": 100.0},
            "use_intensity_g_per_kwh": {"dist": "point", "value": 300.0},
            "utilization": {"dist": "point", "value": 0.5}
        }
    }"#;
    let compiled = Scenario::parse(doc).expect("parse").compile().expect("compile");
    let fleet = compiled.fleet().expect("fleet block");
    let mut buf = McBuffer::new();
    let err = fleet.run(1, &mut buf, &EvalBudget::unlimited()).expect_err("must reject all");
    assert!(matches!(err, McError::AllRejected { rejected: 64 }), "got {err:?}");
}

/// A deadline that expires mid-run completes a prefix, and that prefix
/// is bitwise identical to an unlimited run of as many samples — the
/// budget changes how far we get, never what we compute.
#[test]
fn deadline_cutoff_yields_a_bitwise_prefix() {
    let sized = |samples: usize| {
        let doc = fleet_doc().replace("\"samples\": 4096", &format!("\"samples\": {samples}"));
        Scenario::parse(&doc).expect("parse").compile().expect("compile")
    };
    let compiled = sized(400_000);
    let fleet = compiled.fleet().expect("fleet block");

    let deadline = Instant::now() + Duration::from_micros(500);
    let budget = EvalBudget::with_deadline(deadline).check_every(64);
    let mut clipped = McBuffer::new();
    match fleet.run(1, &mut clipped, &budget) {
        Ok((outcome, run)) => {
            let completed = match run {
                BatchRun::Completed => 400_000,
                BatchRun::DeadlineExceeded { completed } => completed,
            };
            assert_eq!(outcome.stats.samples + outcome.rejected, completed);
            // Seed-splitting makes the first `completed` samples of any run
            // the same draws, so the prefix is a whole run of that size.
            let compiled = sized(completed);
            let mut reference = McBuffer::new();
            let (whole, run) = compiled
                .fleet()
                .expect("fleet block")
                .run(1, &mut reference, &EvalBudget::unlimited())
                .expect("reference");
            assert_eq!(run, BatchRun::Completed);
            assert_eq!(draw_bits(clipped.draws()), draw_bits(reference.draws()));
            let bits = |o: &McOutcome| {
                [o.stats.mean, o.stats.p05, o.stats.p50, o.stats.p95].map(f64::to_bits)
            };
            assert_eq!(bits(&outcome), bits(&whole), "prefix statistics");
            assert_eq!(
                (outcome.stats.samples, outcome.rejected),
                (whole.stats.samples, whole.rejected)
            );
        }
        // The deadline can expire before the first block on a loaded
        // machine; that is the documented NoSamples path, not a failure.
        Err(McError::NoSamples) => {}
        Err(other) => panic!("unexpected error: {other:?}"),
    }
}

/// Fleet blocks are rejected at compile time without a workload and with
/// malformed distributions.
#[test]
fn fleet_validation_rejects_bad_blocks_with_typed_errors() {
    let no_workload = r#"{
        "name": "x",
        "chips": [{"name": "SoC", "node": "N7", "area_mm2": 50.0, "count": 1}],
        "packaged_ic_count": 8,
        "fleet": {
            "devices": 10, "samples": 64,
            "lifetime_years": {"dist": "point", "value": 3.0},
            "use_intensity_g_per_kwh": {"dist": "point", "value": 300.0},
            "utilization": {"dist": "point", "value": 0.5}
        }
    }"#;
    let err = Scenario::parse(no_workload).expect("parse").compile().expect_err("no workload");
    assert!(matches!(err, ScenarioError::Invalid { field: "fleet", .. }), "{err}");

    let bad_dist = r#"{
        "name": "x",
        "chips": [{"name": "SoC", "node": "N7", "area_mm2": 50.0, "count": 1}],
        "packaged_ic_count": 8,
        "workload": {
            "power_w": 1.0, "utilization": 0.5,
            "lifetime_years": 3.0, "use_intensity_g_per_kwh": 300.0
        },
        "fleet": {
            "devices": 10, "samples": 64,
            "lifetime_years": {"dist": "triangular", "low": 5.0, "mode": 2.0, "high": 1.0},
            "use_intensity_g_per_kwh": {"dist": "point", "value": 300.0},
            "utilization": {"dist": "point", "value": 0.5}
        }
    }"#;
    let err = Scenario::parse(bad_dist).expect("parse").compile().expect_err("bad triangular");
    assert!(
        matches!(err, ScenarioError::Invalid { field: "fleet.lifetime_years", .. }),
        "{err}"
    );

    let zero_samples = r#"{
        "name": "x",
        "chips": [{"name": "SoC", "node": "N7", "area_mm2": 50.0, "count": 1}],
        "packaged_ic_count": 8,
        "workload": {
            "power_w": 1.0, "utilization": 0.5,
            "lifetime_years": 3.0, "use_intensity_g_per_kwh": 300.0
        },
        "fleet": {
            "devices": 10, "samples": 0,
            "lifetime_years": {"dist": "point", "value": 3.0},
            "use_intensity_g_per_kwh": {"dist": "point", "value": 300.0},
            "utilization": {"dist": "point", "value": 0.5}
        }
    }"#;
    let err =
        Scenario::parse(zero_samples).expect("parse").compile().expect_err("zero samples");
    assert!(matches!(err, ScenarioError::Invalid { field: "fleet.samples", .. }), "{err}");

    // One past the 4,000,000-sample ceiling.
    let too_many = zero_samples.replace("\"samples\": 0", "\"samples\": 4000001");
    let err = Scenario::parse(&too_many).expect("parse").compile().expect_err("too many");
    assert!(matches!(err, ScenarioError::Invalid { field: "fleet.samples", .. }), "{err}");
    assert!(err.to_string().contains("at most 4000000 samples"), "{err}");
}
