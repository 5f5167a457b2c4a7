//! Byte-level golden pin for the Figure 15 study, plus bit-exact pins of
//! every simulated write amplification in fig15, which the ablations'
//! write-amplification study reads at 16 % and 34 %.
//!
//! The fig15 FTL hot loop has been rewritten for speed several times
//! (cached geometry, incremental GC scan keys, bulk victim copies, the
//! precomputed trace sampler in `act-rng`, host writes in stretches, and
//! `u16` page maps with a valid-page bitset in place of the `u32` reverse
//! map and per-block valid counts). Every one of those rewrites
//! claims bit-identical behavior; this test is the claim's enforcement.
//! The expected text below is the **exact** renderer output from the
//! pre-optimization implementation — if any refactor shifts a single
//! simulated write, a WA value changes and this fails byte-for-byte.
//!
//! Regenerating (only valid after an *intentional* semantic change, e.g.
//! a new trace seed or grid): `act fig15` and paste the output here, in
//! the same commit that justifies the change.
//!
//! Each pin also holds for the parallel runner, whose job list spreads the
//! simulator runs over the pool, on every thread count, alone and inside
//! `all`.

use act_dse::Parallelism;
use act_experiments::{ablations, fig15, par_try_render_experiment, OutputFormat};
use act_json::JsonValue;

const GOLDEN: &str = "\
== Figure 15: SSD over-provisioning study ==
   PF  WA (model)  WA (FTL sim)  lifetime yr  1st life CO2  2nd life CO2
  ------------------------------------------------------------------------
   4%       13.00          7.44         0.51          1.00          2.00
  10%        5.50          4.32         1.26          0.42          0.85
  16%        3.62          3.17         2.02          0.28          0.56
  22%        2.77          2.55         2.78          0.30          0.43
  28%        2.29          2.23         3.54          0.31          0.35
  34%        1.97          1.99         4.30          0.33          0.33
  40%        1.75          1.82         5.06          0.34          0.34
  first-life optimal PF 16% | second-life optimal PF 34% | per-year reduction 1.73x
";

/// The serial policy and one to four workers.
fn policies() -> [Parallelism; 5] {
    let t = Parallelism::threads;
    [Parallelism::Serial, t(1), t(2), t(3), t(4)]
}

/// `id` rendered by the runner as one JSON document.
fn runner_json(id: &str, parallelism: Parallelism) -> JsonValue {
    let json = par_try_render_experiment(id, OutputFormat::Json, parallelism)
        .unwrap_or_else(|err| panic!("{id} under {parallelism:?}: {err}"));
    JsonValue::parse(&json).unwrap_or_else(|err| panic!("{id} JSON: {err}"))
}

#[test]
fn rendered_study_is_byte_identical_to_the_golden() {
    assert_eq!(fig15::run().to_string(), GOLDEN);
    for parallelism in policies() {
        let text = par_try_render_experiment("fig15", OutputFormat::Text, parallelism);
        assert_eq!(text.as_deref(), Ok(GOLDEN), "{parallelism:?}");
    }
    let all = par_try_render_experiment("all", OutputFormat::Text, Parallelism::threads(4));
    assert!(all.is_ok_and(|all| all.contains(GOLDEN)));
}

#[test]
fn simulated_wa_values_are_pinned_to_full_precision_within_display_rounding() {
    // The table rounds to 2 decimals; additionally pin every raw simulated
    // WA bit for bit (captured before the one-loop host-write path and the
    // chunked victim search), so sub-rounding drift is caught too.
    const PINNED: [(&str, u64); 7] = [
        ("4%", 0x401d_bdd9_7f62_b6ae),
        ("10%", 0x4011_49c7_79a6_b50b),
        ("16%", 0x4009_5837_b4a2_339c),
        ("22%", 0x4004_6e7d_566c_f41f),
        ("28%", 0x4001_db71_758e_2196),
        ("34%", 0x3fff_c7e2_8240_b780),
        ("40%", 0x3ffd_290f_f972_4745),
    ];
    let rows = fig15::run().rows;
    assert_eq!(rows.len(), PINNED.len());
    for (row, (pf, bits)) in rows.iter().zip(PINNED) {
        assert_eq!(row.pf.to_string(), pf);
        assert_eq!(
            row.wa_simulated.to_bits(),
            bits,
            "PF {pf} simulated WA drifted: {} vs {}",
            row.wa_simulated,
            f64::from_bits(bits)
        );
    }
    assert!((rows[0].wa_simulated - 7.44).abs() < 0.005);
    // Determinism: the runner, its rows spread over workers, gives the
    // same bits (JSON numbers round-trip an f64 exactly).
    for parallelism in policies() {
        let doc = runner_json("fig15", parallelism);
        let runner_rows = doc["rows"].as_array().unwrap_or_default();
        assert_eq!(runner_rows.len(), PINNED.len());
        for (row, (pf, bits)) in runner_rows.iter().zip(PINNED) {
            let wa = row["wa_simulated"].as_f64().map(f64::to_bits);
            assert_eq!(wa, Some(bits), "PF {pf} under {parallelism:?}");
        }
    }
}

#[test]
fn ablation_ftl_wa_values_are_pinned_to_full_precision() {
    // The two "FTL sim @ PF" points of the write-amplification ablation
    // are fig15's 16 % and 34 % rows, bit for bit (the pins above).
    const PINNED: [(&str, u64); 2] =
        [("FTL sim @ 16%", 0x4009_5837_b4a2_339c), ("FTL sim @ 34%", 0x3fff_c7e2_8240_b780)];
    let serial: Vec<(String, u64)> = ablations::run()
        .studies
        .into_iter()
        .flat_map(|study| study.series)
        .filter(|(label, _)| label.starts_with("FTL sim"))
        .map(|(label, value)| (label, value.to_bits()))
        .collect();
    let pinned: Vec<(String, u64)> =
        PINNED.iter().map(|&(label, bits)| (label.to_owned(), bits)).collect();
    assert_eq!(serial, pinned, "serial");
    // The runner gives the same bits on every policy: each series entry
    // is a `[label, value]` pair.
    for parallelism in policies() {
        let doc = runner_json("ablations", parallelism);
        let simulated: Vec<(&str, u64)> = doc["studies"]
            .as_array()
            .unwrap_or_default()
            .iter()
            .flat_map(|study| study["series"].as_array().unwrap_or_default())
            .filter_map(|pair| Some((pair[0].as_str()?, pair[1].as_f64()?.to_bits())))
            .filter(|(label, _)| label.starts_with("FTL sim"))
            .collect();
        assert_eq!(simulated, PINNED, "{parallelism:?}");
    }
}
