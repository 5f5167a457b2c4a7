//! Pins the portable `ln`/`cos` of `act_units::math`.
//!
//! * A golden input → `to_bits` table, so any host can check that it
//!   computes the same bits. Every entry was checked against a 200-bit
//!   reference: all lie within 0.52 ulp of the true value. The first entry
//!   of each table is one where the bits differ by 1 ulp from glibc 2.36's.
//! * Special values.
//! * Dense seeded sweeps: within 1 ulp of the host libm on 10M points of
//!   each domain the samplers use — `ln` on `(0, 1]` (Box–Muller's
//!   `1 - u1`) and `cos` on `[0, 2π)` — and on sparser sweeps of the wider
//!   domains.

use std::f64::consts::{E, FRAC_PI_2, FRAC_PI_4, PI, TAU};

use act_units::math::{cos, ln, COS_MAX_ARG};

/// Distance between two finite doubles in units in the last place.
fn ulps(a: f64, b: f64) -> u64 {
    let key = |v: f64| {
        let bits = v.to_bits() as i64;
        if bits < 0 {
            i64::MIN - bits
        } else {
            bits
        }
    };
    key(a).abs_diff(key(b))
}

/// A SplitMix64 stream of unit draws, `[0, 1)` with 53 random bits.
struct Units(u64);

impl Units {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1_u64 << 53) as f64)
    }
}

const LN_GOLDEN: [(f64, u64); 18] = [
    (7.144_913_156_030_334e-1, 0xbfd5_840b_b9b8_9016),
    (1.0, 0x0000_0000_0000_0000),
    (0.5, 0xbfe6_2e42_fefa_39ef),
    (2.0, 0x3fe6_2e42_fefa_39ef),
    (E, 0x3ff0_0000_0000_0000),
    (10.0, 0x4002_6bb1_bbb5_5516),
    (0.1, 0xc002_6bb1_bbb5_5515),
    (0.75, 0xbfd2_6962_1134_db92),
    (1.5, 0x3fd9_f323_ecbf_984c),
    (1.0 - f64::EPSILON / 2.0, 0xbca0_0000_0000_0000),
    (f64::EPSILON / 2.0, 0xc042_5e4f_7b27_37fa),
    (1e-300, 0xc085_9634_47f8_7fb5),
    (f64::MIN_POSITIVE, 0xc086_232b_dd7a_bcd2),
    (5e-324, 0xc087_4385_446d_71c3),
    (1e300, 0x4085_9634_47f8_7fb5),
    (f64::MAX, 0x4086_2e42_fefa_39ef),
    (std::f64::consts::FRAC_1_SQRT_2, 0xbfd6_2e42_fefa_39ee),
    (std::f64::consts::SQRT_2, 0x3fd6_2e42_fefa_39f0),
];

const COS_GOLDEN: [(f64, u64); 19] = [
    (2.013_568_397_314_818_6, 0xbfdb_6ba8_2ffc_0a34),
    (0.0, 0x3ff0_0000_0000_0000),
    (1e-300, 0x3ff0_0000_0000_0000),
    (1e-8, 0x3ff0_0000_0000_0000),
    (0.5, 0x3fec_1528_065b_7d50),
    (1.0, 0x3fe1_4a28_0fb5_068c),
    (FRAC_PI_4, 0x3fe6_a09e_667f_3bcd),
    (FRAC_PI_2, 0x3c91_a626_3314_5c07),
    (2.0, 0xbfda_a226_5753_7205),
    (3.0, 0xbfef_ae04_be85_e5d2),
    (PI, 0xbff0_0000_0000_0000),
    (4.0, 0xbfe4_eaa6_06db_24c1),
    (3.0 * FRAC_PI_2, 0xbcaa_7939_4c9e_8a0a),
    (5.0, 0x3fd2_2785_706b_4ad9),
    (6.0, 0x3fee_b9b7_0978_22f5),
    (TAU - 4.0 * f64::EPSILON, 0x3ff0_0000_0000_0000),
    (-1.0, 0x3fe1_4a28_0fb5_068c),
    (1e5, 0xbfef_fac3_841b_3da7),
    (COS_MAX_ARG, 0x3fee_33ad_a92f_e2ae),
];

#[test]
fn ln_matches_the_golden_bits() {
    for (x, bits) in LN_GOLDEN {
        assert_eq!(ln(x).to_bits(), bits, "ln({x:e}) = {:e}", ln(x));
    }
}

#[test]
fn cos_matches_the_golden_bits() {
    for (x, bits) in COS_GOLDEN {
        assert_eq!(cos(x).to_bits(), bits, "cos({x:e}) = {:e}", cos(x));
    }
}

#[test]
fn special_values() {
    assert_eq!(ln(0.0), f64::NEG_INFINITY);
    assert_eq!(ln(-0.0), f64::NEG_INFINITY);
    assert_eq!(ln(f64::INFINITY), f64::INFINITY);
    for x in [-1.0, -5e-324, f64::NEG_INFINITY, f64::NAN] {
        assert!(ln(x).is_nan(), "ln({x})");
    }
    assert_eq!(cos(-0.0), 1.0);
    for x in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, COS_MAX_ARG.next_up(), -1e7] {
        assert!(cos(x).is_nan(), "cos({x})");
    }
    // Even: the reduction and the quadrant select are sign-symmetric.
    let mut units = Units(3);
    for _ in 0..10_000 {
        let x = units.unit() * 100.0;
        assert_eq!(cos(-x).to_bits(), cos(x).to_bits(), "cos(±{x})");
    }
}

/// 10M points of `(0, 1]`, Box–Muller's `1 - u1`, plus 1M raw bit
/// patterns over every positive finite double (subnormals included).
#[test]
fn ln_is_within_one_ulp_of_the_host_libm() {
    let mut units = Units(1);
    for _ in 0..10_000_000 {
        let x = 1.0 - units.unit();
        assert!(ulps(ln(x), x.ln()) <= 1, "ln({x:e}): {:e} vs {:e}", ln(x), x.ln());
    }
    for _ in 0..1_000_000 {
        let x = f64::from_bits(units.next_u64() >> 1);
        if x.is_finite() {
            assert!(ulps(ln(x), x.ln()) <= 1, "ln({x:e}): {:e} vs {:e}", ln(x), x.ln());
        }
    }
}

/// 10M points of `[0, 2π)`, Box–Muller's `2π·u2`, plus 1M points of the
/// whole accepted domain `[-2^20, 2^20]`.
#[test]
fn cos_is_within_one_ulp_of_the_host_libm() {
    let mut units = Units(2);
    for _ in 0..10_000_000 {
        let x = TAU * units.unit();
        assert!(ulps(cos(x), x.cos()) <= 1, "cos({x:e}): {:e} vs {:e}", cos(x), x.cos());
    }
    for _ in 0..1_000_000 {
        let x = (2.0 * units.unit() - 1.0) * COS_MAX_ARG;
        assert!(ulps(cos(x), x.cos()) <= 1, "cos({x:e}): {:e} vs {:e}", cos(x), x.cos());
    }
}
