//! Deterministic property tests for the unit algebra, exercised over
//! fixed magnitude grids so every contract is pinned reproducibly.

use act_units::{
    Area, Capacity, CarbonIntensity, Energy, Fraction, MassCo2, MassPerArea, MassPerCapacity,
    Power, TimeSpan, UnitErrorKind,
};

/// Signed magnitudes spanning the model's dynamic range, including zero
/// and awkward non-dyadic values.
const FINITE: [f64; 9] = [-1e9, -12_345.678, -1.0, -1e-6, 0.0, 1e-6, 0.1, 7_654.321, 1e9];

/// Strictly positive magnitudes (divisors, lifetimes, scale factors).
const POSITIVE: [f64; 7] = [1e-6, 0.001, 0.1, 1.0, 3.5, 1_234.5, 1e9];

/// Magnitudes every `try_*` constructor must reject: NaN, ±∞ and finite
/// negatives.
const INVALID: [f64; 6] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1e12, -1.0, -1e-12];

#[test]
fn mass_addition_commutes() {
    for a in FINITE {
        for b in FINITE {
            let (x, y) = (MassCo2::grams(a), MassCo2::grams(b));
            assert_eq!(x + y, y + x, "commutativity at ({a}, {b})");
        }
    }
}

#[test]
fn mass_addition_associates() {
    // Within ±1e6 g the two groupings may differ only by rounding.
    const BOUNDED: [f64; 7] = [-999_999.5, -12_345.678, -1e-6, 0.0, 0.1, 7_654.321, 999_999.5];
    for a in BOUNDED {
        for b in BOUNDED {
            for c in BOUNDED {
                let (x, y, z) = (MassCo2::grams(a), MassCo2::grams(b), MassCo2::grams(c));
                let (lhs, rhs) = ((x + y) + z, x + (y + z));
                assert!(
                    (lhs.as_grams() - rhs.as_grams()).abs() <= 1e-6,
                    "associativity at ({a}, {b}, {c})"
                );
            }
        }
    }
}

#[test]
fn mass_subtraction_inverts_addition() {
    for a in FINITE {
        for b in FINITE {
            let (x, y) = (MassCo2::grams(a), MassCo2::grams(b));
            let round = (x + y) - y;
            assert!(
                (round.as_grams() - a).abs() <= a.abs().max(b.abs()) * 1e-12 + 1e-12,
                "({a} + {b}) - {b} = {}",
                round.as_grams()
            );
        }
    }
}

#[test]
fn unit_round_trips_preserve_magnitude() {
    for v in FINITE {
        let tol = v.abs() * 1e-12 + 1e-15;
        assert!((MassCo2::kilograms(v).as_kilograms() - v).abs() <= tol);
        assert!((Energy::kilowatt_hours(v).as_kilowatt_hours() - v).abs() <= tol);
        assert!((Area::square_millimeters(v).as_square_millimeters() - v).abs() <= tol);
        assert!((TimeSpan::years(v).as_years() - v).abs() <= tol);
    }
}

#[test]
fn power_time_energy_consistency() {
    for w in POSITIVE {
        for s in POSITIVE {
            let e = Power::watts(w) * TimeSpan::seconds(s);
            assert!(
                (e.as_joules() - w * s).abs() <= (w * s).abs() * 1e-12,
                "{w} W × {s} s = {} J",
                e.as_joules()
            );
            let p = e / TimeSpan::seconds(s);
            assert!((p.ratio(Power::watts(w)) - 1.0).abs() <= 1e-9);
        }
    }
}

#[test]
fn intensity_scaling_is_linear() {
    for ci in POSITIVE {
        for kwh in POSITIVE {
            for k in [1e-3, 2.0, 1e3] {
                let intensity = CarbonIntensity::grams_per_kwh(ci);
                let base = intensity * Energy::kilowatt_hours(kwh);
                let scaled = intensity * Energy::kilowatt_hours(kwh * k);
                assert!(
                    (scaled.as_grams() - base.as_grams() * k).abs()
                        <= (base.as_grams() * k).abs() * 1e-9,
                    "ci={ci}, kwh={kwh}, k={k}"
                );
            }
        }
    }
}

#[test]
fn cpa_distributes_over_area() {
    for cpa in POSITIVE {
        for a in POSITIVE {
            for b in POSITIVE {
                let rate = MassPerArea::grams_per_cm2(cpa);
                let whole = rate * Area::square_centimeters(a + b);
                let parts =
                    rate * Area::square_centimeters(a) + rate * Area::square_centimeters(b);
                assert!(
                    (whole.as_grams() - parts.as_grams()).abs()
                        <= whole.as_grams().abs() * 1e-9,
                    "cpa={cpa}, a={a}, b={b}"
                );
            }
        }
    }
}

#[test]
fn cps_monotone_in_capacity() {
    for cps in POSITIVE {
        for small in POSITIVE {
            for extra in POSITIVE {
                let rate = MassPerCapacity::grams_per_gb(cps);
                let lo = rate * Capacity::gigabytes(small);
                let hi = rate * Capacity::gigabytes(small + extra);
                assert!(hi >= lo, "cps={cps}, small={small}, extra={extra}");
            }
        }
    }
}

#[test]
fn blend_stays_between_endpoints() {
    for lo in [0.0, 125.0, 499.0] {
        for hi in [500.0, 700.0, 1000.0] {
            for s in [0.0, 0.25, 0.5, 0.875, 1.0] {
                let a = CarbonIntensity::grams_per_kwh(hi);
                let b = CarbonIntensity::grams_per_kwh(lo);
                let mix = a.blended_with(b, s);
                assert!(mix.as_grams_per_kwh() <= hi + 1e-9, "lo={lo}, hi={hi}, s={s}");
                assert!(mix.as_grams_per_kwh() >= lo - 1e-9, "lo={lo}, hi={hi}, s={s}");
            }
        }
    }
}

#[test]
fn fraction_construction_matches_range() {
    for v in [-2.0, -1e-12, 0.0, 1e-12, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 3.0] {
        assert_eq!(Fraction::new(v).is_ok(), (0.0..=1.0).contains(&v), "Fraction::new({v})");
    }
}

#[test]
fn fraction_complement_involution() {
    for v in [0.0, 0.125, 0.5, 0.875, 1.0] {
        let f = Fraction::new(v).expect("valid fraction");
        assert!((f.complement().complement().get() - v).abs() <= 1e-12, "{v}");
    }
}

#[test]
fn ratio_is_scale_free() {
    for g in POSITIVE {
        for k in [1e-3, 0.5, 3.0, 1e3] {
            let a = MassCo2::grams(g);
            let b = MassCo2::grams(g * k);
            assert!((b.ratio(a) - k).abs() <= k * 1e-9, "g={g}, k={k}");
        }
    }
}

#[test]
fn try_constructors_reject_invalid_magnitudes() {
    for v in INVALID {
        assert!(MassCo2::try_grams(v).is_err());
        assert!(Energy::try_joules(v).is_err());
        assert!(Area::try_square_millimeters(v).is_err());
        assert!(Capacity::try_gigabytes(v).is_err());
        assert!(TimeSpan::try_seconds(v).is_err());
        assert!(TimeSpan::try_years(v).is_err());
        assert!(CarbonIntensity::try_grams_per_kwh(v).is_err());
    }
}

#[test]
fn try_constructor_error_kind_matches_cause() {
    for v in INVALID {
        let err = MassCo2::try_grams(v).expect_err("invalid magnitude");
        let expected =
            if v.is_finite() { UnitErrorKind::OutOfDomain } else { UnitErrorKind::NonFinite };
        assert_eq!(err.kind(), expected, "kind for {v}");
        // The error always carries the offending value verbatim.
        assert_eq!(err.value().is_nan(), v.is_nan());
        if !v.is_nan() {
            assert_eq!(err.value(), v, "value for {v}");
        }
    }
}

#[test]
fn try_constructors_accept_valid_magnitudes() {
    for v in [0.0, 1e-9, 1.0, 123.456, 1e12] {
        let m = MassCo2::try_grams(v).expect("valid magnitude");
        assert!((m.as_grams() - v).abs() <= v.abs() * 1e-12);
        assert!(Energy::try_joules(v).is_ok());
        assert!(Area::try_square_millimeters(v).is_ok());
        assert!(TimeSpan::try_years(v).is_ok());
    }
}

#[test]
fn ensure_finite_accepts_finite_products() {
    for w in POSITIVE {
        for s in POSITIVE {
            let e = Power::watts(w) * TimeSpan::seconds(s);
            assert!(e.ensure_finite("energy").is_ok(), "{w} W × {s} s");
        }
    }
}
