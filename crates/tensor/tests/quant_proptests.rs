//! Equivalence gate for the vectorised EVQ8 range fold and slice encode.
//!
//! `QuantRange::fold` and `QuantRange::encode_slice` replace a serial
//! `f64::min`/`max` fold and a per-value encode. Both old loops are kept
//! here, verbatim, as oracles: the new code must reproduce them bit for
//! bit — `min` and `step` bits plus the all-finite flag, and every code
//! byte — on the inputs that stress each shortcut: non-finite values at
//! every lane position and in the tail, signed zeros as extremes,
//! subnormals, constant slices, overflowing ranges, and values within two
//! ulps of every half-step rounding boundary.

use evfad_tensor::quant::QuantRange;
use proptest::prelude::*;

/// The serial fold the lane fold replaced, plus the all-finite flag.
fn oracle_fold(values: &[f64]) -> (QuantRange, bool) {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &v in values {
        if v.is_finite() {
            min = min.min(v);
            max = max.max(v);
        }
    }
    if min > max {
        min = 0.0;
        max = 0.0;
    }
    let range = max - min;
    let step = if range > 0.0 { range / 255.0 } else { 0.0 };
    (
        QuantRange { min, step },
        values.iter().all(|v| v.is_finite()),
    )
}

/// The per-value encode the slice encode replaced.
fn oracle_encode(r: &QuantRange, v: f64) -> u8 {
    if r.step == 0.0 {
        0
    } else {
        ((v - r.min) / r.step).round().clamp(0.0, 255.0) as u8
    }
}

/// Non-finite values, including a negative NaN and a NaN whose payload's
/// low byte is non-zero.
const SPECIALS: [f64; 5] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::from_bits(0xFFF8_0000_0000_0000),
    f64::from_bits(0x7FF8_0000_0000_00A5),
];

/// Model-sized slices: the LSTM(50) forecaster's largest tensor and its
/// whole flat parameter count.
const MODEL_LENS: [usize; 2] = [10_000, 10_921];

fn assert_fold_matches(values: &[f64]) {
    let (got, got_finite) = QuantRange::fold(values);
    let (want, want_finite) = oracle_fold(values);
    assert_eq!(
        (got.min.to_bits(), got.step.to_bits(), got_finite),
        (want.min.to_bits(), want.step.to_bits(), want_finite),
        "fold diverged from the serial oracle on {values:?}"
    );
    assert_eq!(QuantRange::from_values(values), got);
}

fn assert_encode_matches(r: &QuantRange, values: &[f64]) {
    let mut codes = vec![0xEE; values.len()];
    r.encode_slice(values, &mut codes);
    for (i, (&v, &c)) in values.iter().zip(&codes).enumerate() {
        assert_eq!(c, oracle_encode(r, v), "value {i} = {v:e} under {r:?}");
        assert_eq!(r.encode(v), c);
    }
}

/// SplitMix64: a tiny deterministic generator for bulk slice contents.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[(self.next() % from.len() as u64) as usize]
    }
}

/// Moves `v` by `ulps` units in the last place (negative: toward −∞ for
/// positive `v`).
fn nudge(v: f64, ulps: i64) -> f64 {
    if v == 0.0 || !v.is_finite() {
        return v;
    }
    let bits = v.to_bits() as i64;
    let signed = if v > 0.0 { ulps } else { -ulps };
    f64::from_bits((bits + signed) as u64)
}

/// Builds one slice of `len` values under regime `regime` (see the arms).
fn regime_slice(len: usize, regime: usize, seed: u64) -> Vec<f64> {
    let mut g = Mix(seed);
    match regime {
        // Uniform values at a random magnitude, up to the edge of overflow.
        0 => {
            let scale = g.pick(&[1e-300, 1e-8, 1.0, 1e8, 1e300, f64::MAX]);
            (0..len).map(|_| g.unit() * scale).collect()
        }
        // Subnormals of both signs.
        1 => (0..len)
            .map(|_| {
                let v = f64::from_bits(g.next() & ((1 << 52) - 1));
                if g.next() & 1 == 0 {
                    v
                } else {
                    -v
                }
            })
            .collect(),
        // A constant slice, the constant possibly a signed zero.
        2 => vec![g.pick(&[0.0, -0.0, 3.25, -1e-310, 7e300]); len],
        // A coarse tie grid with both zeros.
        3 => (0..len)
            .map(|_| g.pick(&[-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0]))
            .collect(),
        // Signed zeros as an extreme: all non-negative, all non-positive,
        // or zeros only.
        4 => {
            let side = g.pick(&[1.0, -1.0, 0.0]);
            (0..len)
                .map(|_| {
                    if g.next().is_multiple_of(3) {
                        side * g.unit().abs()
                    } else {
                        g.pick(&[0.0, -0.0])
                    }
                })
                .collect()
        }
        // Half-step boundaries of the slice's own range: the extremes pin
        // the range, then every other value sits within ±2 ulps of a
        // `min + (j + ½)·step` rounding boundary.
        _ => {
            let lo = g.unit() * 10.0;
            let hi = lo + g.unit().abs() * 5.0 + 1e-3;
            let step = (hi - lo) / 255.0;
            let mut out: Vec<f64> = (0..len)
                .map(|_| {
                    let j = (g.next() % 255) as f64;
                    let ulps = (g.next() % 5) as i64 - 2;
                    nudge(lo + (j + 0.5) * step, ulps).clamp(lo, hi)
                })
                .collect();
            if len >= 2 {
                out[0] = lo;
                out[len - 1] = hi;
            }
            out
        }
    }
}

/// Slice lengths: every length around the 8-lane chunking (0–33) plus
/// model-sized slices.
fn len_strategy() -> impl Strategy<Value = usize> {
    (0usize..36).prop_map(|i| if i < 34 { i } else { MODEL_LENS[i - 34] })
}

/// `(length, regime, seed, special injections as (position, which))`.
fn case_strategy() -> impl Strategy<Value = Vec<f64>> {
    (
        len_strategy(),
        0usize..6,
        any::<u64>(),
        prop::collection::vec((any::<u32>(), 0usize..SPECIALS.len()), 0..4),
    )
        .prop_map(|(len, regime, seed, specials)| {
            let mut values = regime_slice(len, regime, seed);
            if len > 0 {
                for (pos, which) in specials {
                    values[pos as usize % len] = SPECIALS[which];
                }
            }
            values
        })
}

#[test]
fn a_special_at_every_lane_position_and_in_the_tail_takes_the_serial_fold() {
    for len in 0..=33 {
        let base: Vec<f64> = (0..len).map(|i| (i as f64 * 0.37).sin() + 0.01).collect();
        assert_fold_matches(&base);
        for pos in 0..len {
            for special in SPECIALS {
                let mut values = base.clone();
                values[pos] = special;
                assert_fold_matches(&values);
                let (r, finite) = QuantRange::fold(&values);
                assert!(!finite, "len {len}, special at {pos}");
                assert_encode_matches(&r, &values);
            }
        }
    }
}

#[test]
fn a_zero_extreme_at_every_lane_position_matches_the_serial_fold() {
    for len in 1..=33 {
        for pos in 0..len {
            for zero in [0.0, -0.0] {
                for sign in [1.0, -1.0] {
                    let mut values: Vec<f64> =
                        (0..len).map(|i| sign * (1.0 + i as f64 * 0.25)).collect();
                    values[pos] = zero;
                    assert_fold_matches(&values);
                    // A second zero of the other sign elsewhere.
                    values[(pos + 3) % len] = -zero;
                    assert_fold_matches(&values);
                }
            }
        }
    }
}

#[test]
fn an_overflowing_range_encodes_like_the_oracle() {
    let values = [
        f64::MAX,
        -f64::MAX,
        0.5,
        -1e308,
        1e308,
        f64::NAN,
        f64::INFINITY,
    ];
    let (r, _) = QuantRange::fold(&values);
    assert_eq!(r.step, f64::INFINITY);
    assert_encode_matches(&r, &values);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn fold_matches_the_serial_oracle_bit_for_bit(values in case_strategy()) {
        assert_fold_matches(&values);
    }

    #[test]
    fn slice_encode_matches_per_value_encode(
        values in case_strategy(),
        foreign in case_strategy(),
    ) {
        // Under the slice's own range, and under a range folded from other
        // data so that out-of-range values exercise the clamps.
        assert_encode_matches(&QuantRange::fold(&values).0, &values);
        assert_encode_matches(&QuantRange::fold(&foreign).0, &values);
    }
}
