//! Equivalence gate for the uplink encoders against their reference loops.
//!
//! `QuantizedUpdate::quantize_into` now runs the lane-parallel range fold
//! and the branch-free slice encode, and `SparseDelta::top_k_into` selects
//! with a partition instead of a full sort. The loops they replaced live
//! here as oracles that write the `EVQ8` / `EVSK` payload bytes by hand:
//!
//! - quantise: serial `f64::min`/`max` fold over finite values, then a
//!   per-value encode that diverts each non-finite value to the specials;
//! - top-k: sort every non-zero delta by (magnitude descending, NaN as ∞,
//!   index ascending), truncate to `k`, sort the survivors by index.
//!
//! The production encoders must produce the identical bytes on random,
//! tie-heavy, signed-zero, subnormal and NaN-flood tensors, from a few
//! coordinates up to the paper's LSTM(50) forecaster.

use evfad_federated::compression::{QuantizedUpdate, SparseDelta};
use evfad_federated::wire::{self, QUANT_MAGIC, SPARSE_MAGIC, VERSION};
use evfad_nn::forecaster_model;
use evfad_tensor::Matrix;
use proptest::prelude::*;

fn header(magic: [u8; 4], tensors: usize) -> Vec<u8> {
    let mut out = magic.to_vec();
    out.extend(VERSION.to_le_bytes());
    out.extend((tensors as u32).to_le_bytes());
    out
}

/// The reference quantiser, written straight to `EVQ8` bytes.
fn oracle_quantized_payload(weights: &[Matrix]) -> Vec<u8> {
    let mut out = header(QUANT_MAGIC, weights.len());
    for m in weights {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &v in m.as_slice() {
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
        let mut codes = Vec::new();
        let mut specials = Vec::new();
        for (i, &v) in m.as_slice().iter().enumerate() {
            if !v.is_finite() {
                specials.push((i as u32, v));
                codes.push(0);
            } else if step == 0.0 {
                codes.push(0);
            } else {
                codes.push(((v - min) / step).round().clamp(0.0, 255.0) as u8);
            }
        }
        out.extend((m.rows() as u32).to_le_bytes());
        out.extend((m.cols() as u32).to_le_bytes());
        out.extend(min.to_le_bytes());
        out.extend(step.to_le_bytes());
        out.extend((specials.len() as u32).to_le_bytes());
        out.extend(codes);
        for (i, v) in specials {
            out.extend(i.to_le_bytes());
            out.extend(v.to_le_bytes());
        }
    }
    out
}

/// The reference sort-then-truncate top-k, written straight to `EVSK`
/// bytes.
fn oracle_sparse_payload(update: &[Matrix], base: &[Matrix], k: usize) -> Vec<u8> {
    let mut out = header(SPARSE_MAGIC, update.len());
    for (u, b) in update.iter().zip(base) {
        let mut picked: Vec<(u32, f64)> = u
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .enumerate()
            .map(|(i, (&uv, &bv))| (i as u32, uv - bv))
            .filter(|&(_, d)| d != 0.0)
            .collect();
        if picked.len() > k {
            let magnitude = |d: f64| if d.is_nan() { f64::INFINITY } else { d.abs() };
            picked.sort_by(|a, b| {
                magnitude(b.1)
                    .partial_cmp(&magnitude(a.1))
                    .expect("magnitudes are never NaN")
                    .then(a.0.cmp(&b.0))
            });
            picked.truncate(k);
            picked.sort_by_key(|&(i, _)| i);
        }
        out.extend((u.rows() as u32).to_le_bytes());
        out.extend((u.cols() as u32).to_le_bytes());
        out.extend((picked.len() as u32).to_le_bytes());
        for (i, d) in picked {
            out.extend(i.to_le_bytes());
            out.extend(d.to_le_bytes());
        }
    }
    out
}

/// SplitMix64: a tiny deterministic generator for bulk tensor contents.
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

/// One value under regime `regime` (see the arms).
fn draw(g: &mut Mix, regime: usize) -> f64 {
    match regime {
        // Smooth weights, like a trained model's.
        0 => g.unit() * 0.3,
        // A coarse grid with both zeros: shared codes, tied magnitudes.
        1 => g.pick(&[-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0]),
        // A NaN flood: a heavy non-finite minority among finite values.
        2 => match g.next() % 5 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            _ => g.unit() * 1e3,
        },
        // Non-negative values and signed zeros: a zero is the minimum.
        3 => {
            let positive = g.unit().abs();
            g.pick(&[0.0, -0.0, positive])
        }
        // Subnormals of both signs.
        _ => {
            let magnitude = f64::from_bits(g.next() & ((1 << 52) - 1));
            magnitude * g.pick(&[1.0, -1.0])
        }
    }
}

fn tensor(g: &mut Mix, rows: usize, cols: usize, regime: usize) -> Matrix {
    let values = (0..rows * cols).map(|_| draw(g, regime)).collect();
    Matrix::from_vec(rows, cols, values)
}

/// `(update, base)` for one case: either 1–3 small tensors of 0–33
/// coordinates (around the fold's 8-lane chunking), or the LSTM(50)
/// forecaster's shapes. The base is either zero (so deltas are the
/// update's own values, ties included) or a smooth model.
fn case_strategy() -> impl Strategy<Value = (Vec<Matrix>, Vec<Matrix>)> {
    (
        prop::collection::vec((1usize..4, 0usize..12), 1..4),
        (0usize..8, 0usize..5),
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(|(small_shapes, (model_pick, regime), zero_base, seed)| {
            let shapes: Vec<(usize, usize)> = if model_pick == 0 {
                forecaster_model(50, seed)
                    .weights()
                    .iter()
                    .map(Matrix::shape)
                    .collect()
            } else {
                small_shapes
            };
            let mut g = Mix(seed);
            let update = shapes
                .iter()
                .map(|&(r, c)| tensor(&mut g, r, c, regime))
                .collect();
            let base = shapes
                .iter()
                .map(|&(r, c)| {
                    if zero_base {
                        Matrix::zeros(r, c)
                    } else {
                        tensor(&mut g, r, c, 0)
                    }
                })
                .collect();
            (update, base)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn quantize_matches_the_reference_quantiser_byte_for_byte(
        case in case_strategy(),
    ) {
        let (update, _) = case;
        let want = oracle_quantized_payload(&update);
        prop_assert_eq!(wire::encode_quantized(&QuantizedUpdate::quantize(&update)).to_vec(), want.clone());
        // Warm scratch reuse from a differently-shaped previous encode.
        let mut scratch = QuantizedUpdate::quantize(&[Matrix::filled(3, 50, f64::NAN)]);
        QuantizedUpdate::quantize_into(&update, &mut scratch);
        prop_assert_eq!(wire::encode_quantized(&scratch).to_vec(), want);
    }

    #[test]
    fn top_k_select_matches_the_sort_reference_byte_for_byte(
        case in case_strategy(),
        k_pick in 0usize..40,
    ) {
        let (update, base) = case;
        let largest = update.iter().map(|m| m.len()).max().unwrap_or(0);
        // Below, at and above the tensor sizes, plus the uplink's 1,200.
        let k = match k_pick {
            0 => 1_200,
            k => k.min(largest + 2),
        };
        let want = oracle_sparse_payload(&update, &base, k);
        prop_assert_eq!(wire::encode_sparse(&SparseDelta::top_k(&update, &base, k)).to_vec(), want);
    }
}
