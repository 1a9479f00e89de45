//! Property-based tests for the binary wire formats (EVFD / EVQ8 / EVSK).
//!
//! Three invariants, over random shapes including degenerate `rows x 0`
//! and `0 x cols` tensors:
//!
//! 1. encode → decode is lossless (bitwise for EVFD/EVSK, and for EVQ8 the
//!    decoded *struct* re-encodes to the identical payload);
//! 2. the O(1) `*_encoded_size` arithmetic equals the actual payload length
//!    — this is what makes metering-by-arithmetic exact;
//! 3. malformed inputs (every truncation point, corrupted magic, a hostile
//!    tensor count) return a [`WireError`], never panic or abort.

use evfad_federated::compression::{CodecScratch, CompressionMode, QuantizedUpdate, SparseDelta};
use evfad_federated::wire::{self, WireError};
use evfad_tensor::Matrix;
use proptest::prelude::*;

/// Random weight list: 1–4 tensors with rows, cols in `0..6` (degenerate
/// empty shapes included) and finite values.
fn weights_strategy() -> impl Strategy<Value = Vec<Matrix>> {
    prop::collection::vec(
        (
            0usize..6,
            0usize..6,
            prop::collection::vec(-1e6f64..1e6, 36),
        ),
        1..5,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .map(|(rows, cols, vals)| Matrix::from_vec(rows, cols, vals[..rows * cols].to_vec()))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// EVFD: full-precision weights round-trip bitwise, and the O(1) size
    /// arithmetic matches the real payload length.
    #[test]
    fn evfd_round_trip_and_size(weights in weights_strategy()) {
        let payload = wire::encode_weights(&weights);
        prop_assert_eq!(payload.len(), wire::encoded_size(&weights));
        let decoded = wire::decode_weights(&payload).expect("round trip");
        prop_assert_eq!(decoded, weights);
    }

    /// EVFD: every strict prefix of a valid payload is an error, not a
    /// panic; so is a corrupted magic byte.
    #[test]
    fn evfd_rejects_malformed(weights in weights_strategy()) {
        let payload = wire::encode_weights(&weights).to_vec();
        for cut in 0..payload.len() {
            prop_assert!(wire::decode_weights(&payload[..cut]).is_err(), "cut {}", cut);
        }
        let mut bad = payload.clone();
        bad[0] ^= 0xFF;
        prop_assert!(wire::decode_weights(&bad).is_err());
    }

    /// EVQ8: the decoded struct re-encodes to the identical payload, the
    /// size arithmetic is exact, and dequantization error stays within one
    /// quantization step of the original.
    #[test]
    fn evq8_round_trip_and_size(weights in weights_strategy()) {
        let q = QuantizedUpdate::quantize(&weights);
        let payload = wire::encode_quantized(&q);
        prop_assert_eq!(payload.len(), wire::quantized_encoded_size(&q));
        let decoded = wire::decode_quantized(&payload).expect("round trip");
        prop_assert_eq!(wire::encode_quantized(&decoded), payload.clone());
        let restored = decoded.dequantize();
        // Values are drawn from (-1e6, 1e6), so the per-tensor range is at
        // most 2e6 and one 8-bit step is at most 2e6 / 255.
        let half_step = 2e6 / 255.0 / 2.0 + 1e-6;
        for (r, w) in restored.iter().zip(&weights) {
            prop_assert_eq!((r.rows(), r.cols()), (w.rows(), w.cols()));
            for (a, b) in r.as_slice().iter().zip(w.as_slice()) {
                prop_assert!((a - b).abs() <= half_step, "{} vs {}", a, b);
            }
        }
    }

    /// EVQ8: truncations and bad magic are errors, never panics.
    #[test]
    fn evq8_rejects_malformed(weights in weights_strategy()) {
        let q = QuantizedUpdate::quantize(&weights);
        let payload = wire::encode_quantized(&q).to_vec();
        for cut in 0..payload.len() {
            prop_assert!(wire::decode_quantized(&payload[..cut]).is_err(), "cut {}", cut);
        }
        let mut bad = payload.clone();
        bad[2] ^= 0xFF;
        prop_assert!(wire::decode_quantized(&bad).is_err());
    }

    /// EVSK: a top-k delta round-trips bitwise (re-encode identity) and
    /// applying the decoded delta reconstructs exactly what applying the
    /// original does.
    #[test]
    fn evsk_round_trip_and_size(
        base in weights_strategy(),
        noise in prop::collection::vec(-1.0f64..1.0, 4 * 36),
        k in 1usize..20,
    ) {
        // Same shapes as `base`, perturbed values.
        let mut cursor = noise.iter();
        let update: Vec<Matrix> = base
            .iter()
            .map(|m| {
                let vals: Vec<f64> = m.as_slice().iter().map(|v| v + cursor.next().copied().unwrap_or(0.25)).collect();
                Matrix::from_vec(m.rows(), m.cols(), vals)
            })
            .collect();
        let delta = SparseDelta::top_k(&update, &base, k);
        let payload = wire::encode_sparse(&delta);
        prop_assert_eq!(payload.len(), wire::sparse_encoded_size(&delta));
        let decoded = wire::decode_sparse(&payload).expect("round trip");
        prop_assert_eq!(wire::encode_sparse(&decoded), payload);
        prop_assert_eq!(decoded.apply(&base), delta.apply(&base));
    }

    /// EVSK: truncations and bad magic are errors, never panics.
    #[test]
    fn evsk_rejects_malformed(base in weights_strategy(), k in 1usize..8) {
        let update: Vec<Matrix> = base
            .iter()
            .map(|m| {
                let vals: Vec<f64> = m.as_slice().iter().map(|v| v + 0.5).collect();
                Matrix::from_vec(m.rows(), m.cols(), vals)
            })
            .collect();
        let delta = SparseDelta::top_k(&update, &base, k);
        let payload = wire::encode_sparse(&delta).to_vec();
        for cut in 0..payload.len() {
            prop_assert!(wire::decode_sparse(&payload[..cut]).is_err(), "cut {}", cut);
        }
        let mut bad = payload.clone();
        bad[1] ^= 0xFF;
        prop_assert!(wire::decode_sparse(&bad).is_err());
    }

    /// Cross-format confusion: feeding one format's payload to another
    /// format's decoder is a clean error.
    #[test]
    fn magic_bytes_keep_formats_apart(weights in weights_strategy()) {
        let evfd = wire::encode_weights(&weights);
        prop_assert!(wire::decode_quantized(&evfd).is_err());
        prop_assert!(wire::decode_sparse(&evfd).is_err());
        let q = wire::encode_quantized(&QuantizedUpdate::quantize(&weights));
        prop_assert!(wire::decode_weights(&q).is_err());
        prop_assert!(wire::decode_sparse(&q).is_err());
    }
}

/// The two hostile headers for a compressed format: a bare `magic |
/// version | u32::MAX` header, and a valid one-tensor payload whose tensor
/// count is raised to `u32::MAX`. A decoder that sizes anything from the
/// count before validating it asks the allocator for hundreds of GiB.
fn hostile_count_payloads(magic: [u8; 4], valid: &[u8]) -> [Vec<u8>; 2] {
    let mut bare = magic.to_vec();
    bare.extend_from_slice(&wire::VERSION.to_le_bytes());
    bare.extend_from_slice(&u32::MAX.to_le_bytes());
    let mut raised = valid.to_vec();
    raised[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
    [bare, raised]
}

fn one_tensor_model() -> (Vec<Matrix>, Vec<Matrix>) {
    let weights = vec![Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64 * 0.5)];
    let base = vec![Matrix::zeros(2, 3)];
    (weights, base)
}

#[test]
fn evq8_hostile_tensor_count_is_a_typed_error() {
    let (weights, base) = one_tensor_model();
    let valid = wire::encode_quantized(&QuantizedUpdate::quantize(&weights));
    for payload in hostile_count_payloads(wire::QUANT_MAGIC, &valid) {
        let decoded = wire::decode_quantized(&payload);
        assert!(
            matches!(decoded, Err(WireError::Truncated { .. })),
            "{decoded:?}"
        );
        assert!(CodecScratch::decode_payload(CompressionMode::Quant8, &payload, &base).is_err());
    }
}

#[test]
fn evsk_hostile_tensor_count_is_a_typed_error() {
    let (weights, base) = one_tensor_model();
    let valid = wire::encode_sparse(&SparseDelta::top_k(&weights, &base, 4));
    let topk = CompressionMode::TopKDelta { k: 4 };
    for payload in hostile_count_payloads(wire::SPARSE_MAGIC, &valid) {
        let decoded = wire::decode_sparse(&payload);
        assert!(
            matches!(decoded, Err(WireError::Truncated { .. })),
            "{decoded:?}"
        );
        assert!(CodecScratch::decode_payload(topk, &payload, &base).is_err());
    }
}
