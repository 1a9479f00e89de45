//! Times the zero-serialization comms path against the JSON metering it
//! replaced, gates every codec byte-exactly, and emits `BENCH_comms.json`.
//!
//! Three sections:
//!
//! * `codec` — decode gates, checked before anything is timed: EVFD
//!   (full-precision weights) must round-trip **bitwise**; EVQ8 (8-bit
//!   quantized) must re-encode to the identical payload with dequantization
//!   error bounded by half a quantization step; EVSK (top-k sparse delta)
//!   must re-encode identically and reconstruct the same update. The O(1)
//!   `*_encoded_size` arithmetic must equal the real payload length — that
//!   equality is what lets the round loop meter without serialising.
//! * `metering` — races one federated round-schedule of traffic accounting
//!   (broadcast to every client + one uplink per client, paper schedule)
//!   through the legacy JSON metering, inlined below (serialise the full
//!   weight set to JSON per message to learn its size), versus the wire
//!   path (encode the broadcast once per round, O(1) arithmetic per
//!   uplink). The wire path is asserted to perform **zero** JSON
//!   serialisations via the process-wide `serde_json::serialization_count`
//!   counter.
//! * `compression` — wire bytes per update for None / Quant8 / TopKDelta
//!   on the paper's forecaster, with the Quant8 ratio gated at ≈8x.
//! * `fastpath` — races the fused decode-into-fold against the
//!   materializing decode the socket server runs
//!   (`CodecScratch::decode_payload`, then `ingest`). The two passes are
//!   interleaved within each rep and full runs gate the median of the
//!   per-rep ratios, so a host-speed drift between reps cancels out.
//! * `encode_race` — races the uplink encoders (lane-parallel EVQ8 range
//!   fold + slice encode; partition-based top-k) against the reference
//!   loops they replaced, inlined below like the legacy JSON metering.
//!   Payloads must be byte-identical (checked on NaN-poisoned updates
//!   too); full runs also gate the speedups at relative floors, so host
//!   speed cancels out.
//!
//! Usage: `cargo run --release --bin bench_comms [output-path] [--smoke]`
//!
//! `--smoke` runs a tiny model with few repetitions and skips the JSON
//! dump — the CI gate that the codecs and the counter stay honest.

use evfad_core::federated::compression::{CompressionMode, QuantizedUpdate, SparseDelta};
use evfad_core::federated::transport::MeteredChannel;
use evfad_core::federated::wire;
use evfad_core::federated::{Aggregator, CodecScratch, LocalUpdate};
use evfad_core::nn::forecaster_model;
use evfad_core::tensor::{alloc_stats, Matrix};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    times[times.len() / 2]
}

/// Paper-shaped model weights, perturbed so no tensor is degenerate-range.
fn model_weights(lstm_units: usize) -> Vec<Matrix> {
    forecaster_model(lstm_units, 42)
        .weights()
        .iter()
        .map(|m| {
            let vals: Vec<f64> = m
                .as_slice()
                .iter()
                .enumerate()
                .map(|(i, v)| v + 0.01 * ((i as f64) * 0.37).sin())
                .collect();
            Matrix::from_vec(m.rows(), m.cols(), vals)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Section 1: codec gates.
// ---------------------------------------------------------------------------

struct CodecResult {
    mode: &'static str,
    payload_bytes: usize,
    ratio_vs_full: f64,
    max_error: f64,
    exact: bool,
}

fn gate_codecs(weights: &[Matrix], global: &[Matrix], k: usize, full: bool) -> Vec<CodecResult> {
    let raw = wire::encode_weights(weights);
    assert_eq!(
        raw.len(),
        wire::encoded_size(weights),
        "EVFD size arithmetic diverged from the real payload"
    );
    let decoded = wire::decode_weights(&raw).expect("EVFD decode");
    assert_eq!(decoded, *weights, "EVFD round trip must be bitwise");
    let none = CodecResult {
        mode: "none",
        payload_bytes: raw.len(),
        ratio_vs_full: 1.0,
        max_error: 0.0,
        exact: true,
    };

    let q = QuantizedUpdate::quantize(weights);
    let qp = wire::encode_quantized(&q);
    assert_eq!(
        qp.len(),
        wire::quantized_encoded_size(&q),
        "EVQ8 size arithmetic diverged from the real payload"
    );
    let qd = wire::decode_quantized(&qp).expect("EVQ8 decode");
    assert_eq!(
        wire::encode_quantized(&qd),
        qp,
        "EVQ8 decode → re-encode must be the identity on payloads"
    );
    let restored = qd.dequantize();
    let mut max_error = 0.0f64;
    for (r, w) in restored.iter().zip(weights) {
        for (a, b) in r.as_slice().iter().zip(w.as_slice()) {
            max_error = max_error.max((a - b).abs());
        }
    }
    let max_half_step = weights
        .iter()
        .map(|m| {
            let (lo, hi) = m
                .as_slice()
                .iter()
                .fold((f64::MAX, f64::MIN), |(l, h), v| (l.min(*v), h.max(*v)));
            (hi - lo) / 255.0 / 2.0
        })
        .fold(0.0f64, f64::max);
    assert!(
        max_error <= max_half_step + 1e-12,
        "EVQ8 error {max_error} exceeds half a quantization step {max_half_step}"
    );
    let q_ratio = raw.len() as f64 / qp.len() as f64;
    if full {
        assert!(
            q_ratio > 7.0 && q_ratio < 8.0,
            "Quant8 ratio {q_ratio} strayed from ≈8x on paper-shaped tensors"
        );
    }
    let quant = CodecResult {
        mode: "quant8",
        payload_bytes: qp.len(),
        ratio_vs_full: q_ratio,
        max_error,
        exact: false,
    };

    let d = SparseDelta::top_k(weights, global, k);
    let sp = wire::encode_sparse(&d);
    assert_eq!(
        sp.len(),
        wire::sparse_encoded_size(&d),
        "EVSK size arithmetic diverged from the real payload"
    );
    let sd = wire::decode_sparse(&sp).expect("EVSK decode");
    assert_eq!(
        wire::encode_sparse(&sd),
        sp,
        "EVSK decode → re-encode must be the identity on payloads"
    );
    assert_eq!(
        sd.apply(global),
        d.apply(global),
        "EVSK decoded delta must reconstruct the same update"
    );
    assert!(sp.len() < raw.len(), "top-k must shrink the payload");
    let sparse = CodecResult {
        mode: "topk",
        payload_bytes: sp.len(),
        ratio_vs_full: raw.len() as f64 / sp.len() as f64,
        max_error: 0.0,
        exact: false,
    };

    vec![none, quant, sparse]
}

// ---------------------------------------------------------------------------
// Section 2: metering race.
// ---------------------------------------------------------------------------

/// The legacy JSON accounting: serialise every payload to JSON to learn
/// its size — once per broadcast recipient, once per uplink.
fn baseline_metering(weights: &[Matrix], clients: usize, rounds: usize) -> usize {
    let json_len = || serde_json::to_vec(weights).map_or(0, |v| v.len());
    let channel = MeteredChannel::new();
    for _ in 0..rounds {
        for _ in 0..clients {
            channel.record_bytes(json_len()); // broadcast copy
        }
        for _ in 0..clients {
            channel.record_attempts_bytes(json_len(), 1); // uplink
        }
    }
    channel.totals().bytes
}

/// The new path: encode the broadcast once per round (reusing one buffer),
/// meter recipients by its length, and price uplinks by O(1) arithmetic.
fn wire_metering(weights: &[Matrix], clients: usize, rounds: usize) -> usize {
    let channel = MeteredChannel::new();
    let mut buf = wire::BytesMut::new();
    for _ in 0..rounds {
        wire::encode_weights_into(&mut buf, weights);
        let broadcast_len = buf.len();
        for _ in 0..clients {
            channel.record_bytes(broadcast_len);
        }
        let uplink = wire::encoded_size(weights);
        for _ in 0..clients {
            channel.record_attempts_bytes(uplink, 1);
        }
    }
    channel.totals().bytes
}

struct MeteringResult {
    json_ms: f64,
    wire_ms: f64,
    json_bytes: usize,
    wire_bytes: usize,
    json_serializations: u64,
    wire_serializations: u64,
}

fn race_metering(weights: &[Matrix], clients: usize, rounds: usize, reps: usize) -> MeteringResult {
    // Warm both paths, then take the serialisation census of one pass each.
    let json_bytes = baseline_metering(weights, clients, rounds);
    let wire_bytes = wire_metering(weights, clients, rounds);
    let before = serde_json::serialization_count();
    let _ = baseline_metering(weights, clients, rounds);
    let json_serializations = serde_json::serialization_count() - before;
    let before = serde_json::serialization_count();
    let _ = wire_metering(weights, clients, rounds);
    let wire_serializations = serde_json::serialization_count() - before;
    assert_eq!(
        wire_serializations, 0,
        "the wire metering path serialised JSON — the zero-serialization claim regressed"
    );
    assert_eq!(
        json_serializations,
        (2 * clients * rounds) as u64,
        "the legacy path must serialise once per message"
    );
    // Binary payloads are strictly smaller than their JSON renderings.
    assert!(wire_bytes < json_bytes);

    let mut json_ms = Vec::with_capacity(reps);
    let mut wire_ms = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        black_box(baseline_metering(weights, clients, rounds));
        json_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        black_box(wire_metering(weights, clients, rounds));
        wire_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }

    MeteringResult {
        json_ms: median(json_ms),
        wire_ms: median(wire_ms),
        json_bytes,
        wire_bytes,
        json_serializations,
        wire_serializations,
    }
}

// ---------------------------------------------------------------------------
// Section 3: allocation-free compressed-uplink fast path (schema v2).
// ---------------------------------------------------------------------------

struct FastpathResult {
    mode: &'static str,
    payload_bytes: usize,
    fused_mb_s: f64,
    materialized_mb_s: f64,
    speedup: f64,
    encode_mb_s: f64,
}

/// Per-client weights: the shared model nudged by a client-specific signal
/// so every payload is distinct but deterministically reproducible.
fn client_weights(weights: &[Matrix], c: usize) -> Vec<Matrix> {
    weights
        .iter()
        .map(|m| {
            let vals: Vec<f64> = m
                .as_slice()
                .iter()
                .enumerate()
                .map(|(i, v)| v + 1e-3 * (((i + 31 * c) as f64) * 0.61).cos())
                .collect();
            Matrix::from_vec(m.rows(), m.cols(), vals)
        })
        .collect()
}

/// An interleaved race of two passes over the same `bytes_per_pass` input.
struct PairRace {
    /// Median-of-reps throughput of the first pass, MB/s.
    a_mb_s: f64,
    /// Median-of-reps throughput of the second pass, MB/s.
    b_mb_s: f64,
    /// Median of the per-rep `time(b) / time(a)` ratios.
    a_over_b: f64,
}

/// Times `a` and `b` back to back within every rep, alternating which goes
/// first, so both see the same host state; the per-rep ratio then cancels
/// drift that separate median-of-reps runs would compare across.
fn race_pair<T>(
    bytes_per_pass: usize,
    inner: usize,
    reps: usize,
    mut a: impl FnMut() -> T,
    mut b: impl FnMut() -> T,
) -> PairRace {
    black_box(a()); // warm caches and buffers before timing
    black_box(b());
    let time = |pass: &mut dyn FnMut() -> T| {
        let start = Instant::now();
        for _ in 0..inner {
            black_box(pass());
        }
        start.elapsed().as_secs_f64()
    };
    let (mut a_times, mut b_times, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..reps {
        let (ta, tb) = if rep % 2 == 0 {
            let ta = time(&mut a);
            (ta, time(&mut b))
        } else {
            let tb = time(&mut b);
            (time(&mut a), tb)
        };
        a_times.push(ta);
        b_times.push(tb);
        ratios.push(tb / ta);
    }
    let mb_s = |times| (bytes_per_pass * inner) as f64 / median(times) / 1e6;
    PairRace {
        a_mb_s: mb_s(a_times),
        b_mb_s: mb_s(b_times),
        a_over_b: median(ratios),
    }
}

/// Median-of-reps throughput for `pass`, in MB/s of `bytes_per_pass` input.
fn mb_per_s<T>(
    bytes_per_pass: usize,
    inner: usize,
    reps: usize,
    mut pass: impl FnMut() -> T,
) -> f64 {
    black_box(pass()); // warm caches and buffers before timing
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..inner {
            black_box(pass());
        }
        times.push(start.elapsed().as_secs_f64());
    }
    (bytes_per_pass * inner) as f64 / median(times) / 1e6
}

/// One full warm codec round: scratch-encode both compressed formats and
/// decode both straight back into an existing weight set. After the cold
/// round has grown every buffer, repeats of this must allocate **zero**
/// matrix buffers — that is the fast path's contract.
fn codec_round(
    weights: &[Matrix],
    global: &[Matrix],
    k: usize,
    scratch: &mut CodecScratch,
    qbuf: &mut wire::BytesMut,
    sbuf: &mut wire::BytesMut,
    decoded: &mut Vec<Matrix>,
) -> usize {
    let topk = CompressionMode::TopKDelta { k };
    scratch.encode_payload(CompressionMode::Quant8, weights, global, qbuf);
    scratch.decode_into(CompressionMode::Quant8, global, decoded);
    scratch.encode_payload(topk, weights, global, sbuf);
    scratch.decode_into(topk, global, decoded);
    qbuf.len() + sbuf.len()
}

fn assert_warm_rounds_alloc_free(weights: &[Matrix], global: &[Matrix], k: usize) {
    let mut scratch = CodecScratch::default();
    let mut qbuf = wire::BytesMut::new();
    let mut sbuf = wire::BytesMut::new();
    let mut decoded = global.to_vec();
    // Cold round: scratch tensors, frame buffers, and the decode target
    // all take their final shapes here.
    codec_round(
        weights,
        global,
        k,
        &mut scratch,
        &mut qbuf,
        &mut sbuf,
        &mut decoded,
    );
    let before = alloc_stats();
    let mut touched = 0usize;
    for _ in 0..3 {
        touched += codec_round(
            weights,
            global,
            k,
            &mut scratch,
            &mut qbuf,
            &mut sbuf,
            &mut decoded,
        );
    }
    black_box(touched);
    let delta = alloc_stats().since(&before);
    assert_eq!(
        delta.matrices, 0,
        "warm codec rounds allocated {} matrix buffers — the scratch-reuse fast path regressed",
        delta.matrices
    );
}

/// Races the fused decode-into-fold (`ingest_quantized` / `ingest_topk`)
/// against the materializing path the socket server runs
/// (`CodecScratch::decode_payload` into a fresh `Vec<Matrix>`, then
/// `ingest`). Gated bitwise-identical always; full runs enforce the
/// throughput floors on the median of the per-rep ratios.
fn race_fastpath(
    weights: &[Matrix],
    global: &[Matrix],
    clients: usize,
    k: usize,
    reps: usize,
    inner: usize,
    full: bool,
) -> Vec<FastpathResult> {
    let ids: Vec<String> = (0..clients).map(|c| format!("client-{c}")).collect();
    let per_client: Vec<Vec<Matrix>> = (0..clients).map(|c| client_weights(weights, c)).collect();
    let raw_bytes = clients * wire::encoded_size(weights);
    let total = (100 * clients) as f64;
    let update = |id: &str, weights: Vec<Matrix>| LocalUpdate {
        client_id: id.to_string(),
        weights,
        sample_count: 100,
        train_loss: 0.0,
        duration: Duration::ZERO,
        simulated_extra_seconds: 0.0,
    };

    // Uplink encode throughput of the production codec path.
    let encode_mb_s = |mode| {
        let mut scratch = CodecScratch::default();
        let mut buf = wire::BytesMut::new();
        mb_per_s(raw_bytes, inner, reps, || {
            let mut len = 0usize;
            for w in &per_client {
                scratch.encode_payload(mode, w, global, &mut buf);
                len += buf.len();
            }
            len
        })
    };

    // --- Quant8 ---
    let q_payloads: Vec<Vec<u8>> = per_client
        .iter()
        .map(|w| wire::encode_quantized(&QuantizedUpdate::quantize(w)).to_vec())
        .collect();
    let q_bytes: usize = q_payloads.iter().map(Vec::len).sum();
    let fused_quant = || {
        let mut agg = Aggregator::FedAvg
            .streaming(total, clients)
            .expect("FedAvg streams");
        for (id, p) in ids.iter().zip(&q_payloads) {
            agg.ingest_quantized(id, 100, p).expect("fused ingest");
        }
        agg.finish().expect("finish")
    };
    let materialized_quant = || {
        let mut agg = Aggregator::FedAvg
            .streaming(total, clients)
            .expect("FedAvg streams");
        for (id, p) in ids.iter().zip(&q_payloads) {
            let decoded = CodecScratch::decode_payload(CompressionMode::Quant8, p, global)
                .expect("EVQ8 decode");
            agg.ingest(&update(id, decoded)).expect("ingest");
        }
        agg.finish().expect("finish")
    };
    assert_eq!(
        wire::encode_weights(&fused_quant()),
        wire::encode_weights(&materialized_quant()),
        "fused quantized fold diverged from decode-then-ingest"
    );
    let race = race_pair(q_bytes, inner, reps, fused_quant, materialized_quant);
    let quant = FastpathResult {
        mode: "quant8",
        payload_bytes: q_bytes / clients,
        fused_mb_s: race.a_mb_s,
        materialized_mb_s: race.b_mb_s,
        speedup: race.a_over_b,
        encode_mb_s: encode_mb_s(CompressionMode::Quant8),
    };

    // --- TopKDelta ---
    let topk_mode = CompressionMode::TopKDelta { k };
    let s_payloads: Vec<Vec<u8>> = per_client
        .iter()
        .map(|w| wire::encode_sparse(&SparseDelta::top_k(w, global, k)).to_vec())
        .collect();
    let s_bytes: usize = s_payloads.iter().map(Vec::len).sum();
    let fused_topk = || {
        let mut agg = Aggregator::FedAvg
            .streaming(total, clients)
            .expect("FedAvg streams");
        for (id, p) in ids.iter().zip(&s_payloads) {
            agg.ingest_topk(id, 100, global, p).expect("fused ingest");
        }
        agg.finish().expect("finish")
    };
    let materialized_topk = || {
        let mut agg = Aggregator::FedAvg
            .streaming(total, clients)
            .expect("FedAvg streams");
        for (id, p) in ids.iter().zip(&s_payloads) {
            let decoded = CodecScratch::decode_payload(topk_mode, p, global).expect("EVSK decode");
            agg.ingest(&update(id, decoded)).expect("ingest");
        }
        agg.finish().expect("finish")
    };
    assert_eq!(
        wire::encode_weights(&fused_topk()),
        wire::encode_weights(&materialized_topk()),
        "fused top-k fold diverged from decode-then-ingest"
    );
    let race = race_pair(s_bytes, inner, reps, fused_topk, materialized_topk);
    let topk = FastpathResult {
        mode: "topk",
        payload_bytes: s_bytes / clients,
        fused_mb_s: race.a_mb_s,
        materialized_mb_s: race.b_mb_s,
        speedup: race.a_over_b,
        encode_mb_s: encode_mb_s(topk_mode),
    };

    // Floors: quant8 carries the headline ≥1.5x decode-path claim (the
    // materializing path pays a full decode pass plus a fresh model
    // allocation per update that the fused fold skips entirely). Top-k's
    // dominant cost — the dense base fold — is shared by both paths, so
    // its ceiling is structurally near parity; it is gated at no material
    // regression (0.9, leaving headroom for timer noise around 1.0x). Both
    // floors gate the median per-rep ratio of the interleaved race.
    let results = vec![quant, topk];
    if full {
        for (r, floor) in results.iter().zip([1.5, 0.9]) {
            assert!(
                r.speedup >= floor,
                "fused {} decode+ingest came in at {:.2}x the materializing path — below the {floor}x floor",
                r.mode,
                r.speedup
            );
        }
    }
    results
}

// ---------------------------------------------------------------------------
// Section 4: encoders vs the reference loops they replaced (schema v3).
// ---------------------------------------------------------------------------

/// The reference EVQ8 encoder: a serial `f64::min`/`max` range fold over
/// the finite values, then a per-value encode that diverts each non-finite
/// value to the verbatim specials. Writes the whole payload into `out`.
fn reference_quantized_payload(
    weights: &[Matrix],
    codes: &mut Vec<u8>,
    specials: &mut Vec<(u32, f64)>,
    out: &mut Vec<u8>,
) {
    out.clear();
    out.extend_from_slice(&wire::QUANT_MAGIC);
    out.extend_from_slice(&wire::VERSION.to_le_bytes());
    out.extend_from_slice(&(weights.len() as u32).to_le_bytes());
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
        codes.clear();
        specials.clear();
        codes.extend(m.as_slice().iter().enumerate().map(|(i, &v)| {
            if !v.is_finite() {
                specials.push((i as u32, v));
                0
            } else if step == 0.0 {
                0
            } else {
                ((v - min) / step).round().clamp(0.0, 255.0) as u8
            }
        }));
        out.extend_from_slice(&(m.rows() as u32).to_le_bytes());
        out.extend_from_slice(&(m.cols() as u32).to_le_bytes());
        out.extend_from_slice(&min.to_le_bytes());
        out.extend_from_slice(&step.to_le_bytes());
        out.extend_from_slice(&(specials.len() as u32).to_le_bytes());
        out.extend_from_slice(codes);
        for &(i, v) in specials.iter() {
            out.extend_from_slice(&i.to_le_bytes());
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// The reference EVSK encoder: sort every non-zero delta by (magnitude
/// descending, NaN as ∞, index ascending), truncate to `k`, and sort the
/// survivors by index. Writes the whole payload into `out`.
fn reference_sparse_payload(
    update: &[Matrix],
    base: &[Matrix],
    k: usize,
    picked: &mut Vec<(u32, f64)>,
    out: &mut Vec<u8>,
) {
    out.clear();
    out.extend_from_slice(&wire::SPARSE_MAGIC);
    out.extend_from_slice(&wire::VERSION.to_le_bytes());
    out.extend_from_slice(&(update.len() as u32).to_le_bytes());
    for (u, b) in update.iter().zip(base) {
        picked.clear();
        picked.extend(
            u.as_slice()
                .iter()
                .zip(b.as_slice())
                .enumerate()
                .map(|(i, (&uv, &bv))| (i as u32, uv - bv))
                .filter(|&(_, d)| d != 0.0),
        );
        if picked.len() > k {
            let magnitude = |d: f64| if d.is_nan() { f64::INFINITY } else { d.abs() };
            picked.sort_unstable_by(|a, b| {
                magnitude(b.1)
                    .partial_cmp(&magnitude(a.1))
                    .expect("magnitudes are never NaN")
                    .then(a.0.cmp(&b.0))
            });
            picked.truncate(k);
            picked.sort_unstable_by_key(|&(i, _)| i);
        }
        out.extend_from_slice(&(u.rows() as u32).to_le_bytes());
        out.extend_from_slice(&(u.cols() as u32).to_le_bytes());
        out.extend_from_slice(&(picked.len() as u32).to_le_bytes());
        for &(i, d) in picked.iter() {
            out.extend_from_slice(&i.to_le_bytes());
            out.extend_from_slice(&d.to_le_bytes());
        }
    }
}

struct EncodeRace {
    mode: &'static str,
    reference_mb_s: f64,
    encoder_mb_s: f64,
    speedup: f64,
}

/// Every tensor with a NaN, a +∞ and a −∞ planted at spread positions, so
/// the byte-identity gate also covers the specials path.
fn poisoned(weights: &[Matrix]) -> Vec<Matrix> {
    weights
        .iter()
        .map(|m| {
            let mut m = m.clone();
            let n = m.len();
            let data = m.as_mut_slice();
            for (at, v) in [
                (0, f64::NAN),
                (n / 3, f64::INFINITY),
                (n - 1, f64::NEG_INFINITY),
            ] {
                data[at] = v;
            }
            m
        })
        .collect()
}

/// Races the production uplink encoders against the reference loops.
/// Payloads are gated byte-identical always; full runs also enforce the
/// relative throughput floors.
fn race_encoders(
    weights: &[Matrix],
    global: &[Matrix],
    clients: usize,
    k: usize,
    reps: usize,
    inner: usize,
    full: bool,
) -> Vec<EncodeRace> {
    let per_client: Vec<Vec<Matrix>> = (0..clients).map(|c| client_weights(weights, c)).collect();
    let raw_bytes = clients * wire::encoded_size(weights);
    let mut scratch = CodecScratch::default();
    let mut buf = wire::BytesMut::new();
    let mut codes = Vec::new();
    let mut specials = Vec::new();
    let mut picked = Vec::new();
    let mut reference = Vec::new();

    let poisoned = poisoned(weights);
    let topk = CompressionMode::TopKDelta { k };
    for w in per_client.iter().chain([&poisoned]) {
        scratch.encode_payload(CompressionMode::Quant8, w, global, &mut buf);
        reference_quantized_payload(w, &mut codes, &mut specials, &mut reference);
        assert!(
            buf[..] == reference[..],
            "EVQ8 encoder diverged from the reference quantiser"
        );
        scratch.encode_payload(topk, w, global, &mut buf);
        reference_sparse_payload(w, global, k, &mut picked, &mut reference);
        assert!(
            buf[..] == reference[..],
            "EVSK encoder diverged from the reference sort-then-truncate top-k"
        );
    }

    let quant_reference = mb_per_s(raw_bytes, inner, reps, || {
        for w in &per_client {
            reference_quantized_payload(w, &mut codes, &mut specials, &mut reference);
        }
        reference.len()
    });
    let quant_encoder = mb_per_s(raw_bytes, inner, reps, || {
        for w in &per_client {
            scratch.encode_payload(CompressionMode::Quant8, w, global, &mut buf);
        }
        buf.len()
    });
    let topk_reference = mb_per_s(raw_bytes, inner, reps, || {
        for w in &per_client {
            reference_sparse_payload(w, global, k, &mut picked, &mut reference);
        }
        reference.len()
    });
    let topk_encoder = mb_per_s(raw_bytes, inner, reps, || {
        for w in &per_client {
            scratch.encode_payload(topk, w, global, &mut buf);
        }
        buf.len()
    });
    let race = |mode, reference_mb_s: f64, encoder_mb_s: f64| EncodeRace {
        mode,
        reference_mb_s,
        encoder_mb_s,
        speedup: encoder_mb_s / reference_mb_s,
    };
    let results = vec![
        race("quant8", quant_reference, quant_encoder),
        race("topk", topk_reference, topk_encoder),
    ];
    // Floors sit well under the measured ratios (see EXPERIMENTS.md) so a
    // noisy or slower host still passes, while losing the vectorised fold
    // and slice encode, or going back to a full sort, fails.
    if full {
        for (r, floor) in results.iter().zip([ENCODE_FLOOR_QUANT8, ENCODE_FLOOR_TOPK]) {
            assert!(
                r.speedup >= floor,
                "{} encoder came in at {:.2}x the reference loops — below the {floor}x floor",
                r.mode,
                r.speedup
            );
        }
    }
    results
}

/// Minimum encoder-vs-reference speedups enforced by full runs.
const ENCODE_FLOOR_QUANT8: f64 = 2.0;
const ENCODE_FLOOR_TOPK: f64 = 2.0;

// ---------------------------------------------------------------------------
// Harness.
// ---------------------------------------------------------------------------

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_comms.json".to_string());

    // Paper schedule: 3 zones, 5 federated rounds, LSTM(50) forecaster.
    let (lstm_units, clients, rounds, k, reps) = if smoke {
        (8, 3, 2, 32, 3)
    } else {
        (50, 3, 5, 512, 21)
    };

    println!(
        "comms bench: {} (LSTM({lstm_units}), {clients} clients x {rounds} rounds, reps={reps})",
        if smoke { "smoke" } else { "full" }
    );

    let weights = model_weights(lstm_units);
    let global = forecaster_model(lstm_units, 42).weights();

    let codecs = gate_codecs(&weights, &global, k, !smoke);
    for c in &codecs {
        println!(
            "codec {:<8} payload {:>8} B  ratio {:>5.2}x  max_error {:.3e}  exact={}",
            c.mode, c.payload_bytes, c.ratio_vs_full, c.max_error, c.exact
        );
    }

    let metering = race_metering(&weights, clients, rounds, reps);
    println!(
        "metering          json {:.3} ms / {} B / {} serializations   wire {:.3} ms / {} B / {} serializations   speedup {:.1}x",
        metering.json_ms,
        metering.json_bytes,
        metering.json_serializations,
        metering.wire_ms,
        metering.wire_bytes,
        metering.wire_serializations,
        metering.json_ms / metering.wire_ms,
    );

    assert_warm_rounds_alloc_free(&weights, &global, k);
    println!("fastpath          warm codec rounds: 0 matrix allocations");
    let inner = if smoke { 2 } else { 8 };
    let fastpath = race_fastpath(&weights, &global, clients, k, reps, inner, !smoke);
    for f in &fastpath {
        println!(
            "fastpath {:<8} fused {:>8.1} MB/s   materialized {:>8.1} MB/s   speedup {:>4.2}x   encode {:>8.1} MB/s",
            f.mode, f.fused_mb_s, f.materialized_mb_s, f.speedup, f.encode_mb_s
        );
    }

    let encode = race_encoders(&weights, &global, clients, k, reps, inner, !smoke);
    for e in &encode {
        println!(
            "encode   {:<8} reference {:>8.1} MB/s   encoder {:>8.1} MB/s   speedup {:>4.2}x",
            e.mode, e.reference_mb_s, e.encoder_mb_s, e.speedup
        );
    }

    if smoke {
        println!("smoke ok: codecs byte-exact, metering path JSON-free, fused fold bitwise, warm rounds allocation-free, encoders match their references");
        return;
    }

    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let codec_entries: Vec<String> = codecs
        .iter()
        .map(|c| {
            format!(
                concat!(
                    "    {{\n",
                    "      \"mode\": \"{}\",\n",
                    "      \"payload_bytes\": {},\n",
                    "      \"ratio_vs_full\": {:.2},\n",
                    "      \"max_error\": {:.6e},\n",
                    "      \"exact\": {}\n",
                    "    }}"
                ),
                c.mode, c.payload_bytes, c.ratio_vs_full, c.max_error, c.exact
            )
        })
        .collect();
    let fastpath_entries: Vec<String> = fastpath
        .iter()
        .map(|f| {
            format!(
                concat!(
                    "      {{\n",
                    "        \"mode\": \"{}\",\n",
                    "        \"payload_bytes\": {},\n",
                    "        \"fused_decode_ingest_mb_s\": {:.1},\n",
                    "        \"materialized_decode_ingest_mb_s\": {:.1},\n",
                    "        \"decode_speedup\": {:.2},\n",
                    "        \"encode_mb_s\": {:.1}\n",
                    "      }}"
                ),
                f.mode,
                f.payload_bytes,
                f.fused_mb_s,
                f.materialized_mb_s,
                f.speedup,
                f.encode_mb_s
            )
        })
        .collect();
    let encode_entries: Vec<String> = encode
        .iter()
        .map(|e| {
            format!(
                concat!(
                    "    {{\n",
                    "      \"mode\": \"{}\",\n",
                    "      \"reference_mb_s\": {:.1},\n",
                    "      \"encoder_mb_s\": {:.1},\n",
                    "      \"speedup\": {:.2},\n",
                    "      \"floor\": {:.1}\n",
                    "    }}"
                ),
                e.mode,
                e.reference_mb_s,
                e.encoder_mb_s,
                e.speedup,
                if e.mode == "quant8" {
                    ENCODE_FLOOR_QUANT8
                } else {
                    ENCODE_FLOOR_TOPK
                },
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"comms\",\n",
            "  \"schema\": 3,\n",
            "  \"host_cpus\": {},\n",
            "  \"reps\": {},\n",
            "  \"model\": \"forecaster LSTM({})\",\n",
            "  \"schedule\": {{ \"clients\": {}, \"rounds\": {} }},\n",
            "  \"codec\": [\n{}\n  ],\n",
            "  \"metering\": {{\n",
            "    \"json_ms\": {:.4},\n",
            "    \"wire_ms\": {:.4},\n",
            "    \"speedup\": {:.1},\n",
            "    \"json_bytes\": {},\n",
            "    \"wire_bytes\": {},\n",
            "    \"bytes_ratio\": {:.2},\n",
            "    \"json_serializations\": {},\n",
            "    \"wire_serializations\": {}\n",
            "  }},\n",
            "  \"fastpath\": {{\n",
            "    \"warm_round_matrix_allocs\": 0,\n",
            "    \"modes\": [\n{}\n    ]\n",
            "  }},\n",
            "  \"encode_race\": [\n{}\n  ]\n",
            "}}\n"
        ),
        host_cpus,
        reps,
        lstm_units,
        clients,
        rounds,
        codec_entries.join(",\n"),
        metering.json_ms,
        metering.wire_ms,
        metering.json_ms / metering.wire_ms,
        metering.json_bytes,
        metering.wire_bytes,
        metering.json_bytes as f64 / metering.wire_bytes as f64,
        metering.json_serializations,
        metering.wire_serializations,
        fastpath_entries.join(",\n"),
        encode_entries.join(",\n"),
    );
    std::fs::write(&out_path, json).expect("write bench results");
    println!("wrote {out_path}");
}
