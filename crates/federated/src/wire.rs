//! Binary wire format for weight exchange — what actually crosses the
//! simulated channel.
//!
//! JSON is ~3x larger than necessary and costs a full serialisation just
//! to measure; this module defines the compact format a real deployment
//! would put on the network, and since PR 5 it is the format the round
//! loop *meters*: a magic/version header, then each tensor as
//! `rows: u32, cols: u32, data: f64-LE…` (`EVFD`), plus compressed uplink
//! records for 8-bit-quantized tensors (`EVQ8`) and sparse top-k deltas
//! (`EVSK`) — see [`compression`](crate::compression). Every format has an
//! exact O(1) size function, so metering never serialises. Together they
//! complete the communication story of the paper's §II-C2 ("only model
//! parameters were exchanged").

use crate::aggregate::Aggregator;
use crate::compression::{
    CompressionMode, QuantizedTensor, QuantizedUpdate, SparseDelta, SparseTensor,
};
use crate::faults::{
    Corruption, FaultEvent, FaultKind, FaultOutcome, FaultPlan, FaultRule, RoundSelector,
};
use crate::privacy::DpConfig;
use crate::simulation::FederatedConfig;
use bytes::{Buf, BufMut, Bytes};
use evfad_tensor::quant::QuantRange;
use evfad_tensor::Matrix;

pub use bytes::BytesMut;

/// Format magic for weight payloads (`"EVFD"`).
pub const MAGIC: [u8; 4] = *b"EVFD";

/// Format magic for 8-bit-quantized update payloads (`"EVQ8"`).
pub const QUANT_MAGIC: [u8; 4] = *b"EVQ8";

/// Format magic for sparse top-k delta payloads (`"EVSK"`).
pub const SPARSE_MAGIC: [u8; 4] = *b"EVSK";

/// Format magic for fault-log payloads (`"EVFL"`).
pub const FAULT_MAGIC: [u8; 4] = *b"EVFL";

/// Current format version.
pub const VERSION: u16 = 1;

/// Error produced when decoding a weight payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Payload does not start with the expected magic bytes.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// Payload ended before the declared content. `needed` is the minimum
    /// number of *additional* bytes required for the decoder to make
    /// progress (complete the element it was reading) — a streaming caller
    /// can read at least that much more and retry. Always ≥ 1.
    Truncated {
        /// Additional bytes needed to make decoding progress.
        needed: usize,
    },
    /// A declared tensor shape is implausibly large (corrupt header).
    OversizedTensor {
        /// Declared rows.
        rows: u32,
        /// Declared cols.
        cols: u32,
    },
    /// An enum discriminant byte not defined by this format version.
    UnknownTag(u8),
    /// A structurally impossible declaration (count or index out of range):
    /// the record is corrupt, not truncated — more bytes will not help.
    InvalidRecord(&'static str),
    /// A frame header declared a length beyond the sanity bound.
    OversizedFrame {
        /// Declared frame payload length.
        declared: usize,
    },
    /// The record decoded cleanly but left unconsumed bytes behind. A
    /// record decoder never silently swallows a concatenated next frame —
    /// framing, not guessing, delimits records on a stream.
    TrailingBytes {
        /// Unconsumed bytes after the decoded record.
        extra: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "payload is not an EVFD weight blob"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::Truncated { needed } => {
                write!(f, "payload truncated ({needed} more bytes needed)")
            }
            WireError::OversizedTensor { rows, cols } => {
                write!(f, "tensor of {rows}x{cols} exceeds sanity bounds")
            }
            WireError::UnknownTag(tag) => write!(f, "unknown discriminant byte {tag:#04x}"),
            WireError::InvalidRecord(what) => write!(f, "corrupt record: {what}"),
            WireError::OversizedFrame { declared } => {
                write!(f, "frame of {declared} bytes exceeds the sanity bound")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} unconsumed bytes after the record")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Maximum accepted elements per tensor (64 MiB of f64) — a sanity bound
/// against corrupt headers, far above any model in this workspace.
const MAX_TENSOR_ELEMENTS: u64 = 8 * 1024 * 1024;

/// Encodes a weight vector into the binary wire format.
///
/// # Examples
///
/// ```
/// use evfad_federated::wire;
/// use evfad_tensor::Matrix;
///
/// let weights = vec![Matrix::identity(3)];
/// let blob = wire::encode_weights(&weights);
/// let back = wire::decode_weights(&blob)?;
/// assert_eq!(back, weights);
/// # Ok::<(), evfad_federated::wire::WireError>(())
/// ```
pub fn encode_weights(weights: &[Matrix]) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_size(weights));
    encode_weights_into(&mut buf, weights);
    buf.freeze()
}

/// Encodes a weight vector into `buf`, clearing it first but keeping its
/// allocation — the zero-allocation broadcast path: the round loop encodes
/// the global model **once** per round into a reusable buffer and meters
/// every client by the same byte length.
pub fn encode_weights_into(buf: &mut BytesMut, weights: &[Matrix]) {
    buf.clear();
    buf.put_slice(&MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u32_le(weights.len() as u32);
    for m in weights {
        buf.put_u32_le(m.rows() as u32);
        buf.put_u32_le(m.cols() as u32);
        for &v in m.as_slice() {
            buf.put_f64_le(v);
        }
    }
}

/// Decodes a payload produced by [`encode_weights`].
///
/// # Errors
///
/// Returns [`WireError`] on a malformed or truncated payload.
pub fn decode_weights(mut payload: &[u8]) -> Result<Vec<Matrix>, WireError> {
    let count = decode_header(&mut payload, MAGIC)?;
    let mut out = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        need(payload, 8)?;
        let rows = payload.get_u32_le();
        let cols = payload.get_u32_le();
        let elements = check_shape(rows, cols)?;
        need(payload, (elements * 8) as usize)?;
        let mut data = Vec::with_capacity(elements as usize);
        for _ in 0..elements {
            data.push(payload.get_f64_le());
        }
        out.push(Matrix::from_vec(rows as usize, cols as usize, data));
    }
    finish_record(payload)?;
    Ok(out)
}

/// Size in bytes [`encode_weights`] will produce for these weights.
///
/// Pure O(1)-per-tensor shape arithmetic — no allocation, no
/// serialisation; the round loop meters full-precision uplinks with this.
pub fn encoded_size(weights: &[Matrix]) -> usize {
    10 + weights.iter().map(|m| 8 + m.len() * 8).sum::<usize>()
}

/// Encodes a quantized update into the `EVQ8` binary wire format: the
/// common header, then per tensor `rows, cols, min: f64, step: f64,
/// special_count: u32, codes: u8…, specials: (index: u32, value: f64)…`.
///
/// # Examples
///
/// ```
/// use evfad_federated::compression::QuantizedUpdate;
/// use evfad_federated::wire;
/// use evfad_tensor::Matrix;
///
/// let q = QuantizedUpdate::quantize(&[Matrix::identity(4)]);
/// let blob = wire::encode_quantized(&q);
/// assert_eq!(wire::decode_quantized(&blob)?, q);
/// # Ok::<(), evfad_federated::wire::WireError>(())
/// ```
pub fn encode_quantized(update: &QuantizedUpdate) -> Bytes {
    let mut buf = BytesMut::with_capacity(quantized_encoded_size(update));
    encode_quantized_into(&mut buf, update);
    buf.freeze()
}

/// Encodes a quantized update into `buf`, clearing it first but keeping
/// its allocation — the warm-round uplink path: the socket client and the
/// scale engine encode every round into a reusable buffer, so a steady
/// federation allocates nothing per update.
pub fn encode_quantized_into(buf: &mut BytesMut, update: &QuantizedUpdate) {
    buf.clear();
    buf.put_slice(&QUANT_MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u32_le(update.tensors.len() as u32);
    for t in &update.tensors {
        buf.put_u32_le(t.rows as u32);
        buf.put_u32_le(t.cols as u32);
        buf.put_f64_le(t.min);
        buf.put_f64_le(t.step);
        buf.put_u32_le(t.special_idx.len() as u32);
        buf.put_slice(&t.codes);
        for (&i, &v) in t.special_idx.iter().zip(&t.special_val) {
            buf.put_u32_le(i);
            buf.put_f64_le(v);
        }
    }
}

/// Size in bytes [`encode_quantized`] will produce — O(1) per tensor.
pub fn quantized_encoded_size(update: &QuantizedUpdate) -> usize {
    10 + update.byte_size()
}

/// Decodes a payload produced by [`encode_quantized`]: the
/// [`quantized_view`] walker validates the whole payload first, then the
/// view is copied into owned tensors — one parser per format.
///
/// # Errors
///
/// Returns [`WireError`] on a malformed or truncated payload.
pub fn decode_quantized(payload: &[u8]) -> Result<QuantizedUpdate, WireError> {
    let view = quantized_view(payload)?;
    let tensors = view
        .tensors()
        .map(|t| {
            let (rows, cols) = t.shape();
            let (special_idx, special_val) = t.specials().map(|(i, v)| (i as u32, v)).unzip();
            QuantizedTensor {
                rows,
                cols,
                min: t.range.min,
                step: t.range.step,
                codes: t.codes.to_vec(),
                special_idx,
                special_val,
            }
        })
        .collect();
    Ok(QuantizedUpdate { tensors })
}

/// Encodes a sparse top-k delta into the `EVSK` binary wire format: the
/// common header, then per tensor `rows, cols, nnz: u32,
/// entries: (index: u32, value: f64)…`.
///
/// # Examples
///
/// ```
/// use evfad_federated::compression::SparseDelta;
/// use evfad_federated::wire;
/// use evfad_tensor::Matrix;
///
/// let base = vec![Matrix::zeros(2, 3)];
/// let update = vec![Matrix::from_fn(2, 3, |i, j| (i + j) as f64)];
/// let d = SparseDelta::top_k(&update, &base, 4);
/// let blob = wire::encode_sparse(&d);
/// assert_eq!(wire::decode_sparse(&blob)?, d);
/// # Ok::<(), evfad_federated::wire::WireError>(())
/// ```
pub fn encode_sparse(delta: &SparseDelta) -> Bytes {
    let mut buf = BytesMut::with_capacity(sparse_encoded_size(delta));
    encode_sparse_into(&mut buf, delta);
    buf.freeze()
}

/// Encodes a sparse delta into `buf`, clearing it first but keeping its
/// allocation (see [`encode_quantized_into`]).
pub fn encode_sparse_into(buf: &mut BytesMut, delta: &SparseDelta) {
    buf.clear();
    buf.put_slice(&SPARSE_MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u32_le(delta.tensors.len() as u32);
    for t in &delta.tensors {
        buf.put_u32_le(t.rows as u32);
        buf.put_u32_le(t.cols as u32);
        buf.put_u32_le(t.indices.len() as u32);
        for (&i, &v) in t.indices.iter().zip(&t.values) {
            buf.put_u32_le(i);
            buf.put_f64_le(v);
        }
    }
}

/// Size in bytes [`encode_sparse`] will produce — O(1) per tensor.
pub fn sparse_encoded_size(delta: &SparseDelta) -> usize {
    10 + delta.byte_size()
}

/// Decodes a payload produced by [`encode_sparse`]: [`sparse_view`]
/// validation, then an owned copy of the view.
///
/// # Errors
///
/// Returns [`WireError`] on a malformed or truncated payload.
pub fn decode_sparse(payload: &[u8]) -> Result<SparseDelta, WireError> {
    let view = sparse_view(payload)?;
    let tensors = view
        .tensors()
        .map(|t| {
            let (rows, cols) = t.shape();
            let (indices, values) = t.entries().unzip();
            SparseTensor {
                rows,
                cols,
                indices,
                values,
            }
        })
        .collect();
    Ok(SparseDelta { tensors })
}

/// Validates an `EVQ8` payload structurally and returns a zero-copy view
/// over it — the only `EVQ8` parser: the fused decode-into-fold path reads
/// the view directly, and [`decode_quantized`] copies it into owned form.
///
/// Every check (header, shape bounds, special counts, index ranges,
/// strictly-ascending special indices, trailing bytes) runs *up front*,
/// before the caller touches any accumulator state or allocates anything
/// sized from the header: a corrupt payload errors here, never half-way
/// through a fold. The view then iterates infallibly, decoding each
/// coefficient on the fly — no `Vec<Matrix>` materialization, no
/// allocation at all.
///
/// # Errors
///
/// Returns [`WireError`] on a malformed or truncated payload.
///
/// # Examples
///
/// ```
/// use evfad_federated::compression::QuantizedUpdate;
/// use evfad_federated::wire;
/// use evfad_tensor::Matrix;
///
/// let q = QuantizedUpdate::quantize(&[Matrix::identity(3)]);
/// let blob = wire::encode_quantized(&q);
/// let view = wire::quantized_view(&blob)?;
/// let decoded = q.dequantize();
/// for (t, m) in view.tensors().zip(&decoded) {
///     assert_eq!(t.shape(), m.shape());
///     assert!(t.values().zip(m.as_slice()).all(|(a, &b)| a == b));
/// }
/// # Ok::<(), evfad_federated::wire::WireError>(())
/// ```
pub fn quantized_view(payload: &[u8]) -> Result<QuantizedPayloadView<'_>, WireError> {
    let mut cursor = payload;
    let count = decode_header(&mut cursor, QUANT_MAGIC)?;
    let body = cursor;
    let mut walker = QuantWalker {
        payload: body,
        remaining: count,
    };
    while let Some(t) = walker.next_tensor()? {
        check_indices(
            t.specials,
            t.codes.len(),
            "quantized special index out of range",
            "quantized special indices not strictly ascending",
        )?;
    }
    finish_record(walker.payload)?;
    Ok(QuantizedPayloadView { body, count })
}

/// A structurally validated `EVQ8` payload; see [`quantized_view`].
#[derive(Debug, Clone, Copy)]
pub struct QuantizedPayloadView<'a> {
    body: &'a [u8],
    count: usize,
}

impl<'a> QuantizedPayloadView<'a> {
    /// Number of tensors in the payload.
    pub fn tensor_count(&self) -> usize {
        self.count
    }

    /// Iterates over the tensors. Infallible: the payload was fully
    /// validated by [`quantized_view`].
    pub fn tensors(&self) -> impl Iterator<Item = QuantizedTensorView<'a>> + '_ {
        let mut walker = QuantWalker {
            payload: self.body,
            remaining: self.count,
        };
        std::iter::from_fn(move || walker.next_tensor().expect("pre-validated payload"))
    }
}

/// One tensor of a validated `EVQ8` payload: shape, range, and the raw
/// codes/specials regions it decodes from on the fly.
#[derive(Debug, Clone, Copy)]
pub struct QuantizedTensorView<'a> {
    rows: usize,
    cols: usize,
    range: QuantRange,
    codes: &'a [u8],
    specials: &'a [u8],
}

impl<'a> QuantizedTensorView<'a> {
    /// `(rows, cols)` of the tensor.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of non-finite side records carried verbatim.
    pub fn special_count(&self) -> usize {
        self.specials.len() / 12
    }

    /// The quantization range every code in this tensor decodes against.
    pub fn range(&self) -> QuantRange {
        self.range
    }

    /// The raw row-major code bytes, one per coefficient.
    ///
    /// Together with [`Self::range`] and [`Self::specials`] this exposes
    /// the tensor in bulk form, so hot folds can run tight slice loops
    /// over the runs between specials instead of paying per-coefficient
    /// iterator state (see [`Self::values`] for the element-at-a-time
    /// equivalent).
    pub fn codes(&self) -> &'a [u8] {
        self.codes
    }

    /// Iterates the `(flat index, value)` non-finite side records in the
    /// ascending index order the payload stores them in.
    pub fn specials(&self) -> impl ExactSizeIterator<Item = (usize, f64)> + 'a {
        self.specials.chunks_exact(12).map(|rec| {
            (
                u32::from_le_bytes(rec[..4].try_into().expect("pre-validated payload")) as usize,
                f64::from_le_bytes(rec[4..].try_into().expect("pre-validated payload")),
            )
        })
    }

    /// Iterates the decoded coefficients in row-major order — exactly the
    /// values [`crate::compression::QuantizedTensor::dequantize`] would
    /// materialize, bit for bit: `range.decode(code)` everywhere except at
    /// special indices, which yield the stored f64 verbatim.
    pub fn values(&self) -> QuantizedValues<'a> {
        let mut it = QuantizedValues {
            range: self.range,
            codes: self.codes,
            specials: self.specials,
            flat: 0,
            next_special: u64::MAX,
        };
        it.refresh_next_special();
        it
    }
}

/// Infallible decoding iterator over one quantized tensor's coefficients;
/// see [`QuantizedTensorView::values`].
#[derive(Debug, Clone)]
pub struct QuantizedValues<'a> {
    range: QuantRange,
    codes: &'a [u8],
    specials: &'a [u8],
    flat: usize,
    next_special: u64,
}

impl QuantizedValues<'_> {
    fn refresh_next_special(&mut self) {
        self.next_special = if self.specials.len() >= 4 {
            u64::from(u32::from_le_bytes(
                self.specials[..4]
                    .try_into()
                    .expect("pre-validated payload"),
            ))
        } else {
            u64::MAX
        };
    }
}

impl Iterator for QuantizedValues<'_> {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        let i = self.flat;
        if i >= self.codes.len() {
            return None;
        }
        self.flat += 1;
        if i as u64 == self.next_special {
            let v = f64::from_le_bytes(
                self.specials[4..12]
                    .try_into()
                    .expect("pre-validated payload"),
            );
            self.specials = &self.specials[12..];
            self.refresh_next_special();
            Some(v)
        } else {
            Some(self.range.decode(self.codes[i]))
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.codes.len() - self.flat;
        (left, Some(left))
    }
}

impl ExactSizeIterator for QuantizedValues<'_> {}

/// The `EVQ8` walker: checks each tensor's header, shape bound, special
/// count and length, and splits out its code and special regions. One
/// pass (plus [`check_indices`]) is [`quantized_view`]'s up-front
/// validation; a fresh pass per [`QuantizedPayloadView::tensors`] call
/// re-splits the validated payload in O(1) per tensor.
struct QuantWalker<'a> {
    payload: &'a [u8],
    remaining: usize,
}

impl<'a> QuantWalker<'a> {
    fn next_tensor(&mut self) -> Result<Option<QuantizedTensorView<'a>>, WireError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        let mut cur = self.payload;
        need(cur, 28)?;
        let rows = cur.get_u32_le();
        let cols = cur.get_u32_le();
        let elements = check_shape(rows, cols)?;
        let min = cur.get_f64_le();
        let step = cur.get_f64_le();
        let special_count = cur.get_u32_le() as u64;
        if special_count > elements {
            return Err(WireError::InvalidRecord(
                "quantized special count exceeds tensor elements",
            ));
        }
        need(cur, (elements + special_count * 12) as usize)?;
        let (codes, cur) = cur.split_at(elements as usize);
        let (specials, rest) = cur.split_at((special_count * 12) as usize);
        self.payload = rest;
        Ok(Some(QuantizedTensorView {
            rows: rows as usize,
            cols: cols as usize,
            range: QuantRange { min, step },
            codes,
            specials,
        }))
    }
}

/// Validates an `EVSK` payload structurally and returns a zero-copy view
/// over it — the sparse twin of [`quantized_view`], with the same
/// contract: every check runs up front, and the view then iterates
/// `(flat index, delta)` entries infallibly without materializing a
/// [`SparseDelta`]. [`decode_sparse`] is this view copied into owned form.
///
/// # Errors
///
/// Returns [`WireError`] on a malformed or truncated payload.
pub fn sparse_view(payload: &[u8]) -> Result<SparsePayloadView<'_>, WireError> {
    let mut cursor = payload;
    let count = decode_header(&mut cursor, SPARSE_MAGIC)?;
    let body = cursor;
    let mut walker = SparseWalker {
        payload: body,
        remaining: count,
    };
    while let Some(t) = walker.next_tensor()? {
        check_indices(
            t.entries,
            t.rows * t.cols,
            "sparse index out of range",
            "sparse indices not strictly ascending",
        )?;
    }
    finish_record(walker.payload)?;
    Ok(SparsePayloadView { body, count })
}

/// A structurally validated `EVSK` payload; see [`sparse_view`].
#[derive(Debug, Clone, Copy)]
pub struct SparsePayloadView<'a> {
    body: &'a [u8],
    count: usize,
}

impl<'a> SparsePayloadView<'a> {
    /// Number of tensors in the payload.
    pub fn tensor_count(&self) -> usize {
        self.count
    }

    /// Iterates over the tensors. Infallible: the payload was fully
    /// validated by [`sparse_view`].
    pub fn tensors(&self) -> impl Iterator<Item = SparseTensorView<'a>> + '_ {
        let mut walker = SparseWalker {
            payload: self.body,
            remaining: self.count,
        };
        std::iter::from_fn(move || walker.next_tensor().expect("pre-validated payload"))
    }
}

/// One tensor of a validated `EVSK` payload: shape plus the raw
/// `(index, value)` entry region.
#[derive(Debug, Clone, Copy)]
pub struct SparseTensorView<'a> {
    rows: usize,
    cols: usize,
    entries: &'a [u8],
}

impl<'a> SparseTensorView<'a> {
    /// `(rows, cols)` of the tensor.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of transmitted entries.
    pub fn nnz(&self) -> usize {
        self.entries.len() / 12
    }

    /// Iterates the `(flat index, delta value)` entries in strictly
    /// ascending index order.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = (u32, f64)> + 'a {
        self.entries.chunks_exact(12).map(|rec| {
            let idx = u32::from_le_bytes(rec[..4].try_into().expect("pre-validated payload"));
            let val = f64::from_le_bytes(rec[4..].try_into().expect("pre-validated payload"));
            (idx, val)
        })
    }
}

/// The `EVSK` walker, the sparse twin of [`QuantWalker`].
struct SparseWalker<'a> {
    payload: &'a [u8],
    remaining: usize,
}

impl<'a> SparseWalker<'a> {
    fn next_tensor(&mut self) -> Result<Option<SparseTensorView<'a>>, WireError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        let mut cur = self.payload;
        need(cur, 12)?;
        let rows = cur.get_u32_le();
        let cols = cur.get_u32_le();
        let elements = check_shape(rows, cols)?;
        let nnz = cur.get_u32_le() as u64;
        if nnz > elements {
            return Err(WireError::InvalidRecord(
                "sparse nnz exceeds tensor elements",
            ));
        }
        need(cur, (nnz * 12) as usize)?;
        let (entries, rest) = cur.split_at((nnz * 12) as usize);
        self.payload = rest;
        Ok(Some(SparseTensorView {
            rows: rows as usize,
            cols: cols as usize,
            entries,
        }))
    }
}

/// Rejects `(index: u32, value: f64)` records whose flat index falls
/// outside a tensor of `elements` coefficients or does not strictly
/// ascend — the EVQ8 specials and EVSK entries share this layout.
fn check_indices(
    records: &[u8],
    elements: usize,
    out_of_range: &'static str,
    not_ascending: &'static str,
) -> Result<(), WireError> {
    let mut next = 0usize;
    for rec in records.chunks_exact(12) {
        let idx = u32::from_le_bytes(rec[..4].try_into().expect("12-byte record")) as usize;
        if idx >= elements {
            return Err(WireError::InvalidRecord(out_of_range));
        }
        if idx < next {
            return Err(WireError::InvalidRecord(not_ascending));
        }
        next = idx + 1;
    }
    Ok(())
}

/// Validates the common `magic | version | count` header and returns the
/// record count.
fn decode_header(payload: &mut &[u8], magic: [u8; 4]) -> Result<usize, WireError> {
    need(payload, 10)?;
    let mut got = [0u8; 4];
    payload.copy_to_slice(&mut got);
    if got != magic {
        return Err(WireError::BadMagic);
    }
    let version = payload.get_u16_le();
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    Ok(payload.get_u32_le() as usize)
}

/// Rejects implausibly large tensor headers; returns the element count.
fn check_shape(rows: u32, cols: u32) -> Result<u64, WireError> {
    let elements = rows as u64 * cols as u64;
    if elements > MAX_TENSOR_ELEMENTS {
        return Err(WireError::OversizedTensor { rows, cols });
    }
    Ok(elements)
}

fn need(payload: &[u8], n: usize) -> Result<(), WireError> {
    if payload.remaining() < n {
        Err(WireError::Truncated {
            needed: n - payload.remaining(),
        })
    } else {
        Ok(())
    }
}

/// Enforces that a record decoder consumed its input exactly: leftover
/// bytes mean the caller handed us a concatenation, which only framing may
/// delimit (see [`crate::framing`]).
fn finish_record(payload: &[u8]) -> Result<(), WireError> {
    if payload.remaining() > 0 {
        Err(WireError::TrailingBytes {
            extra: payload.remaining(),
        })
    } else {
        Ok(())
    }
}

/// FNV-1a checksum of the binary wire encoding of `weights`.
///
/// Bit-exact by construction ([`encode_weights`] stores raw f64 little-
/// endian bytes), so two weight vectors share a checksum iff every
/// coordinate is bit-identical — the property the golden regression
/// fixture (`tests/fixtures/golden_outcome.json`) pins across PRs.
pub fn weights_checksum(weights: &[Matrix]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in encode_weights(weights).iter() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Maximum accepted events per fault log (sanity bound, far above any
/// simulation in this workspace: rounds × clients × rules).
const MAX_FAULT_EVENTS: u32 = 1 << 24;

// Fault-kind discriminants.
const TAG_DROP_OUT: u8 = 0;
const TAG_STRAGGLER: u8 = 1;
const TAG_CORRUPT: u8 = 2;
const TAG_TRANSIENT: u8 = 3;
// Corruption discriminants.
const TAG_NAN_FLOOD: u8 = 0;
const TAG_SIGN_FLIP: u8 = 1;
const TAG_SCALE: u8 = 2;
// Fault-outcome discriminants.
const TAG_DROPPED: u8 = 0;
const TAG_DELAYED: u8 = 1;
const TAG_TIMED_OUT: u8 = 2;
const TAG_CORRUPTED: u8 = 3;
const TAG_RECOVERED: u8 = 4;
const TAG_EXHAUSTED: u8 = 5;

/// Encodes a fault log into the binary wire format — the telemetry a real
/// deployment would ship alongside round stats so operators can audit
/// which clients misbehaved when.
///
/// # Examples
///
/// ```
/// use evfad_federated::faults::{FaultEvent, FaultKind, FaultOutcome};
/// use evfad_federated::wire;
///
/// let log = vec![FaultEvent {
///     round: 2,
///     client_id: "z105".into(),
///     fault: FaultKind::DropOut,
///     outcome: FaultOutcome::Dropped,
/// }];
/// let blob = wire::encode_fault_log(&log);
/// assert_eq!(wire::decode_fault_log(&blob)?, log);
/// # Ok::<(), evfad_federated::wire::WireError>(())
/// ```
pub fn encode_fault_log(events: &[FaultEvent]) -> Bytes {
    let mut buf = BytesMut::with_capacity(10 + events.len() * 32);
    buf.put_slice(&FAULT_MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u32_le(events.len() as u32);
    for e in events {
        buf.put_u32_le(e.round as u32);
        buf.put_u16_le(e.client_id.len() as u16);
        buf.put_slice(e.client_id.as_bytes());
        encode_fault_kind(&mut buf, e.fault);
        match e.outcome {
            FaultOutcome::Dropped => buf.put_u8(TAG_DROPPED),
            FaultOutcome::Delayed { delay_seconds } => {
                buf.put_u8(TAG_DELAYED);
                buf.put_f64_le(delay_seconds);
            }
            FaultOutcome::TimedOut {
                delay_seconds,
                timeout_seconds,
            } => {
                buf.put_u8(TAG_TIMED_OUT);
                buf.put_f64_le(delay_seconds);
                buf.put_f64_le(timeout_seconds);
            }
            FaultOutcome::Corrupted => buf.put_u8(TAG_CORRUPTED),
            FaultOutcome::Recovered {
                failed_attempts,
                backoff_seconds,
            } => {
                buf.put_u8(TAG_RECOVERED);
                buf.put_u32_le(failed_attempts as u32);
                buf.put_f64_le(backoff_seconds);
            }
            FaultOutcome::RetriesExhausted { failed_attempts } => {
                buf.put_u8(TAG_EXHAUSTED);
                buf.put_u32_le(failed_attempts as u32);
            }
        }
    }
    buf.freeze()
}

/// Decodes a payload produced by [`encode_fault_log`].
///
/// # Errors
///
/// Returns [`WireError`] on a malformed, truncated, or unknown-tag
/// payload.
pub fn decode_fault_log(mut payload: &[u8]) -> Result<Vec<FaultEvent>, WireError> {
    let count = decode_header(&mut payload, FAULT_MAGIC)?;
    if count as u64 > u64::from(MAX_FAULT_EVENTS) {
        return Err(WireError::InvalidRecord(
            "fault log count exceeds sanity bound",
        ));
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        need(payload, 6)?;
        let round = payload.get_u32_le() as usize;
        let id_len = payload.get_u16_le() as usize;
        let client_id = decode_str(&mut payload, id_len)?;
        let fault = decode_fault_kind(&mut payload)?;
        need(payload, 1)?;
        let outcome = match payload.get_u8() {
            TAG_DROPPED => FaultOutcome::Dropped,
            TAG_DELAYED => {
                need(payload, 8)?;
                FaultOutcome::Delayed {
                    delay_seconds: payload.get_f64_le(),
                }
            }
            TAG_TIMED_OUT => {
                need(payload, 16)?;
                FaultOutcome::TimedOut {
                    delay_seconds: payload.get_f64_le(),
                    timeout_seconds: payload.get_f64_le(),
                }
            }
            TAG_CORRUPTED => FaultOutcome::Corrupted,
            TAG_RECOVERED => {
                need(payload, 12)?;
                FaultOutcome::Recovered {
                    failed_attempts: payload.get_u32_le() as usize,
                    backoff_seconds: payload.get_f64_le(),
                }
            }
            TAG_EXHAUSTED => {
                need(payload, 4)?;
                FaultOutcome::RetriesExhausted {
                    failed_attempts: payload.get_u32_le() as usize,
                }
            }
            tag => return Err(WireError::UnknownTag(tag)),
        };
        out.push(FaultEvent {
            round,
            client_id,
            fault,
            outcome,
        });
    }
    finish_record(payload)?;
    Ok(out)
}

/// Appends the tagged binary encoding of one fault kind — shared by the
/// `EVFL` fault-log record and the `EVMS` envelope's train directive, so a
/// fault crosses the socket in exactly the bytes the log archives.
fn encode_fault_kind(buf: &mut BytesMut, fault: FaultKind) {
    match fault {
        FaultKind::DropOut => buf.put_u8(TAG_DROP_OUT),
        FaultKind::Straggler { delay_seconds } => {
            buf.put_u8(TAG_STRAGGLER);
            buf.put_f64_le(delay_seconds);
        }
        FaultKind::Corrupt { corruption } => {
            buf.put_u8(TAG_CORRUPT);
            match corruption {
                Corruption::NanFlood => buf.put_u8(TAG_NAN_FLOOD),
                Corruption::SignFlip => buf.put_u8(TAG_SIGN_FLIP),
                Corruption::Scale { factor } => {
                    buf.put_u8(TAG_SCALE);
                    buf.put_f64_le(factor);
                }
            }
        }
        FaultKind::Transient { failures } => {
            buf.put_u8(TAG_TRANSIENT);
            buf.put_u32_le(failures as u32);
        }
    }
}

/// Decodes one tagged fault kind (inverse of [`encode_fault_kind`]).
fn decode_fault_kind(payload: &mut &[u8]) -> Result<FaultKind, WireError> {
    need(payload, 1)?;
    Ok(match payload.get_u8() {
        TAG_DROP_OUT => FaultKind::DropOut,
        TAG_STRAGGLER => {
            need(payload, 8)?;
            FaultKind::Straggler {
                delay_seconds: payload.get_f64_le(),
            }
        }
        TAG_CORRUPT => {
            need(payload, 1)?;
            let corruption = match payload.get_u8() {
                TAG_NAN_FLOOD => Corruption::NanFlood,
                TAG_SIGN_FLIP => Corruption::SignFlip,
                TAG_SCALE => {
                    need(payload, 8)?;
                    Corruption::Scale {
                        factor: payload.get_f64_le(),
                    }
                }
                tag => return Err(WireError::UnknownTag(tag)),
            };
            FaultKind::Corrupt { corruption }
        }
        TAG_TRANSIENT => {
            need(payload, 4)?;
            FaultKind::Transient {
                failures: payload.get_u32_le() as usize,
            }
        }
        tag => return Err(WireError::UnknownTag(tag)),
    })
}

/// Reads a length-`len` UTF-8 string.
fn decode_str(payload: &mut &[u8], len: usize) -> Result<String, WireError> {
    need(payload, len)?;
    let mut bytes = vec![0u8; len];
    payload.copy_to_slice(&mut bytes);
    String::from_utf8(bytes).map_err(|_| WireError::InvalidRecord("string is not UTF-8"))
}

/// Format magic for the binary run-configuration record (`"EVCF"`).
const CONFIG_MAGIC: [u8; 4] = *b"EVCF";

// Aggregator discriminants (EVCF).
const TAG_AGG_FED_AVG: u8 = 0;
const TAG_AGG_MEDIAN: u8 = 1;
const TAG_AGG_TRIMMED_MEAN: u8 = 2;
const TAG_AGG_KRUM: u8 = 3;
// Round-selector discriminants (EVCF).
const TAG_SEL_EVERY: u8 = 0;
const TAG_SEL_ONLY: u8 = 1;
const TAG_SEL_FROM: u8 = 2;
const TAG_SEL_PROBABILITY: u8 = 3;
// Compression-mode discriminants (EVCF).
const TAG_COMP_NONE: u8 = 0;
const TAG_COMP_QUANT8: u8 = 1;
const TAG_COMP_TOP_K: u8 = 2;

/// Encodes a [`FederatedConfig`] as a self-describing `EVCF` binary
/// record — the socket handshake's `Welcome.config` blob, replacing the
/// JSON the handshake used to carry so the whole protocol speaks one
/// codec.
///
/// # Examples
///
/// ```
/// use evfad_federated::{wire, FederatedConfig};
///
/// let cfg = FederatedConfig::default();
/// let blob = wire::encode_config(&cfg);
/// assert_eq!(wire::decode_config(&blob)?, cfg);
/// # Ok::<(), evfad_federated::wire::WireError>(())
/// ```
pub fn encode_config(config: &FederatedConfig) -> Bytes {
    let mut buf = BytesMut::with_capacity(128);
    buf.put_slice(&CONFIG_MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u32_le(config.rounds as u32);
    buf.put_u32_le(config.epochs_per_round as u32);
    buf.put_u32_le(config.batch_size as u32);
    match config.aggregator {
        Aggregator::FedAvg => buf.put_u8(TAG_AGG_FED_AVG),
        Aggregator::Median => buf.put_u8(TAG_AGG_MEDIAN),
        Aggregator::TrimmedMean { trim } => {
            buf.put_u8(TAG_AGG_TRIMMED_MEAN);
            buf.put_u32_le(trim as u32);
        }
        Aggregator::Krum { byzantine } => {
            buf.put_u8(TAG_AGG_KRUM);
            buf.put_u32_le(byzantine as u32);
        }
    }
    buf.put_u8(u8::from(config.parallel));
    buf.put_u32_le(config.threads as u32);
    match config.dp {
        None => buf.put_u8(0),
        Some(dp) => {
            buf.put_u8(1);
            buf.put_f64_le(dp.clip_norm);
            buf.put_f64_le(dp.noise_multiplier);
        }
    }
    buf.put_f64_le(config.proximal_mu);
    buf.put_f64_le(config.participation);
    buf.put_u64_le(config.sampling_seed);
    match &config.faults {
        None => buf.put_u8(0),
        Some(plan) => {
            buf.put_u8(1);
            encode_fault_plan(&mut buf, plan);
        }
    }
    match config.compression {
        CompressionMode::None => buf.put_u8(TAG_COMP_NONE),
        CompressionMode::Quant8 => buf.put_u8(TAG_COMP_QUANT8),
        CompressionMode::TopKDelta { k } => {
            buf.put_u8(TAG_COMP_TOP_K);
            buf.put_u32_le(k as u32);
        }
    }
    buf.freeze()
}

/// Decodes an `EVCF` record (inverse of [`encode_config`]). Strict: the
/// payload must contain exactly one record.
///
/// # Errors
///
/// Returns [`WireError`] on a malformed or truncated payload.
pub fn decode_config(mut payload: &[u8]) -> Result<FederatedConfig, WireError> {
    let payload = &mut payload;
    need(payload, 6)?;
    let mut got = [0u8; 4];
    payload.copy_to_slice(&mut got);
    if got != CONFIG_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = payload.get_u16_le();
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    need(payload, 12)?;
    let rounds = payload.get_u32_le() as usize;
    let epochs_per_round = payload.get_u32_le() as usize;
    let batch_size = payload.get_u32_le() as usize;
    need(payload, 1)?;
    let aggregator = match payload.get_u8() {
        TAG_AGG_FED_AVG => Aggregator::FedAvg,
        TAG_AGG_MEDIAN => Aggregator::Median,
        TAG_AGG_TRIMMED_MEAN => {
            need(payload, 4)?;
            Aggregator::TrimmedMean {
                trim: payload.get_u32_le() as usize,
            }
        }
        TAG_AGG_KRUM => {
            need(payload, 4)?;
            Aggregator::Krum {
                byzantine: payload.get_u32_le() as usize,
            }
        }
        tag => return Err(WireError::UnknownTag(tag)),
    };
    need(payload, 5)?;
    let parallel = match payload.get_u8() {
        0 => false,
        1 => true,
        tag => return Err(WireError::UnknownTag(tag)),
    };
    let threads = payload.get_u32_le() as usize;
    need(payload, 1)?;
    let dp = match payload.get_u8() {
        0 => None,
        1 => {
            need(payload, 16)?;
            Some(DpConfig {
                clip_norm: payload.get_f64_le(),
                noise_multiplier: payload.get_f64_le(),
            })
        }
        tag => return Err(WireError::UnknownTag(tag)),
    };
    need(payload, 24)?;
    let proximal_mu = payload.get_f64_le();
    let participation = payload.get_f64_le();
    let sampling_seed = payload.get_u64_le();
    need(payload, 1)?;
    let faults = match payload.get_u8() {
        0 => None,
        1 => Some(decode_fault_plan(payload)?),
        tag => return Err(WireError::UnknownTag(tag)),
    };
    need(payload, 1)?;
    let compression = match payload.get_u8() {
        TAG_COMP_NONE => CompressionMode::None,
        TAG_COMP_QUANT8 => CompressionMode::Quant8,
        TAG_COMP_TOP_K => {
            need(payload, 4)?;
            CompressionMode::TopKDelta {
                k: payload.get_u32_le() as usize,
            }
        }
        tag => return Err(WireError::UnknownTag(tag)),
    };
    finish_record(payload)?;
    Ok(FederatedConfig {
        rounds,
        epochs_per_round,
        batch_size,
        aggregator,
        parallel,
        threads,
        dp,
        proximal_mu,
        participation,
        sampling_seed,
        faults,
        compression,
    })
}

/// Appends the binary encoding of one fault plan (`EVCF` sub-record).
fn encode_fault_plan(buf: &mut BytesMut, plan: &FaultPlan) {
    buf.put_u64_le(plan.seed);
    buf.put_u32_le(plan.rules.len() as u32);
    for rule in &plan.rules {
        put_short_str(buf, &rule.client);
        match rule.rounds {
            RoundSelector::Every => buf.put_u8(TAG_SEL_EVERY),
            RoundSelector::Only { round } => {
                buf.put_u8(TAG_SEL_ONLY);
                buf.put_u32_le(round as u32);
            }
            RoundSelector::From { round } => {
                buf.put_u8(TAG_SEL_FROM);
                buf.put_u32_le(round as u32);
            }
            RoundSelector::Probability { p } => {
                buf.put_u8(TAG_SEL_PROBABILITY);
                buf.put_f64_le(p);
            }
        }
        encode_fault_kind(buf, rule.fault);
    }
    match plan.round_timeout_seconds {
        None => buf.put_u8(0),
        Some(t) => {
            buf.put_u8(1);
            buf.put_f64_le(t);
        }
    }
    buf.put_u32_le(plan.retry_budget as u32);
    buf.put_f64_le(plan.backoff_base_seconds);
    buf.put_u32_le(plan.min_participants as u32);
}

/// Decodes one fault plan (inverse of [`encode_fault_plan`]).
fn decode_fault_plan(payload: &mut &[u8]) -> Result<FaultPlan, WireError> {
    need(payload, 12)?;
    let seed = payload.get_u64_le();
    let rule_count = payload.get_u32_le();
    if rule_count > MAX_FAULT_EVENTS {
        return Err(WireError::InvalidRecord("implausible fault rule count"));
    }
    let mut rules = Vec::with_capacity(rule_count as usize);
    for _ in 0..rule_count {
        let client = decode_short_str(payload)?;
        need(payload, 1)?;
        let rounds = match payload.get_u8() {
            TAG_SEL_EVERY => RoundSelector::Every,
            TAG_SEL_ONLY => {
                need(payload, 4)?;
                RoundSelector::Only {
                    round: payload.get_u32_le() as usize,
                }
            }
            TAG_SEL_FROM => {
                need(payload, 4)?;
                RoundSelector::From {
                    round: payload.get_u32_le() as usize,
                }
            }
            TAG_SEL_PROBABILITY => {
                need(payload, 8)?;
                RoundSelector::Probability {
                    p: payload.get_f64_le(),
                }
            }
            tag => return Err(WireError::UnknownTag(tag)),
        };
        let fault = decode_fault_kind(payload)?;
        rules.push(FaultRule {
            client,
            rounds,
            fault,
        });
    }
    need(payload, 1)?;
    let round_timeout_seconds = match payload.get_u8() {
        0 => None,
        1 => {
            need(payload, 8)?;
            Some(payload.get_f64_le())
        }
        tag => return Err(WireError::UnknownTag(tag)),
    };
    need(payload, 16)?;
    Ok(FaultPlan {
        seed,
        rules,
        round_timeout_seconds,
        retry_budget: payload.get_u32_le() as usize,
        backoff_base_seconds: payload.get_f64_le(),
        min_participants: payload.get_u32_le() as usize,
    })
}

/// Format magic for socket envelope messages (`"EVMS"`).
pub const MESSAGE_MAGIC: [u8; 4] = *b"EVMS";

// Envelope message discriminants.
const TAG_HELLO: u8 = 0;
const TAG_WELCOME: u8 = 1;
const TAG_BROADCAST: u8 = 2;
const TAG_TRAIN_REQUEST: u8 = 3;
const TAG_UPDATE: u8 = 4;
const TAG_ACK: u8 = 5;
const TAG_DONE: u8 = 6;
const TAG_ABORT: u8 = 7;

/// Maximum accepted embedded blob length (matches the frame sanity bound
/// in [`crate::framing`]): a corrupt length field fails fast instead of
/// asking the decoder for gigabytes.
const MAX_BLOB_BYTES: u32 = 256 << 20;

/// One message of the socket protocol (`EVMS` envelope). The heavy fields
/// (`global`, `payload`) carry already-encoded `EVFD`/`EVQ8`/`EVSK`
/// records verbatim, so the envelope adds framing without re-encoding —
/// what the server meters is exactly `payload.len()`.
///
/// The round trip is driven by [`encode_message`]/[`decode_message`]; see
/// [`crate::socket`] for who sends what when.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server: first message on the control connection.
    Hello {
        /// The connecting client's roster id.
        client_id: String,
    },
    /// Server → client: handshake reply carrying the run configuration as
    /// an `EVCF` blob (see [`encode_config`] — the handshake speaks the
    /// same binary codec as the round loop) and the shared initial global
    /// weights as an `EVFD` blob.
    Welcome {
        /// `EVCF`-encoded [`crate::FederatedConfig`].
        config: Bytes,
        /// `EVFD`-encoded initial global weights.
        init_global: Bytes,
    },
    /// Server → client: the per-round global model broadcast (`EVFD`).
    Broadcast {
        /// Zero-based round index.
        round: u32,
        /// `EVFD`-encoded global weights.
        global: Bytes,
    },
    /// Server → client: train this round, optionally under an injected
    /// fault the client must enact (corrupt before upload, delay, fail
    /// uploads). Sent only to sampled, non-dropped-out clients.
    TrainRequest {
        /// Zero-based round index.
        round: u32,
        /// Fault directive from the server's [`crate::faults::FaultPlan`].
        fault: Option<FaultKind>,
    },
    /// Client → server: one upload attempt of a trained update. Sent on a
    /// fresh connection per attempt so a server-side nack is a real
    /// connection loss.
    Update {
        /// Zero-based round index.
        round: u32,
        /// Uploading client's roster id.
        client_id: String,
        /// Local sample count (FedAvg weighting).
        sample_count: u64,
        /// Final local training loss.
        train_loss: f64,
        /// The encoded update: `EVFD`, `EVQ8`, or `EVSK` per the run's
        /// [`crate::CompressionMode`].
        payload: Bytes,
    },
    /// Server → client: the upload attempt was accepted.
    Ack {
        /// Round being acknowledged.
        round: u32,
    },
    /// Server → client: the run finished; carries the final global
    /// weights (`EVFD`).
    Done {
        /// `EVFD`-encoded final global weights.
        global: Bytes,
    },
    /// Server → client: the run failed; carries the error message.
    Abort {
        /// Human-readable failure description.
        message: String,
    },
}

fn put_blob(buf: &mut BytesMut, blob: &[u8]) {
    buf.put_u32_le(blob.len() as u32);
    buf.put_slice(blob);
}

fn decode_blob(payload: &mut &[u8]) -> Result<Bytes, WireError> {
    need(payload, 4)?;
    let len = payload.get_u32_le() as usize;
    if len > MAX_BLOB_BYTES as usize {
        return Err(WireError::OversizedFrame { declared: len });
    }
    need(payload, len)?;
    let blob = Bytes::copy_from_slice(&payload[..len]);
    payload.advance(len);
    Ok(blob)
}

fn put_short_str(buf: &mut BytesMut, s: &str) {
    buf.put_u16_le(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

fn decode_short_str(payload: &mut &[u8]) -> Result<String, WireError> {
    need(payload, 2)?;
    let len = payload.get_u16_le() as usize;
    decode_str(payload, len)
}

/// Encodes one envelope message into `buf`, clearing it first but keeping
/// its allocation. Layout: `"EVMS" | version: u16 | tag: u8 | body`.
pub fn encode_message(buf: &mut BytesMut, msg: &Message) {
    buf.clear();
    buf.put_slice(&MESSAGE_MAGIC);
    buf.put_u16_le(VERSION);
    match msg {
        Message::Hello { client_id } => {
            buf.put_u8(TAG_HELLO);
            put_short_str(buf, client_id);
        }
        Message::Welcome {
            config,
            init_global,
        } => {
            buf.put_u8(TAG_WELCOME);
            put_blob(buf, config);
            put_blob(buf, init_global);
        }
        Message::Broadcast { round, global } => {
            buf.put_u8(TAG_BROADCAST);
            buf.put_u32_le(*round);
            put_blob(buf, global);
        }
        Message::TrainRequest { round, fault } => {
            buf.put_u8(TAG_TRAIN_REQUEST);
            buf.put_u32_le(*round);
            match fault {
                None => buf.put_u8(0),
                Some(f) => {
                    buf.put_u8(1);
                    encode_fault_kind(buf, *f);
                }
            }
        }
        Message::Update {
            round,
            client_id,
            sample_count,
            train_loss,
            payload,
        } => {
            buf.put_u8(TAG_UPDATE);
            buf.put_u32_le(*round);
            put_short_str(buf, client_id);
            buf.put_u64_le(*sample_count);
            buf.put_f64_le(*train_loss);
            put_blob(buf, payload);
        }
        Message::Ack { round } => {
            buf.put_u8(TAG_ACK);
            buf.put_u32_le(*round);
        }
        Message::Done { global } => {
            buf.put_u8(TAG_DONE);
            put_blob(buf, global);
        }
        Message::Abort { message } => {
            buf.put_u8(TAG_ABORT);
            put_blob(buf, message.as_bytes());
        }
    }
}

/// Decodes one envelope message (inverse of [`encode_message`]). Strict:
/// the payload must contain exactly one message — a frame carries one
/// envelope, so trailing bytes are a protocol error, not a next message.
///
/// # Errors
///
/// Returns [`WireError`] on a malformed, truncated, unknown-tag, or
/// trailing-bytes payload. [`WireError::Truncated::needed`] names the
/// additional bytes required, so a streamed caller can keep reading.
pub fn decode_message(mut payload: &[u8]) -> Result<Message, WireError> {
    let payload = &mut payload;
    need(payload, 7)?;
    let mut got = [0u8; 4];
    payload.copy_to_slice(&mut got);
    if got != MESSAGE_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = payload.get_u16_le();
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let msg = match payload.get_u8() {
        TAG_HELLO => Message::Hello {
            client_id: decode_short_str(payload)?,
        },
        TAG_WELCOME => Message::Welcome {
            config: decode_blob(payload)?,
            init_global: decode_blob(payload)?,
        },
        TAG_BROADCAST => {
            need(payload, 4)?;
            Message::Broadcast {
                round: payload.get_u32_le(),
                global: decode_blob(payload)?,
            }
        }
        TAG_TRAIN_REQUEST => {
            need(payload, 5)?;
            let round = payload.get_u32_le();
            let fault = match payload.get_u8() {
                0 => None,
                1 => Some(decode_fault_kind(payload)?),
                tag => return Err(WireError::UnknownTag(tag)),
            };
            Message::TrainRequest { round, fault }
        }
        TAG_UPDATE => {
            need(payload, 4)?;
            let round = payload.get_u32_le();
            let client_id = decode_short_str(payload)?;
            need(payload, 16)?;
            Message::Update {
                round,
                client_id,
                sample_count: payload.get_u64_le(),
                train_loss: payload.get_f64_le(),
                payload: decode_blob(payload)?,
            }
        }
        TAG_ACK => {
            need(payload, 4)?;
            Message::Ack {
                round: payload.get_u32_le(),
            }
        }
        TAG_DONE => Message::Done {
            global: decode_blob(payload)?,
        },
        TAG_ABORT => {
            let blob = decode_blob(payload)?;
            Message::Abort {
                message: String::from_utf8(blob.to_vec())
                    .map_err(|_| WireError::InvalidRecord("abort message is not UTF-8"))?,
            }
        }
        tag => return Err(WireError::UnknownTag(tag)),
    };
    finish_record(payload)?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_weights() -> Vec<Matrix> {
        vec![
            Matrix::from_fn(5, 7, |i, j| (i as f64) - 0.37 * j as f64),
            Matrix::row_vector(&[1.0, -2.5, f64::MIN_POSITIVE, 1e300]),
        ]
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let w = sample_weights();
        let blob = encode_weights(&w);
        assert_eq!(decode_weights(&blob).unwrap(), w);
    }

    #[test]
    fn encoded_size_matches() {
        let w = sample_weights();
        assert_eq!(encode_weights(&w).len(), encoded_size(&w));
    }

    #[test]
    fn rejects_bad_magic() {
        let mut blob = encode_weights(&sample_weights()).to_vec();
        blob[0] = b'X';
        assert_eq!(decode_weights(&blob), Err(WireError::BadMagic));
    }

    #[test]
    fn rejects_bad_version() {
        let mut blob = encode_weights(&sample_weights()).to_vec();
        blob[4] = 99;
        assert!(matches!(
            decode_weights(&blob),
            Err(WireError::BadVersion(_))
        ));
    }

    /// Decodes ever-longer prefixes of `blob`, extending each failed
    /// attempt by exactly the reported `needed` bytes, and asserts the
    /// walk lands precisely on a successful decode at `blob.len()` — the
    /// contract a streaming reader relies on: `needed` is never an
    /// overshoot and always makes progress.
    fn assert_needed_walk<T, F: Fn(&[u8]) -> Result<T, WireError>>(blob: &[u8], decode: F) {
        let mut have = 0usize;
        loop {
            match decode(&blob[..have]) {
                Ok(_) => {
                    assert_eq!(have, blob.len(), "decode succeeded before the full record");
                    return;
                }
                Err(WireError::Truncated { needed }) => {
                    assert!(needed >= 1, "needed must make progress at {have}");
                    assert!(
                        have + needed <= blob.len(),
                        "needed overshoots: {have} + {needed} > {}",
                        blob.len()
                    );
                    have += needed;
                }
                Err(other) => panic!("prefix of {have} bytes gave {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let blob = encode_weights(&sample_weights());
        for cut in 0..blob.len() {
            match decode_weights(&blob[..cut]) {
                Err(WireError::Truncated { needed }) => {
                    assert!(needed >= 1 && cut + needed <= blob.len(), "cut {cut}");
                }
                other => panic!("cut at {cut} gave {other:?}"),
            }
        }
    }

    #[test]
    fn truncation_needed_walks_to_exact_completion() {
        assert_needed_walk(&encode_weights(&sample_weights()), decode_weights);
        assert_needed_walk(&encode_weights(&[]), decode_weights);
        let q = QuantizedUpdate::quantize(&sample_weights());
        assert_needed_walk(&encode_quantized(&q), decode_quantized);
        let base = sample_weights();
        let mut update = base.clone();
        update[0].as_mut_slice()[5] += 1.5;
        let d = SparseDelta::top_k(&update, &base, 8);
        assert_needed_walk(&encode_sparse(&d), decode_sparse);
        assert_needed_walk(&encode_fault_log(&sample_fault_log()), decode_fault_log);
    }

    #[test]
    fn concatenated_records_are_never_silently_swallowed() {
        // Two records back to back: decoding the pair as one must fail
        // with the exact surplus, never return the first record as if the
        // second did not exist. Framing, not the record codec, splits a
        // stream.
        let one = encode_weights(&sample_weights());
        let mut two = one.to_vec();
        two.extend_from_slice(&one);
        assert_eq!(
            decode_weights(&two),
            Err(WireError::TrailingBytes { extra: one.len() })
        );
        let log = encode_fault_log(&sample_fault_log());
        let mut pair = log.to_vec();
        pair.extend_from_slice(&log);
        assert_eq!(
            decode_fault_log(&pair),
            Err(WireError::TrailingBytes { extra: log.len() })
        );
    }

    #[test]
    fn rejects_oversized_header() {
        let mut buf = bytes::BytesMut::new();
        buf.put_slice(&MAGIC);
        buf.put_u16_le(VERSION);
        buf.put_u32_le(1);
        buf.put_u32_le(u32::MAX);
        buf.put_u32_le(u32::MAX);
        assert!(matches!(
            decode_weights(&buf),
            Err(WireError::OversizedTensor { .. })
        ));
    }

    #[test]
    fn empty_weight_list_round_trips() {
        let blob = encode_weights(&[]);
        assert_eq!(decode_weights(&blob).unwrap(), Vec::<Matrix>::new());
    }

    #[test]
    fn binary_is_smaller_than_json() {
        let w = vec![Matrix::from_fn(51, 200, |i, j| (i * j) as f64 * 1e-4)];
        let binary = encode_weights(&w).len();
        let json = serde_json::to_vec(&w).unwrap().len();
        assert!(binary < json, "binary {binary} vs json {json}");
    }

    fn sample_fault_log() -> Vec<FaultEvent> {
        vec![
            FaultEvent {
                round: 0,
                client_id: "z102".into(),
                fault: FaultKind::DropOut,
                outcome: FaultOutcome::Dropped,
            },
            FaultEvent {
                round: 1,
                client_id: "z105".into(),
                fault: FaultKind::Straggler {
                    delay_seconds: 42.5,
                },
                outcome: FaultOutcome::TimedOut {
                    delay_seconds: 42.5,
                    timeout_seconds: 30.0,
                },
            },
            FaultEvent {
                round: 1,
                client_id: "z108".into(),
                fault: FaultKind::Corrupt {
                    corruption: Corruption::Scale { factor: -2.25 },
                },
                outcome: FaultOutcome::Corrupted,
            },
            FaultEvent {
                round: 2,
                client_id: "z111".into(),
                fault: FaultKind::Transient { failures: 2 },
                outcome: FaultOutcome::Recovered {
                    failed_attempts: 2,
                    backoff_seconds: 3.0,
                },
            },
            FaultEvent {
                round: 3,
                client_id: "z114".into(),
                fault: FaultKind::Transient { failures: 9 },
                outcome: FaultOutcome::RetriesExhausted { failed_attempts: 3 },
            },
            FaultEvent {
                round: 4,
                client_id: "z117".into(),
                fault: FaultKind::Corrupt {
                    corruption: Corruption::NanFlood,
                },
                outcome: FaultOutcome::Delayed { delay_seconds: 1.5 },
            },
        ]
    }

    #[test]
    fn fault_log_round_trips() {
        let log = sample_fault_log();
        let blob = encode_fault_log(&log);
        assert_eq!(decode_fault_log(&blob).unwrap(), log);
    }

    #[test]
    fn empty_fault_log_round_trips() {
        let blob = encode_fault_log(&[]);
        assert_eq!(decode_fault_log(&blob).unwrap(), Vec::<FaultEvent>::new());
    }

    #[test]
    fn fault_log_rejects_weight_magic_and_vice_versa() {
        let weights = encode_weights(&sample_weights());
        assert_eq!(decode_fault_log(&weights), Err(WireError::BadMagic));
        let log = encode_fault_log(&sample_fault_log());
        assert_eq!(decode_weights(&log), Err(WireError::BadMagic));
    }

    #[test]
    fn fault_log_rejects_truncation_everywhere() {
        let blob = encode_fault_log(&sample_fault_log());
        for cut in 0..blob.len() {
            let err = decode_fault_log(&blob[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. } | WireError::UnknownTag(_)),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn fault_log_rejects_unknown_tags() {
        let mut blob = encode_fault_log(&sample_fault_log()[..1]).to_vec();
        let tag_at = blob.len() - 2; // fault tag of the single DropOut event
        blob[tag_at] = 250;
        assert_eq!(decode_fault_log(&blob), Err(WireError::UnknownTag(250)));
    }

    #[test]
    fn checksum_is_sensitive_to_single_bit_flips() {
        let w = sample_weights();
        let base = weights_checksum(&w);
        assert_eq!(base, weights_checksum(&w), "deterministic");
        let mut flipped = w.clone();
        let v = flipped[0].as_slice()[0];
        flipped[0].as_mut_slice()[0] = f64::from_bits(v.to_bits() ^ 1);
        assert_ne!(base, weights_checksum(&flipped));
    }

    #[test]
    fn model_weights_survive_the_wire() {
        use evfad_nn::forecaster_model;
        let mut model = forecaster_model(8, 3);
        let blob = encode_weights(&model.weights());
        let restored = decode_weights(&blob).unwrap();
        model.set_weights(&restored).expect("same shapes");
    }

    #[test]
    fn encode_into_reuses_the_buffer_and_matches_encode() {
        let w = sample_weights();
        let mut buf = BytesMut::with_capacity(encoded_size(&w));
        encode_weights_into(&mut buf, &w);
        assert_eq!(&buf[..], &encode_weights(&w)[..]);
        // A second encode into the same buffer replaces, not appends.
        encode_weights_into(&mut buf, &w);
        assert_eq!(buf.len(), encoded_size(&w));
    }

    #[test]
    fn quantized_round_trips_and_size_matches() {
        let q = QuantizedUpdate::quantize(&sample_weights());
        let blob = encode_quantized(&q);
        assert_eq!(blob.len(), quantized_encoded_size(&q));
        let back = decode_quantized(&blob).unwrap();
        assert_eq!(back, q);
        // Re-encode idempotence: decoding loses nothing.
        assert_eq!(&encode_quantized(&back)[..], &blob[..]);
    }

    /// Pinned byte fixture for the `EVQ8` blob: the quantize math now
    /// lives in the shared `evfad_tensor::quant` helper (also used by the
    /// int8 inference lane), and this fixture proves the refactor — and
    /// any future change to the shared fold — leaves the wire format
    /// byte-for-byte unchanged.
    #[test]
    fn quantized_encoding_matches_pinned_byte_fixture() {
        let w = vec![
            Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64 * 0.5 - 1.0),
            Matrix::from_rows(&[vec![4.25, f64::NAN, -0.75]]),
        ];
        let q = QuantizedUpdate::quantize(&w);
        let blob = encode_quantized(&q);
        let hex: String = blob.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            concat!(
                // magic "EVQ8", version 1, tensor count 2
                "45565138",
                "0100",
                "02000000",
                // tensor 0: 2x3, min -1.0, step 2.5/255, no specials,
                // codes 0,51,102,153,204,255
                "02000000",
                "03000000",
                "000000000000f0bf",
                "141414141414843f",
                "00000000",
                "00336699ccff",
                // tensor 1: 1x3, min -0.75, step 5/255, one special,
                // codes 255,0,0, special (idx 1, NaN)
                "01000000",
                "03000000",
                "000000000000e8bf",
                "141414141414943f",
                "01000000",
                "ff0000",
                "01000000",
                "000000000000f87f",
            )
        );
        // And the round trip re-encodes to the identical bytes.
        let back = decode_quantized(&blob).unwrap();
        assert_eq!(&encode_quantized(&back)[..], &blob[..]);
    }

    #[test]
    fn quantized_with_nan_specials_round_trips() {
        let mut w = sample_weights();
        w[0].as_mut_slice()[3] = f64::NAN;
        w[0].as_mut_slice()[9] = f64::INFINITY;
        let q = QuantizedUpdate::quantize(&w);
        let back = decode_quantized(&encode_quantized(&q)).unwrap();
        let deq = back.dequantize();
        assert!(deq[0].as_slice()[3].is_nan());
        assert_eq!(deq[0].as_slice()[9], f64::INFINITY);
    }

    #[test]
    fn sparse_round_trips_and_size_matches() {
        let base = sample_weights();
        let mut update = base.clone();
        update[0].as_mut_slice()[5] += 1.5;
        update[1].as_mut_slice()[0] -= 0.25;
        let d = SparseDelta::top_k(&update, &base, 8);
        let blob = encode_sparse(&d);
        assert_eq!(blob.len(), sparse_encoded_size(&d));
        let back = decode_sparse(&blob).unwrap();
        assert_eq!(back, d);
        assert_eq!(&encode_sparse(&back)[..], &blob[..]);
    }

    #[test]
    fn compressed_formats_reject_each_others_magic() {
        let q = QuantizedUpdate::quantize(&sample_weights());
        let qblob = encode_quantized(&q);
        assert_eq!(decode_sparse(&qblob), Err(WireError::BadMagic));
        assert_eq!(decode_weights(&qblob), Err(WireError::BadMagic));
        let base = sample_weights();
        let d = SparseDelta::top_k(&base, &base, 4);
        let sblob = encode_sparse(&d);
        assert_eq!(decode_quantized(&sblob), Err(WireError::BadMagic));
        assert_eq!(decode_fault_log(&sblob), Err(WireError::BadMagic));
    }

    #[test]
    fn quantized_rejects_truncation_everywhere() {
        let q = QuantizedUpdate::quantize(&sample_weights());
        let blob = encode_quantized(&q);
        for cut in 0..blob.len() {
            assert!(
                matches!(
                    decode_quantized(&blob[..cut]),
                    Err(WireError::Truncated { .. })
                ),
                "cut at {cut} not detected"
            );
        }
    }

    #[test]
    fn sparse_rejects_truncation_everywhere() {
        let base = sample_weights();
        let mut update = base.clone();
        for m in update.iter_mut() {
            for v in m.as_mut_slice() {
                *v += 0.125;
            }
        }
        let d = SparseDelta::top_k(&update, &base, 6);
        let blob = encode_sparse(&d);
        for cut in 0..blob.len() {
            assert!(
                matches!(
                    decode_sparse(&blob[..cut]),
                    Err(WireError::Truncated { .. })
                ),
                "cut at {cut} not detected"
            );
        }
    }

    #[test]
    fn quantized_rejects_out_of_range_special_index() {
        let mut w = sample_weights();
        w[0].as_mut_slice()[0] = f64::NAN;
        let q = QuantizedUpdate::quantize(&w);
        let mut blob = encode_quantized(&q).to_vec();
        // First tensor: header(10) + rows/cols(8) + min/step(16) +
        // special_count(4) + codes, then the first special index.
        let idx_at = 10 + 8 + 16 + 4 + q.tensors[0].codes.len();
        blob[idx_at..idx_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_quantized(&blob),
            Err(WireError::InvalidRecord(_))
        ));
    }

    #[test]
    fn version_is_shared_across_formats() {
        let q = QuantizedUpdate::quantize(&sample_weights());
        let mut blob = encode_quantized(&q).to_vec();
        blob[4] = 77;
        assert!(matches!(
            decode_quantized(&blob),
            Err(WireError::BadVersion(77))
        ));
    }

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Hello {
                client_id: "z105".into(),
            },
            Message::Welcome {
                config: encode_config(&FederatedConfig::default()),
                init_global: encode_weights(&sample_weights()),
            },
            Message::Broadcast {
                round: 2,
                global: encode_weights(&sample_weights()),
            },
            Message::TrainRequest {
                round: 0,
                fault: None,
            },
            Message::TrainRequest {
                round: 1,
                fault: Some(FaultKind::Transient { failures: 2 }),
            },
            Message::TrainRequest {
                round: 4,
                fault: Some(FaultKind::Corrupt {
                    corruption: Corruption::Scale { factor: -2.5 },
                }),
            },
            Message::Update {
                round: 3,
                client_id: "z108".into(),
                sample_count: 32,
                train_loss: 0.0123,
                payload: encode_weights(&sample_weights()),
            },
            Message::Ack { round: 3 },
            Message::Done {
                global: encode_weights(&sample_weights()),
            },
            Message::Abort {
                message: "round 1 starved".into(),
            },
        ]
    }

    #[test]
    fn every_message_round_trips() {
        let mut buf = BytesMut::new();
        for msg in sample_messages() {
            encode_message(&mut buf, &msg);
            assert_eq!(decode_message(&buf).unwrap(), msg, "{msg:?}");
        }
    }

    #[test]
    fn every_message_split_at_every_offset_reports_needed_bytes() {
        let mut buf = BytesMut::new();
        for msg in sample_messages() {
            encode_message(&mut buf, &msg);
            let blob = buf.clone().freeze();
            for cut in 0..blob.len() {
                match decode_message(&blob[..cut]) {
                    Err(WireError::Truncated { needed }) => {
                        assert!(
                            needed >= 1 && cut + needed <= blob.len(),
                            "{msg:?} cut {cut} needed {needed}"
                        );
                    }
                    other => panic!("{msg:?} cut at {cut} gave {other:?}"),
                }
            }
            assert_needed_walk(&blob, decode_message);
        }
    }

    #[test]
    fn message_rejects_trailing_and_foreign_magic() {
        let mut buf = BytesMut::new();
        encode_message(&mut buf, &Message::Ack { round: 1 });
        let mut padded = buf.to_vec();
        padded.push(0);
        assert_eq!(
            decode_message(&padded),
            Err(WireError::TrailingBytes { extra: 1 })
        );
        let weights = encode_weights(&sample_weights());
        assert_eq!(decode_message(&weights), Err(WireError::BadMagic));
        buf[4] = 9;
        assert!(matches!(
            decode_message(&buf),
            Err(WireError::BadVersion(9))
        ));
    }

    #[test]
    fn message_rejects_unknown_tags() {
        let mut buf = BytesMut::new();
        encode_message(&mut buf, &Message::Ack { round: 1 });
        buf[6] = 200;
        assert_eq!(decode_message(&buf), Err(WireError::UnknownTag(200)));
    }

    #[test]
    fn quantized_view_yields_exactly_the_dequantized_values() {
        let mut w = sample_weights();
        w[0].as_mut_slice()[3] = f64::NAN;
        w[0].as_mut_slice()[9] = f64::INFINITY;
        w[1].as_mut_slice()[2] = f64::NEG_INFINITY;
        let q = QuantizedUpdate::quantize(&w);
        let blob = encode_quantized(&q);
        let view = quantized_view(&blob).unwrap();
        let decoded = q.dequantize();
        assert_eq!(view.tensor_count(), decoded.len());
        for (t, m) in view.tensors().zip(&decoded) {
            assert_eq!(t.shape(), m.shape());
            assert_eq!(t.values().len(), m.len());
            for (a, &b) in t.values().zip(m.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        assert_eq!(view.tensors().map(|t| t.special_count()).sum::<usize>(), 3);
    }

    #[test]
    fn sparse_view_yields_exactly_the_decoded_entries() {
        let base = sample_weights();
        let mut update = sample_weights();
        update[0].as_mut_slice()[5] += 2.0;
        update[0].as_mut_slice()[11] = f64::NAN;
        update[1].as_mut_slice()[0] -= 0.5;
        let d = SparseDelta::top_k(&update, &base, 4);
        let blob = encode_sparse(&d);
        let view = sparse_view(&blob).unwrap();
        assert_eq!(view.tensor_count(), d.tensors.len());
        for (t, dt) in view.tensors().zip(&d.tensors) {
            assert_eq!(t.shape(), (dt.rows, dt.cols));
            assert_eq!(t.nnz(), dt.indices.len());
            for ((idx, val), (&di, &dv)) in t.entries().zip(dt.indices.iter().zip(&dt.values)) {
                assert_eq!(idx, di);
                assert_eq!(val.to_bits(), dv.to_bits());
            }
        }
    }

    #[test]
    fn views_reject_everything_the_decoders_reject() {
        let mut w = sample_weights();
        w[0].as_mut_slice()[0] = f64::NAN;
        let q = QuantizedUpdate::quantize(&w);
        let q_blob = encode_quantized(&q);
        let base = [Matrix::zeros(5, 7), Matrix::zeros(1, 4)];
        let d = SparseDelta::top_k(&sample_weights(), &base, 4);
        let s_blob = encode_sparse(&d);
        // Truncation at every cut reports the same error class as the
        // decoder, and never mutates caller state (views have none).
        for cut in 0..q_blob.len() {
            assert_eq!(
                quantized_view(&q_blob[..cut]).err().is_some(),
                decode_quantized(&q_blob[..cut]).err().is_some()
            );
        }
        for cut in 0..s_blob.len() {
            assert_eq!(
                sparse_view(&s_blob[..cut]).err().is_some(),
                decode_sparse(&s_blob[..cut]).err().is_some()
            );
        }
        // Trailing garbage.
        let mut padded = q_blob.to_vec();
        padded.push(7);
        assert_eq!(
            quantized_view(&padded).err(),
            Some(WireError::TrailingBytes { extra: 1 })
        );
        // Out-of-range special index.
        let mut corrupt = q_blob.to_vec();
        let idx_at = 10 + 8 + 16 + 4 + q.tensors[0].codes.len();
        corrupt[idx_at..idx_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            quantized_view(&corrupt),
            Err(WireError::InvalidRecord(_))
        ));
    }

    #[test]
    fn non_ascending_indices_are_rejected_by_decoders_and_views() {
        let mut w = sample_weights();
        w[0].as_mut_slice()[0] = f64::NAN;
        w[0].as_mut_slice()[1] = f64::NAN;
        let q = QuantizedUpdate::quantize(&w);
        assert_eq!(q.tensors[0].special_idx, vec![0, 1]);
        let mut blob = encode_quantized(&q).to_vec();
        // Swap the two special records: indices become [1, 0].
        let at = 10 + 8 + 16 + 4 + q.tensors[0].codes.len();
        let (a, b) = (at, at + 12);
        let mut swapped = blob.clone();
        swapped[a..a + 12].copy_from_slice(&blob[b..b + 12]);
        swapped[b..b + 12].copy_from_slice(&blob[a..a + 12]);
        assert_eq!(
            decode_quantized(&swapped),
            Err(WireError::InvalidRecord(
                "quantized special indices not strictly ascending"
            ))
        );
        assert!(quantized_view(&swapped).is_err());
        // A duplicated index is just as dead.
        blob[b..b + 4].copy_from_slice(&0u32.to_le_bytes());
        assert!(decode_quantized(&blob).is_err());

        let base = vec![Matrix::zeros(2, 3)];
        let update = vec![Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64 + 1.0)];
        let d = SparseDelta::top_k(&update, &base, 3);
        let mut s_blob = encode_sparse(&d).to_vec();
        // Swap the first two entries of the first tensor.
        let at = 10 + 12;
        let tmp = s_blob[at..at + 12].to_vec();
        let next = s_blob[at + 12..at + 24].to_vec();
        s_blob[at..at + 12].copy_from_slice(&next);
        s_blob[at + 12..at + 24].copy_from_slice(&tmp);
        assert_eq!(
            decode_sparse(&s_blob),
            Err(WireError::InvalidRecord(
                "sparse indices not strictly ascending"
            ))
        );
        assert!(sparse_view(&s_blob).is_err());
    }

    #[test]
    fn config_round_trips_through_the_binary_codec() {
        let mut cfg = FederatedConfig {
            rounds: 7,
            epochs_per_round: 3,
            batch_size: 16,
            aggregator: Aggregator::TrimmedMean { trim: 2 },
            parallel: false,
            threads: 3,
            dp: Some(DpConfig {
                clip_norm: 1.5,
                noise_multiplier: 0.25,
            }),
            proximal_mu: 0.01,
            participation: 0.6,
            sampling_seed: 42,
            faults: None,
            compression: CompressionMode::TopKDelta { k: 128 },
        };
        assert_eq!(decode_config(&encode_config(&cfg)).unwrap(), cfg);

        cfg.faults = Some(
            FaultPlan::new(9)
                .with_rule("z102", RoundSelector::Only { round: 1 }, FaultKind::DropOut)
                .with_rule(
                    "z105",
                    RoundSelector::Every,
                    FaultKind::Straggler { delay_seconds: 3.0 },
                )
                .with_rule(
                    "z108",
                    RoundSelector::From { round: 2 },
                    FaultKind::Corrupt {
                        corruption: Corruption::NanFlood,
                    },
                )
                .with_rule(
                    "z103",
                    RoundSelector::Probability { p: 0.5 },
                    FaultKind::Corrupt {
                        corruption: Corruption::Scale { factor: -4.0 },
                    },
                )
                .with_rule(
                    "z104",
                    RoundSelector::Every,
                    FaultKind::Transient { failures: 2 },
                )
                .with_timeout(30.0)
                .with_retry(5, 0.5)
                .with_min_participants(2),
        );
        cfg.aggregator = Aggregator::Krum { byzantine: 1 };
        cfg.compression = CompressionMode::Quant8;
        assert_eq!(decode_config(&encode_config(&cfg)).unwrap(), cfg);

        assert_eq!(
            decode_config(&encode_config(&FederatedConfig::default())).unwrap(),
            FederatedConfig::default()
        );
    }

    #[test]
    fn config_codec_rejects_corruption() {
        let blob = encode_config(&FederatedConfig::default());
        let mut bad = blob.to_vec();
        bad[0] = b'X';
        assert_eq!(decode_config(&bad), Err(WireError::BadMagic));
        let mut padded = blob.to_vec();
        padded.push(0);
        assert_eq!(
            decode_config(&padded),
            Err(WireError::TrailingBytes { extra: 1 })
        );
        assert_needed_walk(&blob, decode_config);
    }

    #[test]
    fn update_payload_crosses_the_envelope_verbatim() {
        // The envelope must not re-encode the inner record: the metered
        // bytes are exactly the payload the client produced.
        let inner = encode_weights(&sample_weights());
        let msg = Message::Update {
            round: 0,
            client_id: "z102".into(),
            sample_count: 7,
            train_loss: 1.5,
            payload: inner.clone(),
        };
        let mut buf = BytesMut::new();
        encode_message(&mut buf, &msg);
        match decode_message(&buf).unwrap() {
            Message::Update { payload, .. } => {
                assert_eq!(&payload[..], &inner[..]);
                assert_eq!(decode_weights(&payload).unwrap(), sample_weights());
            }
            other => panic!("decoded {other:?}"),
        }
    }
}
