//! Frozen, packed inference snapshots of a [`Sequential`] model.
//!
//! Training mutates a model in place and must stay bitwise-pinned; serving
//! wants the opposite trade — freeze the weights once, pack them for the
//! kernels' preferred layout, and push as many windows per GEMM as the
//! admission queue can batch. An [`InferenceModel`] is that snapshot:
//!
//! - Every GEMM operand is pre-packed at freeze time
//!   ([`PackedB`]), and every tensor is *also* quantized to int8 with the
//!   shared EVQ8 fold ([`QuantizedPanel`]) so one snapshot carries both
//!   numeric lanes. [`Precision`] picks the lane per snapshot.
//! - [`InferenceModel::forward_batch_into`] runs **many windows per
//!   GEMM**: the whole batch shares one input-projection product per
//!   recurrent layer and one product per dense layer, instead of the
//!   one-window-at-a-time cadence of the online path.
//! - There is no dropout at inference (identity), so dropout layers are
//!   dropped entirely at freeze time — the snapshot never pays their
//!   sequence copies.
//!
//! # Exactness contract
//!
//! The `F64` lane routes through [`fastpath`]'s blocked kernels, which
//! without the `fastmath` cargo feature delegate to the exact
//! [`kernels`](evfad_tensor::kernels) — and every elementwise expression
//! here replays the training-path forward (`stable_sigmoid` gate order,
//! cell update association, bias broadcast) verbatim. Each output row of
//! every kernel depends only on its own input row, so batching windows
//! together cannot change any window's bits: **a default build's
//! `forward_batch_into` is bitwise-identical to per-window
//! [`Sequential::predict`]** (pinned by proptests and the tier-1 scoring
//! gate). With `fastmath` enabled the same code reassociates GEMM sums
//! for throughput and is *close*, not identical.
//!
//! The `Int8` lane is always approximate: weights carry at most half a
//! quantization step of error each (see
//! [`quant`](evfad_tensor::quant)), activations and accumulation are
//! `f32`. For the sigmoid/tanh-saturated stacks served here the
//! end-to-end reconstruction deltas stay small; the serving bench
//! measures and asserts the score-level bound (`BENCH_inference.json`).

#[cfg(not(feature = "fastmath"))]
use crate::activation::stable_sigmoid;
use crate::activation::Activation;
use crate::layer::Layer;
use crate::model::Sequential;
use crate::{NnError, NnResult};
use evfad_tensor::fastpath::{self, PackedB, QuantizedPanel};
use evfad_tensor::{kernels, vmath, MatMut, MatRef, Matrix};

/// Numeric lane of a frozen snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// f64 activations and accumulation; bitwise-exact versus the
    /// training-path forward when `fastmath` is disabled.
    #[default]
    F64,
    /// int8 weights (shared EVQ8 fold) with f32 activations and f32
    /// accumulation; always approximate, always opt-in.
    Int8,
}

/// `f32` twin of the training path's numerically stable sigmoid.
#[inline]
fn stable_sigmoid_f32(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[inline]
fn apply_act_f32(act: Activation, x: f32) -> f32 {
    match act {
        Activation::Linear => x,
        Activation::Relu => x.max(0.0),
        Activation::Sigmoid => stable_sigmoid_f32(x),
        Activation::Tanh => vmath::tanh1_f32(x),
    }
}

/// A dense layer frozen for serving: packed f64 weights plus the int8
/// twin.
#[derive(Debug, Clone)]
struct DenseSnap {
    i_dim: usize,
    o_dim: usize,
    act: Activation,
    w: PackedB,
    b: Matrix,
    qw: QuantizedPanel,
    qb: Vec<f32>,
}

/// An LSTM layer frozen for serving. The combined training kernel
/// `(I+H) × 4H` is split into its `W_x`/`W_h` halves so the batched input
/// projection and the per-step recurrence each get a packed operand.
#[derive(Debug, Clone)]
struct LstmSnap {
    i_dim: usize,
    h_dim: usize,
    return_sequences: bool,
    wx: PackedB,
    wh: PackedB,
    b: Matrix,
    qwx: QuantizedPanel,
    qwh: QuantizedPanel,
    qb: Vec<f32>,
    // Reused scratch (f64 lane / f32 lane).
    pre: Vec<f64>,
    c: Vec<f64>,
    h: Vec<f64>,
    pre32: Vec<f32>,
    c32: Vec<f32>,
    h32: Vec<f32>,
}

/// A GRU layer frozen for serving (gate kernel split like the LSTM's,
/// candidate kernel split the same way).
#[derive(Debug, Clone)]
struct GruSnap {
    i_dim: usize,
    h_dim: usize,
    return_sequences: bool,
    wgx: PackedB,
    wgh: PackedB,
    bg: Matrix,
    wcx: PackedB,
    wch: PackedB,
    bc: Matrix,
    qwgx: QuantizedPanel,
    qwgh: QuantizedPanel,
    qbg: Vec<f32>,
    qwcx: QuantizedPanel,
    qwch: QuantizedPanel,
    qbc: Vec<f32>,
    preg: Vec<f64>,
    cand: Vec<f64>,
    rh: Vec<f64>,
    h: Vec<f64>,
    preg32: Vec<f32>,
    cand32: Vec<f32>,
    rh32: Vec<f32>,
    h32: Vec<f32>,
}

#[derive(Debug, Clone)]
enum InferLayer {
    Dense(Box<DenseSnap>),
    Lstm(Box<LstmSnap>),
    Gru(Box<GruSnap>),
    /// RepeatVector: broadcast a single collapsed step `n` times.
    Repeat(usize),
}

/// A frozen, packed snapshot of a [`Sequential`] for batched scoring.
///
/// Freeze once, serve forever: the snapshot holds no optimiser state, no
/// training caches, and never mutates its weights — only its scratch
/// buffers, which stay warm across calls (a shape-stable caller allocates
/// nothing after the first batch). Cloning a snapshot gives an
/// independent serving replica (the multi-tenant scoring front end clones
/// one per worker thread).
///
/// # Examples
///
/// ```
/// use evfad_nn::infer::{InferenceModel, Precision};
/// use evfad_nn::{Activation, Dense, Lstm, Sequential};
/// use evfad_tensor::Matrix;
///
/// let mut model = Sequential::new(5)
///     .with(Lstm::new(1, 6, false))
///     .with(Dense::new(6, 1, Activation::Linear));
/// let mut frozen = InferenceModel::freeze(&model, Precision::F64).unwrap();
/// // Three 4-step windows in one batched forward.
/// let windows = [0.1, 0.2, 0.3, 0.4, 0.0, 0.1, 0.0, 0.1, 0.9, 0.8, 0.7, 0.6];
/// let mut out = Vec::new();
/// let (steps, feat) = frozen.forward_batch_into(&windows, 3, &mut out);
/// assert_eq!((steps, feat), (1, 1));
/// assert_eq!(out.len(), 3);
/// // Bitwise-identical to the per-window exact path (default build).
/// let exact = model.predict(&[Matrix::column_vector(&[0.1, 0.2, 0.3, 0.4])]);
/// assert_eq!(out[0].to_bits(), exact[0][(0, 0)].to_bits());
/// ```
#[derive(Debug, Clone)]
pub struct InferenceModel {
    layers: Vec<InferLayer>,
    precision: Precision,
    in_features: usize,
    out_features: usize,
    // Ping-pong activation arenas, time-major `[t][row][feature]`.
    buf_a: Vec<f64>,
    buf_b: Vec<f64>,
    buf_a32: Vec<f32>,
    buf_b32: Vec<f32>,
}

impl InferenceModel {
    /// Freezes a built model into a packed snapshot.
    ///
    /// Dropout layers vanish (inference identity); dense, LSTM, GRU, and
    /// repeat-vector layers are packed and quantized.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the model has no layers that
    /// produce output (nothing to serve).
    pub fn freeze(model: &Sequential, precision: Precision) -> NnResult<Self> {
        let mut layers = Vec::new();
        let mut in_features = None;
        let mut features = 0usize;
        for layer in model.layers() {
            match layer {
                Layer::Dropout(_) => {}
                Layer::Dense(d) => {
                    let params = d.params();
                    let (w, b) = (params[0], params[1]);
                    in_features.get_or_insert(d.input_dim());
                    features = d.output_dim();
                    layers.push(InferLayer::Dense(Box::new(DenseSnap {
                        i_dim: d.input_dim(),
                        o_dim: d.output_dim(),
                        act: d.activation(),
                        w: PackedB::pack(w.view()),
                        b: b.clone(),
                        qw: QuantizedPanel::quantize(w.view()),
                        qb: b.as_slice().iter().map(|&v| v as f32).collect(),
                    })));
                }
                Layer::Lstm(l) => {
                    let params = l.params();
                    let (w, b) = (params[0], params[1]);
                    let (i_dim, h_dim) = (l.input_dim(), l.hidden_dim());
                    in_features.get_or_insert(i_dim);
                    features = h_dim;
                    let wx = w.rows_view(0..i_dim);
                    let wh = w.rows_view(i_dim..i_dim + h_dim);
                    layers.push(InferLayer::Lstm(Box::new(LstmSnap {
                        i_dim,
                        h_dim,
                        return_sequences: l.return_sequences(),
                        wx: PackedB::pack(wx),
                        wh: PackedB::pack(wh),
                        b: b.clone(),
                        qwx: QuantizedPanel::quantize(wx),
                        qwh: QuantizedPanel::quantize(wh),
                        qb: b.as_slice().iter().map(|&v| v as f32).collect(),
                        pre: Vec::new(),
                        c: Vec::new(),
                        h: Vec::new(),
                        pre32: Vec::new(),
                        c32: Vec::new(),
                        h32: Vec::new(),
                    })));
                }
                Layer::Gru(g) => {
                    let params = g.params();
                    let (wg, bg, wc, bc) = (params[0], params[1], params[2], params[3]);
                    let (i_dim, h_dim) = (g.input_dim(), g.hidden_dim());
                    in_features.get_or_insert(i_dim);
                    features = h_dim;
                    let wgx = wg.rows_view(0..i_dim);
                    let wgh = wg.rows_view(i_dim..i_dim + h_dim);
                    let wcx = wc.rows_view(0..i_dim);
                    let wch = wc.rows_view(i_dim..i_dim + h_dim);
                    layers.push(InferLayer::Gru(Box::new(GruSnap {
                        i_dim,
                        h_dim,
                        return_sequences: g.return_sequences(),
                        wgx: PackedB::pack(wgx),
                        wgh: PackedB::pack(wgh),
                        bg: bg.clone(),
                        wcx: PackedB::pack(wcx),
                        wch: PackedB::pack(wch),
                        bc: bc.clone(),
                        qwgx: QuantizedPanel::quantize(wgx),
                        qwgh: QuantizedPanel::quantize(wgh),
                        qbg: bg.as_slice().iter().map(|&v| v as f32).collect(),
                        qwcx: QuantizedPanel::quantize(wcx),
                        qwch: QuantizedPanel::quantize(wch),
                        qbc: bc.as_slice().iter().map(|&v| v as f32).collect(),
                        preg: Vec::new(),
                        cand: Vec::new(),
                        rh: Vec::new(),
                        h: Vec::new(),
                        preg32: Vec::new(),
                        cand32: Vec::new(),
                        rh32: Vec::new(),
                        h32: Vec::new(),
                    })));
                }
                Layer::RepeatVector(r) => {
                    layers.push(InferLayer::Repeat(r.n()));
                }
            }
        }
        let in_features = in_features.ok_or_else(|| {
            NnError::InvalidConfig("cannot freeze a model with no parameterised layers".into())
        })?;
        Ok(Self {
            layers,
            precision,
            in_features,
            out_features: features,
            buf_a: Vec::new(),
            buf_b: Vec::new(),
            buf_a32: Vec::new(),
            buf_b32: Vec::new(),
        })
    }

    /// The numeric lane this snapshot serves with.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Input feature width per timestep.
    pub fn input_features(&self) -> usize {
        self.in_features
    }

    /// Output feature width per timestep.
    pub fn output_features(&self) -> usize {
        self.out_features
    }

    /// Total packed int8 weight bytes of the snapshot's quantized lane.
    pub fn quantized_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| match l {
                InferLayer::Dense(d) => d.qw.byte_size(),
                InferLayer::Lstm(l) => l.qwx.byte_size() + l.qwh.byte_size(),
                InferLayer::Gru(g) => {
                    g.qwgx.byte_size()
                        + g.qwgh.byte_size()
                        + g.qwcx.byte_size()
                        + g.qwch.byte_size()
                }
                InferLayer::Repeat(_) => 0,
            })
            .sum()
    }

    /// Batched forward pass: `windows` holds `batch` samples,
    /// sample-major (`batch × steps × features` with each sample's steps
    /// contiguous), exactly the layout [`Sequential::predict_into`]
    /// produces. Writes the outputs sample-major into `out`
    /// (cleared first) and returns `(out_steps, out_features)` per sample.
    ///
    /// Every window of the batch shares each layer's GEMMs; per-row
    /// independence of the kernels keeps each window's result identical
    /// to a batch of one (bitwise on the default-build `F64` lane).
    ///
    /// # Panics
    ///
    /// Panics if `windows.len()` is not a positive multiple of
    /// `batch * input_features()`.
    pub fn forward_batch_into(
        &mut self,
        windows: &[f64],
        batch: usize,
        out: &mut Vec<f64>,
    ) -> (usize, usize) {
        assert!(batch > 0, "forward_batch_into needs at least one window");
        let stride = batch * self.in_features;
        assert!(
            !windows.is_empty() && windows.len().is_multiple_of(stride),
            "window buffer of {} values is not a multiple of batch {} × features {}",
            windows.len(),
            batch,
            self.in_features
        );
        let steps = windows.len() / stride;
        match self.precision {
            Precision::F64 => self.forward_f64(windows, steps, batch, out),
            Precision::Int8 => self.forward_q8(windows, steps, batch, out),
        }
    }

    fn forward_f64(
        &mut self,
        windows: &[f64],
        mut steps: usize,
        batch: usize,
        out: &mut Vec<f64>,
    ) -> (usize, usize) {
        let feat = self.in_features;
        // Stage sample-major windows into the time-major arena.
        let cur = &mut self.buf_a;
        cur.clear();
        cur.resize(steps * batch * feat, 0.0);
        for r in 0..batch {
            for t in 0..steps {
                let src = r * steps * feat + t * feat;
                let dst = (t * batch + r) * feat;
                cur[dst..dst + feat].copy_from_slice(&windows[src..src + feat]);
            }
        }
        let mut feat = feat;
        let (mut cur, mut next) = (&mut self.buf_a, &mut self.buf_b);
        for layer in &mut self.layers {
            let out_steps = match layer {
                InferLayer::Dense(d) => d.forward_f64(cur, steps, batch, next),
                InferLayer::Lstm(l) => l.forward_f64(cur, steps, batch, next),
                InferLayer::Gru(g) => g.forward_f64(cur, steps, batch, next),
                InferLayer::Repeat(n) => {
                    assert_eq!(steps, 1, "RepeatVector input must be a single step");
                    next.clear();
                    for _ in 0..*n {
                        next.extend_from_slice(&cur[..batch * feat]);
                    }
                    *n
                }
            };
            feat = match layer {
                InferLayer::Dense(d) => d.o_dim,
                InferLayer::Lstm(l) => l.h_dim,
                InferLayer::Gru(g) => g.h_dim,
                InferLayer::Repeat(_) => feat,
            };
            steps = out_steps;
            std::mem::swap(&mut cur, &mut next);
        }
        // De-stage: time-major arena back to sample-major output.
        out.clear();
        out.resize(batch * steps * feat, 0.0);
        for r in 0..batch {
            for t in 0..steps {
                let src = (t * batch + r) * feat;
                let dst = r * steps * feat + t * feat;
                out[dst..dst + feat].copy_from_slice(&cur[src..src + feat]);
            }
        }
        (steps, feat)
    }

    fn forward_q8(
        &mut self,
        windows: &[f64],
        mut steps: usize,
        batch: usize,
        out: &mut Vec<f64>,
    ) -> (usize, usize) {
        let feat = self.in_features;
        let cur = &mut self.buf_a32;
        cur.clear();
        cur.resize(steps * batch * feat, 0.0);
        for r in 0..batch {
            for t in 0..steps {
                let src = r * steps * feat + t * feat;
                let dst = (t * batch + r) * feat;
                for f in 0..feat {
                    cur[dst + f] = windows[src + f] as f32;
                }
            }
        }
        let mut feat = feat;
        let (mut cur, mut next) = (&mut self.buf_a32, &mut self.buf_b32);
        for layer in &mut self.layers {
            let out_steps = match layer {
                InferLayer::Dense(d) => d.forward_q8(cur, steps, batch, next),
                InferLayer::Lstm(l) => l.forward_q8(cur, steps, batch, next),
                InferLayer::Gru(g) => g.forward_q8(cur, steps, batch, next),
                InferLayer::Repeat(n) => {
                    assert_eq!(steps, 1, "RepeatVector input must be a single step");
                    next.clear();
                    for _ in 0..*n {
                        next.extend_from_slice(&cur[..batch * feat]);
                    }
                    *n
                }
            };
            feat = match layer {
                InferLayer::Dense(d) => d.o_dim,
                InferLayer::Lstm(l) => l.h_dim,
                InferLayer::Gru(g) => g.h_dim,
                InferLayer::Repeat(_) => feat,
            };
            steps = out_steps;
            std::mem::swap(&mut cur, &mut next);
        }
        out.clear();
        out.resize(batch * steps * feat, 0.0);
        for r in 0..batch {
            for t in 0..steps {
                let src = (t * batch + r) * feat;
                let dst = r * steps * feat + t * feat;
                for f in 0..feat {
                    out[dst + f] = cur[src + f] as f64;
                }
            }
        }
        (steps, feat)
    }
}

impl DenseSnap {
    /// One fused GEMM for every timestep of every window in the batch —
    /// replays the training dense layer's kernel sequence exactly on the
    /// delegating (non-`fastmath`) build.
    fn forward_f64(&self, input: &[f64], steps: usize, batch: usize, out: &mut Vec<f64>) -> usize {
        let rows = steps * batch;
        out.clear();
        out.resize(rows * self.o_dim, 0.0);
        let act = self.act;
        fastpath::matmul_bias_act_into_blocked(
            MatRef::new(rows, self.i_dim, input),
            &self.w,
            self.b.view(),
            |x| act.apply(x),
            MatMut::new(rows, self.o_dim, out),
        );
        steps
    }

    fn forward_q8(&self, input: &[f32], steps: usize, batch: usize, out: &mut Vec<f32>) -> usize {
        let rows = steps * batch;
        out.clear();
        out.resize(rows * self.o_dim, 0.0);
        let act = self.act;
        fastpath::matmul_q8_bias_act_into(
            input,
            rows,
            &self.qw,
            &self.qb,
            |x| apply_act_f32(act, x),
            out,
        );
        steps
    }
}

impl LstmSnap {
    /// Batched input projection + per-step recurrence, replaying the
    /// training LSTM's fused forward expression-for-expression.
    fn forward_f64(
        &mut self,
        input: &[f64],
        steps: usize,
        batch: usize,
        out: &mut Vec<f64>,
    ) -> usize {
        let (i_dim, h_dim) = (self.i_dim, self.h_dim);
        let (bh, b4h) = (batch * h_dim, batch * 4 * h_dim);
        self.pre.clear();
        self.pre.resize(steps * b4h, 0.0);
        self.c.clear();
        self.c.resize(steps * bh, 0.0);
        self.h.clear();
        self.h.resize(steps * bh, 0.0);
        // Batched input projection for every timestep at once.
        fastpath::matmul_into_blocked(
            MatRef::new(steps * batch, i_dim, input),
            &self.wx,
            MatMut::new(steps * batch, 4 * h_dim, &mut self.pre),
        );
        let zeros = vec![0.0; bh];
        for t in 0..steps {
            let (h_done, h_rest) = self.h.split_at_mut(t * bh);
            let h_prev = if t == 0 {
                &zeros[..]
            } else {
                &h_done[(t - 1) * bh..]
            };
            let pre_t = &mut self.pre[t * b4h..(t + 1) * b4h];
            fastpath::matmul_acc_into_blocked(
                MatRef::new(batch, h_dim, h_prev),
                &self.wh,
                MatMut::new(batch, 4 * h_dim, pre_t),
            );
            kernels::add_row_broadcast_into(MatMut::new(batch, 4 * h_dim, pre_t), self.b.view());
            let (c_done, c_rest) = self.c.split_at_mut(t * bh);
            let c_prev = if t == 0 {
                &zeros[..]
            } else {
                &c_done[(t - 1) * bh..]
            };
            let c_t = &mut c_rest[..bh];
            let h_t = &mut h_rest[..bh];
            #[cfg(not(feature = "fastmath"))]
            for r in 0..batch {
                let gates = &mut pre_t[r * 4 * h_dim..(r + 1) * 4 * h_dim];
                let (gi, rest) = gates.split_at_mut(h_dim);
                let (gf, rest) = rest.split_at_mut(h_dim);
                let (gg, go) = rest.split_at_mut(h_dim);
                let row = r * h_dim..(r + 1) * h_dim;
                let it = gi
                    .iter()
                    .zip(gf.iter())
                    .zip(gg.iter_mut())
                    .zip(go.iter())
                    .zip(&c_prev[row.clone()])
                    .zip(&mut c_t[row.clone()])
                    .zip(&mut h_t[row]);
                for ((((((iv, fv), gv), ov), &cp), ct), ht) in it {
                    let i_v = stable_sigmoid(*iv);
                    let f_v = stable_sigmoid(*fv);
                    let g_v = gv.tanh();
                    let o_v = stable_sigmoid(*ov);
                    let c_v = (f_v * cp) + (i_v * g_v);
                    let tc = c_v.tanh();
                    *ct = c_v;
                    *ht = o_v * tc;
                }
            }
            // Fastmath: activate whole gate bands with the vectorized
            // polynomial kernels, then do the (branch-free) cell update as
            // three slice passes. Same math, reordered and FMA-contracted.
            #[cfg(feature = "fastmath")]
            for r in 0..batch {
                let gates = &mut pre_t[r * 4 * h_dim..(r + 1) * 4 * h_dim];
                vmath::sigmoid_f64(&mut gates[..2 * h_dim]);
                vmath::tanh_f64(&mut gates[2 * h_dim..3 * h_dim]);
                vmath::sigmoid_f64(&mut gates[3 * h_dim..]);
                let (gi, rest) = gates.split_at(h_dim);
                let (gf, rest) = rest.split_at(h_dim);
                let (gg, go) = rest.split_at(h_dim);
                let row = r * h_dim..(r + 1) * h_dim;
                let cp = &c_prev[row.clone()];
                let ct = &mut c_t[row.clone()];
                let ht = &mut h_t[row];
                for ((((c, &iv), &fv), &gv), &cpv) in ct.iter_mut().zip(gi).zip(gf).zip(gg).zip(cp)
                {
                    *c = fv.mul_add(cpv, iv * gv);
                }
                ht.copy_from_slice(ct);
                vmath::tanh_f64(ht);
                for (h, &ov) in ht.iter_mut().zip(go) {
                    *h *= ov;
                }
            }
        }
        self.emit_f64(out, steps, bh)
    }

    fn emit_f64(&self, out: &mut Vec<f64>, steps: usize, bh: usize) -> usize {
        out.clear();
        if self.return_sequences {
            out.extend_from_slice(&self.h);
            steps
        } else {
            out.extend_from_slice(&self.h[(steps - 1) * bh..]);
            1
        }
    }

    fn forward_q8(
        &mut self,
        input: &[f32],
        steps: usize,
        batch: usize,
        out: &mut Vec<f32>,
    ) -> usize {
        let (i_dim, h_dim) = (self.i_dim, self.h_dim);
        let (bh, b4h) = (batch * h_dim, batch * 4 * h_dim);
        self.pre32.clear();
        self.pre32.resize(steps * b4h, 0.0);
        self.c32.clear();
        self.c32.resize(bh, 0.0);
        self.h32.clear();
        self.h32.resize(steps * bh, 0.0);
        debug_assert_eq!(input.len(), steps * batch * i_dim);
        fastpath::matmul_q8_into(input, steps * batch, &self.qwx, &mut self.pre32);
        let zeros = vec![0.0f32; bh];
        for t in 0..steps {
            let (h_done, h_rest) = self.h32.split_at_mut(t * bh);
            let h_prev = if t == 0 {
                &zeros[..]
            } else {
                &h_done[(t - 1) * bh..]
            };
            let pre_t = &mut self.pre32[t * b4h..(t + 1) * b4h];
            fastpath::matmul_q8_acc_into(h_prev, batch, &self.qwh, pre_t);
            let h_t = &mut h_rest[..bh];
            for r in 0..batch {
                let gates = &mut pre_t[r * 4 * h_dim..(r + 1) * 4 * h_dim];
                for (g, &b) in gates.iter_mut().zip(&self.qb) {
                    *g += b;
                }
                vmath::sigmoid_f32(&mut gates[..2 * h_dim]);
                vmath::tanh_f32(&mut gates[2 * h_dim..3 * h_dim]);
                vmath::sigmoid_f32(&mut gates[3 * h_dim..]);
                let (gi, rest) = gates.split_at(h_dim);
                let (gf, rest) = rest.split_at(h_dim);
                let (gg, go) = rest.split_at(h_dim);
                let row = r * h_dim..(r + 1) * h_dim;
                let cs = &mut self.c32[row.clone()];
                for (((c, &iv), &fv), &gv) in cs.iter_mut().zip(gi).zip(gf).zip(gg) {
                    *c = (fv * *c) + (iv * gv);
                }
                let ht = &mut h_t[row];
                ht.copy_from_slice(cs);
                vmath::tanh_f32(ht);
                for (h, &ov) in ht.iter_mut().zip(go) {
                    *h *= ov;
                }
            }
        }
        out.clear();
        if self.return_sequences {
            out.extend_from_slice(&self.h32);
            steps
        } else {
            out.extend_from_slice(&self.h32[(steps - 1) * bh..]);
            1
        }
    }
}

impl GruSnap {
    /// Batched projections + per-step recurrence, replaying the training
    /// GRU forward expression-for-expression.
    fn forward_f64(
        &mut self,
        input: &[f64],
        steps: usize,
        batch: usize,
        out: &mut Vec<f64>,
    ) -> usize {
        let (i_dim, h_dim) = (self.i_dim, self.h_dim);
        let (bh, b2h) = (batch * h_dim, batch * 2 * h_dim);
        self.preg.clear();
        self.preg.resize(steps * b2h, 0.0);
        self.cand.clear();
        self.cand.resize(steps * bh, 0.0);
        self.rh.clear();
        self.rh.resize(bh, 0.0);
        self.h.clear();
        self.h.resize(steps * bh, 0.0);
        let x_ref = MatRef::new(steps * batch, i_dim, input);
        fastpath::matmul_into_blocked(
            x_ref,
            &self.wgx,
            MatMut::new(steps * batch, 2 * h_dim, &mut self.preg),
        );
        fastpath::matmul_into_blocked(
            x_ref,
            &self.wcx,
            MatMut::new(steps * batch, h_dim, &mut self.cand),
        );
        let zeros = vec![0.0; bh];
        for t in 0..steps {
            let (h_done, h_rest) = self.h.split_at_mut(t * bh);
            let h_prev = if t == 0 {
                &zeros[..]
            } else {
                &h_done[(t - 1) * bh..]
            };
            let preg_t = &mut self.preg[t * b2h..(t + 1) * b2h];
            fastpath::matmul_acc_into_blocked(
                MatRef::new(batch, h_dim, h_prev),
                &self.wgh,
                MatMut::new(batch, 2 * h_dim, preg_t),
            );
            kernels::add_row_broadcast_into(MatMut::new(batch, 2 * h_dim, preg_t), self.bg.view());
            #[cfg(not(feature = "fastmath"))]
            for r in 0..batch {
                let gates = &mut preg_t[r * 2 * h_dim..(r + 1) * 2 * h_dim];
                for j in 0..h_dim {
                    let idx = r * h_dim + j;
                    let z_v = stable_sigmoid(gates[j]);
                    let r_v = stable_sigmoid(gates[h_dim + j]);
                    gates[j] = z_v;
                    gates[h_dim + j] = r_v;
                    self.rh[idx] = r_v * h_prev[idx];
                }
            }
            #[cfg(feature = "fastmath")]
            for r in 0..batch {
                let gates = &mut preg_t[r * 2 * h_dim..(r + 1) * 2 * h_dim];
                vmath::sigmoid_f64(gates);
                let gr = &gates[h_dim..];
                let row = r * h_dim..(r + 1) * h_dim;
                for ((rh, &rv), &hp) in self.rh[row.clone()].iter_mut().zip(gr).zip(&h_prev[row]) {
                    *rh = rv * hp;
                }
            }
            let cand_t = &mut self.cand[t * bh..(t + 1) * bh];
            fastpath::matmul_acc_into_blocked(
                MatRef::new(batch, h_dim, &self.rh),
                &self.wch,
                MatMut::new(batch, h_dim, cand_t),
            );
            kernels::add_row_broadcast_into(MatMut::new(batch, h_dim, cand_t), self.bc.view());
            let preg_t = &self.preg[t * b2h..(t + 1) * b2h];
            let h_t = &mut h_rest[..bh];
            #[cfg(not(feature = "fastmath"))]
            for r in 0..batch {
                let gates = &preg_t[r * 2 * h_dim..(r + 1) * 2 * h_dim];
                let row = r * h_dim..(r + 1) * h_dim;
                let it = gates[..h_dim]
                    .iter()
                    .zip(&mut cand_t[row.clone()])
                    .zip(&h_prev[row.clone()])
                    .zip(&mut h_t[row]);
                for (((&z_v, ct), &hp), ht) in it {
                    let ht_v = ct.tanh();
                    *ct = ht_v;
                    *ht = (hp * (1.0 - z_v)) + (ht_v * z_v);
                }
            }
            #[cfg(feature = "fastmath")]
            for r in 0..batch {
                let gz = &preg_t[r * 2 * h_dim..r * 2 * h_dim + h_dim];
                let row = r * h_dim..(r + 1) * h_dim;
                let ct = &mut cand_t[row.clone()];
                vmath::tanh_f64(ct);
                let it = gz
                    .iter()
                    .zip(ct.iter())
                    .zip(&h_prev[row.clone()])
                    .zip(&mut h_t[row]);
                for (((&z_v, &ht_v), &hp), ht) in it {
                    *ht = (hp * (1.0 - z_v)) + (ht_v * z_v);
                }
            }
        }
        out.clear();
        if self.return_sequences {
            out.extend_from_slice(&self.h);
            steps
        } else {
            out.extend_from_slice(&self.h[(steps - 1) * bh..]);
            1
        }
    }

    fn forward_q8(
        &mut self,
        input: &[f32],
        steps: usize,
        batch: usize,
        out: &mut Vec<f32>,
    ) -> usize {
        let (i_dim, h_dim) = (self.i_dim, self.h_dim);
        let (bh, b2h) = (batch * h_dim, batch * 2 * h_dim);
        self.preg32.clear();
        self.preg32.resize(steps * b2h, 0.0);
        self.cand32.clear();
        self.cand32.resize(steps * bh, 0.0);
        self.rh32.clear();
        self.rh32.resize(bh, 0.0);
        self.h32.clear();
        self.h32.resize(steps * bh, 0.0);
        debug_assert_eq!(input.len(), steps * batch * i_dim);
        fastpath::matmul_q8_into(input, steps * batch, &self.qwgx, &mut self.preg32);
        fastpath::matmul_q8_into(input, steps * batch, &self.qwcx, &mut self.cand32);
        let zeros = vec![0.0f32; bh];
        for t in 0..steps {
            let (h_done, h_rest) = self.h32.split_at_mut(t * bh);
            let h_prev = if t == 0 {
                &zeros[..]
            } else {
                &h_done[(t - 1) * bh..]
            };
            let preg_t = &mut self.preg32[t * b2h..(t + 1) * b2h];
            fastpath::matmul_q8_acc_into(h_prev, batch, &self.qwgh, preg_t);
            for r in 0..batch {
                let gates = &mut preg_t[r * 2 * h_dim..(r + 1) * 2 * h_dim];
                for (g, &b) in gates.iter_mut().zip(&self.qbg) {
                    *g += b;
                }
                vmath::sigmoid_f32(gates);
                let gr = &gates[h_dim..];
                let row = r * h_dim..(r + 1) * h_dim;
                for ((rh, &rv), &hp) in self.rh32[row.clone()].iter_mut().zip(gr).zip(&h_prev[row])
                {
                    *rh = rv * hp;
                }
            }
            let cand_t = &mut self.cand32[t * bh..(t + 1) * bh];
            fastpath::matmul_q8_acc_into(&self.rh32, batch, &self.qwch, cand_t);
            let preg_t = &self.preg32[t * b2h..(t + 1) * b2h];
            let h_t = &mut h_rest[..bh];
            for r in 0..batch {
                let gz = &preg_t[r * 2 * h_dim..r * 2 * h_dim + h_dim];
                let row = r * h_dim..(r + 1) * h_dim;
                let ct = &mut cand_t[row.clone()];
                for (c, &b) in ct.iter_mut().zip(&self.qbc) {
                    *c += b;
                }
                vmath::tanh_f32(ct);
                let it = gz
                    .iter()
                    .zip(ct.iter())
                    .zip(&h_prev[row.clone()])
                    .zip(&mut h_t[row]);
                for (((&z_v, &ht_v), &hp), ht) in it {
                    *ht = (hp * (1.0 - z_v)) + (ht_v * z_v);
                }
            }
        }
        out.clear();
        if self.return_sequences {
            out.extend_from_slice(&self.h32);
            steps
        } else {
            out.extend_from_slice(&self.h32[(steps - 1) * bh..]);
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dense, Dropout, Gru, Lstm, RepeatVector};

    fn window(seed: usize, steps: usize) -> Matrix {
        Matrix::from_fn(steps, 1, |t, _| {
            0.5 + 0.4 * ((seed * 7 + t * 3) as f64 * 0.37).sin()
        })
    }

    fn autoencoder() -> Sequential {
        Sequential::new(3)
            .with(Lstm::new(1, 8, true))
            .with(Dropout::new(0.2))
            .with(Lstm::new(8, 4, false))
            .with(RepeatVector::new(6))
            .with(Lstm::new(4, 4, true))
            .with(Dense::new(4, 1, Activation::Linear))
    }

    fn flat(samples: &[Matrix]) -> Vec<f64> {
        samples.iter().flat_map(|m| m.as_slice().to_vec()).collect()
    }

    #[test]
    fn f64_lane_matches_predict_bitwise_on_default_build() {
        let mut model = autoencoder();
        let mut frozen = InferenceModel::freeze(&model, Precision::F64).unwrap();
        let samples: Vec<Matrix> = (0..5).map(|s| window(s, 6)).collect();
        let exact = model.predict(&samples);
        let mut out = Vec::new();
        let (steps, feat) = frozen.forward_batch_into(&flat(&samples), 5, &mut out);
        assert_eq!((steps, feat), (6, 1));
        let exact_flat = flat(&exact);
        assert_eq!(out.len(), exact_flat.len());
        for (a, b) in out.iter().zip(&exact_flat) {
            if cfg!(feature = "fastmath") {
                assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            } else {
                assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn batching_does_not_change_any_window() {
        let model = autoencoder();
        let mut frozen = InferenceModel::freeze(&model, Precision::F64).unwrap();
        let samples: Vec<Matrix> = (0..7).map(|s| window(s + 11, 6)).collect();
        let mut batched = Vec::new();
        frozen.forward_batch_into(&flat(&samples), 7, &mut batched);
        for (s, sample) in samples.iter().enumerate() {
            let mut single = Vec::new();
            frozen.forward_batch_into(sample.as_slice(), 1, &mut single);
            let chunk = &batched[s * single.len()..(s + 1) * single.len()];
            for (a, b) in single.iter().zip(chunk) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn gru_stack_matches_predict() {
        let mut model = Sequential::new(9)
            .with(Gru::new(1, 6, true))
            .with(Gru::new(6, 3, false))
            .with(Dense::new(3, 2, Activation::Tanh));
        let mut frozen = InferenceModel::freeze(&model, Precision::F64).unwrap();
        let samples: Vec<Matrix> = (0..4).map(|s| window(s, 5)).collect();
        let exact = model.predict(&samples);
        let mut out = Vec::new();
        let (steps, feat) = frozen.forward_batch_into(&flat(&samples), 4, &mut out);
        assert_eq!((steps, feat), (1, 2));
        for (a, b) in out.iter().zip(flat(&exact).iter()) {
            if cfg!(feature = "fastmath") {
                assert!((a - b).abs() < 1e-9);
            } else {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn int8_lane_stays_close_to_exact() {
        let mut model = autoencoder();
        let mut frozen = InferenceModel::freeze(&model, Precision::Int8).unwrap();
        assert_eq!(frozen.precision(), Precision::Int8);
        assert!(frozen.quantized_bytes() > 0);
        let samples: Vec<Matrix> = (0..6).map(|s| window(s, 6)).collect();
        let exact = flat(&model.predict(&samples));
        let mut out = Vec::new();
        frozen.forward_batch_into(&flat(&samples), 6, &mut out);
        for (a, b) in out.iter().zip(&exact) {
            assert!(
                (a - b).abs() < 0.1,
                "int8 drifted too far from exact: {a} vs {b}"
            );
        }
    }

    #[test]
    fn freeze_rejects_parameterless_models() {
        let model = Sequential::new(1).with(Dropout::new(0.1));
        assert!(InferenceModel::freeze(&model, Precision::F64).is_err());
    }
}
