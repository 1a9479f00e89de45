//! Allocation-regression gate for the fused recurrent hot path.
//!
//! These tests read the process-global matrix-allocation counters from
//! `evfad_tensor::alloc_stats()`, so they live in their own integration-test
//! binary (own process) and serialise on a local mutex to keep the deltas
//! attributable.

use evfad_nn::{
    forecaster_model, Activation, Dense, Dropout, InferenceModel, Loss, Lstm, Precision,
    RepeatVector, Seq, Sequential,
};
use evfad_tensor::{alloc_stats, AllocStats, Matrix};
use std::sync::Mutex;

static GUARD: Mutex<()> = Mutex::new(());

fn toy_batch(seq_len: usize, batch: usize) -> (Seq, Seq) {
    let inputs: Vec<Matrix> = (0..batch)
        .map(|i| Matrix::from_fn(seq_len, 1, |t, _| ((i * 7 + t) as f64 * 0.31).sin()))
        .collect();
    let targets: Vec<Matrix> = (0..batch)
        .map(|i| Matrix::from_fn(1, 1, |_, _| ((i * 7 + seq_len) as f64 * 0.31).sin()))
        .collect();
    (Seq::from_samples(&inputs), Seq::from_samples(&targets))
}

/// One forward/backward pass (the training hot path; the optimiser update is
/// fully in place and allocates nothing).
fn train_step(model: &mut Sequential, x: &Seq, y: &Seq) {
    let pred = model.forward(x, true);
    let (_, grad) = Loss::Mse.evaluate(&pred, y);
    model.backward(&grad);
    model.zero_grads();
}

/// Matrix allocations of a *warm* train step (workspaces already sized).
fn warm_step_allocs(seq_len: usize) -> AllocStats {
    let mut model = forecaster_model(16, 7);
    let (x, y) = toy_batch(seq_len, 8);
    for _ in 0..2 {
        train_step(&mut model, &x, &y);
    }
    let before = alloc_stats();
    train_step(&mut model, &x, &y);
    alloc_stats().since(&before)
}

/// The forecaster's warm train step must allocate a number of matrices that
/// is independent of the sequence length: all per-timestep scratch lives in
/// the layer workspaces. Doubling (and tripling) T must not change the count.
#[test]
fn warm_train_step_matrix_allocs_are_o1_in_sequence_length() {
    let _guard = GUARD.lock().unwrap();
    let short = warm_step_allocs(8);
    let double = warm_step_allocs(16);
    let triple = warm_step_allocs(24);
    assert_eq!(
        short.matrices, double.matrices,
        "per-step matrix allocations grew with T: {short:?} vs {double:?}"
    );
    assert_eq!(
        double.matrices, triple.matrices,
        "per-step matrix allocations grew with T: {double:?} vs {triple:?}"
    );
    // Pin an absolute ceiling too, so per-step clones cannot creep back in
    // behind a coincidentally T-independent count.
    assert!(
        short.matrices <= 32,
        "warm train step allocated {} matrices",
        short.matrices
    );
}

/// A warm step must also not allocate more *bytes* when only T grows; all
/// T-proportional buffers belong to the reusable workspaces.
#[test]
fn warm_train_step_bytes_are_o1_in_sequence_length() {
    let _guard = GUARD.lock().unwrap();
    let short = warm_step_allocs(8);
    let double = warm_step_allocs(16);
    assert_eq!(
        short.bytes, double.bytes,
        "per-step allocated bytes grew with T"
    );
}

/// Matrix allocations of a *warm* `predict_into` call over `n` sequences
/// (staging buffers and the eval arena already shaped by two prior calls).
fn warm_predict_allocs(n: usize) -> AllocStats {
    let mut model = forecaster_model(16, 7);
    let inputs: Vec<Matrix> = (0..n)
        .map(|i| Matrix::from_fn(12, 1, |t, _| ((i * 5 + t) as f64 * 0.17).sin()))
        .collect();
    let mut out = Vec::new();
    for _ in 0..2 {
        let _ = model.predict_into(&inputs, &mut out);
    }
    let before = alloc_stats();
    let _ = model.predict_into(&inputs, &mut out);
    alloc_stats().since(&before)
}

/// A warm `predict_into` stages inputs into a reusable `SeqBuf`, runs the
/// layers through the persistent eval arena, and scatters straight into the
/// caller's flat buffer — so its matrix-allocation count must not grow with
/// the number of sequences scored (within one 256-sequence chunk).
#[test]
fn warm_predict_into_matrix_allocs_are_o1_in_batch_size() {
    let _guard = GUARD.lock().unwrap();
    let small = warm_predict_allocs(8);
    let double = warm_predict_allocs(16);
    let triple = warm_predict_allocs(24);
    assert_eq!(
        small.matrices, double.matrices,
        "warm predict_into matrix allocations grew with n: {small:?} vs {double:?}"
    );
    assert_eq!(
        double.matrices, triple.matrices,
        "warm predict_into matrix allocations grew with n: {double:?} vs {triple:?}"
    );
    assert!(
        small.matrices <= 8,
        "warm predict_into allocated {} matrices",
        small.matrices
    );
}

/// The allocating `predict` clones one output matrix per sequence; the flat
/// `predict_into` must beat it by at least the issue's 5x floor even at a
/// modest batch size.
#[test]
fn predict_into_allocates_5x_fewer_matrices_than_predict() {
    let _guard = GUARD.lock().unwrap();
    let mut model = forecaster_model(16, 7);
    let inputs: Vec<Matrix> = (0..64)
        .map(|i| Matrix::from_fn(12, 1, |t, _| ((i * 5 + t) as f64 * 0.17).sin()))
        .collect();
    let mut out = Vec::new();
    // Warm both paths so neither pays one-time workspace sizing.
    let _ = model.predict(&inputs);
    let _ = model.predict_into(&inputs, &mut out);
    let before = alloc_stats();
    let _ = model.predict(&inputs);
    let old = alloc_stats().since(&before);
    let before = alloc_stats();
    let _ = model.predict_into(&inputs, &mut out);
    let new = alloc_stats().since(&before);
    assert!(
        new.matrices * 5 <= old.matrices,
        "predict_into is not 5x leaner: old {old:?} vs new {new:?}"
    );
}

/// A frozen model's batched forward reuses its arenas: once warm, a pass
/// allocates no matrix at all.
#[test]
fn warm_forward_reallocates_nothing() {
    let _guard = GUARD.lock().unwrap();
    let model = Sequential::new(3)
        .with(Lstm::new(1, 8, true))
        .with(Dropout::new(0.2))
        .with(Lstm::new(8, 4, false))
        .with(RepeatVector::new(6))
        .with(Lstm::new(4, 4, true))
        .with(Dense::new(4, 1, Activation::Linear));
    let mut frozen = InferenceModel::freeze(&model, Precision::F64).unwrap();
    let windows: Vec<f64> = (0..5)
        .flat_map(|s| (0..6).map(move |t| 0.5 + 0.4 * ((s * 7 + t * 3) as f64 * 0.37).sin()))
        .collect();
    let mut out = Vec::new();
    for _ in 0..2 {
        frozen.forward_batch_into(&windows, 5, &mut out);
    }
    let before = alloc_stats();
    frozen.forward_batch_into(&windows, 5, &mut out);
    let after = alloc_stats().since(&before);
    assert_eq!(
        after.matrices, 0,
        "warm batched forward allocated: {after:?}"
    );
}
