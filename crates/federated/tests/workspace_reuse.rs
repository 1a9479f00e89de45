//! Federated rounds must reuse layer workspaces across rounds.
//!
//! A `FedClient` keeps its model (and therefore every layer's scratch arena)
//! alive between rounds; receiving fresh global weights only overwrites
//! parameter tensors. After a warm-up round, later rounds on same-shaped
//! batches must not allocate more matrices than the warm round did — the
//! T- and batch-proportional buffers all live in the reused workspaces.
//!
//! Reads the process-global counters from `evfad_tensor::alloc_stats()`, so
//! this lives in its own integration-test binary, and its tests serialise
//! on a local mutex to keep the deltas attributable.

use evfad_federated::compression::SparseDelta;
use evfad_federated::FedClient;
use evfad_nn::{forecaster_model, Sample, TrainConfig};
use evfad_tensor::{alloc_stats, Matrix};
use std::sync::Mutex;

static GUARD: Mutex<()> = Mutex::new(());

fn client_samples(offset: usize) -> Vec<Sample> {
    (0..16)
        .map(|i| {
            let xs: Vec<f64> = (0..12)
                .map(|t| ((offset + i + t) as f64 * 0.29).sin())
                .collect();
            let y = ((offset + i + 12) as f64 * 0.29).sin();
            Sample::new(Matrix::column_vector(&xs), Matrix::from_vec(1, 1, vec![y]))
        })
        .collect()
}

#[test]
fn later_rounds_allocate_no_more_than_the_first_warm_round() {
    let _guard = GUARD.lock().unwrap();
    let global = forecaster_model(16, 3);
    let mut client = FedClient::new("c0", global.clone(), client_samples(0));
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: 8,
        shuffle: false,
        ..TrainConfig::default()
    };
    let global_weights = global.weights();

    // Round 0 sizes every workspace buffer (cold).
    client.receive_global(&global_weights).unwrap();
    client.train_local(&cfg).unwrap();

    // Rounds 1..: the same shapes flow through; buffers must be reused.
    let mut per_round = Vec::new();
    for _ in 0..3 {
        client.receive_global(&global_weights).unwrap();
        let before = alloc_stats();
        client.train_local(&cfg).unwrap();
        per_round.push(alloc_stats().since(&before).matrices);
    }
    assert_eq!(
        per_round[0], per_round[1],
        "warm federated rounds drifted in allocations: {per_round:?}"
    );
    assert_eq!(
        per_round[1], per_round[2],
        "warm federated rounds drifted in allocations: {per_round:?}"
    );
}

#[test]
fn warm_sparse_apply_into_allocates_no_matrix() {
    let _guard = GUARD.lock().unwrap();
    let base = vec![
        Matrix::from_fn(4, 5, |i, j| (i as f64) * 0.3 - (j as f64) * 0.1),
        Matrix::row_vector(&[1.0, -2.0, 0.25]),
    ];
    let mut update = base.clone();
    update[0].as_mut_slice()[3] += 0.9;
    update[1].as_mut_slice()[1] += 2.0;
    let d = SparseDelta::top_k(&update, &base, 16);
    let mut out = Vec::new();
    d.apply_into(&base, &mut out);
    // Warm reuse: same shapes, zero matrix allocations.
    let before = alloc_stats();
    d.apply_into(&base, &mut out);
    let delta = alloc_stats().since(&before);
    assert_eq!(delta.matrices, 0, "warm apply_into allocated");
    assert_eq!(out, d.apply(&base));
}
