//! `scale`: one hierarchical federation of 100k clients — 32 edges,
//! participation 0.1, 8-bit quantised uplinks, synthesised updates
//! (`trained_fraction: 0`), edge folds fanned out over 2 threads.
//!
//! The unit of work is one `ScaleEngine::run` of [`ROUNDS`] rounds. Every
//! run's weight checksum must equal the serial (`threads: 1`) run's.

use crate::stats::{median, quantile};
use crate::trace::{durations, overhead_estimate, Summary, Tracer};
use crate::{Outcome, RunConfig, THREADS};
use evfad_core::federated::scale::{ScaleConfig, ScaleEngine, ScaleOutcome};
use evfad_core::federated::CompressionMode;
use evfad_core::nn::forecaster_model;
use evfad_core::tensor::{alloc_stats, Matrix};
use std::time::Instant;

const CLIENTS: usize = 100_000;
const EDGES: usize = 32;
const PARTICIPATION: f64 = 0.1;
const ROUNDS: usize = 5;
/// LSTM units of the paper's forecaster whose weights are federated.
const LSTM_UNITS: usize = 50;
/// Set-up repetitions (engine build + one-round warm-up); `setup_s` is
/// their median.
const SETUPS: usize = 5;
/// Traced runs per configuration; the per-layer times are their medians.
const TRACE_REPEATS: usize = 2;

fn config(seed: u64, threads: usize, rounds: usize, compression: CompressionMode) -> ScaleConfig {
    ScaleConfig {
        clients: CLIENTS,
        rounds,
        participation: PARTICIPATION,
        edges: EDGES,
        seed,
        threads,
        trained_fraction: 0.0,
        compression,
        ..ScaleConfig::default()
    }
}

fn engine(template: &[Matrix], cfg: ScaleConfig) -> Result<ScaleEngine, String> {
    ScaleEngine::new(template.to_vec(), cfg).map_err(|e| e.to_string())
}

/// Builds the timed engine and runs a one-round warm-up engine. Returns
/// the engine, the set-up wall clock and the warm-up round's duration.
fn set_up(template: &[Matrix], seed: u64) -> Result<(ScaleEngine, f64, f64), String> {
    let start = Instant::now();
    let timed = engine(
        template,
        config(seed, THREADS, ROUNDS, CompressionMode::Quant8),
    )?;
    let warm = engine(template, config(seed, THREADS, 1, CompressionMode::Quant8))?
        .run()
        .map_err(|e| e.to_string())?;
    let first_round_ms = 1e3 * warm.rounds[0].duration.as_secs_f64();
    Ok((timed, start.elapsed().as_secs_f64(), first_round_ms))
}

fn round_ms(outcome: &ScaleOutcome) -> impl Iterator<Item = f64> + '_ {
    outcome
        .rounds
        .iter()
        .map(|r| 1e3 * r.duration.as_secs_f64())
}

pub fn run(rc: &RunConfig) -> Result<Outcome, String> {
    crate::start_pool();
    let template = forecaster_model(LSTM_UNITS, rc.seed).weights();
    if rc.trace {
        return traced(rc, &template);
    }
    let mut setups = Vec::new();
    let mut timed_engine = None;
    for _ in 0..SETUPS {
        let (engine, secs, _) = set_up(&template, rc.seed)?;
        setups.push(secs);
        timed_engine = Some(engine);
    }
    let mut engine = timed_engine.ok_or("no set-up ran")?;

    let mut out = Outcome::default();
    let mut rates = Vec::new();
    let (mut rounds_done, mut wall) = (0usize, 0.0);
    let mut rounds_ms = Vec::new();
    let mut checksums = Vec::new();
    let timed = Instant::now();
    while out.attempted == 0 || timed.elapsed().as_secs_f64() < rc.seconds {
        out.attempted += ROUNDS as u64;
        let start = Instant::now();
        match engine.run() {
            Ok(outcome) => {
                let secs = start.elapsed().as_secs_f64();
                rates.push(outcome.rounds.len() as f64 / secs);
                rounds_done += outcome.rounds.len();
                wall += secs;
                rounds_ms.extend(round_ms(&outcome));
                checksums.push(outcome.weights_checksum());
            }
            Err(e) => {
                eprintln!("scale run failed: {e}");
                out.failed += ROUNDS as u64;
            }
        }
    }

    // Output check: every parallel run reproduces the serial checksum.
    let serial = engine_run(
        &template,
        config(rc.seed, 1, ROUNDS, CompressionMode::Quant8),
    )?;
    let reference = serial.weights_checksum();
    let mismatched = checksums.iter().filter(|c| **c != reference).count();
    out.failed += (mismatched * ROUNDS) as u64;

    out.put("setup_s", median(&setups));
    out.put("ops_per_s", rounds_done as f64 / wall);
    out.put("op_p50_ms", median(&rounds_ms));
    out.put("op_p90_ms", quantile(&rounds_ms, 0.9));
    out.samples("rounds_per_s per engine run", &rates);
    out.samples("setup_s per engine build + warm-up", &setups);
    Ok(out)
}

fn engine_run(template: &[Matrix], cfg: ScaleConfig) -> Result<ScaleOutcome, String> {
    engine(template, cfg)?.run().map_err(|e| e.to_string())
}

fn traced(rc: &RunConfig, template: &[Matrix]) -> Result<Outcome, String> {
    let (mut engine, _, first_round_ms) = set_up(template, rc.seed)?;
    let serial_cfg = config(rc.seed, 1, ROUNDS, CompressionMode::Quant8);
    let plain_cfg = config(rc.seed, THREADS, ROUNDS, CompressionMode::None);
    let tracer = Tracer::new(true, rc.run_id());
    let mut out = Outcome::default();
    let mut rounds_ms = Vec::new();
    let mut checksums = Vec::new();
    let mut last = None;
    let mut allocs = 0;
    for _ in 0..TRACE_REPEATS {
        let root = tracer.span("scale", None);
        let before = alloc_stats();
        let par = tracer.time("federated.scale.run", root.id(), || engine.run());
        allocs = alloc_stats().since(&before).matrices;
        let serial = tracer.time("federated.scale.serial_run", root.id(), || {
            engine_run(template, serial_cfg.clone())
        });
        let plain = tracer.time("federated.scale.uncompressed_run", root.id(), || {
            engine_run(template, plain_cfg.clone())
        });
        drop(root);
        let par = par.map_err(|e| e.to_string())?;
        rounds_ms.extend(round_ms(&par));
        out.attempted += 3 * ROUNDS as u64;
        if par.weights_checksum() != serial?.weights_checksum() {
            out.failed += 2 * ROUNDS as u64;
        }
        checksums.push(plain?.weights_checksum());
        last = Some(par);
    }
    // The uncompressed runs have no serial reference here; they must at
    // least agree with each other.
    if checksums.windows(2).any(|w| w[0] != w[1]) {
        out.failed += (checksums.len() * ROUNDS) as u64;
    }
    let outcome = last.ok_or("no traced run")?;
    let spans = tracer.spans();
    let sum = Summary::of(&spans);
    let run_s = median(&durations(&spans, "federated.scale.run"));
    let serial_s = median(&durations(&spans, "federated.scale.serial_run"));
    let plain_s = median(&durations(&spans, "federated.scale.uncompressed_run"));
    let rounds = &outcome.rounds;
    let uplink: usize = rounds.iter().map(|r| r.uplink_bytes).sum();
    out.put("federated.scale.run_s", run_s);
    out.put("federated.scale.first_round_ms", first_round_ms);
    out.put("federated.scale.round_p50_ms", median(&rounds_ms));
    out.put("federated.scale.serial_run_s", serial_s);
    out.put("federated.scale.parallel_speedup", serial_s / run_s);
    out.put(
        "federated.scale.sampled",
        rounds.iter().map(|r| r.sampled).sum::<usize>() as f64,
    );
    out.put(
        "federated.scale.aggregated",
        rounds.iter().map(|r| r.aggregated).sum::<usize>() as f64,
    );
    out.put(
        "federated.scale.wasted",
        rounds.iter().map(|r| r.wasted).sum::<usize>() as f64,
    );
    out.put(
        "federated.scale.peak_state_bytes",
        outcome.peak_aggregation_bytes as f64,
    );
    out.put("federated.compression.codec_s", run_s - plain_s);
    out.put(
        "federated.compression.uplink_bytes_per_round",
        uplink as f64 / rounds.len() as f64,
    );
    out.put("tensor.alloc.matrix_allocs", allocs as f64);
    out.trace_summary(&sum, overhead_estimate(spans.len()));
    Ok(out)
}
