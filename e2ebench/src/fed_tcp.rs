//! `fed_tcp`: one federation over loopback TCP — a `SocketServer` and two
//! `SocketClient` threads — with the paper-size forecaster and a top-k
//! delta uplink, run as many short rounds of one local mini-batch each.
//!
//! The unit of work is a session of [`ROUNDS`] rounds. Every session's
//! digest must serialise to the same JSON as the in-process
//! `FederatedSimulation` with the same config and parallel clients.

use crate::stats::{median, quantile};
use crate::trace::{durations, overhead_estimate, SpanId, Summary, Tracer};
use crate::{Outcome, RunConfig, THREADS};
use evfad_core::data::{DatasetConfig, ShenzhenGenerator, Zone};
use evfad_core::federated::{
    CompressionMode, FederatedConfig, FederatedOutcome, FederatedSimulation, SocketClient,
    SocketServer, SocketServerConfig,
};
use evfad_core::nn::{forecaster_model, Sample};
use evfad_core::tensor::{alloc_stats, Matrix};
use evfad_core::timeseries::MinMaxScaler;
use std::time::{Duration, Instant};

/// Rounds per timed session.
const ROUNDS: usize = 250;
/// Rounds of the warm-up session run in each set-up.
const WARMUP_ROUNDS: usize = 20;
/// Set-up repetitions (bind + warm-up session); `setup_s` is their median.
const SETUPS: usize = 5;
/// Local samples per client: one mini-batch per round.
const SAMPLES: usize = 16;
/// Forecast window length.
const WINDOW: usize = 24;
/// LSTM units of the paper's forecaster (~87 KB of weights on the wire).
const LSTM_UNITS: usize = 50;
/// Top-k coordinates kept per tensor on the uplink.
const TOP_K: usize = 1200;
/// Traced sessions per codec; the per-layer times are their medians.
const TRACE_REPEATS: usize = 3;

type Roster = Vec<(String, Vec<Sample>)>;

/// Two stations' scaled demand, cut into `SAMPLES` windows each.
fn roster(seed: u64) -> Roster {
    let gen = ShenzhenGenerator::new(DatasetConfig::small(WINDOW + SAMPLES + 48, seed));
    [Zone::Z102, Zone::Z105]
        .iter()
        .map(|&zone| {
            let demand = gen.generate_zone(zone).demand;
            let scaled = MinMaxScaler::fit(&demand)
                .expect("generated demand is not constant")
                .transform(&demand);
            let samples = (0..SAMPLES)
                .map(|i| {
                    Sample::new(
                        Matrix::column_vector(&scaled[i..i + WINDOW]),
                        Matrix::from_vec(1, 1, vec![scaled[i + WINDOW]]),
                    )
                })
                .collect();
            (zone.label().to_string(), samples)
        })
        .collect()
}

fn config(rounds: usize, compression: CompressionMode, seed: u64) -> FederatedConfig {
    FederatedConfig {
        rounds,
        epochs_per_round: 1,
        batch_size: SAMPLES,
        parallel: true,
        threads: THREADS,
        participation: 1.0,
        sampling_seed: seed,
        compression,
        ..FederatedConfig::default()
    }
}

fn topk() -> CompressionMode {
    CompressionMode::TopKDelta { k: TOP_K }
}

fn digest_json(outcome: &FederatedOutcome) -> String {
    serde_json::to_string(&outcome.digest()).expect("a digest always serialises")
}

/// One federation over loopback TCP. Returns the server's outcome and the
/// session's wall clock (client start to last client joined).
fn session(
    cfg: &FederatedConfig,
    roster: &Roster,
    seed: u64,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<(FederatedOutcome, f64), String> {
    let ids = roster.iter().map(|(id, _)| id.clone()).collect();
    let mut server_cfg = SocketServerConfig::new(cfg.clone(), ids);
    server_cfg.handshake_timeout = Duration::from_secs(20);
    server_cfg.io_timeout = Duration::from_secs(20);
    let mut server = tracer
        .time("federated.socket.bind", parent, || {
            SocketServer::bind(
                "127.0.0.1:0",
                forecaster_model(LSTM_UNITS, seed),
                server_cfg,
            )
        })
        .map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    let start = Instant::now();
    std::thread::scope(|s| {
        let span = tracer.span("federated.socket.session", parent);
        let session_id = span.id();
        let clients: Vec<_> = roster
            .iter()
            .map(|(id, samples)| {
                s.spawn(move || {
                    tracer.time("federated.socket.client", session_id, || {
                        SocketClient { time_dilation: 0.0 }.run(
                            addr,
                            id.clone(),
                            forecaster_model(LSTM_UNITS, seed),
                            samples.clone(),
                        )
                    })
                })
            })
            .collect();
        let outcome = server.run();
        drop(span);
        let mut failure = None;
        for c in clients {
            match c.join() {
                Ok(Ok(_)) => {}
                Ok(Err(e)) => failure = Some(format!("client: {e}")),
                Err(_) => failure = Some("client thread panicked".to_string()),
            }
        }
        let outcome = outcome.map_err(|e| format!("server: {e}"))?;
        match failure {
            Some(f) => Err(f),
            None => Ok((outcome, start.elapsed().as_secs_f64())),
        }
    })
}

/// The same federation in-process, with parallel clients.
fn in_process(
    cfg: &FederatedConfig,
    roster: &Roster,
    seed: u64,
) -> Result<FederatedOutcome, String> {
    let mut sim = FederatedSimulation::new(forecaster_model(LSTM_UNITS, seed), cfg.clone());
    for (id, samples) in roster {
        sim.add_client(id.clone(), samples.clone());
    }
    sim.run().map_err(|e| e.to_string())
}

fn round_ms(outcome: &FederatedOutcome) -> impl Iterator<Item = f64> + '_ {
    outcome
        .rounds
        .iter()
        .map(|r| 1e3 * r.duration.as_secs_f64())
}

pub fn run(rc: &RunConfig) -> Result<Outcome, String> {
    crate::start_pool();
    let data = roster(rc.seed);
    let off = Tracer::new(false, 0);
    let warmup = config(WARMUP_ROUNDS, topk(), rc.seed);
    let mut setups = Vec::new();
    for _ in 0..if rc.trace { 1 } else { SETUPS } {
        let start = Instant::now();
        session(&warmup, &data, rc.seed, &off, None)?;
        setups.push(start.elapsed().as_secs_f64());
    }
    let cfg = config(ROUNDS, topk(), rc.seed);
    if rc.trace {
        return traced(rc, &cfg, &data);
    }

    let mut out = Outcome::default();
    let mut rates = Vec::new();
    let (mut rounds_done, mut wall) = (0usize, 0.0);
    let mut rounds_ms = Vec::new();
    let mut digests = Vec::new();
    let timed = Instant::now();
    while out.attempted == 0 || timed.elapsed().as_secs_f64() < rc.seconds {
        out.attempted += ROUNDS as u64;
        match session(&cfg, &data, rc.seed, &off, None) {
            Ok((outcome, secs)) => {
                rates.push(outcome.rounds.len() as f64 / secs);
                rounds_done += outcome.rounds.len();
                wall += secs;
                rounds_ms.extend(round_ms(&outcome));
                digests.push(digest_json(&outcome));
            }
            Err(e) => {
                eprintln!("fed_tcp session failed: {e}");
                out.failed += ROUNDS as u64;
            }
        }
    }

    // Output check: every session's digest equals the in-process digest.
    let reference = digest_json(&in_process(&cfg, &data, rc.seed)?);
    let mismatched = digests.iter().filter(|d| **d != reference).count();
    out.failed += (mismatched * ROUNDS) as u64;

    out.put("setup_s", median(&setups));
    out.put("ops_per_s", rounds_done as f64 / wall);
    out.put("op_p50_ms", median(&rounds_ms));
    out.put("op_p90_ms", quantile(&rounds_ms, 0.9));
    out.samples("rounds_per_s per session", &rates);
    out.samples("setup_s per bind + warm-up session", &setups);
    Ok(out)
}

fn traced(rc: &RunConfig, cfg: &FederatedConfig, data: &Roster) -> Result<Outcome, String> {
    let plain = config(cfg.rounds, CompressionMode::None, rc.seed);
    let reference = digest_json(&in_process(cfg, data, rc.seed)?);
    let plain_reference = digest_json(&in_process(&plain, data, rc.seed)?);

    let tracer = Tracer::new(true, rc.run_id());
    let off = Tracer::new(false, 0);
    let mut out = Outcome::default();
    let (mut socket_s, mut plain_s) = (Vec::new(), Vec::new());
    let mut rounds_ms = Vec::new();
    let mut allocs = 0;
    let mut serializations = 0;
    let mut last = None;
    for _ in 0..TRACE_REPEATS {
        let root = tracer.span("fed_tcp", None);
        let before = (alloc_stats(), serde_json::serialization_count());
        let result = session(cfg, data, rc.seed, &tracer, root.id());
        allocs = alloc_stats().since(&before.0).matrices;
        serializations = serde_json::serialization_count() - before.1;
        out.attempted += cfg.rounds as u64;
        if let Ok((_, wall)) = &result {
            socket_s.push(*wall);
        }
        match result {
            Ok((outcome, _)) if digest_json(&outcome) == reference => {
                rounds_ms.extend(round_ms(&outcome));
                last = Some(outcome);
            }
            _ => out.failed += cfg.rounds as u64,
        }
        let sim = tracer.time("federated.simulation.run", root.id(), || {
            in_process(cfg, data, rc.seed)
        });
        out.attempted += cfg.rounds as u64;
        if sim.map(|o| digest_json(&o)).as_deref() != Ok(reference.as_str()) {
            out.failed += cfg.rounds as u64;
        }
        drop(root);

        // The same session without compression, untraced, for the codec cost.
        let result = session(&plain, data, rc.seed, &off, None);
        if let Ok((_, wall)) = &result {
            plain_s.push(*wall);
        }
        out.attempted += plain.rounds as u64;
        if result.map(|(o, _)| digest_json(&o)).as_deref() != Ok(plain_reference.as_str()) {
            out.failed += plain.rounds as u64;
        }
    }
    let outcome = last.ok_or("no traced session succeeded")?;
    let spans = tracer.spans();
    let sum = Summary::of(&spans);
    let session_s = median(&socket_s);
    let sim_s = median(&durations(&spans, "federated.simulation.run"));
    let uplink: usize = outcome.rounds.iter().map(|r| r.uplink_bytes).sum();
    out.put("federated.socket.session_s", session_s);
    out.put("federated.socket.transport_s", session_s - sim_s);
    out.put("federated.socket.messages", outcome.traffic.messages as f64);
    out.put(
        "federated.socket.payload_bytes",
        outcome.traffic.bytes as f64,
    );
    out.put("federated.socket.retries", outcome.traffic.retries as f64);
    out.put(
        "federated.socket.json_serializations",
        serializations as f64,
    );
    out.put("federated.engine.round_p50_ms", median(&rounds_ms));
    out.put("federated.engine.round_p90_ms", quantile(&rounds_ms, 0.9));
    out.put(
        "federated.compression.codec_s",
        session_s - median(&plain_s),
    );
    out.put(
        "federated.compression.uplink_bytes_per_round",
        uplink as f64 / outcome.rounds.len() as f64,
    );
    out.put("federated.simulation.run_s", sim_s);
    out.put("tensor.alloc.matrix_allocs", allocs as f64);
    out.trace_summary(&sum, overhead_estimate(spans.len()));
    Ok(out)
}
