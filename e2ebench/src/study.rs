//! `study`: the paper's whole pipeline, `forecast::run_study` at
//! `Scale::Small`.
//!
//! Untraced runs time `run_study` back to back. The output check and the
//! traced run compose the same study from its public calls (generate →
//! inject → fit/detect/mitigate → prepare → federated run → evaluate →
//! centralized fit), which must reproduce `run_study`'s deterministic
//! columns bit for bit.

use crate::stats::{median, quantile};
use crate::trace::{overhead_estimate, Summary, Tracer};
use crate::{Outcome, RunConfig};
use evfad_core::anomaly::{AnomalyFilter, DetectionReport};
use evfad_core::attack::{AttackOutcome, DdosInjector};
use evfad_core::data::ShenzhenGenerator;
use evfad_core::federated::{FederatedConfig, FederatedSimulation};
use evfad_core::forecast::experiment::{build_forecaster, ClientDetection, Fig2Data, ReadOut};
use evfad_core::forecast::pipeline::PreparedClient;
use evfad_core::forecast::{
    run_study, Architecture, ClientMetrics, Scale, Scenario, ScenarioResult, StudyConfig,
    StudyReport,
};
use evfad_core::nn::TrainConfig;
use evfad_core::tensor::alloc_stats;
use evfad_core::timeseries::MinMaxScaler;
use std::fmt::Write as _;
use std::time::Instant;

/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 5;

fn config(seed: u64) -> StudyConfig {
    StudyConfig::at_scale(Scale::Small, seed)
}

/// A seconds-scale shrink of the study used as warm-up: it touches every
/// stage (and starts the worker pool) without the full cost.
fn warmup_config(seed: u64) -> StudyConfig {
    let mut cfg = config(seed);
    cfg.dataset.timestamps = 360;
    cfg.lstm_units = 6;
    cfg.rounds = 1;
    cfg.epochs_per_round = 1;
    cfg.filter.encoder_units = (6, 3);
    cfg.filter.epochs = 2;
    cfg.filter.train_stride = 4;
    cfg
}

/// Every deterministic column of a report (timings excluded), rendered
/// with round-trip float formatting so equal strings mean equal bits.
pub fn fingerprint(report: &StudyReport) -> String {
    let mut out = String::new();
    for r in &report.scenarios {
        let _ = write!(out, "{:?}/{:?}:", r.scenario, r.architecture);
        for c in &r.per_client {
            let _ = write!(out, "{}={:?},{:?},{:?};", c.zone, c.mae, c.rmse, c.r2);
        }
    }
    for d in &report.detection {
        let _ = write!(out, "det {}={:?};", d.zone, d.report);
    }
    let f = &report.fig2;
    let _ = write!(
        out,
        "overall={:?};fig2={:?}{:?}{:?}{:?}{:?};seed={}",
        report.overall_detection,
        f.indices,
        f.actual,
        f.clean_pred,
        f.attacked_pred,
        f.filtered_pred,
        report.seed
    );
    out
}

/// Counters the composed study reports alongside its fingerprint.
#[derive(Debug, Default)]
struct Counts {
    fit_epochs: usize,
    windows_scored: usize,
    client_train_s: f64,
    train_steps: usize,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `run_study`, composed from its public calls with a span around each.
fn composed_study(cfg: &StudyConfig, tracer: &Tracer) -> Result<(String, Counts), String> {
    let root = tracer.span("study", None);
    let parent = root.id();
    let mut counts = Counts::default();
    let clients = tracer.time("data.generate", parent, || {
        ShenzhenGenerator::new(cfg.dataset.clone()).generate_all()
    });

    // Per client: inject, fit on clean, detect on attacked, mitigate.
    let injector = DdosInjector::new(cfg.attack.clone());
    struct Client {
        label: String,
        clean: Vec<f64>,
        attacked: Vec<f64>,
        filtered: Vec<f64>,
        report: DetectionReport,
    }
    let mut scens = Vec::with_capacity(clients.len());
    for (i, client) in clients.iter().enumerate() {
        let mut filter_cfg = cfg.filter.clone();
        filter_cfg.seed = cfg.seed.wrapping_add(1000 + i as u64);
        let clean = client.demand.clone();
        let AttackOutcome {
            series: attacked,
            labels: truth,
            ..
        } = tracer.time("attack.inject", parent, || {
            injector.inject(&clean, cfg.seed.wrapping_add(i as u64))
        });
        let scaler = MinMaxScaler::fit(&attacked).map_err(err)?;
        let clean_scaled = scaler.transform(&clean);
        let attacked_scaled = scaler.transform(&attacked);
        let mut filter = AnomalyFilter::new(filter_cfg);
        let history = tracer
            .time("anomaly.detector.fit", parent, || filter.fit(&clean_scaled))
            .map_err(err)?;
        counts.fit_epochs += history.epochs.len();
        let detection = tracer
            .time("anomaly.detector.detect", parent, || {
                filter.try_detect(&attacked_scaled)
            })
            .map_err(err)?;
        counts.windows_scored += attacked_scaled.len() + 1 - filter.config().seq_len;
        let filtered = tracer
            .time("anomaly.mitigate.apply", parent, || {
                filter.filter_anomalies(&attacked, &detection.flags)
            })
            .map_err(err)?;
        scens.push(Client {
            label: client.zone.label().to_string(),
            clean,
            attacked,
            filtered,
            report: DetectionReport::from_flags(&truth, &detection.flags),
        });
    }

    let detection: Vec<_> = scens
        .iter()
        .map(|s| ClientDetection {
            zone: s.label.clone(),
            report: s.report,
        })
        .collect();
    let overall_detection = detection
        .iter()
        .fold(DetectionReport::from_flags(&[], &[]), |acc, d| {
            acc.merged(d.report)
        });
    let mut report = StudyReport {
        scenarios: Vec::new(),
        detection,
        overall_detection,
        fig2: Fig2Data::default(),
        seed: cfg.seed,
    };

    for scenario in [Scenario::Clean, Scenario::Attacked, Scenario::Filtered] {
        let prepared = scens
            .iter()
            .map(|s| {
                let series = match scenario {
                    Scenario::Clean => &s.clean,
                    Scenario::Attacked => &s.attacked,
                    Scenario::Filtered => &s.filtered,
                };
                tracer.time("forecast.pipeline.prepare", parent, || {
                    PreparedClient::prepare(
                        s.label.clone(),
                        series,
                        cfg.seq_len,
                        cfg.train_fraction,
                    )
                })
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;

        // Federated architecture.
        let fed_cfg = FederatedConfig {
            rounds: cfg.rounds,
            epochs_per_round: cfg.epochs_per_round,
            batch_size: cfg.batch_size,
            aggregator: cfg.aggregator,
            parallel: cfg.parallel,
            ..FederatedConfig::default()
        };
        let mut sim = FederatedSimulation::new(
            build_forecaster(cfg.lstm_units, cfg.learning_rate, cfg.seed),
            fed_cfg,
        );
        for p in &prepared {
            sim.add_client(p.label.clone(), p.train.clone());
        }
        let outcome = tracer
            .time("federated.simulation.run", parent, || sim.run())
            .map_err(err)?;
        counts.client_train_s += outcome
            .rounds
            .iter()
            .flat_map(|r| r.client_seconds.iter())
            .sum::<f64>();
        let mut per_client = Vec::with_capacity(prepared.len());
        let mut predictions = Vec::with_capacity(prepared.len());
        for (i, p) in prepared.iter().enumerate() {
            let eval = match cfg.read_out {
                ReadOut::Local => tracer.time("forecast.pipeline.evaluate", parent, || {
                    p.evaluate_raw(sim.clients_mut()[i].model_mut())
                }),
                ReadOut::Global => {
                    let mut model = sim
                        .model_with_weights(&outcome.global_weights)
                        .map_err(err)?;
                    tracer.time("forecast.pipeline.evaluate", parent, || {
                        p.evaluate_raw(&mut model)
                    })
                }
            }
            .map_err(err)?;
            per_client.push(ClientMetrics {
                zone: p.label.clone(),
                mae: eval.mae,
                rmse: eval.rmse,
                r2: eval.r2,
            });
            predictions.push(eval.predicted);
        }
        match scenario {
            Scenario::Clean => {
                report.fig2.indices = prepared[0].test_indices.clone();
                report.fig2.actual = prepared[0].test_actual_raw.clone();
                report.fig2.clean_pred = predictions[0].clone();
            }
            Scenario::Attacked => report.fig2.attacked_pred = predictions[0].clone(),
            Scenario::Filtered => report.fig2.filtered_pred = predictions[0].clone(),
        }
        report.scenarios.push(ScenarioResult {
            scenario,
            architecture: Architecture::Federated,
            per_client,
            train_seconds: 0.0,
        });

        if scenario == Scenario::Filtered {
            // Centralized architecture on the pooled filtered data, with the
            // study's step budget (1.2x one client's optimizer steps).
            let mut model = build_forecaster(cfg.lstm_units, cfg.learning_rate, cfg.seed ^ 0xC3);
            let pooled: Vec<_> = prepared
                .iter()
                .flat_map(|p| p.train.iter().cloned())
                .collect();
            let total_epochs = (cfg.rounds * cfg.epochs_per_round) as f64;
            let central_epochs =
                ((total_epochs * 1.2 / prepared.len().max(1) as f64).round() as usize).max(1);
            let train_cfg = TrainConfig {
                epochs: central_epochs,
                batch_size: cfg.batch_size,
                ..TrainConfig::default()
            };
            let history = tracer
                .time("nn.model.fit", parent, || model.fit(&pooled, &train_cfg))
                .map_err(err)?;
            let val = (pooled.len() as f64 * train_cfg.validation_split).round() as usize;
            counts.train_steps +=
                (pooled.len() - val).div_ceil(train_cfg.batch_size) * history.epochs.len();
            let mut per_client = Vec::with_capacity(prepared.len());
            for p in &prepared {
                let eval = tracer
                    .time("forecast.pipeline.evaluate", parent, || {
                        p.evaluate_raw(&mut model)
                    })
                    .map_err(err)?;
                per_client.push(ClientMetrics {
                    zone: p.label.clone(),
                    mae: eval.mae,
                    rmse: eval.rmse,
                    r2: eval.r2,
                });
            }
            report.scenarios.push(ScenarioResult {
                scenario,
                architecture: Architecture::Centralized,
                per_client,
                train_seconds: 0.0,
            });
        }
    }
    drop(root);
    Ok((fingerprint(&report), counts))
}

fn timed_study(cfg: &StudyConfig) -> (Result<String, String>, f64) {
    let start = Instant::now();
    let report = run_study(cfg);
    let wall = start.elapsed().as_secs_f64();
    (report.map(|r| fingerprint(&r)).map_err(err), wall)
}

pub fn run(rc: &RunConfig) -> Result<Outcome, String> {
    crate::start_pool();
    let cfg = config(rc.seed);
    if rc.trace {
        let _ = timed_study(&warmup_config(rc.seed));
        return traced(rc, &cfg);
    }
    let setups: Vec<f64> = (0..SETUPS)
        .map(|_| timed_study(&warmup_config(rc.seed)).1)
        .collect();

    // The reference every timed run is checked against: the composed study.
    let (reference, _) = composed_study(&cfg, &Tracer::new(false, 0))?;

    let mut out = Outcome::default();
    let mut walls = Vec::new();
    let timed = Instant::now();
    while out.attempted == 0 || timed.elapsed().as_secs_f64() < rc.seconds {
        let (print, wall) = timed_study(&cfg);
        out.attempted += 1;
        if print.as_deref() != Ok(reference.as_str()) {
            out.failed += 1;
        }
        walls.push(wall);
    }

    out.put("setup_s", median(&setups));
    out.put("ops_per_s", walls.len() as f64 / walls.iter().sum::<f64>());
    out.put("op_p50_ms", 1e3 * median(&walls));
    out.put("op_p90_ms", 1e3 * quantile(&walls, 0.9));
    out.samples("study wall_s per run_study", &walls);
    out.samples("setup_s per warm-up study", &setups);
    Ok(out)
}

fn traced(rc: &RunConfig, cfg: &StudyConfig) -> Result<Outcome, String> {
    let (untraced, _) = timed_study(cfg);
    let tracer = Tracer::new(true, rc.run_id());
    let allocs = alloc_stats();
    let (print, counts) = composed_study(cfg, &tracer)?;
    let allocs = alloc_stats().since(&allocs).matrices;
    // Two studies ran: the untraced one and the traced composition. Both
    // fail when the composition does not reproduce `run_study` bitwise.
    let mut out = Outcome {
        attempted: 2,
        ..Outcome::default()
    };
    if untraced.as_deref() != Ok(print.as_str()) {
        out.failed = 2;
    }
    let spans = tracer.spans();
    let sum = Summary::of(&spans);
    let fit = sum.total("nn.model.fit");
    let sim = sum.total("federated.simulation.run");
    out.put("data.generate_s", sum.total("data.generate"));
    out.put("attack.inject_s", sum.total("attack.inject"));
    out.put(
        "forecast.pipeline.prepare_s",
        sum.total("forecast.pipeline.prepare"),
    );
    out.put(
        "anomaly.mitigate.apply_s",
        sum.total("anomaly.mitigate.apply"),
    );
    out.put("anomaly.detector.fit_s", sum.total("anomaly.detector.fit"));
    out.put("anomaly.detector.fit_epochs", counts.fit_epochs as f64);
    out.put(
        "anomaly.detector.detect_s",
        sum.total("anomaly.detector.detect"),
    );
    out.put(
        "anomaly.detector.windows_scored",
        counts.windows_scored as f64,
    );
    out.put("federated.simulation.run_s", sim);
    out.put("federated.simulation.client_train_s", counts.client_train_s);
    out.put("federated.simulation.server_s", sim - counts.client_train_s);
    out.put("nn.model.fit_s", fit);
    out.put("nn.model.train_steps", counts.train_steps as f64);
    out.put(
        "nn.model.step_ms",
        1e3 * fit / counts.train_steps.max(1) as f64,
    );
    out.put(
        "forecast.pipeline.evaluate_s",
        sum.total("forecast.pipeline.evaluate"),
    );
    out.put("tensor.alloc.matrix_allocs", allocs as f64);
    out.trace_summary(&sum, overhead_estimate(spans.len()));
    Ok(out)
}
