//! End-to-end benchmark of the evfad workspace.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <study|fed_tcp|scale|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives the crates' public APIs from this one process,
//! makes its inputs from `--seed`, sets up (several times; `setup_s` is
//! the median), measures for `--seconds`, and checks its outputs outside
//! the timed region. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
//! line before it records host and build metadata, and with `--trace 0`
//! a `samples` line before that gives the per-unit timings behind each
//! median. See `README.md` for the workloads, metrics and predictions.

mod fed_tcp;
mod host;
mod scale;
mod serve;
mod stats;
mod study;
mod trace;

use evfad_core::tensor::parallel;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Worker-pool width every workload sets explicitly (never 0, "one per
/// CPU"), so results do not depend on the host's CPU count.
pub const THREADS: usize = 2;

/// Sets the worker pool's width and starts its threads, so no timed
/// region pays for the pool's lazy start.
pub fn start_pool() {
    parallel::set_threads(THREADS);
    let mut slots = [0usize; THREADS];
    parallel::distribute(&mut slots, THREADS, |i, s| *s = i);
}

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
];

/// Per-layer metrics, reported with `--trace 1`. A workload that does not
/// exercise a metric's layer reports it as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // study
    ("data.generate_s", "s"),
    ("attack.inject_s", "s"),
    ("forecast.pipeline.prepare_s", "s"),
    ("anomaly.mitigate.apply_s", "s"),
    ("anomaly.detector.fit_s", "s"),
    ("anomaly.detector.fit_epochs", "count"),
    ("anomaly.detector.detect_s", "s"),
    ("anomaly.detector.windows_scored", "count"),
    ("federated.simulation.run_s", "s"),
    ("federated.simulation.client_train_s", "s"),
    ("federated.simulation.server_s", "s"),
    ("nn.model.fit_s", "s"),
    ("nn.model.train_steps", "count"),
    ("nn.model.step_ms", "ms"),
    ("forecast.pipeline.evaluate_s", "s"),
    // fed_tcp
    ("federated.socket.session_s", "s"),
    ("federated.socket.transport_s", "s"),
    ("federated.socket.messages", "count"),
    ("federated.socket.payload_bytes", "B"),
    ("federated.socket.retries", "count"),
    ("federated.socket.json_serializations", "count"),
    ("federated.engine.round_p50_ms", "ms"),
    ("federated.engine.round_p90_ms", "ms"),
    ("federated.compression.codec_s", "s"),
    ("federated.compression.uplink_bytes_per_round", "B"),
    // scale
    ("federated.scale.run_s", "s"),
    ("federated.scale.first_round_ms", "ms"),
    ("federated.scale.round_p50_ms", "ms"),
    ("federated.scale.serial_run_s", "s"),
    ("federated.scale.parallel_speedup", "ratio"),
    ("federated.scale.sampled", "count"),
    ("federated.scale.aggregated", "count"),
    ("federated.scale.wasted", "count"),
    ("federated.scale.peak_state_bytes", "B"),
    // serve
    ("nn.infer.freeze_s", "s"),
    ("anomaly.service.flush_p50_ms", "ms"),
    ("anomaly.service.flush_p90_ms", "ms"),
    ("anomaly.service.queue_wait_p90_ms", "ms"),
    ("anomaly.service.submit_us", "us"),
    ("anomaly.service.windows_per_flush", "count"),
    ("anomaly.service.generator_lag_ms", "ms"),
    // every workload
    ("tensor.alloc.matrix_allocs", "count"),
    ("data.self_s", "s"),
    ("attack.self_s", "s"),
    ("anomaly.detector.self_s", "s"),
    ("anomaly.mitigate.self_s", "s"),
    ("anomaly.service.self_s", "s"),
    ("forecast.pipeline.self_s", "s"),
    ("federated.simulation.self_s", "s"),
    ("federated.socket.self_s", "s"),
    ("federated.scale.self_s", "s"),
    ("nn.model.self_s", "s"),
    ("nn.infer.self_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
];

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl RunConfig {
    /// The id stamped on every span of a traced run.
    pub fn run_id(&self) -> u32 {
        (self.seed & 0xFFFF_FFFF) as u32
    }
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: study runs, rounds or readings.
    pub attempted: u64,
    /// Operations that errored or whose output check failed.
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    samples: Vec<(String, Vec<f64>)>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Keeps the per-unit samples behind a median for the `samples` line.
    pub fn samples(&mut self, label: &str, values: &[f64]) {
        self.samples.push((label.to_string(), values.to_vec()));
    }

    /// Per-layer self times, unattributed time and tracing cost of a
    /// traced run.
    pub fn trace_summary(&mut self, sum: &trace::Summary, overhead_s: f64) {
        for (layer, secs) in &sum.layer_self {
            let name = format!("{layer}.self_s");
            match PER_LAYER.iter().find(|(n, _)| *n == name) {
                Some((n, _)) => self.put(n, *secs),
                None => panic!("span layer {layer} has no per-layer self-time metric"),
            }
        }
        self.put("trace.unattributed_s", sum.unattributed);
        self.put("trace.overhead_s", overhead_s);
        self.put("trace.spans", sum.spans as f64);
    }
}

fn usage() -> String {
    "usage: e2ebench --workload <study|fed_tcp|scale|serve> --seed <n> --seconds <s> --trace <0|1>"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown argument {flag}\n{}", usage())),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or_else(usage)?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The result line: every metric of the run's table, by name, with unit.
fn result_json(rc: &RunConfig, out: &Outcome) -> Result<String, String> {
    let table = if rc.trace { PER_LAYER } else { END_TO_END };
    if let Some(extra) = out
        .metrics
        .keys()
        .find(|k| !table.iter().any(|(n, _)| n == *k))
    {
        return Err(format!(
            "workload reported {extra}, which is not in its metric table"
        ));
    }
    let mut metrics = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let value = match out.metrics.get(name) {
            Some(v) => *v,
            None if rc.trace => 0.0,
            None => return Err(format!("workload did not report {name}")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite: {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    ))
}

fn samples_json(out: &Outcome) -> String {
    let mut s = String::from("{\"samples\": {");
    for (i, (label, values)) in out.samples.iter().enumerate() {
        let body: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
        let _ = write!(
            s,
            "{}\"{label}\": {{\"n\": {}, \"q1\": {:?}, \"median\": {:?}, \"q3\": {:?}, \"values\": [{}]}}",
            if i == 0 { "" } else { ", " },
            values.len(),
            stats::quantile(values, 0.25),
            stats::median(values),
            stats::quantile(values, 0.75),
            body.join(", ")
        );
    }
    s.push_str("}}");
    s
}

fn run(rc: &RunConfig) -> Result<Outcome, String> {
    let mut out = match rc.workload.as_str() {
        "study" => study::run(rc),
        "fed_tcp" => fed_tcp::run(rc),
        "scale" => scale::run(rc),
        "serve" => serve::run(rc),
        other => Err(format!("unknown workload {other}\n{}", usage())),
    }?;
    if !rc.trace {
        out.put("peak_rss_mb", host::peak_rss_mb());
    }
    Ok(out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|rc| {
        let out = run(&rc)?;
        let line = result_json(&rc, &out)?;
        Ok((rc, out, line))
    });
    match result {
        Ok((rc, out, line)) => {
            if !out.samples.is_empty() {
                println!("{}", samples_json(&out));
            }
            println!(
                "{}",
                host::metadata_json(&rc.workload, rc.seed, rc.seconds, rc.trace)
            );
            println!("{line}");
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.get(key).unwrap_or_else(|| panic!("missing {key}"))
    }

    fn text(v: &Value) -> String {
        match v {
            Value::String(s) => s.clone(),
            other => panic!("not a string: {other:?}"),
        }
    }

    /// The metric tables here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let raw = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let json = serde_json::parse_value(&raw).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            match field(&json, key) {
                Value::Array(items) => items
                    .iter()
                    .map(|m| (text(field(m, "name")), text(field(m, "unit"))))
                    .collect(),
                _ => panic!("{key} is not a list"),
            }
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let rc = parse_args(&args("--workload scale --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (rc.workload.as_str(), rc.seed, rc.seconds, rc.trace),
            ("scale", 9, 3.0, true)
        );
        assert!(parse_args(&args("--workload scale --trace 2")).is_err());
        assert!(parse_args(&args("--workload scale --seconds -1")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
    }

    #[test]
    fn result_line_needs_every_end_to_end_metric() {
        let rc = parse_args(&["--workload".into(), "study".into()]).unwrap();
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        assert!(result_json(&rc, &out).is_err());
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            out.put(name, 1.5 + i as f64);
        }
        let line = result_json(&rc, &out).unwrap();
        let json = serde_json::parse_value(&line).unwrap();
        assert_eq!(field(&json, "correct"), &Value::Bool(true));
        let p90 = field(field(field(&json, "metrics"), "op_p90_ms"), "value");
        assert_eq!(p90, &Value::Number(serde_json::Number::F64(5.5)));
        out.put("trace.spans", 1.0);
        assert!(result_json(&rc, &out).is_err());
    }
}
