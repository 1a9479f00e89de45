//! `serve`: fleet scoring. A `ScoringService` (`Precision::F64`, one
//! worker) over a fitted `(24, 12)` LSTM autoencoder serves 64 tenants;
//! every tick each tenant submits one reading and the tick flushes.
//!
//! An open loop runs [`OPEN_TICKS`] ticks on a fixed [`INTERVAL`] (a
//! third to a half of capacity) and times each tick's decisions from when the tick
//! was due, so generator lateness counts. Closed-loop passes of
//! [`CLOSED_TICKS`] ticks run back to back for the rest of the run and
//! measure capacity. Every pass starts a fresh service on the same
//! streams, so every pass must make the same decisions, and the first
//! [`REFERENCE_TICKS`] ticks must match one `OnlineDetector` per tenant.

use crate::stats::{mean, median, quantile};
use crate::trace::{durations, overhead_estimate, SpanId, Summary, Tracer};
use crate::{Outcome, RunConfig};
use evfad_core::anomaly::{
    AnomalyFilter, FilterConfig, OnlineDetector, ScoringService, TenantDecision, TenantVerdict,
};
use evfad_core::attack::DdosInjector;
use evfad_core::data::{DatasetConfig, ShenzhenGenerator, Zone};
use evfad_core::nn::infer::Precision;
use evfad_core::tensor::alloc_stats;
use evfad_core::timeseries::MinMaxScaler;
use std::time::{Duration, Instant};

/// Scoring workers of the service.
const WORKERS: usize = 1;
const TENANTS: usize = 64;
const SEQ_LEN: usize = 24;
/// Hours of clean zone-102 demand the autoencoder trains on.
const TRAIN_HOURS: usize = 720;
const OPEN_TICKS: usize = 400;
const INTERVAL: Duration = Duration::from_millis(20);
const CLOSED_TICKS: usize = 100;
const REFERENCE_TICKS: usize = 8;
/// Set-up repetitions (fit + freeze); `setup_s` is their median.
const SETUPS: usize = 5;

/// Readings each tenant streams, after its seeded context.
const STREAM: usize = if OPEN_TICKS > CLOSED_TICKS {
    OPEN_TICKS
} else {
    CLOSED_TICKS
};

/// Source of time for the open loop; a fake one drives the tests.
pub trait Clock {
    fn now(&self) -> Duration;
    fn sleep_until(&self, t: Duration);
}

/// The wall clock. It spins rather than sleeps until a tick is due: the
/// service runs on the generator's thread, and a thread put to sleep
/// wakes late, or on the other CPU with cold caches, so a sleeping
/// generator would time the scheduler's wake-up instead of the service.
struct RealClock(Instant);

impl Clock for RealClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, t: Duration) {
        while self.now() < t {
            std::hint::spin_loop();
        }
    }
}

/// Timing of one open-loop tick, seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickTiming {
    /// How late the tick started after it was due.
    pub lag: f64,
    /// From when the tick was due until its decisions were out.
    pub latency: f64,
}

/// Runs `tick(i)` at `start + i * interval` for `ticks` ticks, never
/// early. A tick that overruns delays the next one; that delay counts in
/// the next tick's latency because latency runs from the due time.
pub fn open_loop<C: Clock>(
    clock: &C,
    ticks: usize,
    interval: Duration,
    mut tick: impl FnMut(usize),
) -> Vec<TickTiming> {
    let start = clock.now();
    (0..ticks)
        .map(|i| {
            let due = start + interval * i as u32;
            clock.sleep_until(due);
            let begin = clock.now();
            tick(i);
            let end = clock.now();
            TickTiming {
                lag: begin.saturating_sub(due).as_secs_f64(),
                latency: end.saturating_sub(due).as_secs_f64(),
            }
        })
        .collect()
}

/// Inputs made from the seed: the training series and each tenant's
/// scaled stream (context first, then one reading per tick).
struct Inputs {
    train: Vec<f64>,
    streams: Vec<Vec<f64>>,
}

fn inputs(seed: u64) -> Inputs {
    let hours = TRAIN_HOURS + 64 + SEQ_LEN + STREAM;
    let zones = ShenzhenGenerator::new(DatasetConfig::small(hours, seed)).generate_all();
    let train_raw = &zones[0].demand[..TRAIN_HOURS];
    let scaler = MinMaxScaler::fit(train_raw).expect("generated demand is not constant");
    let injector = DdosInjector::default();
    let streams = (0..TENANTS)
        .map(|i| {
            let zone = &zones[i % Zone::ALL.len()].demand;
            let attacked = injector.inject(zone, seed.wrapping_add(i as u64)).series;
            let offset = TRAIN_HOURS + (i * 13) % 64;
            scaler.transform(&attacked[offset..offset + SEQ_LEN - 1 + STREAM])
        })
        .collect();
    Inputs {
        train: scaler.transform(train_raw),
        streams,
    }
}

fn filter_config(seed: u64) -> FilterConfig {
    FilterConfig {
        seq_len: SEQ_LEN,
        encoder_units: (24, 12),
        epochs: 4,
        train_stride: 2,
        seed,
        ..FilterConfig::fast(SEQ_LEN)
    }
}

/// A fresh service with every tenant's context seeded.
fn service(
    filter: &AnomalyFilter,
    inp: &Inputs,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<ScoringService, String> {
    let mut svc = tracer
        .time("nn.infer.freeze", parent, || {
            ScoringService::from_filter(filter, Precision::F64)
        })
        .map_err(|e| e.to_string())?;
    svc.set_threads(WORKERS);
    for s in &inp.streams {
        let t = svc.add_tenant(true);
        svc.seed_context(t, &s[..SEQ_LEN - 1]);
    }
    Ok(svc)
}

/// What one pass produced.
#[derive(Default)]
struct Pass {
    decisions: Vec<TenantDecision>,
    /// Per-tick busy time of `flush_into` alone, seconds.
    flush: Vec<f64>,
    /// Per-tick time to submit every tenant's reading, seconds.
    submit: Vec<f64>,
    timings: Vec<TickTiming>,
    wall: f64,
}

/// One tick: every tenant submits its reading, then the service flushes.
fn tick(
    svc: &mut ScoringService,
    inp: &Inputs,
    i: usize,
    pass: &mut Pass,
    out: &mut Vec<TenantDecision>,
    tracer: &Tracer,
    parent: Option<SpanId>,
) {
    let t0 = Instant::now();
    tracer.time("anomaly.service.submit", parent, || {
        for (t, s) in inp.streams.iter().enumerate() {
            svc.submit(t, s[SEQ_LEN - 1 + i]);
        }
    });
    let t1 = Instant::now();
    tracer.time("anomaly.service.flush", parent, || svc.flush_into(out));
    pass.flush.push(t1.elapsed().as_secs_f64());
    pass.submit.push((t1 - t0).as_secs_f64());
    pass.decisions.extend_from_slice(out);
}

fn run_pass(
    filter: &AnomalyFilter,
    inp: &Inputs,
    open: bool,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<Pass, String> {
    let mut svc = service(filter, inp, tracer, parent)?;
    let mut pass = Pass::default();
    let mut out = Vec::with_capacity(TENANTS);
    let start = Instant::now();
    if open {
        let clock = RealClock(Instant::now());
        pass.timings = open_loop(&clock, OPEN_TICKS, INTERVAL, |i| {
            tick(&mut svc, inp, i, &mut pass, &mut out, tracer, parent)
        });
    } else {
        for i in 0..CLOSED_TICKS {
            tick(&mut svc, inp, i, &mut pass, &mut out, tracer, parent);
        }
    }
    pass.wall = start.elapsed().as_secs_f64();
    Ok(pass)
}

/// Decisions of one `OnlineDetector` per tenant over the first ticks, in
/// the service's (tick, tenant) order. Tenants run one after another, so
/// only one detector (a clone of the fitted filter) is alive at a time.
fn reference(filter: &AnomalyFilter, inp: &Inputs) -> Result<Vec<TenantDecision>, String> {
    let mut out = vec![
        TenantDecision {
            tenant: 0,
            verdict: TenantVerdict::Warmup,
        };
        REFERENCE_TICKS * TENANTS
    ];
    for (t, s) in inp.streams.iter().enumerate() {
        let mut d = OnlineDetector::from_fitted(filter.clone(), true).map_err(|e| e.to_string())?;
        for &v in &s[..SEQ_LEN - 1] {
            d.push(v);
        }
        for i in 0..REFERENCE_TICKS {
            let verdict = d
                .push(s[SEQ_LEN - 1 + i])
                .map_or(TenantVerdict::Warmup, TenantVerdict::Scored);
            out[i * TENANTS + t] = TenantDecision { tenant: t, verdict };
        }
    }
    Ok(out)
}

/// Fits the autoencoder; returns the filter and the epochs it ran.
fn fit(
    seed: u64,
    inp: &Inputs,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<(AnomalyFilter, usize), String> {
    let mut filter = AnomalyFilter::new(filter_config(seed));
    let history = tracer
        .time("anomaly.detector.fit", parent, || filter.fit(&inp.train))
        .map_err(|e| e.to_string())?;
    Ok((filter, history.epochs.len()))
}

fn readings(pass_ticks: usize) -> u64 {
    (pass_ticks * TENANTS) as u64
}

pub fn run(rc: &RunConfig) -> Result<Outcome, String> {
    crate::start_pool();
    let inp = inputs(rc.seed);
    if rc.trace {
        return traced(rc, &inp);
    }
    let off = Tracer::new(false, 0);
    let mut setups = Vec::new();
    let mut thresholds = Vec::new();
    let mut fitted = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let (filter, _) = fit(rc.seed, &inp, &off, None)?;
        drop(service(&filter, &inp, &off, None)?);
        setups.push(start.elapsed().as_secs_f64());
        thresholds.push(filter.threshold().map(f64::to_bits));
        fitted = Some(filter);
    }
    let filter = &fitted.ok_or("no set-up ran")?;

    let mut out = Outcome::default();
    let timed = Instant::now();
    let open = run_pass(filter, &inp, true, &off, None)?;
    out.attempted += readings(OPEN_TICKS);
    let mut closed = Vec::new();
    while closed.is_empty() || timed.elapsed().as_secs_f64() < rc.seconds {
        closed.push(run_pass(filter, &inp, false, &off, None)?);
        out.attempted += readings(CLOSED_TICKS);
    }

    // Output checks: fits agree, the open loop matches the per-tenant
    // reference, and every closed pass matches the open loop.
    let expected = reference(filter, &inp)?;
    if thresholds.windows(2).any(|w| w[0] != w[1]) {
        out.failed = out.attempted;
    } else {
        if open.decisions[..expected.len()] != expected[..] {
            out.failed += readings(OPEN_TICKS);
        }
        let prefix = &open.decisions[..CLOSED_TICKS * TENANTS];
        for p in &closed {
            if p.decisions != prefix {
                out.failed += readings(CLOSED_TICKS);
            }
        }
    }

    let latency: Vec<f64> = open.timings.iter().map(|t| t.latency).collect();
    let rates: Vec<f64> = closed
        .iter()
        .map(|p| readings(CLOSED_TICKS) as f64 / p.wall)
        .collect();
    let closed_wall: f64 = closed.iter().map(|p| p.wall).sum();
    out.put("setup_s", median(&setups));
    out.put(
        "ops_per_s",
        readings(CLOSED_TICKS * closed.len()) as f64 / closed_wall,
    );
    out.put("op_p50_ms", 1e3 * median(&latency));
    out.put("op_p90_ms", 1e3 * quantile(&latency, 0.9));
    out.samples("readings_per_s per closed-loop pass", &rates);
    out.samples("open-loop tick latency_s", &latency);
    out.samples("setup_s per fit + freeze", &setups);

    Ok(out)
}

fn traced(rc: &RunConfig, inp: &Inputs) -> Result<Outcome, String> {
    let tracer = Tracer::new(true, rc.run_id());
    let off = Tracer::new(false, 0);
    let root = tracer.span("serve", None);
    let (filter, epochs) = fit(rc.seed, inp, &tracer, root.id())?;
    let closed = run_pass(&filter, inp, false, &tracer, root.id())?;
    drop(root);
    // The open loop's spans have no root: the generator's idle wait
    // between ticks is neither a layer's time nor unattributed work.
    let before = alloc_stats();
    let open = run_pass(&filter, inp, true, &tracer, None)?;
    let allocs = alloc_stats().since(&before).matrices;
    // The same passes untraced, whose decisions the traced ones must match.
    let plain_open = run_pass(&filter, inp, true, &off, None)?;
    let plain_closed = run_pass(&filter, inp, false, &off, None)?;

    let mut out = Outcome {
        attempted: 2 * (readings(OPEN_TICKS) + readings(CLOSED_TICKS)),
        ..Outcome::default()
    };
    let expected = reference(&filter, inp)?;
    if open.decisions != plain_open.decisions
        || closed.decisions != plain_closed.decisions
        || open.decisions[..expected.len()] != expected[..]
    {
        out.failed = out.attempted;
    }

    let spans = tracer.spans();
    let sum = Summary::of(&spans);
    let wait: Vec<f64> = open
        .timings
        .iter()
        .zip(&open.flush)
        .map(|(t, f)| t.latency - f)
        .collect();
    let lag: Vec<f64> = open.timings.iter().map(|t| t.lag).collect();
    let scored = open
        .decisions
        .iter()
        .filter(|d| matches!(d.verdict, TenantVerdict::Scored(_)))
        .count();
    out.put("anomaly.detector.fit_s", sum.total("anomaly.detector.fit"));
    out.put("anomaly.detector.fit_epochs", epochs as f64);
    out.put(
        "nn.infer.freeze_s",
        median(&durations(&spans, "nn.infer.freeze")),
    );
    out.put("anomaly.service.flush_p50_ms", 1e3 * median(&open.flush));
    out.put(
        "anomaly.service.flush_p90_ms",
        1e3 * quantile(&open.flush, 0.9),
    );
    out.put(
        "anomaly.service.queue_wait_p90_ms",
        1e3 * quantile(&wait, 0.9),
    );
    out.put(
        "anomaly.service.submit_us",
        1e6 * mean(&open.submit) / TENANTS as f64,
    );
    out.put(
        "anomaly.service.windows_per_flush",
        scored as f64 / OPEN_TICKS as f64,
    );
    out.put(
        "anomaly.service.generator_lag_ms",
        1e3 * quantile(&lag, 0.9),
    );
    out.put("tensor.alloc.matrix_allocs", allocs as f64);
    out.trace_summary(&sum, overhead_estimate(spans.len()));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when slept on or advanced by a tick.
    struct FakeClock(Cell<Duration>);

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }

        fn sleep_until(&self, t: Duration) {
            if t > self.0.get() {
                self.0.set(t);
            }
        }
    }

    fn ms(v: u64) -> f64 {
        Duration::from_millis(v).as_secs_f64()
    }

    #[test]
    fn latency_counts_from_the_due_time_and_lateness_is_reported() {
        let clock = FakeClock(Cell::new(Duration::from_millis(100)));
        // Tick 1 overruns the 20 ms interval; tick 2 starts 10 ms late.
        let costs = [5u64, 30, 5, 5];
        let timings = open_loop(&clock, costs.len(), Duration::from_millis(20), |i| {
            clock.0.set(clock.0.get() + Duration::from_millis(costs[i]));
        });
        let got: Vec<(f64, f64)> = timings.iter().map(|t| (t.lag, t.latency)).collect();
        assert_eq!(
            got,
            vec![(0.0, ms(5)), (0.0, ms(30)), (ms(10), ms(15)), (0.0, ms(5))]
        );
    }

    #[test]
    fn an_idle_generator_never_runs_early() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let mut starts = Vec::new();
        open_loop(&clock, 3, Duration::from_millis(20), |_| {
            starts.push(clock.now())
        });
        assert_eq!(
            starts,
            vec![
                Duration::ZERO,
                Duration::from_millis(20),
                Duration::from_millis(40)
            ]
        );
    }
}
