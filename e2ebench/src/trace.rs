//! Outside-in layer trace: spans recorded by the benchmark around each
//! public call it makes into a layer.
//!
//! A span has a name, a start, an end, the span that caused it and the id
//! of the traced run. Spans are kept in memory and summarised when the
//! run ends. A span's layer is its name without the last dot-separated
//! component (`anomaly.detector.fit` belongs to `anomaly.detector`); the
//! benchmark's own root spans use the layer [`ROOT_LAYER`].
//!
//! Self time is a span's duration minus the union of its children's
//! intervals, clipped to the span. Children may overlap each other (the
//! socket clients train on their own threads while the server waits), so
//! the union, not the sum, is subtracted. Self time of root spans is the
//! time the trace does not attribute to any layer.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Layer of the benchmark's own root spans.
pub const ROOT_LAYER: &str = "run";

/// Identifier of a recorded span.
pub type SpanId = u32;

/// One recorded span. Times are seconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub run: u32,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    pub fn layer(&self) -> &'static str {
        layer_of(self.name)
    }
}

/// The layer a span name belongs to.
pub fn layer_of(name: &'static str) -> &'static str {
    match name.rfind('.') {
        Some(i) => &name[..i],
        None => ROOT_LAYER,
    }
}

/// Collects spans from any thread; a disabled tracer records nothing and
/// never reads the clock.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    run: u32,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool, run: u32) -> Self {
        Self {
            enabled,
            run,
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: &'static str, parent: Option<SpanId>) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                tracer: self,
                id: None,
                parent,
                name,
                start: 0.0,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Guard {
            tracer: self,
            id: Some(id),
            parent,
            name,
            start: self.epoch.elapsed().as_secs_f64(),
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, name: &'static str, parent: Option<SpanId>, f: impl FnOnce() -> T) -> T {
        let _guard = self.span(name, parent);
        f()
    }

    /// Every span recorded so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span recorder panicked").clone()
    }

    fn record(&self, span: Span) {
        self.spans
            .lock()
            .expect("a span recorder panicked")
            .push(span);
    }
}

/// An open span; records itself on drop.
#[derive(Debug)]
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: Option<SpanId>,
    parent: Option<SpanId>,
    name: &'static str,
    start: f64,
}

impl Guard<'_> {
    /// The span's id, to pass as the parent of nested spans (`None` when
    /// tracing is off).
    pub fn id(&self) -> Option<SpanId> {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let end = self.tracer.epoch.elapsed().as_secs_f64();
            self.tracer.record(Span {
                id,
                parent: self.parent,
                name: self.name,
                start: self.start,
                end,
                run: self.tracer.run,
            });
        }
    }
}

/// Total length of the union of `intervals` clipped to `[lo, hi]`.
pub fn union_within(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of every span, keyed by span id.
pub fn self_times(spans: &[Span]) -> BTreeMap<SpanId, f64> {
    let mut children: BTreeMap<SpanId, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0.0, |c| union_within(c, s.start, s.end));
            (s.id, (s.duration() - covered).max(0.0))
        })
        .collect()
}

/// Summary of one traced run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    /// Self time per layer (root spans excluded), seconds.
    pub layer_self: BTreeMap<&'static str, f64>,
    /// Summed duration per span name, seconds.
    pub by_name: BTreeMap<&'static str, f64>,
    /// Self time of the root spans: time inside the traced run that no
    /// layer span covers, seconds.
    pub unattributed: f64,
    /// Number of spans recorded.
    pub spans: usize,
}

impl Summary {
    pub fn of(spans: &[Span]) -> Self {
        let own = self_times(spans);
        let mut out = Summary {
            spans: spans.len(),
            ..Summary::default()
        };
        for s in spans {
            let self_time = own[&s.id];
            *out.by_name.entry(s.name).or_insert(0.0) += s.duration();
            if s.layer() == ROOT_LAYER {
                out.unattributed += self_time;
            } else {
                *out.layer_self.entry(s.layer()).or_insert(0.0) += self_time;
            }
        }
        out
    }

    /// Summed duration of the spans called `name` (0 when none ran).
    pub fn total(&self, name: &str) -> f64 {
        self.by_name.get(name).copied().unwrap_or(0.0)
    }
}

/// Durations of the spans called `name`, in closing order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration)
        .collect()
}

/// Estimated cost of recording `spans` spans: the per-span cost of an
/// enabled tracer, measured on a throwaway tracer, times the count.
pub fn overhead_estimate(spans: usize) -> f64 {
    const PROBES: u32 = 20_000;
    let probe = Tracer::new(true, 0);
    let start = Instant::now();
    for _ in 0..PROBES {
        drop(std::hint::black_box(probe.span("probe.span", None)));
    }
    start.elapsed().as_secs_f64() / f64::from(PROBES) * spans as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name,
            start,
            end,
            run: 7,
        }
    }

    #[test]
    fn layer_is_the_name_without_its_last_component() {
        assert_eq!(layer_of("anomaly.detector.fit"), "anomaly.detector");
        assert_eq!(layer_of("data.generate"), "data");
        assert_eq!(layer_of("study"), ROOT_LAYER);
    }

    #[test]
    fn union_merges_overlaps_and_clips_to_the_parent() {
        let mut iv = vec![(2.0, 5.0), (1.0, 3.0), (7.0, 12.0), (4.0, 4.5)];
        // [1,5] and [7,10] inside [0,10].
        assert_eq!(union_within(&mut iv, 0.0, 10.0), 4.0 + 3.0);
        let mut outside = vec![(11.0, 12.0)];
        assert_eq!(union_within(&mut outside, 0.0, 10.0), 0.0);
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        // root [0,10] > fit [1,6] > step [2,3]; detect [7,9].
        let spans = vec![
            span(1, None, "study", 0.0, 10.0),
            span(2, Some(1), "anomaly.detector.fit", 1.0, 6.0),
            span(3, Some(2), "nn.model.step", 2.0, 3.0),
            span(4, Some(1), "anomaly.detector.detect", 7.0, 9.0),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 3.0);
        assert_eq!(own[&2], 4.0);
        assert_eq!(own[&3], 1.0);
        assert_eq!(own[&4], 2.0);
        let sum = Summary::of(&spans);
        assert_eq!(sum.unattributed, 3.0);
        assert_eq!(sum.layer_self["anomaly.detector"], 6.0);
        assert_eq!(sum.layer_self["nn.model"], 1.0);
        // Self times partition the root's wall clock.
        let total: f64 = sum.layer_self.values().sum::<f64>() + sum.unattributed;
        assert_eq!(total, 10.0);
        assert_eq!(sum.total("anomaly.detector.fit"), 5.0);
        assert_eq!(sum.total("missing"), 0.0);
    }

    #[test]
    fn overlapping_children_on_other_threads_are_counted_once() {
        // A server session [0,10] while two clients overlap in [1,8].
        let spans = vec![
            span(1, None, "fed_tcp", 0.0, 11.0),
            span(2, Some(1), "federated.socket.session", 0.0, 10.0),
            span(3, Some(2), "federated.socket.client", 1.0, 6.0),
            span(4, Some(2), "federated.socket.client", 3.0, 8.0),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&2], 10.0 - 7.0);
        let sum = Summary::of(&spans);
        assert_eq!(sum.layer_self["federated.socket"], 3.0 + 5.0 + 5.0);
        assert_eq!(sum.unattributed, 1.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false, 1);
        let g = t.span("data.generate", None);
        assert_eq!(g.id(), None);
        drop(g);
        assert_eq!(t.time("attack.inject", None, || 5), 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_records_parent_links_and_run_id() {
        let t = Tracer::new(true, 3);
        {
            let root = t.span("study", None);
            t.time("data.generate", root.id(), || ());
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.name == "data.generate").unwrap();
        let root = spans.iter().find(|s| s.name == "study").unwrap();
        assert_eq!(child.parent, Some(root.id));
        assert!(child.start >= root.start && child.end <= root.end);
        assert!(spans.iter().all(|s| s.run == 3));
        assert!(overhead_estimate(spans.len()) > 0.0);
    }
}
