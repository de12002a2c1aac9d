//! The benchmark's own in-memory spans, recorded around each call into a
//! layer of the program. Spans inside the program are a later change.
//!
//! A span's *layer* is the part of its name before the first `.`
//! (`dfs.put_local` → `dfs`); the root span of a round is named `round`
//! and belongs to layer `bench`, as does everything the harness does
//! between calls (output checks, bookkeeping). A layer's self time is its
//! spans' durations minus the part their child spans cover, so the layers
//! of one round sum to that round exactly.

use std::collections::BTreeMap;
use std::time::Instant;

/// Root span name of one round.
pub const ROUND: &str = "round";

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call`, or [`ROUND`].
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same span list.
    pub parent: Option<usize>,
    /// Round the span belongs to (shared by all spans of one round).
    pub round: u32,
}

impl Span {
    /// The layer this span's time is attributed to.
    pub fn layer(&self) -> &'static str {
        if self.name == ROUND {
            return "bench";
        }
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder of one run. Disabled recorders run the closure and
/// record nothing, so untraced rounds pay one branch per call.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    round: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder whose span times count from `epoch`.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Recorder {
            enabled,
            epoch,
            round: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Tags subsequent spans with `round`.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// Runs `f` inside a span named `name`, nested under the span that is
    /// open on this recorder, if any.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            round: self.round,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// The recorded spans, parents indexing into the returned list.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time in nanoseconds of every span: its duration minus the
/// durations of its direct children (children of one parent never
/// overlap, since one thread records them in sequence).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Self time per layer in milliseconds, summed over all spans.
pub fn layer_self_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by_layer = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *by_layer.entry(s.layer()).or_insert(0.0) += own as f64 / 1e6;
    }
    by_layer
}

/// Durations in milliseconds of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            round: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children_and_layers_sum_to_the_round() {
        let spans = vec![
            span(ROUND, 0, 100_000_000, None),
            span("lang.compile", 5_000_000, 15_000_000, Some(0)),
            span("cluster.run", 20_000_000, 90_000_000, Some(0)),
            span("dfs.get_local", 30_000_000, 50_000_000, Some(2)),
        ];
        assert_eq!(
            self_times_ns(&spans),
            vec![20_000_000, 10_000_000, 50_000_000, 20_000_000]
        );
        let layers = layer_self_ms(&spans);
        assert_eq!(layers["bench"], 20.0);
        assert_eq!(layers["lang"], 10.0);
        assert_eq!(layers["cluster"], 50.0);
        assert_eq!(layers["dfs"], 20.0);
        assert_eq!(layers.values().sum::<f64>(), 100.0);
    }

    #[test]
    fn recorder_nests_spans_and_tags_them_with_the_round() {
        let mut r = Recorder::new(true, Instant::now());
        r.set_round(7);
        let got = r.span(ROUND, |r| r.span("core.plan", |_| 41) + 1);
        assert_eq!(got, 42);
        r.span(ROUND, |r| r.span("serve.tcp_plan", |_| ()));
        let all = r.into_spans();
        assert_eq!(all.len(), 4);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[3].parent, Some(2));
        assert_eq!((all[1].round, all[3].layer()), (7, "serve"));
        assert!(all.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false, Instant::now());
        assert_eq!(r.span(ROUND, |r| r.span("dfs.put_local", |_| 3)), 3);
        assert!(r.into_spans().is_empty());
    }
}
