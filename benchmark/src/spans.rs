//! Benchmark-side spans: recorded in memory around the calls into each
//! layer, written out once as a Chrome trace when the run ends.

use std::time::Instant;

use trace::Json;

/// One timed interval. `parent` indexes [`SpanLog::spans`]; `id` is the
/// cell, request batch, trial or stream every span of one unit shares.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// An open span, to hand back to [`SpanLog::close`].
#[must_use]
pub struct Open {
    start: Instant,
    index: Option<usize>,
}

/// The span recorder. Spans nest by call order: a span opened while
/// another is open is its child. An untraced log still times (callers
/// need the durations) but keeps nothing.
pub struct SpanLog {
    epoch: Instant,
    traced: bool,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl SpanLog {
    pub fn new(traced: bool) -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            traced,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn traced(&self) -> bool {
        self.traced
    }

    fn us_since_epoch(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    pub fn open(&mut self, name: &'static str, id: u64) -> Open {
        let start = Instant::now();
        let index = self.traced.then(|| {
            let start_us = self.us_since_epoch(start);
            self.spans.push(Span {
                name,
                id,
                start_us,
                end_us: start_us,
                parent: self.stack.last().copied(),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { start, index }
    }

    /// Closes `open`, and with it any span still open inside it (a panic
    /// caught around a layer call skips their `close`), and returns its
    /// duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(index) = open.index {
            let end_us = self.us_since_epoch(end);
            while let Some(top) = self.stack.pop() {
                self.spans[top].end_us = end_us;
                if top == index {
                    break;
                }
            }
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Runs `f` inside a span and returns its result with the duration
    /// in seconds.
    pub fn time<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.open(name, id);
        let r = f();
        (r, self.close(open))
    }

    /// Summed duration, in seconds, of every span called `name` that
    /// started at or after span number `from`.
    pub fn total_s(&self, from: usize, name: &str) -> f64 {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_us)
            .sum::<f64>()
            / 1e6
    }

    /// A Chrome trace (`chrome://tracing`, Perfetto): one complete event
    /// per span, carrying its id, parent and self time.
    pub fn to_chrome(&self) -> Json {
        let self_us = self_times_us(&self.spans);
        let events = self.spans.iter().zip(self_us).map(|(s, self_us)| {
            Json::obj([
                ("name", Json::from(s.name)),
                ("ph", Json::from("X")),
                ("pid", Json::from(1u64)),
                ("tid", Json::from(1u64)),
                ("ts", Json::from(s.start_us)),
                ("dur", Json::from(s.dur_us())),
                (
                    "args",
                    Json::obj([
                        ("id", Json::from(s.id)),
                        ("parent", Json::from(s.parent)),
                        ("self_us", Json::from(self_us)),
                    ]),
                ),
            ])
        });
        Json::obj([
            ("displayTimeUnit", Json::from("ms")),
            ("traceEvents", Json::arr(events)),
        ])
    }
}

/// Each span's self time: its duration less the part its direct children
/// cover. Children of one parent never overlap (they nest by call order),
/// so the part covered is the sum of their durations.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::dur_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur_us();
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            id: 0,
            start_us,
            end_us,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("pass", 0.0, 100.0, None),
            span("cell", 10.0, 90.0, Some(0)),
            span("build", 10.0, 30.0, Some(1)),
            span("window", 30.0, 85.0, Some(1)),
            span("cell", 90.0, 95.0, Some(0)),
        ];
        assert_eq!(self_times_us(&spans), vec![15.0, 5.0, 20.0, 55.0, 5.0]);
    }

    #[test]
    fn log_nests_by_call_order_and_totals_by_name() {
        let mut log = SpanLog::new(true);
        let pass = log.open("pass", 1);
        let ((), _) = log.time("cell", 7, || {});
        let cell = log.open("cell", 8);
        let ((), _) = log.time("build", 8, || {});
        let _ = log.close(cell);
        let _ = log.close(pass);
        let parents: Vec<_> = log.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert!(log.spans.iter().all(|s| s.end_us >= s.start_us));
        let both = log.spans[1].dur_us() + log.spans[2].dur_us();
        assert!((log.total_s(0, "cell") * 1e6 - both).abs() < 1e-6);
        assert!((log.total_s(2, "cell") * 1e6 - log.spans[2].dur_us()).abs() < 1e-6);
    }

    #[test]
    fn an_untraced_log_times_but_keeps_nothing() {
        let mut log = SpanLog::new(false);
        let outer = log.open("pass", 1);
        let ((), inner_s) = log.time("cell", 2, || std::hint::black_box(()));
        let outer_s = log.close(outer);
        assert!(outer_s >= inner_s && inner_s >= 0.0);
        assert!(log.spans.is_empty());
    }

    #[test]
    fn chrome_export_is_loadable_json() {
        let mut log = SpanLog::new(true);
        let ((), _) = log.time("pass", 3, || {});
        let text = log.to_chrome().to_string();
        let doc = Json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("X"));
        let args = events[0].get("args").unwrap();
        assert_eq!(args.get("id").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn closing_a_span_closes_what_a_panic_left_open_inside_it() {
        let mut log = SpanLog::new(true);
        let a = log.open("a", 0);
        let _abandoned = log.open("b", 0);
        let _ = log.close(a);
        assert_eq!(log.spans[1].end_us, log.spans[0].end_us);
        let ((), _) = log.time("c", 0, || {});
        assert_eq!(log.spans[2].parent, None);
    }
}
