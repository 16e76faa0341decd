//! `offline`: the `repro trace` / `repro diff` user path over recorded
//! event streams. No simulated thread runs during a pass, so a kernel
//! change should not move it; the sinks, exporters and `Json` do all
//! the work.

use std::hint::black_box;
use std::time::Instant;

use pcr::{secs, Event, HazardConfig, HazardMonitor, RunLimit, TraceSink, VecSink};
use serverd::{ServeReport, ServeSpec};
use trace::{diff_runs, parse_jsonl, write_chrome, write_jsonl, Collector, Json, TraceLabels};
use workloads::{Benchmark, System};

use crate::host;
use crate::matrix::cell_label;
use crate::spans::SpanLog;
use crate::workload::{fnv1a, Pass, Sizes, Workload};

/// A busy interactive cell, a batch cell, the timeout-dominated idle
/// cell, and one from the other system.
const CELLS: [(System, Benchmark); 4] = [
    (System::Cedar, Benchmark::Keyboard),
    (System::Cedar, Benchmark::Make),
    (System::Cedar, Benchmark::Idle),
    (System::Gvx, Benchmark::Scroll),
];

struct Stream {
    label: String,
    events: Vec<Event>,
    labels: TraceLabels,
}

pub struct Offline {
    streams: Vec<Stream>,
    report: ServeReport,
}

impl Offline {
    /// Records the streams: each cell from virtual time zero under a
    /// `VecSink`, as `repro trace` does.
    pub fn new(sizes: &Sizes, seed: u64) -> Offline {
        let streams = CELLS
            .iter()
            .map(|&(sys, bench)| {
                let mut sim = workloads::runner::build(sys, bench, seed);
                sim.set_sink(Box::new(VecSink::default()));
                let run = sim.run(RunLimit::For(secs(sizes.offline_window_s)));
                assert!(!run.deadlocked(), "deadlocked while recording");
                let labels = TraceLabels::from_sim(&sim);
                let events = trace::take_collector::<VecSink>(&mut sim)
                    .expect("the VecSink just installed")
                    .events;
                Stream {
                    label: cell_label(sys, bench),
                    events,
                    labels,
                }
            })
            .collect();
        // A real report to round-trip, from a fleet small enough to
        // cost set-up a few hundred milliseconds.
        let report = workloads::serve::run_report(ServeSpec::reference(300, seed));
        Offline { streams, report }
    }
}

/// Feeds a recorded stream to a sink the way the scheduler does: only
/// the kinds the sink subscribed to.
fn replay_into(sink: &mut dyn TraceSink, events: &[Event]) {
    let mask = sink.subscriptions();
    for ev in events.iter().filter(|ev| mask.contains(&ev.kind)) {
        sink.record(ev);
    }
}

impl Workload for Offline {
    fn unit(&self) -> &'static str {
        "trace events"
    }

    fn pass(&mut self, log: &mut SpanLog) -> Pass {
        let mut pass = Pass::default();
        let before = host::Usage::now();
        let whole = log.open("offline", 0);
        let from = log.spans.len();
        let mut chrome_bytes = 0usize;
        let mut events_total = 0u64;
        for (id, stream) in self.streams.iter().enumerate() {
            let events = &stream.events;
            let open = log.open("stream", id as u64);
            let mut stage = |name, f: &mut dyn FnMut()| {
                let ((), s) = log.time(name, id as u64, f);
                pass.segments.push(s);
            };
            let mut collector = Collector::new();
            stage("collector", &mut || replay_into(&mut collector, events));
            let mut hazards = HazardMonitor::new(HazardConfig::default());
            stage("hazard", &mut || replay_into(&mut hazards, events));
            let mut jsonl = Vec::new();
            stage("jsonl_write", &mut || {
                write_jsonl(events, &mut jsonl).expect("write to memory");
            });
            let jsonl = String::from_utf8(jsonl).expect("JSON is UTF-8");
            let mut records = Vec::new();
            stage("jsonl_parse", &mut || {
                records = parse_jsonl(&jsonl).unwrap_or_default();
            });
            let mut clean = false;
            stage("diff", &mut || {
                clean = diff_runs(&records, &records, 1.0).is_clean();
            });
            let mut chrome = Vec::new();
            stage("chrome_write", &mut || {
                write_chrome(events, &stream.labels, &mut chrome).expect("write to memory");
            });
            let chrome = String::from_utf8(chrome).expect("JSON is UTF-8");
            let mut doc = Json::Null;
            stage("json_parse", &mut || {
                doc = Json::parse(&chrome).unwrap_or(Json::Null);
            });
            let mut encoded = String::new();
            stage("json_encode", &mut || encoded = doc.to_string());
            let _ = log.close(open);

            chrome_bytes += chrome.len();
            events_total += events.len() as u64;
            pass.attempted += 3;
            if records.len() != events.len() {
                pass.fail(format!(
                    "{}: JSONL read back {} of {} events",
                    stream.label,
                    records.len(),
                    events.len()
                ));
            }
            if !clean {
                pass.fail(format!("{}: a stream differs from itself", stream.label));
            }
            let trace_events = doc.get("traceEvents").and_then(Json::as_array);
            if trace_events.is_none_or(<[Json]>::is_empty) {
                pass.fail(format!(
                    "{}: the Chrome trace did not read back",
                    stream.label
                ));
            }
            let l = &stream.label;
            let d = &mut pass.digest;
            d.insert(format!("{l}.events"), events.len().to_string());
            d.insert(format!("{l}.jsonl"), fnv1a(jsonl.as_bytes()));
            d.insert(format!("{l}.chrome"), fnv1a(chrome.as_bytes()));
            d.insert(format!("{l}.reencoded"), fnv1a(encoded.as_bytes()));
            d.insert(
                format!("{l}.intervals"),
                collector.intervals.into_histogram().count().to_string(),
            );
            d.insert(format!("{l}.hazards"), hazards.counts().total().to_string());
        }

        // The serve report's JSON round trip (`repro serve --baseline`).
        let report = &self.report;
        let mut same = false;
        let ((), s) = log.time("report_roundtrip", 0, || {
            let text = report.to_json().to_string();
            same = Json::parse(&text)
                .and_then(|j| ServeReport::from_json(&j))
                .is_ok_and(|back| back.to_json().to_string() == text);
        });
        pass.segments.push(s);
        pass.attempted += 1;
        if !same {
            pass.fail("the serve report changed in a JSON round trip".to_string());
        }
        let _ = log.close(whole);
        pass.units = events_total;

        if log.traced() {
            let usage = host::Usage::now();
            // Each stage's time summed over the four streams.
            let per_event_ns =
                |stage: &str| log.total_s(from, stage) * 1e9 / events_total.max(1) as f64;
            let mb = chrome_bytes as f64 / 1e6;
            pass.put("trace.stream.events", events_total as f64);
            pass.put("trace.collector.record_ns", per_event_ns("collector"));
            pass.put("pcr.hazard.record_ns", per_event_ns("hazard"));
            pass.put("trace.export.jsonl_write_ns", per_event_ns("jsonl_write"));
            pass.put("trace.export.jsonl_parse_ns", per_event_ns("jsonl_parse"));
            pass.put("trace.diff.ns_per_event", per_event_ns("diff"));
            pass.put("trace.export.chrome_ns", per_event_ns("chrome_write"));
            pass.put(
                "trace.json.parse_mb_per_s",
                mb / log.total_s(from, "json_parse"),
            );
            pass.put(
                "trace.json.encode_mb_per_s",
                mb / log.total_s(from, "json_encode"),
            );
            // Outside the segments: an untraced pass does not repeat them.
            const REPEATS: u32 = 200;
            let text = report.to_json().to_string();
            let t = Instant::now();
            for _ in 0..REPEATS {
                black_box(report.to_json().to_string());
            }
            let encode_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            for _ in 0..REPEATS {
                black_box(Json::parse(&text).and_then(|j| ServeReport::from_json(&j))).ok();
            }
            let decode_s = t.elapsed().as_secs_f64();
            pass.put(
                "serverd.report.encode_us",
                encode_s * 1e6 / f64::from(REPEATS),
            );
            pass.put(
                "serverd.report.decode_us",
                decode_s * 1e6 / f64::from(REPEATS),
            );
            pass.put("host.offline.sys_frac", usage.sys_frac_since(&before));
            pass.put(
                "host.offline.ctx_per_unit",
                usage.ctx_switches_since(&before) as f64 / events_total.max(1) as f64,
            );
        }
        pass
    }
}
