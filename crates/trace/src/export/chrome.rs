//! Chrome trace-event (Perfetto) export.
//!
//! Turns the raw event stream into the JSON object format consumed by
//! `ui.perfetto.dev` and `chrome://tracing`, making the paper's "100 ms
//! event history" (§7) something you can actually scroll:
//!
//! * **process 1 — threads**: one track per thread with an `X` span for
//!   every run slice (from [`pcr::EventKind::Switch`] to the next
//!   switch), instant markers for chaos injections and §6.1 spurious
//!   lock conflicts, and flow arrows from forker to forked and from
//!   notifier to notified;
//! * **process 2 — monitors**: one track per monitor lock, with a span
//!   for every hold (an uncontended enter or a grant, to the exit or the
//!   releasing CV wait), named after the holding thread;
//! * **process 3 — waits**: one track per thread showing what it was
//!   blocked on — `lock:<monitor>` from a contended enter to its grant,
//!   `wait:<cv>` from a CV wait to its wake. A lock wait that happens
//!   while reacquiring inside a CV wait nests properly.
//!
//! Output is fully deterministic: events are sorted by
//! `(pid, tid, ts, -dur)`, so identical runs export byte-identical
//! traces (an acceptance criterion the CLI tests pin).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write;
use std::sync::Arc;

use pcr::{Event, EventKind, Priority, Sim, SimTime};

use crate::json::{write_uint, Escaper, Json};

/// Display names for the ids appearing in a trace.
#[derive(Clone, Debug, Default)]
pub struct TraceLabels {
    /// Thread names, indexed by raw thread id.
    pub threads: Vec<String>,
    /// Monitor names, indexed by raw monitor id.
    pub monitors: Vec<Arc<str>>,
    /// Condition-variable names, indexed by raw cv id.
    pub conditions: Vec<Arc<str>>,
}

impl TraceLabels {
    /// Collects every name from a finished simulator.
    pub fn from_sim(sim: &Sim) -> TraceLabels {
        TraceLabels {
            threads: sim.threads_iter().map(|t| t.name.to_string()).collect(),
            monitors: sim.monitor_names(),
            conditions: sim.condition_info().into_iter().map(|(n, _)| n).collect(),
        }
    }

    // The three below write into a line buffer, which cannot fail.

    /// `name (t<id>)`, or `t<id>` for an unnamed thread.
    fn thread(&self, w: &mut Escaper<'_, String>, id: u32) {
        let _ = match self.threads.get(id as usize) {
            Some(n) if !n.is_empty() => write!(w, "{n} (t{id})"),
            _ => write!(w, "t{id}"),
        };
    }

    fn monitor(&self, w: &mut Escaper<'_, String>, id: u32) {
        let _ = match self.monitors.get(id as usize) {
            Some(n) if !n.is_empty() => w.write_str(n),
            _ => write!(w, "ML{id}"),
        };
    }

    fn condition(&self, w: &mut Escaper<'_, String>, id: u32) {
        let _ = match self.conditions.get(id as usize) {
            Some(n) if !n.is_empty() => w.write_str(n),
            _ => write!(w, "CV{id}"),
        };
    }
}

const PID_THREADS: u32 = 1;
const PID_MONITORS: u32 = 2;
const PID_WAITS: u32 = 3;

/// One trace event before it is text: the sort key and what kind of
/// event it is. Names are resolved from [`TraceLabels`] when it is
/// written, after the sort.
struct SortableEvent {
    pid: u32,
    tid: u32,
    ts: u64,
    dur: u64,
    body: Body,
}

enum Body {
    /// A run slice on a thread track.
    Run { priority: Priority, ready_us: u64 },
    /// A monitor hold, named after the holding thread.
    Hold { holder: u32 },
    /// `lock:<monitor>` on a waits track.
    LockWait { monitor: u32 },
    /// `wait:<cv>` on a waits track.
    CvWait { cv: u32 },
    /// An instant marker on a thread track.
    Instant(&'static str),
    /// One end of a flow arrow: the start, or the finish.
    Flow {
        id: u64,
        name: &'static str,
        finish: bool,
    },
    /// A process's name.
    ProcessName(&'static str),
    /// A track's name: the thread's or the monitor's, by `pid`.
    TrackName,
}

impl SortableEvent {
    fn span(pid: u32, tid: u32, ts: u64, end: u64, body: Body) -> SortableEvent {
        let dur = end.saturating_sub(ts);
        SortableEvent {
            pid,
            tid,
            ts,
            dur,
            body,
        }
    }

    /// An instant or a flow end: a point on a thread track.
    fn point(tid: u32, ts: u64, body: Body) -> SortableEvent {
        SortableEvent::span(PID_THREADS, tid, ts, ts, body)
    }

    fn metadata(pid: u32, tid: u32, body: Body) -> SortableEvent {
        // `dur` sorts it before any real event on the track.
        SortableEvent {
            pid,
            tid,
            ts: 0,
            dur: u64::MAX,
            body,
        }
    }

    /// 0 = metadata, 1 = everything else: metadata sorts first per track.
    fn class(&self) -> u8 {
        !matches!(self.body, Body::ProcessName(_) | Body::TrackName) as u8
    }

    /// Appends the event as one compact JSON object. Literal names need
    /// no escaping; label text goes through the escaper.
    fn push_json(&self, line: &mut String, labels: &TraceLabels) {
        let SortableEvent {
            pid, tid, ts, dur, ..
        } = *self;
        let track = |line: &mut String| {
            push_num(line, ",\"pid\":", pid);
            push_num(line, ",\"tid\":", tid);
        };
        // Closes the name and places the span; `args` follows.
        let span = |line: &mut String| {
            push_num(line, "\",\"ph\":\"X\",\"ts\":", ts);
            push_num(line, ",\"dur\":", dur);
            track(line);
        };
        line.push_str("{\"name\":\"");
        match self.body {
            Body::Run { priority, ready_us } => {
                line.push_str("run");
                span(line);
                push_num(line, ",\"args\":{\"detail\":\"prio=", priority.get());
                push_num(line, " ready_us=", ready_us);
                line.push_str("\"}}");
            }
            Body::Hold { holder } => {
                line.push_str("held by ");
                labels.thread(&mut Escaper(line), holder);
                span(line);
                push_num(line, ",\"args\":{\"tid\":", holder);
                line.push_str("}}");
            }
            Body::LockWait { monitor } => {
                line.push_str("lock:");
                labels.monitor(&mut Escaper(line), monitor);
                span(line);
                push_num(line, ",\"args\":{\"monitor\":", monitor);
                line.push_str("}}");
            }
            Body::CvWait { cv } => {
                line.push_str("wait:");
                labels.condition(&mut Escaper(line), cv);
                span(line);
                push_num(line, ",\"args\":{\"cv\":", cv);
                line.push_str("}}");
            }
            Body::Instant(name) => {
                line.push_str(name);
                push_num(line, "\",\"ph\":\"i\",\"ts\":", ts);
                track(line);
                line.push_str(",\"s\":\"t\"}");
            }
            Body::Flow { id, name, finish } => {
                line.push_str(name);
                line.push_str("\",\"cat\":\"flow\",\"ph\":");
                line.push_str(if finish { "\"f\"" } else { "\"s\"" });
                push_num(line, ",\"id\":", id);
                push_num(line, ",\"ts\":", ts);
                track(line);
                // Bind to the enclosing slice even when ts equals its start.
                line.push_str(if finish { ",\"bp\":\"e\"}" } else { "}" });
            }
            Body::ProcessName(process) => {
                push_num(line, "process_name\",\"ph\":\"M\",\"pid\":", pid);
                line.push_str(",\"args\":{\"name\":\"");
                line.push_str(process);
                line.push_str("\"}}");
            }
            Body::TrackName => {
                push_num(line, "thread_name\",\"ph\":\"M\",\"pid\":", pid);
                push_num(line, ",\"tid\":", tid);
                line.push_str(",\"args\":{\"name\":\"");
                if pid == PID_MONITORS {
                    labels.monitor(&mut Escaper(line), tid);
                } else {
                    labels.thread(&mut Escaper(line), tid);
                }
                line.push_str("\"}}");
            }
        }
    }
}

/// Appends `key` (literal JSON text) and then `n` in decimal.
fn push_num(line: &mut String, key: &str, n: impl Into<u64>) {
    line.push_str(key);
    // Writing to a `String` cannot fail.
    let _ = write_uint(line, n.into());
}

/// The trace events of a stream, in output order.
fn trace_events(events: &[Event]) -> Vec<SortableEvent> {
    let end_us = events
        .last()
        .map(|e| e.t)
        .unwrap_or(SimTime::ZERO)
        .as_micros();
    let mut out: Vec<SortableEvent> = Vec::new();

    // -- Pass 1: run slices per thread (needed for flow-arrow targets).
    let mut running: Option<(u32, u64, Body)> = None;
    for ev in events {
        if let EventKind::Switch {
            to,
            to_priority: priority,
            ready_for,
            ..
        } = ev.kind
        {
            let t = ev.t.as_micros();
            if let Some((tid, start, body)) = running.take() {
                out.push(SortableEvent::span(PID_THREADS, tid, start, t, body));
            }
            let ready_us = ready_for.as_micros();
            running = Some((to.as_u32(), t, Body::Run { priority, ready_us }));
        }
    }
    if let Some((tid, start, body)) = running.take() {
        out.push(SortableEvent::span(PID_THREADS, tid, start, end_us, body));
    }
    // Slice starts per thread, in time order, for flow-target lookup.
    let mut starts: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for slice in &out {
        starts.entry(slice.tid).or_default().push(slice.ts);
    }
    let first_run_at = |tid: u32, at: u64| -> Option<u64> {
        let v = starts.get(&tid)?;
        let i = v.partition_point(|&s| s < at);
        v.get(i).copied()
    };

    // -- Pass 2: everything else.
    let mut flow_id: u64 = 0;
    let mut flow = |out: &mut Vec<SortableEvent>, name, from: (u32, u64), to: (u32, u64)| {
        flow_id += 1;
        for (finish, (tid, ts)) in [(false, from), (true, to)] {
            let body = Body::Flow {
                id: flow_id,
                name,
                finish,
            };
            out.push(SortableEvent::point(tid, ts, body));
        }
    };
    // Open monitor holds: monitor → (holder, start).
    let mut holds: BTreeMap<u32, (u32, u64)> = BTreeMap::new();
    let mut lock_waits: BTreeMap<(u32, u32), u64> = BTreeMap::new(); // (tid, monitor) → start
    let mut cv_waits: BTreeMap<u32, (u32, u64)> = BTreeMap::new(); // tid → (cv, start)
    let close_hold =
        |holds: &mut BTreeMap<u32, (u32, u64)>, out: &mut Vec<SortableEvent>, m: u32, t: u64| {
            if let Some((holder, start)) = holds.remove(&m) {
                let body = Body::Hold { holder };
                out.push(SortableEvent::span(PID_MONITORS, m, start, t, body));
            }
        };
    for ev in events {
        let t = ev.t.as_micros();
        let instant = match ev.kind {
            EventKind::Fork { parent, child, .. } => {
                if let (Some(p), Some(target)) = (parent, first_run_at(child.as_u32(), t)) {
                    flow(&mut out, "fork", (p.as_u32(), t), (child.as_u32(), target));
                }
                continue;
            }
            EventKind::Notify {
                tid,
                woken: Some(w),
                ..
            } => {
                if let Some(target) = first_run_at(w.as_u32(), t) {
                    flow(&mut out, "notify", (tid.as_u32(), t), (w.as_u32(), target));
                }
                continue;
            }
            EventKind::MlEnter {
                tid,
                monitor,
                contended,
            } => {
                let (tid, m) = (tid.as_u32(), monitor.as_u32());
                if contended {
                    lock_waits.insert((tid, m), t);
                } else {
                    holds.insert(m, (tid, t));
                }
                continue;
            }
            EventKind::MlAcquired { tid, monitor } => {
                let (tid, m) = (tid.as_u32(), monitor.as_u32());
                if let Some(start) = lock_waits.remove(&(tid, m)) {
                    let body = Body::LockWait { monitor: m };
                    out.push(SortableEvent::span(PID_WAITS, tid, start, t, body));
                }
                // The previous hold (if any) ended at the owner's release.
                close_hold(&mut holds, &mut out, m, t);
                holds.insert(m, (tid, t));
                continue;
            }
            EventKind::MlExit { tid: _, monitor } => {
                close_hold(&mut holds, &mut out, monitor.as_u32(), t);
                continue;
            }
            EventKind::CvWait { tid, cv } => {
                let tid = tid.as_u32();
                cv_waits.insert(tid, (cv.as_u32(), t));
                // WAIT releases the cv's monitor: close the hold owned by
                // this thread (the stream does not carry the cv→monitor
                // mapping, so find it by owner), if it owns exactly one.
                let mut owned = holds.iter().filter(|(_, &(h, _))| h == tid);
                if let (Some((&m, _)), None) = (owned.next(), owned.next()) {
                    close_hold(&mut holds, &mut out, m, t);
                }
                continue;
            }
            EventKind::CvWake { tid, .. } => {
                let tid = tid.as_u32();
                if let Some((cv, start)) = cv_waits.remove(&tid) {
                    let body = Body::CvWait { cv };
                    out.push(SortableEvent::span(PID_WAITS, tid, start, t, body));
                }
                continue;
            }
            EventKind::SpuriousLockConflict { tid, .. } => (tid, "spurious-lock-conflict"),
            EventKind::MetalockStall { tid, .. } => (tid, "metalock-stall"),
            EventKind::SpuriousWakeup { tid, .. } => (tid, "chaos:spurious-wakeup"),
            EventKind::NotifyDropped { tid, .. } => (tid, "chaos:notify-dropped"),
            EventKind::NotifyDuplicated { tid, .. } => (tid, "chaos:notify-duplicated"),
            EventKind::ChaosStall { tid, .. } => (tid, "chaos:stall"),
            EventKind::ChaosForkFail { tid } => (tid, "chaos:fork-fail"),
            _ => continue,
        };
        let (tid, name) = instant;
        out.push(SortableEvent::point(tid.as_u32(), t, Body::Instant(name)));
    }
    // Close anything still open at the end of the trace.
    for (&(tid, monitor), &start) in &lock_waits {
        let body = Body::LockWait { monitor };
        out.push(SortableEvent::span(PID_WAITS, tid, start, end_us, body));
    }
    for (&tid, &(cv, start)) in &cv_waits {
        let body = Body::CvWait { cv };
        out.push(SortableEvent::span(PID_WAITS, tid, start, end_us, body));
    }
    let open_holds: Vec<u32> = holds.keys().copied().collect();
    for m in open_holds {
        close_hold(&mut holds, &mut out, m, end_us);
    }

    // -- Metadata: track names.
    let tracks = |out: &[SortableEvent], pids: &[u32]| {
        let mut ids: Vec<u32> = out
            .iter()
            .filter(|e| pids.contains(&e.pid))
            .map(|e| e.tid)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    };
    let thread_tracks = tracks(&out, &[PID_THREADS, PID_WAITS]);
    let monitor_tracks = tracks(&out, &[PID_MONITORS]);
    for (pid, name) in [
        (PID_THREADS, "threads"),
        (PID_MONITORS, "monitors"),
        (PID_WAITS, "waits"),
    ] {
        out.push(SortableEvent::metadata(pid, 0, Body::ProcessName(name)));
    }
    for tid in thread_tracks {
        out.push(SortableEvent::metadata(PID_THREADS, tid, Body::TrackName));
        out.push(SortableEvent::metadata(PID_WAITS, tid, Body::TrackName));
    }
    for m in monitor_tracks {
        out.push(SortableEvent::metadata(PID_MONITORS, m, Body::TrackName));
    }

    // Deterministic order; longer spans first at equal ts so nested
    // spans arrive parent-before-child.
    out.sort_by_key(|e| (e.pid, e.tid, e.class(), e.ts, std::cmp::Reverse(e.dur)));
    out
}

/// Builds the Chrome trace-event document for an event stream: what
/// [`write_chrome`] writes, parsed, so there is one encoder of the format.
///
/// The result is the object form (`{"traceEvents": [...]}`), directly
/// loadable in `ui.perfetto.dev`. Pass [`TraceLabels::from_sim`] to get
/// human-readable track names; [`TraceLabels::default`] falls back to
/// numeric ids.
///
/// ```
/// use pcr::{millis, Priority, RunLimit, Sim, SimConfig, VecSink};
/// use trace::export::chrome::{chrome_trace, TraceLabels};
///
/// let mut sim = Sim::new(SimConfig::default());
/// sim.set_sink(Box::new(VecSink::default()));
/// let _ = sim.fork_root("worker", Priority::DEFAULT, |ctx| ctx.work(millis(1)));
/// sim.run(RunLimit::ToCompletion);
/// let labels = TraceLabels::from_sim(&sim);
/// let sink = sim.take_sink().unwrap();
/// let events = sink.into_any().downcast::<VecSink>().unwrap().events;
///
/// let doc = chrome_trace(&events, &labels);
/// let spans = doc.get("traceEvents").and_then(trace::Json::as_array).unwrap();
/// assert!(spans.iter().any(|e| {
///     e.get("ph").and_then(trace::Json::as_str) == Some("X")
/// }));
/// ```
pub fn chrome_trace(events: &[Event], labels: &TraceLabels) -> Json {
    let mut text = Vec::new();
    write_chrome(events, labels, &mut text).expect("writing to memory");
    let text = String::from_utf8(text).expect("the writer emits UTF-8");
    Json::parse(&text).expect("the writer emits JSON")
}

/// Writes the Chrome trace-event document as compact JSON, one trace
/// event per line (still a single valid JSON document).
pub fn write_chrome<W: Write>(
    events: &[Event],
    labels: &TraceLabels,
    mut w: W,
) -> std::io::Result<()> {
    let items = trace_events(events);
    w.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")?;
    let mut line = String::new();
    for (i, item) in items.iter().enumerate() {
        line.clear();
        item.push_json(&mut line, labels);
        line.push_str(if i + 1 == items.len() { "\n" } else { ",\n" });
        w.write_all(line.as_bytes())?;
    }
    w.write_all(b"]}\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr::{millis, secs, Priority, RunLimit, SimConfig, VecSink};

    fn run_world(seed: u64) -> (Vec<Event>, TraceLabels) {
        // Immediate-notify + a waiter that outranks the notifier: the
        // §6.1 shape, so the stream contains SpuriousLockConflict
        // instants alongside forks, holds, waits, and flows.
        let cfg = SimConfig::default()
            .with_seed(seed)
            .with_notify_mode(pcr::NotifyMode::Immediate);
        let mut sim = Sim::new(cfg);
        sim.set_sink(Box::new(VecSink::default()));
        let m = sim.monitor("mon", 0u32);
        let cv = sim.condition(&m, "cv", Some(millis(20)));
        let (m2, cv2) = (m.clone(), cv.clone());
        let _ = sim.fork_root("pinger", Priority::of(3), move |ctx| {
            for _ in 0..10 {
                ctx.sleep_precise(millis(5));
                let mut g = ctx.enter(&m2);
                ctx.sleep_precise(millis(1)); // threadlint: allow(blocking-call-in-monitor) -- hold across a block: contention.
                g.with_mut(|v| *v += 1);
                g.notify(&cv2);
                ctx.work(pcr::micros(50)); // Still held: the wasted trip.
                drop(g);
            }
        });
        let _ = sim.fork_root("waiter", Priority::of(6), move |ctx| {
            let mut g = ctx.enter(&m);
            for _ in 0..10 {
                let _ = g.wait(&cv);
            }
        });
        sim.run(RunLimit::For(secs(1)));
        let labels = TraceLabels::from_sim(&sim);
        let sink = sim.take_sink().unwrap();
        (
            sink.into_any().downcast::<VecSink>().unwrap().events,
            labels,
        )
    }

    fn x_spans(doc: &Json) -> Vec<(u64, u64, u64, u64)> {
        doc.get("traceEvents")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .map(|e| {
                (
                    e.get("pid").and_then(Json::as_u64).unwrap(),
                    e.get("tid").and_then(Json::as_u64).unwrap(),
                    e.get("ts").and_then(Json::as_u64).unwrap(),
                    e.get("dur").and_then(Json::as_u64).unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn produces_all_three_processes_and_flows() {
        let (events, labels) = run_world(7);
        let doc = chrome_trace(&events, &labels);
        let spans = x_spans(&doc);
        for pid in [1, 2, 3] {
            assert!(
                spans.iter().any(|s| s.0 == pid),
                "no X span in process {pid}"
            );
        }
        let all = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        for ph in ["s", "f", "M", "i"] {
            // "i" needs chaos or a spurious conflict; this world has the
            // §6.1 conflict because the notifier holds across a block.
            assert!(
                all.iter()
                    .any(|e| e.get("ph").and_then(Json::as_str) == Some(ph)),
                "no {ph:?} event"
            );
        }
        // Flow starts and finishes pair up by id.
        let ids = |phase: &str| -> Vec<u64> {
            let mut v: Vec<u64> = all
                .iter()
                .filter(|e| e.get("ph").and_then(Json::as_str) == Some(phase))
                .map(|e| e.get("id").and_then(Json::as_u64).unwrap())
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(ids("s"), ids("f"));
        assert!(!ids("s").is_empty());
    }

    #[test]
    fn spans_are_monotonic_and_nested_per_track() {
        let (events, labels) = run_world(11);
        let doc = chrome_trace(&events, &labels);
        let spans = x_spans(&doc);
        let mut last: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        let mut open: BTreeMap<(u64, u64), Vec<u64>> = BTreeMap::new(); // stack of span ends
        for (pid, tid, ts, dur) in spans {
            let track = (pid, tid);
            let prev = last.insert(track, ts).unwrap_or(0);
            assert!(ts >= prev, "track {track:?} ts went backwards");
            let stack = open.entry(track).or_default();
            while let Some(&end) = stack.last() {
                if end <= ts {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&end) = stack.last() {
                assert!(
                    ts + dur <= end,
                    "track {track:?}: span [{ts},{}] not nested in [..{end}]",
                    ts + dur
                );
            }
            stack.push(ts + dur);
        }
    }

    #[test]
    fn export_is_deterministic() {
        let (ea, la) = run_world(42);
        let (eb, lb) = run_world(42);
        let mut a = Vec::new();
        let mut b = Vec::new();
        write_chrome(&ea, &la, &mut a).unwrap();
        write_chrome(&eb, &lb, &mut b).unwrap();
        assert_eq!(a, b, "same seed must export byte-identical traces");
        assert!(Json::parse(std::str::from_utf8(&a).unwrap()).is_ok());
    }

    #[test]
    fn empty_stream_exports_an_empty_document() {
        let doc = chrome_trace(&[], &TraceLabels::default());
        assert!(x_spans(&doc).is_empty());
        assert!(Json::parse(&doc.to_string()).is_ok());
    }
}
