//! Machine-readable export of traces and measurements.
//!
//! The authors built ad-hoc tools over their event logs; this module
//! provides the modern equivalent: JSON Lines export of the event
//! stream as flattened records, so external tooling (plots, diffing
//! runs) can consume the reproduction's output.
//!
//! Both directions skip the [`Json`](crate::Json) tree. [`write_jsonl`]
//! formats each [`Event`] straight into one reused line buffer: the
//! fixed keys as literals, the numbers through a digit buffer, the
//! `detail` text written in place through the escaper. An
//! [`EventRecord`] exists only on the reading side, where
//! [`EventRecord::from_jsonl_line`] scans a line's known keys into it:
//! each key is resolved once to a slot, `t_us` and the ids are read as
//! integers while they are scanned, `kind` and `detail` as strings, and
//! nothing passes through a value unless it has the wrong type. `kind`
//! is interned against [`KIND_TAGS`], the tags the writer emits. Built
//! as a tree first, an event cost 802 ns to write and 617 ns to read
//! back, more than the 520 ns it costs to simulate; direct, 72 and
//! 140 ns (docs/OBSERVABILITY.md has the table).

use std::borrow::Cow;
use std::fmt::Write as _;
use std::io::Write;

use pcr::{Event, EventKind, ThreadId};

use crate::json::{write_uint, Escaper, Parser};

pub mod chrome;

/// One line of a JSONL trace, read back: a flattened runtime event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Microseconds since simulation start.
    pub t_us: u64,
    /// Event kind tag (e.g. "switch", "ml_enter"): one of [`KIND_TAGS`],
    /// borrowed, or owned when the file names a kind this build does not
    /// emit.
    pub kind: Cow<'static, str>,
    /// Primary thread involved.
    pub tid: Option<u32>,
    /// Secondary thread (fork child, switch target, notify wakee...).
    pub other: Option<u32>,
    /// Monitor id, when relevant.
    pub monitor: Option<u32>,
    /// Condition id, when relevant.
    pub cv: Option<u32>,
    /// Extra detail (priority, contended flag, outcome...).
    pub detail: Option<String>,
}

/// Defines the writer's tag for each [`EventKind`] variant and, from the
/// same list, the table the reader interns against.
macro_rules! kind_tags {
    ($($variant:ident => $tag:literal,)*) => {
        /// Every `kind` tag [`write_jsonl`] emits, one per [`EventKind`] variant.
        pub const KIND_TAGS: [&str; 27] = [$($tag),*];

        fn tag(kind: &EventKind) -> &'static str {
            match kind {
                $(EventKind::$variant { .. } => $tag,)*
            }
        }
    };
}

kind_tags! {
    Fork => "fork",
    Exit => "exit",
    Join => "join",
    Detach => "detach",
    Switch => "switch",
    QuantumExpired => "quantum_expired",
    MlEnter => "ml_enter",
    MlAcquired => "ml_acquired",
    MlExit => "ml_exit",
    CvWait => "cv_wait",
    CvWake => "cv_wake",
    Notify => "notify",
    Broadcast => "broadcast",
    SpuriousLockConflict => "spurious_lock_conflict",
    Yield => "yield",
    SetPriority => "set_priority",
    Sleep => "sleep",
    DaemonDonation => "daemon_donation",
    ForkBlocked => "fork_blocked",
    ForkFailed => "fork_failed",
    MetalockStall => "metalock_stall",
    SpuriousWakeup => "spurious_wakeup",
    NotifyDropped => "notify_dropped",
    NotifyDuplicated => "notify_duplicated",
    ChaosStall => "chaos_stall",
    ChaosForkFail => "chaos_fork_fail",
    JoinBlocked => "join_blocked",
}

/// Every key of a line; the reader's slot numbers. `t_us` and the two
/// strings, then the optional ids in the order a line carries them.
const KEYS: [&str; 7] = ["t_us", "kind", "detail", "tid", "other", "monitor", "cv"];
const T_US: usize = 0;
const KIND: usize = 1;
const DETAIL: usize = 2;
const FIRST_ID: usize = 3;

impl EventRecord {
    /// Reads one line of JSONL. Unknown keys are ignored and the first
    /// of a repeated key wins, as when looking fields up in a parsed
    /// object; `detail` reads as `None` unless it is a string.
    pub fn from_jsonl_line(line: &str) -> Result<EventRecord, String> {
        let mut p = Parser::new(line);
        p.skip_ws();
        if p.peek() != Some(b'{') {
            // Not an object: a syntax error, or a value with no fields.
            p.value()?;
            p.finish()?;
            return Err("record missing t_us".to_string());
        }
        let (mut t_us, mut kind, mut detail, mut ids) = (None, None, None, [None; 4]);
        // One bit per slot of `KEYS`: the key was seen (the first of a
        // repeated key wins); the id it carried was not a `u32`. A `t_us`
        // or `kind` of the wrong type just stays `None`.
        let (mut seen, mut bad_id) = (0u8, 0u8);
        p.fields(|p, key| {
            let slot = KEYS.iter().position(|k| *k == key);
            let slot = slot.filter(|slot| seen & 1 << slot == 0);
            let Some(slot) = slot else {
                return p.value().map(drop);
            };
            seen |= 1 << slot;
            match (slot, p.peek()) {
                // Strings and numbers are read without passing through a value.
                (KIND, Some(b'"')) => {
                    let tag = p.string()?;
                    kind = Some(match KIND_TAGS.iter().find(|t| **t == tag) {
                        Some(known) => Cow::Borrowed(*known),
                        None => Cow::Owned(tag.into_owned()),
                    });
                }
                (DETAIL, Some(b'"')) => detail = Some(p.string()?.into_owned()),
                (KIND | DETAIL, _) => drop(p.value()?),
                _ => {
                    let n = match p.uint() {
                        Some(n) => Some(n),
                        None => p.value()?.as_u64(),
                    };
                    if slot == T_US {
                        t_us = n;
                    } else {
                        ids[slot - FIRST_ID] = n.and_then(|n| u32::try_from(n).ok());
                        bad_id |= u8::from(ids[slot - FIRST_ID].is_none()) << slot;
                    }
                }
            }
            Ok(())
        })?;
        p.finish()?;
        let t_us = t_us.ok_or("record missing t_us")?;
        let kind = kind.ok_or("record missing kind")?;
        if bad_id != 0 {
            let slot = bad_id.trailing_zeros() as usize;
            return Err(format!("bad {} field", KEYS[slot]));
        }
        let [tid, other, monitor, cv] = ids;
        Ok(EventRecord {
            t_us,
            kind,
            tid,
            other,
            monitor,
            cv,
            detail,
        })
    }
}

/// The ids an event carries, in [`KEYS`] order: the thread it is about,
/// the other thread (fork child, switch target, wakee...), monitor, cv.
fn ids(kind: &EventKind) -> [Option<u32>; 4] {
    use EventKind::*;
    let t = |t: ThreadId| Some(t.as_u32());
    match *kind {
        Fork {
            parent, child: to, ..
        }
        | Switch {
            from: parent, to, ..
        } => [parent.and_then(t), t(to), None, None],
        Exit { tid, .. }
        | QuantumExpired { tid }
        | Yield { tid, .. }
        | SetPriority { tid, .. }
        | Sleep { tid, .. }
        | ForkBlocked { tid }
        | ForkFailed { tid }
        | ChaosStall { tid, .. }
        | ChaosForkFail { tid } => [t(tid), None, None, None],
        Join {
            joiner: tid,
            target,
        }
        | Detach { tid, target }
        | JoinBlocked {
            joiner: tid,
            target,
        } => [t(tid), t(target), None, None],
        MlEnter { tid, monitor, .. }
        | MlAcquired { tid, monitor }
        | MlExit { tid, monitor }
        | SpuriousLockConflict { tid, monitor } => [t(tid), None, Some(monitor.as_u32()), None],
        CvWait { tid, cv }
        | CvWake { tid, cv, .. }
        | Broadcast { tid, cv, .. }
        | SpuriousWakeup { tid, cv }
        | NotifyDropped { tid, cv } => [t(tid), None, None, Some(cv.as_u32())],
        Notify { tid, cv, woken } => [t(tid), woken.and_then(t), None, Some(cv.as_u32())],
        NotifyDuplicated { tid, cv, extra } => [t(tid), t(extra), None, Some(cv.as_u32())],
        DaemonDonation { target } => [None, t(target), None, None],
        MetalockStall {
            tid,
            monitor,
            holder,
        } => [t(tid), t(holder), Some(monitor.as_u32()), None],
    }
}

/// Starts a line: `t_us`, `kind` and the ids; `None` fields are omitted.
fn open_line(line: &mut String, t_us: u64, kind: &str, ids: [Option<u32>; 4]) {
    // Writing to a `String` cannot fail.
    line.push_str("{\"t_us\":");
    let _ = write_uint(line, t_us);
    line.push_str(",\"kind\":\"");
    line.push_str(kind); // A tag from `tag`: nothing to escape.
    line.push('"');
    for (key, id) in KEYS[FIRST_ID..].iter().zip(ids) {
        if let Some(id) = id {
            line.push_str(",\"");
            line.push_str(key);
            line.push_str("\":");
            let _ = write_uint(line, u64::from(id));
        }
    }
}

/// Appends the `detail` field, formatted in place through the escaper.
fn push_detail(line: &mut String, detail: std::fmt::Arguments<'_>) {
    line.push_str(",\"detail\":\"");
    let _ = Escaper(line).write_fmt(detail);
    line.push('"');
}

/// Formats one event as its JSONL object (no newline) onto `line`.
fn push_event(line: &mut String, ev: &Event) {
    use EventKind::*;
    open_line(line, ev.t.as_micros(), tag(&ev.kind), ids(&ev.kind));
    match ev.kind {
        Fork {
            priority,
            generation,
            ..
        } => push_detail(line, format_args!("prio={priority} gen={generation}")),
        Switch {
            to_priority,
            ready_for,
            ..
        } => push_detail(
            line,
            format_args!("prio={to_priority} ready_us={}", ready_for.as_micros()),
        ),
        Exit { panicked: true, .. } => push_detail(line, format_args!("panicked")),
        MlEnter {
            contended: true, ..
        } => push_detail(line, format_args!("contended")),
        CvWake { outcome, .. } => push_detail(line, format_args!("{outcome:?}")),
        Broadcast { woken, .. } => push_detail(line, format_args!("woken={woken}")),
        Yield { kind, .. } => push_detail(line, format_args!("{kind:?}")),
        SetPriority { priority, .. } => push_detail(line, format_args!("prio={priority}")),
        Sleep { until, .. } | ChaosStall { until, .. } => {
            push_detail(line, format_args!("until={}", until.as_micros()))
        }
        _ => {}
    }
    line.push('}');
}

/// Writes events as JSON Lines (one JSON object per line).
pub fn write_jsonl<'a, W: Write>(
    events: impl IntoIterator<Item = &'a Event>,
    mut w: W,
) -> std::io::Result<usize> {
    let mut line = String::new();
    let mut n = 0;
    for ev in events {
        line.clear();
        push_event(&mut line, ev);
        line.push('\n');
        w.write_all(line.as_bytes())?;
        n += 1;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr::Priority;

    fn ev(kind: EventKind) -> Event {
        Event {
            t: pcr::SimTime::from_micros(123),
            kind,
        }
    }

    #[test]
    fn every_kind_serializes() {
        let t0 = ThreadId::from_u32(0);
        let samples = vec![
            ev(EventKind::Fork {
                parent: Some(t0),
                child: ThreadId::from_u32(1),
                priority: Priority::DEFAULT,
                generation: 1,
            }),
            ev(EventKind::Exit {
                tid: t0,
                panicked: true,
            }),
            ev(EventKind::Switch {
                from: None,
                to: t0,
                to_priority: Priority::of(6),
                ready_for: pcr::micros(7),
            }),
            ev(EventKind::Yield {
                tid: t0,
                kind: pcr::YieldKind::ButNotToMe,
            }),
            ev(EventKind::DaemonDonation { target: t0 }),
        ];
        let mut buf = Vec::new();
        let n = write_jsonl(&samples, &mut buf).unwrap();
        assert_eq!(n, samples.len());
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), samples.len());
        for line in text.lines() {
            assert!(line.starts_with("{\"t_us\":123,\"kind\":\""), "{line}");
            assert!(line.ends_with('}'), "{line}");
        }
        assert!(text.contains("\"fork\""));
        assert!(text.contains("panicked"));
        assert!(text.contains("ButNotToMe"));
    }

    /// One sample per `EventKind` variant, plus every shape a variant's
    /// line can take (absent parent, each outcome, each yield kind), with
    /// the exact line it must write after `{"t_us":123,`.
    #[rustfmt::skip]
    fn samples() -> Vec<(EventKind, &'static str)> {
        use pcr::{CondId, MonitorId, SimTime, WaitOutcome, YieldKind};
        use EventKind::*;
        let [t0, tid, t3] = [0, 2, 3].map(ThreadId::from_u32);
        let (monitor, cv) = (MonitorId::from_u32(5), CondId::from_u32(9));
        let (priority, until) = (Priority::of(7), SimTime::from_micros(456));
        let ready_for = pcr::micros(8);
        vec![
            (Fork { parent: Some(t0), child: t3, priority, generation: 1 }, r#""kind":"fork","tid":0,"other":3,"detail":"prio=7 gen=1"}"#),
            (Fork { parent: None, child: t3, priority, generation: 1 }, r#""kind":"fork","other":3,"detail":"prio=7 gen=1"}"#),
            (Exit { tid, panicked: false }, r#""kind":"exit","tid":2}"#),
            (Exit { tid, panicked: true }, r#""kind":"exit","tid":2,"detail":"panicked"}"#),
            (Join { joiner: tid, target: t3 }, r#""kind":"join","tid":2,"other":3}"#),
            (Detach { tid, target: t3 }, r#""kind":"detach","tid":2,"other":3}"#),
            (Switch { from: Some(tid), to: t3, to_priority: priority, ready_for }, r#""kind":"switch","tid":2,"other":3,"detail":"prio=7 ready_us=8"}"#),
            (Switch { from: None, to: t3, to_priority: priority, ready_for }, r#""kind":"switch","other":3,"detail":"prio=7 ready_us=8"}"#),
            (QuantumExpired { tid }, r#""kind":"quantum_expired","tid":2}"#),
            (MlEnter { tid, monitor, contended: false }, r#""kind":"ml_enter","tid":2,"monitor":5}"#),
            (MlEnter { tid, monitor, contended: true }, r#""kind":"ml_enter","tid":2,"monitor":5,"detail":"contended"}"#),
            (MlAcquired { tid, monitor }, r#""kind":"ml_acquired","tid":2,"monitor":5}"#),
            (MlExit { tid, monitor }, r#""kind":"ml_exit","tid":2,"monitor":5}"#),
            (CvWait { tid, cv }, r#""kind":"cv_wait","tid":2,"cv":9}"#),
            (CvWake { tid, cv, outcome: WaitOutcome::Notified }, r#""kind":"cv_wake","tid":2,"cv":9,"detail":"Notified"}"#),
            (CvWake { tid, cv, outcome: WaitOutcome::TimedOut }, r#""kind":"cv_wake","tid":2,"cv":9,"detail":"TimedOut"}"#),
            (CvWake { tid, cv, outcome: WaitOutcome::Spurious }, r#""kind":"cv_wake","tid":2,"cv":9,"detail":"Spurious"}"#),
            (Notify { tid, cv, woken: Some(t3) }, r#""kind":"notify","tid":2,"other":3,"cv":9}"#),
            (Notify { tid, cv, woken: None }, r#""kind":"notify","tid":2,"cv":9}"#),
            (Broadcast { tid, cv, woken: 4 }, r#""kind":"broadcast","tid":2,"cv":9,"detail":"woken=4"}"#),
            (SpuriousLockConflict { tid, monitor }, r#""kind":"spurious_lock_conflict","tid":2,"monitor":5}"#),
            (Yield { tid, kind: YieldKind::Normal }, r#""kind":"yield","tid":2,"detail":"Normal"}"#),
            (Yield { tid, kind: YieldKind::ButNotToMe }, r#""kind":"yield","tid":2,"detail":"ButNotToMe"}"#),
            (Yield { tid, kind: YieldKind::Directed(t3) }, r#""kind":"yield","tid":2,"detail":"Directed(T3)"}"#),
            (SetPriority { tid, priority }, r#""kind":"set_priority","tid":2,"detail":"prio=7"}"#),
            (Sleep { tid, until }, r#""kind":"sleep","tid":2,"detail":"until=456"}"#),
            (DaemonDonation { target: t3 }, r#""kind":"daemon_donation","other":3}"#),
            (ForkBlocked { tid }, r#""kind":"fork_blocked","tid":2}"#),
            (ForkFailed { tid }, r#""kind":"fork_failed","tid":2}"#),
            (MetalockStall { tid, monitor, holder: t3 }, r#""kind":"metalock_stall","tid":2,"other":3,"monitor":5}"#),
            (SpuriousWakeup { tid, cv }, r#""kind":"spurious_wakeup","tid":2,"cv":9}"#),
            (NotifyDropped { tid, cv }, r#""kind":"notify_dropped","tid":2,"cv":9}"#),
            (NotifyDuplicated { tid, cv, extra: t3 }, r#""kind":"notify_duplicated","tid":2,"other":3,"cv":9}"#),
            (ChaosStall { tid, until }, r#""kind":"chaos_stall","tid":2,"detail":"until=456"}"#),
            (ChaosForkFail { tid }, r#""kind":"chaos_fork_fail","tid":2}"#),
            (JoinBlocked { joiner: tid, target: t3 }, r#""kind":"join_blocked","tid":2,"other":3}"#),
        ]
    }

    #[test]
    fn each_kind_writes_its_literal_line() {
        let samples = samples();
        let events: Vec<Event> = samples.iter().map(|&(kind, _)| ev(kind)).collect();
        let mut buf = Vec::new();
        write_jsonl(&events, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut kinds = std::collections::BTreeSet::new();
        for (line, (kind, tail)) in text.lines().zip(&samples) {
            assert_eq!(line, format!("{{\"t_us\":123,{tail}"));
            // Every tag the writer emits is in the table the reader
            // interns against, and every number reads back.
            let back = EventRecord::from_jsonl_line(line).unwrap();
            assert!(matches!(back.kind, Cow::Borrowed(_)), "{line}");
            assert_eq!((back.t_us, &*back.kind), (123, tag(kind)), "{line}");
            let back_ids = [back.tid, back.other, back.monitor, back.cv];
            assert_eq!(back_ids, ids(kind), "{line}");
            kinds.insert(back.kind);
        }
        assert_eq!(text.lines().count(), samples.len());
        let table: std::collections::BTreeSet<_> =
            KIND_TAGS.iter().map(|t| Cow::Borrowed(*t)).collect();
        assert_eq!(kinds, table, "one sample per EventKind variant");
    }

    #[test]
    fn the_first_of_a_repeated_key_wins_key_by_key() {
        let line = concat!(
            r#"{"cv":4,"detail":"first","t_us":1,"monitor":3,"kind":"fork","other":2,"tid":1,"#,
            r#""tid":"x","kind":7,"t_us":-1,"cv":null,"detail":8,"other":4294967296,"monitor":1.5}"#
        );
        let first = EventRecord {
            t_us: 1,
            kind: Cow::Borrowed("fork"),
            tid: Some(1),
            other: Some(2),
            monitor: Some(3),
            cv: Some(4),
            detail: Some("first".to_string()),
        };
        assert_eq!(EventRecord::from_jsonl_line(line), Ok(first));
        // And the other way round, a wrong-typed first is not repaired by
        // a good second: `t_us` is reported before `kind`, then the ids.
        let line = concat!(
            r#"{"cv":"x","t_us":-1,"kind":7,"tid":null,"#,
            r#""tid":1,"kind":"fork","t_us":1,"cv":4}"#
        );
        let from = |line: &str| EventRecord::from_jsonl_line(line).unwrap_err();
        assert_eq!(from(line), "record missing t_us");
        assert_eq!(from(&line.replacen("-1", "1", 1)), "record missing kind");
        assert_eq!(
            from(&line.replacen("-1", "1", 1).replacen('7', "\"x\"", 1)),
            "bad tid field"
        );
    }

    #[test]
    fn jsonl_round_trips_arbitrary_detail_payloads() {
        // Details with quotes, backslashes, newlines, and control bytes
        // must survive write → parse unchanged (the Json escaper is the
        // only thing between them and the wire).
        let nasty = "quote=\" backslash=\\ newline=\n tab=\t nul=\u{1} unicode=ü";
        let record = EventRecord {
            t_us: 42,
            kind: Cow::Borrowed("switch"),
            tid: Some(1),
            other: Some(2),
            monitor: None,
            cv: None,
            detail: Some(nasty.to_string()),
        };
        let mut line = String::new();
        let ids = [record.tid, record.other, record.monitor, record.cv];
        open_line(&mut line, record.t_us, &record.kind, ids);
        push_detail(&mut line, format_args!("{nasty}"));
        line.push('}');
        let back = EventRecord::from_jsonl_line(&line).unwrap();
        assert_eq!(back, record);
        assert!(matches!(back.kind, Cow::Borrowed(_)), "known kinds intern");
    }

    #[test]
    fn end_to_end_jsonl_from_a_run() {
        use pcr::{millis, RunLimit, Sim, SimConfig, VecSink};
        let mut sim = Sim::new(SimConfig::default());
        sim.set_sink(Box::new(VecSink::default()));
        let _ = sim.fork_root("t", Priority::DEFAULT, |ctx| ctx.work(millis(1)));
        sim.run(RunLimit::ToCompletion);
        let sink = sim.take_sink().unwrap();
        let events = sink
            .into_any()
            .downcast::<VecSink>()
            .expect("vec sink")
            .events;
        let mut buf = Vec::new();
        let n = write_jsonl(&events, &mut buf).unwrap();
        assert!(n >= 3); // fork, switch, exit at least
    }
}
