//! Comparing two runs of the simulator.
//!
//! The runtime's determinism guarantee (same seed ⇒ same event stream)
//! becomes a debugging instrument once you can *diff* runs: export two
//! JSONL traces with `repro trace --jsonl`, then `repro diff a.jsonl
//! b.jsonl` reports where they diverge. A chaos run diffed against a
//! clean run of the same seed shows exactly the injected divergences —
//! the fault kinds appear in the per-kind deltas, and the first
//! divergence pinpoints the earliest injected event.

use crate::export::EventRecord;
use std::collections::BTreeMap;

/// Event kinds that only fault injection produces; the diff names these
/// explicitly as injected fault sites.
pub const CHAOS_KINDS: [&str; 5] = [
    "spurious_wakeup",
    "notify_dropped",
    "notify_duplicated",
    "chaos_stall",
    "chaos_fork_fail",
];

/// Maps a [`pcr::FaultSiteKind`] tag (as serialized in a stored fault
/// schedule) to the trace event kind its injection emits, so a
/// schedule's decisions can be correlated against a diff's named fault
/// sites. Stall injections map via the `"stall"` pseudo-tag. Returns
/// `None` for tags that leave no dedicated event (timer jitter only
/// shifts existing timer events).
pub fn chaos_event_for_fault(tag: &str) -> Option<&'static str> {
    match tag {
        "spurious_wakeup" => Some("spurious_wakeup"),
        "drop_notify" => Some("notify_dropped"),
        "duplicate_notify" => Some("notify_duplicated"),
        "fork_fail" => Some("chaos_fork_fail"),
        "priority_change" => Some("set_priority"),
        "stall" => Some("chaos_stall"),
        _ => None,
    }
}

/// Parses a JSONL trace (one [`EventRecord`] per line, as written
/// by [`crate::write_jsonl`]). Blank lines are skipped; an error names
/// the 1-based line it is on.
pub fn parse_jsonl(text: &str) -> Result<Vec<EventRecord>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| EventRecord::from_jsonl_line(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// Per-event-kind occurrence counts in the two runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KindDelta {
    /// The kind tag ("switch", "spurious_wakeup", ...).
    pub kind: String,
    /// Occurrences in run A.
    pub a: u64,
    /// Occurrences in run B.
    pub b: u64,
}

impl KindDelta {
    /// Relative change from A to B, in percent (infinite when A is 0).
    pub fn pct(&self) -> f64 {
        if self.a == self.b {
            0.0
        } else if self.a == 0 {
            f64::INFINITY
        } else {
            (self.b as f64 - self.a as f64) * 100.0 / self.a as f64
        }
    }

    /// True if this kind exists in exactly one of the runs.
    pub fn one_sided(&self) -> bool {
        (self.a == 0) != (self.b == 0)
    }
}

/// The first position where the two event sequences disagree.
#[derive(Clone, Debug, PartialEq)]
pub struct Divergence {
    /// Index into both event sequences.
    pub index: usize,
    /// The record run A has there (`None` if A ended).
    pub a: Option<EventRecord>,
    /// The record run B has there (`None` if B ended).
    pub b: Option<EventRecord>,
}

/// Everything [`diff_runs`] measures.
#[derive(Clone, Debug, PartialEq)]
pub struct DiffReport {
    /// Events in run A.
    pub a_events: usize,
    /// Events in run B.
    pub b_events: usize,
    /// Kinds whose counts differ beyond the threshold, biggest relative
    /// change first. One-sided kinds (present in exactly one run) are
    /// always reported, whatever the threshold.
    pub kind_deltas: Vec<KindDelta>,
    /// Injected-fault kinds present in exactly one run, with their first
    /// occurrence — the "fault sites" a chaos-vs-clean diff must name.
    pub fault_sites: Vec<(String, EventRecord)>,
    /// Mean wakeup-to-run latency (µs) per run, from switch records.
    pub mean_latency_us: (f64, f64),
    /// Contended monitor-enter counts per run.
    pub contended_enters: (u64, u64),
    /// Where the event sequences first disagree, if they do.
    pub first_divergence: Option<Divergence>,
    /// The threshold (percent) used for count deltas.
    pub threshold_pct: f64,
}

impl DiffReport {
    /// True when the runs are identical for diff purposes: same event
    /// sequence, hence no deltas of any kind.
    pub fn is_clean(&self) -> bool {
        self.first_divergence.is_none() && self.kind_deltas.is_empty()
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "run A: {} events; run B: {} events (threshold {}%)",
            self.a_events, self.b_events, self.threshold_pct
        );
        if self.is_clean() {
            let _ = writeln!(out, "runs are identical: no deltas");
            return out;
        }
        if let Some(d) = &self.first_divergence {
            let fmt = |r: &Option<EventRecord>| match r {
                Some(r) => {
                    let mut s = format!("t={}us kind={}", r.t_us, r.kind);
                    if let Some(d) = &r.detail {
                        s.push_str(&format!(" ({d})"));
                    }
                    s
                }
                None => "<end of run>".to_string(),
            };
            let _ = writeln!(
                out,
                "first divergence at event #{}: A {} | B {}",
                d.index,
                fmt(&d.a),
                fmt(&d.b)
            );
        }
        for (kind, first) in &self.fault_sites {
            let mut site = format!("t={}us", first.t_us);
            if let Some(tid) = first.tid {
                site.push_str(&format!(" tid={tid}"));
            }
            if let Some(cv) = first.cv {
                site.push_str(&format!(" cv={cv}"));
            }
            if let Some(m) = first.monitor {
                site.push_str(&format!(" monitor={m}"));
            }
            let _ = writeln!(out, "injected fault site: {kind} first at {site}");
        }
        for d in &self.kind_deltas {
            let pct = d.pct();
            let pct = if pct.is_finite() {
                format!("{pct:+.1}%")
            } else {
                "new".to_string()
            };
            let _ = writeln!(out, "  {:<24} {:>8} -> {:<8} ({pct})", d.kind, d.a, d.b);
        }
        let (la, lb) = self.mean_latency_us;
        let _ = writeln!(out, "mean wakeup-to-run latency: {la:.1}us -> {lb:.1}us");
        let (ca, cb) = self.contended_enters;
        let _ = writeln!(out, "contended monitor enters:   {ca} -> {cb}");
        out
    }
}

fn ready_us(r: &EventRecord) -> Option<u64> {
    let detail = r.detail.as_deref()?;
    let at = detail.find("ready_us=")?;
    let rest = &detail[at + "ready_us=".len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One walk over a run: occurrences of each kind, the mean `ready_us`
/// (µs) of its switch records, and how many `ml_enter`s were contended.
fn summarize(events: &[EventRecord]) -> (BTreeMap<&str, u64>, f64, u64) {
    // A run has a few dozen kinds at most: they are tallied in a list
    // searched newest first, and by address before by text, since the
    // tags this build writes are interned. The map is built once.
    let mut tally: Vec<(&str, u64)> = Vec::new();
    let (mut waits, mut waited_us, mut contended) = (0u64, 0u64, 0u64);
    for e in events {
        let kind: &str = &e.kind;
        let found = tally.iter().rposition(|(k, _)| std::ptr::eq(*k, kind));
        match found.or_else(|| tally.iter().rposition(|(k, _)| *k == kind)) {
            Some(i) => tally[i].1 += 1,
            None => tally.push((kind, 1)),
        }
        if kind == "switch" {
            if let Some(us) = ready_us(e) {
                waits += 1;
                waited_us += us;
            }
        } else if kind == "ml_enter" && e.detail.as_deref() == Some("contended") {
            contended += 1;
        }
    }
    let mean_us = waited_us as f64 / waits.max(1) as f64;
    (tally.into_iter().collect(), mean_us, contended)
}

/// Aligns two runs by event sequence and reports every difference:
/// per-kind count deltas beyond `threshold_pct`, injected-fault sites,
/// rate/latency/contention changes, and the first sequence divergence.
///
/// Two identical-seed clean runs produce a report whose
/// [`DiffReport::is_clean`] is true; a chaos run diffed against a clean
/// run names each injected fault kind in [`DiffReport::fault_sites`].
///
/// ```
/// use trace::diff::{diff_runs, parse_jsonl};
///
/// let clean = r#"{"t_us":10,"kind":"switch","other":1,"detail":"prio=4 ready_us=3"}"#;
/// let chaos = r#"{"t_us":10,"kind":"switch","other":1,"detail":"prio=4 ready_us=3"}
/// {"t_us":20,"kind":"spurious_wakeup","tid":2,"cv":0}"#;
/// let a = parse_jsonl(clean).unwrap();
/// let b = parse_jsonl(chaos).unwrap();
///
/// let report = diff_runs(&a, &a, 1.0);
/// assert!(report.is_clean());
///
/// let report = diff_runs(&a, &b, 1.0);
/// assert!(!report.is_clean());
/// assert_eq!(report.fault_sites[0].0, "spurious_wakeup");
/// ```
pub fn diff_runs(a: &[EventRecord], b: &[EventRecord], threshold_pct: f64) -> DiffReport {
    let ((ca, mean_a, contended_a), (cb, mean_b, contended_b)) = (summarize(a), summarize(b));
    let mut kinds: Vec<&str> = ca.keys().chain(cb.keys()).copied().collect();
    kinds.sort_unstable();
    kinds.dedup();
    let mut kind_deltas: Vec<KindDelta> = kinds
        .into_iter()
        .map(|k| KindDelta {
            kind: k.to_string(),
            a: ca.get(k).copied().unwrap_or(0),
            b: cb.get(k).copied().unwrap_or(0),
        })
        .filter(|d| d.one_sided() || d.pct().abs() > threshold_pct)
        .collect();
    kind_deltas.sort_by(|x, y| {
        y.pct()
            .abs()
            .total_cmp(&x.pct().abs())
            .then_with(|| x.kind.cmp(&y.kind))
    });

    let fault_sites: Vec<(String, EventRecord)> = CHAOS_KINDS
        .iter()
        .filter(|&&k| (ca.contains_key(k)) != (cb.contains_key(k)))
        .filter_map(|&k| {
            a.iter()
                .chain(b.iter())
                .find(|e| e.kind == k)
                .map(|e| (k.to_string(), e.clone()))
        })
        .collect();

    let first_divergence = (0..a.len().max(b.len()))
        .find(|&i| a.get(i) != b.get(i))
        .map(|index| Divergence {
            index,
            a: a.get(index).cloned(),
            b: b.get(index).cloned(),
        });

    DiffReport {
        a_events: a.len(),
        b_events: b.len(),
        kind_deltas,
        fault_sites,
        mean_latency_us: (mean_a, mean_b),
        contended_enters: (contended_a, contended_b),
        first_divergence,
        threshold_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn rec(t: u64, kind: &str) -> EventRecord {
        EventRecord {
            t_us: t,
            kind: kind.to_string().into(),
            tid: Some(1),
            other: None,
            monitor: None,
            cv: None,
            detail: None,
        }
    }

    #[test]
    fn identical_runs_are_clean() {
        let a = vec![rec(1, "fork"), rec(2, "switch")];
        let r = diff_runs(&a, &a.clone(), 5.0);
        assert!(r.is_clean());
        assert!(r.render().contains("identical"));
    }

    #[test]
    fn count_threshold_filters_small_deltas() {
        let a: Vec<_> = (0..100).map(|i| rec(i, "switch")).collect();
        let mut b = a.clone();
        b.push(rec(200, "switch")); // +1%: below a 5% threshold.
        let r = diff_runs(&a, &b, 5.0);
        assert!(r.kind_deltas.is_empty());
        // The sequences still diverge (B has an extra tail event).
        assert_eq!(r.first_divergence.as_ref().unwrap().index, 100);
        assert!(!r.is_clean());
        let r = diff_runs(&a, &b, 0.5);
        assert_eq!(r.kind_deltas.len(), 1);
        assert_eq!((r.kind_deltas[0].a, r.kind_deltas[0].b), (100, 101));
    }

    #[test]
    fn chaos_kinds_are_named_as_fault_sites() {
        let a = vec![rec(1, "switch")];
        let mut b = a.clone();
        let mut fault = rec(7, "notify_dropped");
        fault.cv = Some(3);
        b.push(fault);
        let r = diff_runs(&a, &b, 50.0);
        assert_eq!(r.fault_sites.len(), 1);
        assert_eq!(r.fault_sites[0].0, "notify_dropped");
        assert_eq!(r.fault_sites[0].1.t_us, 7);
        let text = r.render();
        assert!(
            text.contains("injected fault site: notify_dropped first at t=7us tid=1 cv=3"),
            "{text}"
        );
    }

    #[test]
    fn latency_and_contention_are_compared() {
        let mut sa = rec(1, "switch");
        sa.detail = Some("prio=4 ready_us=10".to_string());
        let mut sb = rec(1, "switch");
        sb.detail = Some("prio=4 ready_us=30".to_string());
        let mut ma = rec(2, "ml_enter");
        ma.detail = Some("contended".to_string());
        let a = vec![sa, ma];
        let b = vec![sb];
        let r = diff_runs(&a, &b, 1.0);
        assert_eq!(r.mean_latency_us, (10.0, 30.0));
        assert_eq!(r.contended_enters, (1, 0));
    }

    #[test]
    fn one_walk_summarises_a_run_as_four_did() {
        // Interned tags (as `parse_jsonl` yields them), the same tags
        // owned, and a kind from the future, interleaved.
        let mut rng = pcr::SplitMix64::new(0xD1FF);
        let mut run = |n: u64| -> Vec<EventRecord> {
            (0..n)
                .map(|t| {
                    let tag = ["switch", "ml_enter", "notify_dropped", "exit"]
                        [rng.next_below(4) as usize];
                    let mut r = rec(t, tag);
                    r.kind = match rng.next_below(3) {
                        0 => Cow::Borrowed(tag),
                        1 => Cow::Owned(tag.to_string()),
                        _ => Cow::Owned("from_the_future".to_string()),
                    };
                    r.detail = match rng.next_below(4) {
                        0 => Some(format!("prio=4 ready_us={}", rng.next_below(500))),
                        1 => Some("contended".to_string()),
                        2 => Some("prio=4".to_string()),
                        _ => None,
                    };
                    r
                })
                .collect()
        };
        let (a, b) = (run(400), run(300));
        let report = diff_runs(&a, &b, 0.0);

        let counts = |events: &[EventRecord]| {
            let mut m = BTreeMap::new();
            for e in events {
                *m.entry(e.kind.to_string()).or_insert(0u64) += 1;
            }
            m
        };
        let mean_latency = |events: &[EventRecord]| {
            let is_switch = |e: &&EventRecord| e.kind == "switch";
            let waits: Vec<u64> = events
                .iter()
                .filter(is_switch)
                .filter_map(ready_us)
                .collect();
            waits.iter().sum::<u64>() as f64 / waits.len() as f64
        };
        let contended = |events: &[EventRecord]| {
            let hit =
                |e: &&EventRecord| e.kind == "ml_enter" && e.detail.as_deref() == Some("contended");
            events.iter().filter(hit).count() as u64
        };
        let (ca, cb) = (counts(&a), counts(&b));
        assert_eq!(ca.len(), 5, "every kind occurs");
        assert_eq!(report.kind_deltas.len(), 5);
        for d in &report.kind_deltas {
            assert_eq!((d.a, d.b), (ca[&d.kind], cb[&d.kind]), "{}", d.kind);
        }
        assert_eq!(report.mean_latency_us, (mean_latency(&a), mean_latency(&b)));
        assert_eq!(report.contended_enters, (contended(&a), contended(&b)));
    }

    #[test]
    fn parse_jsonl_reports_the_bad_line() {
        let err = parse_jsonl("{\"t_us\":1,\"kind\":\"fork\"}\nnot json").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    #[rustfmt::skip] // A table of literal lines.
    fn parse_jsonl_reads_a_line_as_a_field_lookup_would() {
        let first = |text: &str| parse_jsonl(text).unwrap().remove(0);
        // Unknown keys are ignored and the first of a repeated key wins.
        let r = first(r#"{"t_us":1,"x":{"y":[1]},"kind":"fork","tid":2,"tid":"x","kind":7}"#);
        assert_eq!((r.t_us, &*r.kind, r.tid), (1, "fork", Some(2)));
        // A kind this build does not emit is kept; a non-string detail is not.
        let r = first(r#"{"t_us":1,"kind":"from_the_future","detail":7,"detail":"late"}"#);
        assert_eq!((&*r.kind, r.detail), ("from_the_future", None));
        // Blank lines are skipped, and still counted.
        assert_eq!(parse_jsonl("\n  \n{\"t_us\":1,\"kind\":\"fork\"}\n\n").unwrap().len(), 1);
        for (text, message) in [
            (r#"{"t_us":1,"kind":"fork","tid":"x"}"#, "line 1: bad tid field"),
            (r#"{"t_us":1,"kind":"fork","tid":4294967296}"#, "line 1: bad tid field"),
            (r#"{"t_us":1,"kind":"fork","cv":null}"#, "line 1: bad cv field"),
            (r#"{"kind":"fork","tid":"x"}"#, "line 1: record missing t_us"),
            (r#"{"t_us":-1,"kind":"fork"}"#, "line 1: record missing t_us"),
            (r#"{"t_us":1,"tid":"x"}"#, "line 1: record missing kind"),
            (r#"{"t_us":1,"kind":null}"#, "line 1: record missing kind"),
            ("[1]", "line 1: record missing t_us"),
            ("\n\n{\"t_us\":1,\"kind\":\"fork\"} x", "line 3: trailing data at byte 25"),
            (r#"{"t_us":1,"kind":"fork",}"#, "line 1: expected '\"' at byte 24"),
            (r#"{"t_us":1 "kind":"fork"}"#, "line 1: expected ',' or '}' at byte 10"),
        ] {
            assert_eq!(parse_jsonl(text).unwrap_err(), message, "{text}");
        }
    }

    #[test]
    fn fault_tags_map_onto_chaos_event_kinds() {
        // Every schedule decision kind except timer jitter (which only
        // shifts existing timer events) maps to a trace event kind.
        // All but priority_change map to a chaos-exclusive CHAOS_KINDS
        // entry; PCT priority changes ride the ordinary set_priority
        // event, which ctx.set_priority emits too.
        for kind in pcr::FaultSiteKind::ALL {
            let mapped = chaos_event_for_fault(kind.tag());
            match kind {
                pcr::FaultSiteKind::TimerJitter => assert_eq!(mapped, None),
                pcr::FaultSiteKind::PriorityChange => {
                    assert_eq!(mapped, Some("set_priority"));
                }
                _ => {
                    let event = mapped.unwrap_or_else(|| panic!("{} unmapped", kind.tag()));
                    assert!(CHAOS_KINDS.contains(&event), "{event} not a chaos kind");
                }
            }
        }
        assert_eq!(chaos_event_for_fault("stall"), Some("chaos_stall"));
        assert_eq!(chaos_event_for_fault("bogus"), None);
    }
}
