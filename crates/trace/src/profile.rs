//! The §6.1 contention profile: per-monitor hold and wait times.
//!
//! Table 2 reports lock contention as a single fraction, but the story
//! the authors actually tell in §6.1 is about *which* monitor was hot
//! and *why*: "a single monitor lock protecting the free list" showed up
//! only once they could attribute contended entries, hold times, and
//! wait times to individual locks. [`ContentionProfiler`] rebuilds that
//! table from the event stream: it counts entries and contended entries,
//! and adds up the hold and lock-wait spans the crate's one walker
//! (`spans.rs`) closes.

use std::sync::Arc;

use pcr::{Event, EventKind, SimDuration, TraceSink};

use crate::spans::{slot, SpanKind, Spans};

/// Aggregated lock statistics for one monitor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MonitorProfile {
    /// Total entries.
    pub enters: u64,
    /// Entries that found the mutex held (the §6.1 conflict count).
    pub contended: u64,
    /// Summed time the mutex was held.
    pub total_hold: SimDuration,
    /// Longest single hold.
    pub max_hold: SimDuration,
    /// Summed time entries spent queued for the mutex.
    pub total_wait: SimDuration,
    /// Longest single queued wait.
    pub max_wait: SimDuration,
}

impl MonitorProfile {
    /// Fraction of entries that were contended.
    pub fn contention_fraction(&self) -> f64 {
        if self.enters == 0 {
            0.0
        } else {
            self.contended as f64 / self.enters as f64
        }
    }

    /// Mean hold time per entry, if any entry completed.
    pub fn mean_hold(&self) -> Option<SimDuration> {
        self.total_hold
            .as_micros()
            .checked_div(self.enters)
            .map(SimDuration::from_micros)
    }

    /// Mean queued wait per *contended* entry.
    pub fn mean_wait(&self) -> Option<SimDuration> {
        self.total_wait
            .as_micros()
            .checked_div(self.contended)
            .map(SimDuration::from_micros)
    }
}

/// One named row of the finished profile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MonitorProfileRow {
    /// Raw monitor id.
    pub monitor: u32,
    /// The monitor's name (`m<id>` if unknown), shared with the
    /// simulator that registered it.
    pub name: Arc<str>,
    /// Its counters.
    pub profile: MonitorProfile,
}

/// A [`TraceSink`] that attributes hold and wait time to monitors.
/// `Default` names monitors `m<id>`; a hold or wait still open when the
/// stream stops is not counted.
#[derive(Debug, Default)]
pub struct ContentionProfiler {
    /// Indexed by raw monitor id; `None` until its first entry or span.
    per_monitor: Vec<Option<MonitorProfile>>,
    /// Monitor names, indexed by raw id.
    names: Vec<Arc<str>>,
    /// The holds and lock waits still open.
    spans: Spans,
}

impl ContentionProfiler {
    /// An empty profiler primed with `sim`'s monitor names (shared, not
    /// copied), indexed by raw id.
    pub fn for_sim(sim: &pcr::Sim) -> Self {
        ContentionProfiler {
            names: sim.monitor_names(),
            ..Self::default()
        }
    }

    /// Finished rows, hottest first (most contended entries, then most
    /// total wait, then id); monitors never entered are omitted.
    pub fn rows(&self) -> Vec<MonitorProfileRow> {
        let mut rows: Vec<MonitorProfileRow> = self
            .per_monitor
            .iter()
            .enumerate()
            .filter_map(|(i, p)| Some((i as u32, (*p)?)))
            .map(|(monitor, profile)| MonitorProfileRow {
                monitor,
                name: self
                    .names
                    .get(monitor as usize)
                    .cloned()
                    .unwrap_or_else(|| format!("m{monitor}").into()),
                profile,
            })
            .collect();
        rows.sort_by_key(|r| {
            (
                std::cmp::Reverse(r.profile.contended),
                std::cmp::Reverse(r.profile.total_wait),
                r.monitor,
            )
        });
        rows
    }
}

impl TraceSink for ContentionProfiler {
    fn record(&mut self, ev: &Event) {
        let per_monitor = &mut self.per_monitor;
        if let EventKind::MlEnter {
            monitor, contended, ..
        } = ev.kind
        {
            let p = slot(per_monitor, monitor.as_u32()).get_or_insert_default();
            p.enters += 1;
            p.contended += u64::from(contended);
        }
        self.spans.record(ev, |kind, start, end| {
            let (monitor, hold) = match kind {
                SpanKind::Hold { monitor, .. } => (monitor, true),
                SpanKind::LockWait { monitor, .. } => (monitor, false),
                SpanKind::CvWait { .. } => return,
            };
            let p = slot(per_monitor, monitor).get_or_insert_default();
            let (total, max) = if hold {
                (&mut p.total_hold, &mut p.max_hold)
            } else {
                (&mut p.total_wait, &mut p.max_wait)
            };
            let took = end.saturating_since(start);
            *total += took;
            *max = (*max).max(took);
        });
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr::{millis, secs, Priority, RunLimit, Sim, SimConfig};

    /// One monitor's counters as `rows()` reports them; all zero if it
    /// has no row.
    fn row_of(prof: &ContentionProfiler, monitor: u32) -> MonitorProfile {
        let row = prof.rows().into_iter().find(|r| r.monitor == monitor);
        row.map(|r| r.profile).unwrap_or_default()
    }

    fn contended_world() -> (Sim, u32, u32) {
        let mut sim = Sim::new(SimConfig::default());
        let hot = sim.monitor("hot", 0u32);
        let cold = sim.monitor("cold", 0u32);
        let (hot_id, cold_id) = (hot.id().as_u32(), cold.id().as_u32());
        sim.set_sink(Box::new(ContentionProfiler::for_sim(&sim)));
        for i in 0..2 {
            let hot = hot.clone();
            let cold = cold.clone();
            let _ = sim.fork_root(&format!("t{i}"), Priority::DEFAULT, move |ctx| {
                for _ in 0..5 {
                    let mut g = ctx.enter(&hot);
                    ctx.sleep_precise(millis(2)); // threadlint: allow(blocking-call-in-monitor) -- hold across a block.
                    g.with_mut(|v| *v += 1);
                    drop(g);
                    let mut c = ctx.enter(&cold);
                    c.with_mut(|v| *v += 1);
                }
            });
        }
        sim.run(RunLimit::For(secs(5)));
        (sim, hot_id, cold_id)
    }

    #[test]
    fn profiles_hold_and_wait_time() {
        let (mut sim, hot_id, cold_id) = contended_world();
        let prof = crate::take_collector::<ContentionProfiler>(&mut sim).unwrap();
        let hot = row_of(&prof, hot_id);
        assert!(hot.contended > 0, "hot monitor never contended");
        // Each hold spans the 2 ms sleep, so hold and wait time are both
        // in the milliseconds.
        assert!(hot.total_hold >= millis(2) * hot.enters);
        assert!(hot.max_hold >= millis(2));
        assert!(hot.total_wait >= millis(1), "wait = {:?}", hot.total_wait);
        assert!(hot.max_wait >= millis(1));
        assert!(hot.mean_wait().unwrap() >= millis(1));
        let cold = row_of(&prof, cold_id);
        assert_eq!(cold.contended, 0);
        assert_eq!(cold.total_wait, SimDuration::ZERO);
        assert!(cold.total_hold < millis(1), "cold held too long");
        // Rows come hottest-first with real names.
        let rows = prof.rows();
        assert_eq!(&*rows[0].name, "hot");
        assert!(rows[0].profile.contention_fraction() > 0.0);
    }

    /// A WAIT's own `MlExit` ends the hold on the CV's monitor, and an
    /// outer monitor the waiter keeps stays held across the wait; the
    /// Chrome export's `held by` spans add up to the same totals.
    #[test]
    fn cv_wait_closes_the_hold() {
        let mut sim = Sim::new(SimConfig::default());
        let m = sim.monitor("m", 0u32);
        let cv = sim.condition(&m, "cv", Some(millis(10)));
        let outer = sim.monitor("outer", 0u32);
        let inner = sim.monitor("inner", 0u32);
        let inner_cv = sim.condition(&inner, "inner-cv", Some(millis(10)));
        let ids = [&m, &outer, &inner].map(|mon| mon.id().as_u32());
        let _ = sim.fork_root("waiter", Priority::DEFAULT, move |ctx| {
            let mut g = ctx.enter(&m);
            let _ = g.wait(&cv); // Times out after 10 ms.
        });
        let _ = sim.fork_root("nested", Priority::DEFAULT, move |ctx| {
            let _o = ctx.enter(&outer);
            let mut g = ctx.enter(&inner);
            // threadlint: allow(wait-with-outer-monitor, timeout-no-notify) -- the case under test.
            let _ = g.wait(&inner_cv);
        });
        let (_, rec) = crate::Recording::run(&mut sim, RunLimit::ToCompletion);
        let mut prof = ContentionProfiler::default();
        rec.events.iter().for_each(|ev| prof.record(ev));
        let [m_hold, outer_hold, inner_hold] = ids.map(|id| row_of(&prof, id).total_hold);
        // The 10 ms spent waiting must NOT count as hold time...
        assert!(m_hold < millis(2), "hold = {m_hold:?}");
        assert!(inner_hold < millis(2), "hold = {inner_hold:?}");
        assert_eq!(row_of(&prof, ids[0]).contended, 0);
        // ...except on the monitor the waiter never let go of.
        assert!(outer_hold >= millis(10), "hold = {outer_hold:?}");

        let doc = crate::chrome_trace(&rec.events, &rec.labels);
        let mut chrome_hold = [0; 3];
        for e in doc.arr_at("traceEvents", Ok).unwrap() {
            let held = e.str_at("name").is_ok_and(|n| n.starts_with("held by "));
            let track = e.u64_at("tid").unwrap_or(u64::MAX);
            if let Some(i) = ids.iter().position(|&id| held && u64::from(id) == track) {
                chrome_hold[i] += e.u64_at("dur").unwrap();
            }
        }
        let profiled = [m_hold, outer_hold, inner_hold].map(|d| d.as_micros());
        assert_eq!(chrome_hold, profiled);
    }

    #[test]
    fn empty_profiler_is_sane() {
        let p = ContentionProfiler::default();
        assert!(p.rows().is_empty());
        assert_eq!(row_of(&p, 3).mean_hold(), None);
        assert_eq!(row_of(&p, 3).mean_wait(), None);
    }
}
