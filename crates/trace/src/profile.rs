//! The §6.1 contention profile: per-monitor hold and wait times.
//!
//! Table 2 reports lock contention as a single fraction, but the story
//! the authors actually tell in §6.1 is about *which* monitor was hot
//! and *why*: "a single monitor lock protecting the free list" showed up
//! only once they could attribute contended entries, hold times, and
//! wait times to individual locks. [`ContentionProfiler`] rebuilds that
//! table from the event stream:
//!
//! * a **hold** runs from an uncontended [`pcr::EventKind::MlEnter`] (or
//!   an [`pcr::EventKind::MlAcquired`] grant) to the matching
//!   [`pcr::EventKind::MlExit`] — or to a [`pcr::EventKind::CvWait`],
//!   which releases the monitor;
//! * a **wait** runs from a contended `MlEnter` to the `MlAcquired`
//!   grant.

use std::sync::Arc;

use pcr::{Event, EventKind, SimDuration, SimTime, TraceSink};

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
///
/// Construct with [`ContentionProfiler::for_sim`] when the simulator is
/// at hand, so `CvWait` events — which release the condition's monitor
/// without an `MlExit` — close the right hold. Without that mapping
/// ([`ContentionProfiler::new`], over a bare stream) the profiler falls
/// back to closing the thread's only open hold, which is exact
/// unless a thread nests monitors *and* waits on the inner one.
#[derive(Debug, Default)]
pub struct ContentionProfiler {
    /// Indexed by raw monitor id; `None` until the monitor's first event.
    per_monitor: Vec<Option<MonitorProfile>>,
    /// Monitor names, indexed by raw id.
    names: Vec<Arc<str>>,
    /// Condition-variable → monitor mapping, indexed by raw cv id.
    cv_monitor: Vec<u32>,
    /// Each thread's open holds, indexed by raw thread id. A thread
    /// nests a few monitors at most, so a scan beats a map.
    open_holds: Vec<Open>,
    /// Each thread's open queued waits, likewise.
    open_waits: Vec<Open>,
}

/// One thread's open intervals: `(monitor, start)` each.
type Open = Vec<(u32, SimTime)>;

/// Opens (or restarts) `monitor`'s interval for `tid`.
fn put(open: &mut Vec<Open>, tid: u32, monitor: u32, t: SimTime) {
    let list = slot(open, tid);
    match list.iter_mut().find(|(m, _)| *m == monitor) {
        Some(interval) => interval.1 = t,
        None => list.push((monitor, t)),
    }
}

/// Closes `monitor`'s interval for `tid`, returning its start.
fn take(open: &mut Vec<Open>, tid: u32, monitor: u32) -> Option<SimTime> {
    let list = slot(open, tid);
    let i = list.iter().position(|(m, _)| *m == monitor)?;
    Some(list.swap_remove(i).1)
}

/// `v[i]`, growing `v` with defaults to reach it.
fn slot<T: Default>(v: &mut Vec<T>, i: u32) -> &mut T {
    let i = i as usize;
    if i >= v.len() {
        v.resize_with(i + 1, T::default);
    }
    &mut v[i]
}

impl ContentionProfiler {
    /// Creates an empty profiler with no topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty profiler primed with `sim`'s monitor names (shared, not
    /// copied) and its cv → monitor mapping, both indexed by raw id.
    pub fn for_sim(sim: &pcr::Sim) -> Self {
        let cvs = sim.condition_info();
        ContentionProfiler {
            names: sim.monitor_names(),
            cv_monitor: cvs.iter().map(|(_, m)| m.as_u32()).collect(),
            ..Self::default()
        }
    }

    /// The profile of one monitor by raw id.
    pub fn for_monitor(&self, monitor: u32) -> MonitorProfile {
        let known = self.per_monitor.get(monitor as usize).copied().flatten();
        known.unwrap_or_default()
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

    /// Total entries across all monitors.
    pub fn total_enters(&self) -> u64 {
        self.per_monitor.iter().flatten().map(|p| p.enters).sum()
    }

    /// Total contended entries across all monitors.
    pub fn total_contended(&self) -> u64 {
        self.per_monitor.iter().flatten().map(|p| p.contended).sum()
    }

    fn profile(&mut self, monitor: u32) -> &mut MonitorProfile {
        slot(&mut self.per_monitor, monitor).get_or_insert_default()
    }

    fn close_hold(&mut self, tid: u32, monitor: u32, t: SimTime) {
        if let Some(start) = take(&mut self.open_holds, tid, monitor) {
            let held = t.saturating_since(start);
            let p = self.profile(monitor);
            p.total_hold += held;
            if held > p.max_hold {
                p.max_hold = held;
            }
        }
    }

    fn record_event(&mut self, ev: &Event) {
        let t = ev.t;
        match ev.kind {
            EventKind::MlEnter {
                tid,
                monitor,
                contended,
            } => {
                let (tid, monitor) = (tid.as_u32(), monitor.as_u32());
                let p = self.profile(monitor);
                p.enters += 1;
                p.contended += u64::from(contended);
                let open = if contended {
                    &mut self.open_waits
                } else {
                    &mut self.open_holds
                };
                put(open, tid, monitor, t);
            }
            EventKind::MlAcquired { tid, monitor } => {
                let (tid, monitor) = (tid.as_u32(), monitor.as_u32());
                if let Some(start) = take(&mut self.open_waits, tid, monitor) {
                    let waited = t.saturating_since(start);
                    let p = self.profile(monitor);
                    p.total_wait += waited;
                    if waited > p.max_wait {
                        p.max_wait = waited;
                    }
                }
                // A CV reacquire grant has no contended MlEnter; either
                // way the hold starts at the grant.
                put(&mut self.open_holds, tid, monitor, t);
            }
            EventKind::MlExit { tid, monitor } => {
                self.close_hold(tid.as_u32(), monitor.as_u32(), t);
            }
            EventKind::CvWait { tid, cv } => {
                // WAIT releases the condition's monitor without MlExit.
                let tid = tid.as_u32();
                if let Some(&monitor) = self.cv_monitor.get(cv.as_u32() as usize) {
                    self.close_hold(tid, monitor, t);
                } else {
                    // No topology: close the thread's only open hold.
                    if let [(monitor, _)] = slot(&mut self.open_holds, tid)[..] {
                        self.close_hold(tid, monitor, t);
                    }
                }
            }
            _ => {}
        }
    }
}

impl TraceSink for ContentionProfiler {
    fn record(&mut self, ev: &Event) {
        self.record_event(ev);
    }

    fn subscriptions(&self) -> pcr::EventMask {
        use pcr::{CondId, MonitorId, ThreadId};
        let tid = ThreadId::from_u32(0);
        let monitor = MonitorId::from_u32(0);
        let probe = [
            EventKind::MlEnter {
                tid,
                monitor,
                contended: false,
            },
            EventKind::MlAcquired { tid, monitor },
            EventKind::MlExit { tid, monitor },
            EventKind::CvWait {
                tid,
                cv: CondId::from_u32(0),
            },
        ];
        probe
            .iter()
            .fold(pcr::EventMask::EMPTY, |m, k| m.union(pcr::EventMask::of(k)))
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr::{millis, secs, Priority, RunLimit, Sim, SimConfig};

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
        let hot = prof.for_monitor(hot_id);
        assert!(hot.contended > 0, "hot monitor never contended");
        // Each hold spans the 2 ms sleep, so hold and wait time are both
        // in the milliseconds.
        assert!(hot.total_hold >= millis(2) * hot.enters);
        assert!(hot.max_hold >= millis(2));
        assert!(hot.total_wait >= millis(1), "wait = {:?}", hot.total_wait);
        assert!(hot.max_wait >= millis(1));
        assert!(hot.mean_wait().unwrap() >= millis(1));
        let cold = prof.for_monitor(cold_id);
        assert_eq!(cold.contended, 0);
        assert_eq!(cold.total_wait, SimDuration::ZERO);
        assert!(cold.total_hold < millis(1), "cold held too long");
        // Rows come hottest-first with real names.
        let rows = prof.rows();
        assert_eq!(&*rows[0].name, "hot");
        assert!(rows[0].profile.contention_fraction() > 0.0);
    }

    #[test]
    fn cv_wait_closes_the_hold() {
        let mut sim = Sim::new(SimConfig::default());
        let m = sim.monitor("m", 0u32);
        let cv = sim.condition(&m, "cv", Some(millis(10)));
        let mid = m.id().as_u32();
        sim.set_sink(Box::new(ContentionProfiler::for_sim(&sim)));
        let _ = sim.fork_root("waiter", Priority::DEFAULT, move |ctx| {
            let mut g = ctx.enter(&m);
            let _ = g.wait(&cv); // Times out after 10 ms.
        });
        sim.run(RunLimit::ToCompletion);
        let prof = crate::take_collector::<ContentionProfiler>(&mut sim).unwrap();
        let p = prof.for_monitor(mid);
        // The 10 ms spent waiting must NOT count as hold time.
        assert!(p.total_hold < millis(2), "hold = {:?}", p.total_hold);
        assert_eq!(p.contended, 0);
    }

    #[test]
    fn empty_profiler_is_sane() {
        let p = ContentionProfiler::new();
        assert_eq!(p.total_enters(), 0);
        assert!(p.rows().is_empty());
        assert_eq!(p.for_monitor(3).mean_hold(), None);
        assert_eq!(p.for_monitor(3).mean_wait(), None);
    }
}
