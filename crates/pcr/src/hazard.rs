//! Runtime hazard detection over the event stream.
//!
//! The failure modes the paper describes — missed wakeups from naked
//! NOTIFYs (§5.3), waiters that skip the predicate re-check (§5.3),
//! priority inversion and starvation (§6.2), yield-loop livelock (§5.2),
//! and spurious lock-conflict storms (§6.1) — all leave fingerprints in
//! the scheduler's event stream. A [`HazardMonitor`] is a [`TraceSink`]
//! that reconstructs a shadow of each thread's state from those events
//! and raises structured [`Hazard`] reports as the run executes. It
//! pairs with [`crate::ChaosConfig`], which *provokes* the same failure
//! modes on purpose.
//!
//! The detectors are heuristics over observable events, not proofs: they
//! are tuned so that a well-behaved run under the default configuration
//! reports nothing, while each injected fault (or genuine discipline
//! violation) trips exactly the matching detector. The known
//! approximation is [`HazardKind::WaitWithoutRecheck`]: the monitor
//! cannot observe predicate evaluation, so a waiter whose predicate
//! happened to become true during an injected spurious wakeup is
//! indistinguishable from one that never re-checked.

use std::collections::VecDeque;
use std::fmt;

use crate::event::{Event, EventKind, EventMask, TraceSink, WaitOutcome};
use crate::thread::{Priority, ThreadId};
use crate::time::{millis, SimDuration, SimTime};

/// Thresholds for the hazard detectors. `Default` gives values that are
/// quiet on well-behaved workloads (no report in a clean run) while
/// still catching the injected faults in the test suite.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HazardConfig {
    /// A runnable thread unscheduled this long while lower-priority
    /// threads run is reported as starved (default 500 ms ≈ 10 quanta).
    pub starvation_threshold: SimDuration,
    /// Consecutive YIELDs with no other progress event before a livelock
    /// is reported (default 50).
    pub livelock_yields: u32,
    /// Sliding window for counting spurious lock conflicts (§6.1).
    pub storm_window: SimDuration,
    /// Spurious conflicts within [`HazardConfig::storm_window`] that
    /// constitute a storm (default 10).
    pub storm_threshold: u32,
    /// A WAIT started this soon after a waiter-less NOTIFY on the same
    /// condition is watched for a missed wakeup (default 10 ms).
    pub naked_window: SimDuration,
}

impl Default for HazardConfig {
    fn default() -> Self {
        HazardConfig {
            starvation_threshold: millis(500),
            livelock_yields: 50,
            storm_window: millis(100),
            storm_threshold: 10,
            naked_window: millis(10),
        }
    }
}

/// One detected hazard: what, and when it was detected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hazard {
    /// Virtual time at which the detector fired (detection lags the
    /// root cause by construction — e.g. a starvation is visible only
    /// after the threshold has elapsed).
    pub t: SimTime,
    /// What was detected.
    pub kind: HazardKind,
}

impl fmt::Display for Hazard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.t, self.kind)
    }
}

/// The kinds of hazard the monitor can report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HazardKind {
    /// A NOTIFY found no waiter, and a thread that began waiting on the
    /// same condition just afterwards timed out: the classic §5.3 missed
    /// wakeup, where the notify raced ahead of the wait.
    NakedNotify {
        /// The notifying thread.
        tid: ThreadId,
        /// The condition notified (raw id).
        cv: u32,
    },
    /// A waiter resumed spuriously and left its monitor without waiting
    /// again — it may have skipped the §5.3 "re-check the predicate in a
    /// loop" discipline (see the module docs for the approximation).
    WaitWithoutRecheck {
        /// The waiter in question.
        tid: ThreadId,
    },
    /// A runnable thread went unscheduled beyond the threshold while a
    /// strictly lower-priority thread ran: starvation or a stable
    /// priority inversion (§6.2).
    Starvation {
        /// The starved runnable thread.
        victim: ThreadId,
        /// Its priority.
        victim_priority: Priority,
        /// The lower-priority thread observed running instead.
        running: ThreadId,
        /// That thread's priority.
        running_priority: Priority,
        /// How long the victim had been runnable but unscheduled.
        waited: SimDuration,
    },
    /// A run of consecutive YIELDs with no other progress event: threads
    /// are spending the CPU handing it to each other (§5.2's busy-wait
    /// pathology).
    Livelock {
        /// Length of the yield run when the detector fired.
        yields: u32,
        /// When the run of yields began.
        since: SimTime,
    },
    /// Spurious lock conflicts (§6.1) above the configured rate — the
    /// symptom the authors traced to unrelated data sharing monitor
    /// locks.
    SpuriousConflictStorm {
        /// Conflicts observed inside the window.
        count: u32,
        /// The window width used.
        window: SimDuration,
    },
}

impl fmt::Display for HazardKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HazardKind::NakedNotify { tid, cv } => {
                write!(f, "naked notify: t{} notified cv{cv} with no waiter; a subsequent waiter timed out", tid.as_u32())
            }
            HazardKind::WaitWithoutRecheck { tid } => {
                write!(f, "wait without re-check: t{} left its monitor after a spurious wakeup without waiting again", tid.as_u32())
            }
            HazardKind::Starvation {
                victim,
                victim_priority,
                running,
                running_priority,
                waited,
            } => write!(
                f,
                "starvation: t{} (prio {victim_priority}) runnable {waited} while t{} (prio {running_priority}) runs",
                victim.as_u32(),
                running.as_u32()
            ),
            HazardKind::Livelock { yields, since } => {
                write!(f, "livelock: {yields} consecutive yields with no progress since {since}")
            }
            HazardKind::SpuriousConflictStorm { count, window } => {
                write!(f, "spurious-conflict storm: {count} conflicts within {window}")
            }
        }
    }
}

impl HazardKind {
    /// Short machine-friendly tag (used in tables and JSON export).
    pub fn tag(&self) -> &'static str {
        match self {
            HazardKind::NakedNotify { .. } => "naked_notify",
            HazardKind::WaitWithoutRecheck { .. } => "wait_without_recheck",
            HazardKind::Starvation { .. } => "starvation",
            HazardKind::Livelock { .. } => "livelock",
            HazardKind::SpuriousConflictStorm { .. } => "spurious_conflict_storm",
        }
    }
}

/// Per-kind tallies of detected hazards, carried on
/// [`crate::RunReport`] and summarized in trace tables.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HazardCounts {
    /// Missed-wakeup races from waiter-less NOTIFYs (§5.3).
    pub naked_notifies: u64,
    /// Spurious wakeups possibly handled without a predicate re-check.
    pub wait_without_recheck: u64,
    /// Starvation / stable priority-inversion episodes (§6.2).
    pub starvations: u64,
    /// Yield-storm livelock episodes (§5.2).
    pub livelocks: u64,
    /// Spurious lock-conflict storms (§6.1).
    pub spurious_conflict_storms: u64,
}

impl HazardCounts {
    /// Total hazards across all kinds.
    pub fn total(&self) -> u64 {
        self.naked_notifies
            + self.wait_without_recheck
            + self.starvations
            + self.livelocks
            + self.spurious_conflict_storms
    }

    fn bump(&mut self, kind: &HazardKind) {
        match kind {
            HazardKind::NakedNotify { .. } => self.naked_notifies += 1,
            HazardKind::WaitWithoutRecheck { .. } => self.wait_without_recheck += 1,
            HazardKind::Starvation { .. } => self.starvations += 1,
            HazardKind::Livelock { .. } => self.livelocks += 1,
            HazardKind::SpuriousConflictStorm { .. } => self.spurious_conflict_storms += 1,
        }
    }
}

/// Shadow scheduler state for one live thread, reconstructed purely
/// from the event stream.
#[derive(Clone, Debug)]
struct Shadow {
    priority: Priority,
    /// True while the last observed transition left the thread unable to
    /// run (waiting, sleeping, stalled...). Cleared when it is switched
    /// to or explicitly woken.
    blocked: bool,
    /// When the thread last became runnable-but-not-running, if it still
    /// is. `None` while running, blocked, or freshly scheduled.
    runnable_since: Option<SimTime>,
    /// One starvation report per runnable episode.
    starvation_reported: bool,
    /// `Some((cv, notifier))` while this thread's current wait is being
    /// watched for a naked-notify miss.
    naked_watch: Option<(u32, ThreadId)>,
    /// Set after a spurious wakeup until the thread waits again.
    pending_recheck: bool,
}

impl Shadow {
    fn new(priority: Priority) -> Self {
        Shadow {
            priority,
            blocked: false,
            runnable_since: None,
            starvation_reported: false,
            naked_watch: None,
            pending_recheck: false,
        }
    }

    fn block(&mut self) {
        self.blocked = true;
        self.runnable_since = None;
        self.starvation_reported = false;
    }
}

/// Online hazard detector; install via
/// [`crate::SimConfig::with_hazard_detection`] (the scheduler then feeds
/// it every event before the user sink), or drive it manually as a
/// [`TraceSink`] over a recorded stream.
#[derive(Debug, Default)]
pub struct HazardMonitor {
    cfg: HazardConfig,
    hazards: Vec<Hazard>,
    counts: HazardCounts,
    /// Indexed by raw thread id; `None` before a thread's first event
    /// and after its exit.
    threads: Vec<Option<Shadow>>,
    /// The ids that have a shadow, ascending. The starvation scan walks
    /// these, so a switch costs the threads alive now and not every
    /// thread there ever was.
    live: Vec<ThreadId>,
    /// Indexed by raw cv id: (notifier, time) of the most recent NOTIFY,
    /// if it found no waiter.
    naked_notifies: Vec<Option<(ThreadId, SimTime)>>,
    /// Consecutive YIELD events with no intervening progress.
    yield_streak: u32,
    yield_streak_start: Option<SimTime>,
    livelock_reported: bool,
    /// Timestamps of recent spurious lock conflicts (§6.1).
    conflict_times: VecDeque<SimTime>,
}

/// `v[i]`, growing `v` with `None`s to reach it.
fn slot<T>(v: &mut Vec<Option<T>>, i: u32) -> &mut Option<T> {
    let i = i as usize;
    if i >= v.len() {
        v.resize_with(i + 1, || None);
    }
    &mut v[i]
}

impl HazardMonitor {
    /// The event kinds the detectors actually consume. The scheduler
    /// consults this so kinds outside the mask (quantum expiries, daemon
    /// donations, fork failures, chaos notify faults) skip the shadow
    /// bookkeeping pass entirely.
    pub fn subscriptions() -> EventMask {
        let t = crate::thread::ThreadId(0);
        EventMask::ALL
            .without(&EventKind::QuantumExpired { tid: t })
            .without(&EventKind::DaemonDonation { target: t })
            .without(&EventKind::ForkFailed { tid: t })
            .without(&EventKind::ChaosForkFail { tid: t })
            .without(&EventKind::NotifyDropped {
                tid: t,
                cv: crate::event::CondId(0),
            })
            .without(&EventKind::NotifyDuplicated {
                tid: t,
                cv: crate::event::CondId(0),
                extra: t,
            })
    }

    /// Creates a monitor with the given thresholds.
    pub fn new(cfg: HazardConfig) -> Self {
        HazardMonitor {
            cfg,
            ..Default::default()
        }
    }

    /// All hazards detected so far, in detection order.
    pub fn hazards(&self) -> &[Hazard] {
        &self.hazards
    }

    /// Per-kind tallies.
    pub fn counts(&self) -> HazardCounts {
        self.counts
    }

    fn report(&mut self, t: SimTime, kind: HazardKind) {
        self.counts.bump(&kind);
        self.hazards.push(Hazard { t, kind });
    }

    fn shadow(&mut self, tid: ThreadId) -> &mut Shadow {
        if !matches!(self.threads.get(tid.as_u32() as usize), Some(Some(_))) {
            self.adopt(tid, Shadow::new(Priority::DEFAULT));
        }
        self.threads[tid.as_u32() as usize]
            .as_mut()
            .expect("adopted above")
    }

    /// Starts (or restarts) shadowing `tid` as `s`.
    fn adopt(&mut self, tid: ThreadId, s: Shadow) {
        if slot(&mut self.threads, tid.as_u32()).replace(s).is_none() {
            // Ids are handed out in order, so this is nearly always a push.
            let at = self.live.partition_point(|&t| t < tid);
            self.live.insert(at, tid);
        }
    }

    /// Any event that demonstrates forward progress ends a yield streak.
    fn progress(&mut self) {
        self.yield_streak = 0;
        self.yield_streak_start = None;
        self.livelock_reported = false;
    }

    fn observe(&mut self, ev: &Event) {
        let t = ev.t;
        match ev.kind {
            EventKind::Fork {
                child, priority, ..
            } => {
                let mut s = Shadow::new(priority);
                s.runnable_since = Some(t);
                self.adopt(child, s);
                self.progress();
            }
            EventKind::Exit { tid, .. } => {
                let shadow = self.threads.get_mut(tid.as_u32() as usize);
                if shadow.and_then(Option::take).is_some() {
                    let at = self
                        .live
                        .binary_search(&tid)
                        .expect("shadowed ids are live");
                    self.live.remove(at);
                }
                self.progress();
            }
            EventKind::Join { .. } | EventKind::Detach { .. } => self.progress(),
            EventKind::JoinBlocked { joiner, .. } => self.shadow(joiner).block(),
            EventKind::SetPriority { tid, priority } => {
                self.shadow(tid).priority = priority;
            }
            EventKind::Switch {
                from,
                to,
                to_priority,
                ..
            } => {
                {
                    let s = self.shadow(to);
                    s.priority = to_priority;
                    s.blocked = false;
                    s.runnable_since = None;
                    s.starvation_reported = false;
                }
                if let Some(from) = from {
                    if let Some(Some(s)) = self.threads.get_mut(from.as_u32() as usize) {
                        if !s.blocked && s.runnable_since.is_none() {
                            s.runnable_since = Some(t);
                        }
                    }
                }
                self.scan_starvation(t, to, to_priority);
            }
            EventKind::CvWait { tid, cv } => {
                let window = self.cfg.naked_window;
                let watch = match self.naked_notifies.get(cv.as_u32() as usize) {
                    Some(&Some((notifier, tn))) if t.saturating_since(tn) <= window => {
                        Some((cv.as_u32(), notifier))
                    }
                    _ => None,
                };
                let s = self.shadow(tid);
                s.block();
                s.pending_recheck = false;
                s.naked_watch = watch;
                self.progress();
            }
            EventKind::CvWake {
                tid,
                cv: _,
                outcome,
            } => {
                let s = self.shadow(tid);
                s.blocked = false;
                s.runnable_since = None;
                let watch = s.naked_watch.take();
                match outcome {
                    WaitOutcome::TimedOut => {
                        if let Some((cv, notifier)) = watch {
                            self.report(t, HazardKind::NakedNotify { tid: notifier, cv });
                        }
                    }
                    WaitOutcome::Spurious => self.shadow(tid).pending_recheck = true,
                    WaitOutcome::Notified => {}
                }
                self.progress();
            }
            EventKind::Notify { tid, cv, woken } => {
                *slot(&mut self.naked_notifies, cv.as_u32()) = woken.is_none().then_some((tid, t));
                self.progress();
            }
            EventKind::Broadcast { .. } => self.progress(),
            EventKind::MlEnter { tid, contended, .. } => {
                if contended {
                    self.shadow(tid).block();
                }
            }
            EventKind::MlAcquired { tid, .. } => {
                // The grantee is ready again (dispatch comes later).
                let s = self.shadow(tid);
                s.blocked = false;
                s.runnable_since = Some(t);
            }
            EventKind::MlExit { tid, .. } => {
                let s = self.shadow(tid);
                if s.pending_recheck {
                    s.pending_recheck = false;
                    self.report(t, HazardKind::WaitWithoutRecheck { tid });
                }
            }
            EventKind::Sleep { tid, .. } => {
                self.shadow(tid).block();
                self.progress();
            }
            EventKind::ForkBlocked { tid } => self.shadow(tid).block(),
            EventKind::MetalockStall { tid, .. } => self.shadow(tid).block(),
            EventKind::ChaosStall { tid, .. } => self.shadow(tid).block(),
            EventKind::SpuriousWakeup { tid, .. } => {
                // The waiter is ready again; the Spurious CvWake follows
                // when it is dispatched.
                self.shadow(tid).runnable_since = Some(t);
            }
            EventKind::SpuriousLockConflict { .. } => {
                let window = self.cfg.storm_window;
                self.conflict_times.push_back(t);
                while let Some(&front) = self.conflict_times.front() {
                    if t.saturating_since(front) > window {
                        self.conflict_times.pop_front();
                    } else {
                        break;
                    }
                }
                if self.conflict_times.len() >= self.cfg.storm_threshold as usize {
                    let count = self.conflict_times.len() as u32;
                    // Start a fresh accumulation so one sustained storm
                    // yields roughly one report per window, not per event.
                    self.conflict_times.clear();
                    self.report(t, HazardKind::SpuriousConflictStorm { count, window });
                }
            }
            EventKind::Yield { .. } => {
                self.yield_streak += 1;
                if self.yield_streak_start.is_none() {
                    self.yield_streak_start = Some(t);
                }
                if !self.livelock_reported && self.yield_streak >= self.cfg.livelock_yields {
                    self.livelock_reported = true;
                    let since = self.yield_streak_start.unwrap_or(t);
                    let yields = self.yield_streak;
                    self.report(t, HazardKind::Livelock { yields, since });
                }
            }
            EventKind::QuantumExpired { .. }
            | EventKind::DaemonDonation { .. }
            | EventKind::ForkFailed { .. }
            | EventKind::ChaosForkFail { .. }
            | EventKind::NotifyDropped { .. }
            | EventKind::NotifyDuplicated { .. } => {}
        }
    }

    fn scan_starvation(&mut self, t: SimTime, running: ThreadId, running_priority: Priority) {
        let threshold = self.cfg.starvation_threshold;
        let mut found = Vec::new();
        // In thread-id order, which is the order of the reports.
        for &tid in &self.live {
            let s = self.threads[tid.as_u32() as usize]
                .as_mut()
                .expect("live ids are shadowed");
            if tid == running || s.blocked || s.starvation_reported {
                continue;
            }
            let Some(since) = s.runnable_since else {
                continue;
            };
            let waited = t.saturating_since(since);
            if s.priority > running_priority && waited >= threshold {
                s.starvation_reported = true;
                found.push(HazardKind::Starvation {
                    victim: tid,
                    victim_priority: s.priority,
                    running,
                    running_priority,
                    waited,
                });
            }
        }
        for kind in found {
            self.report(t, kind);
        }
    }
}

impl TraceSink for HazardMonitor {
    fn record(&mut self, ev: &Event) {
        self.observe(ev);
    }

    fn subscriptions(&self) -> EventMask {
        HazardMonitor::subscriptions()
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CondId;

    fn ev(t_us: u64, kind: EventKind) -> Event {
        Event {
            t: SimTime::from_micros(t_us),
            kind,
        }
    }

    fn tid(n: u32) -> ThreadId {
        ThreadId::from_u32(n)
    }

    #[test]
    fn naked_notify_detected_on_timed_out_follower() {
        let mut m = HazardMonitor::new(HazardConfig::default());
        let cv = CondId(7);
        m.record(&ev(
            1_000,
            EventKind::Notify {
                tid: tid(1),
                cv,
                woken: None,
            },
        ));
        m.record(&ev(2_000, EventKind::CvWait { tid: tid(2), cv }));
        m.record(&ev(
            60_000,
            EventKind::CvWake {
                tid: tid(2),
                cv,
                outcome: WaitOutcome::TimedOut,
            },
        ));
        assert_eq!(m.counts().naked_notifies, 1);
        assert!(matches!(
            m.hazards()[0].kind,
            HazardKind::NakedNotify { tid: t, cv: 7 } if t == tid(1)
        ));
    }

    #[test]
    fn notified_wake_is_not_a_naked_notify() {
        let mut m = HazardMonitor::new(HazardConfig::default());
        let cv = CondId(7);
        m.record(&ev(
            1_000,
            EventKind::Notify {
                tid: tid(1),
                cv,
                woken: None,
            },
        ));
        m.record(&ev(2_000, EventKind::CvWait { tid: tid(2), cv }));
        m.record(&ev(
            3_000,
            EventKind::CvWake {
                tid: tid(2),
                cv,
                outcome: WaitOutcome::Notified,
            },
        ));
        assert_eq!(m.counts().total(), 0);
    }

    #[test]
    fn wait_outside_naked_window_not_watched() {
        let mut m = HazardMonitor::new(HazardConfig::default());
        let cv = CondId(3);
        m.record(&ev(
            0,
            EventKind::Notify {
                tid: tid(1),
                cv,
                woken: None,
            },
        ));
        // 50 ms later: far outside the 10 ms window.
        m.record(&ev(50_000, EventKind::CvWait { tid: tid(2), cv }));
        m.record(&ev(
            99_000,
            EventKind::CvWake {
                tid: tid(2),
                cv,
                outcome: WaitOutcome::TimedOut,
            },
        ));
        assert_eq!(m.counts().total(), 0);
    }

    #[test]
    fn spurious_then_exit_without_rewait_flags_recheck() {
        let mut m = HazardMonitor::new(HazardConfig::default());
        let cv = CondId(1);
        let mon = crate::monitor::MonitorId(1);
        m.record(&ev(1_000, EventKind::CvWait { tid: tid(4), cv }));
        m.record(&ev(
            2_000,
            EventKind::CvWake {
                tid: tid(4),
                cv,
                outcome: WaitOutcome::Spurious,
            },
        ));
        m.record(&ev(
            3_000,
            EventKind::MlExit {
                tid: tid(4),
                monitor: mon,
            },
        ));
        assert_eq!(m.counts().wait_without_recheck, 1);
    }

    #[test]
    fn spurious_then_rewait_is_clean() {
        let mut m = HazardMonitor::new(HazardConfig::default());
        let cv = CondId(1);
        let mon = crate::monitor::MonitorId(1);
        m.record(&ev(1_000, EventKind::CvWait { tid: tid(4), cv }));
        m.record(&ev(
            2_000,
            EventKind::CvWake {
                tid: tid(4),
                cv,
                outcome: WaitOutcome::Spurious,
            },
        ));
        m.record(&ev(2_500, EventKind::CvWait { tid: tid(4), cv }));
        m.record(&ev(
            3_000,
            EventKind::MlExit {
                tid: tid(4),
                monitor: mon,
            },
        ));
        assert_eq!(m.counts().total(), 0);
    }

    #[test]
    fn starved_threads_are_reported_in_id_order_and_only_live_ones_are_scanned() {
        let mut m = HazardMonitor::new(HazardConfig::default());
        let fork = |child: u32, priority: u8| EventKind::Fork {
            parent: None,
            child: tid(child),
            priority: Priority::of(priority),
            generation: 0,
        };
        // A thousand threads come and go; two high-priority ones stay, the
        // later id first seen before the earlier; then the low one runs.
        for i in 10..1_010 {
            m.record(&ev(0, fork(i, 4)));
            m.record(&ev(
                0,
                EventKind::Exit {
                    tid: tid(i),
                    panicked: false,
                },
            ));
        }
        m.record(&ev(0, fork(7, 6)));
        m.record(&ev(0, fork(3, 6)));
        m.record(&ev(0, fork(2_000, 2)));
        assert_eq!(m.live, [tid(3), tid(7), tid(2_000)]);
        m.record(&ev(
            700_000,
            EventKind::Switch {
                from: None,
                to: tid(2_000),
                to_priority: Priority::of(2),
                ready_for: SimDuration::ZERO,
            },
        ));
        let victims: Vec<_> = (m.hazards().iter())
            .map(|h| match h.kind {
                HazardKind::Starvation { victim, .. } => victim,
                ref other => panic!("unexpected hazard {other:?}"),
            })
            .collect();
        assert_eq!(victims, [tid(3), tid(7)]);
    }

    #[test]
    fn starvation_detected_after_threshold() {
        let mut m = HazardMonitor::new(HazardConfig::default());
        // t1 (high prio) forked, preempted at t=0; t2 (low) then runs
        // past the threshold.
        m.record(&ev(
            0,
            EventKind::Fork {
                parent: None,
                child: tid(1),
                priority: Priority::of(6),
                generation: 0,
            },
        ));
        m.record(&ev(
            0,
            EventKind::Fork {
                parent: None,
                child: tid(2),
                priority: Priority::of(2),
                generation: 0,
            },
        ));
        m.record(&ev(
            1_000,
            EventKind::Switch {
                from: None,
                to: tid(2),
                to_priority: Priority::of(2),
                ready_for: SimDuration::ZERO,
            },
        ));
        // Far past the 500 ms threshold, t2 is switched to again.
        m.record(&ev(
            700_000,
            EventKind::Switch {
                from: Some(tid(2)),
                to: tid(2),
                to_priority: Priority::of(2),
                ready_for: SimDuration::ZERO,
            },
        ));
        assert_eq!(m.counts().starvations, 1);
        match &m.hazards()[0].kind {
            HazardKind::Starvation {
                victim,
                running,
                waited,
                ..
            } => {
                assert_eq!(*victim, tid(1));
                assert_eq!(*running, tid(2));
                assert!(*waited >= millis(500));
            }
            other => panic!("unexpected hazard {other:?}"),
        }
        // Only one report per episode.
        m.record(&ev(
            900_000,
            EventKind::Switch {
                from: Some(tid(2)),
                to: tid(2),
                to_priority: Priority::of(2),
                ready_for: SimDuration::ZERO,
            },
        ));
        assert_eq!(m.counts().starvations, 1);
    }

    #[test]
    fn blocked_high_priority_thread_is_not_starved() {
        let mut m = HazardMonitor::new(HazardConfig::default());
        m.record(&ev(
            0,
            EventKind::Fork {
                parent: None,
                child: tid(1),
                priority: Priority::of(6),
                generation: 0,
            },
        ));
        m.record(&ev(
            100,
            EventKind::CvWait {
                tid: tid(1),
                cv: CondId(9),
            },
        ));
        m.record(&ev(
            700_000,
            EventKind::Switch {
                from: None,
                to: tid(2),
                to_priority: Priority::of(2),
                ready_for: SimDuration::ZERO,
            },
        ));
        assert_eq!(m.counts().total(), 0);
    }

    #[test]
    fn livelock_reported_once_per_streak() {
        let cfg = HazardConfig {
            livelock_yields: 5,
            ..Default::default()
        };
        let mut m = HazardMonitor::new(cfg);
        for i in 0..20 {
            m.record(&ev(
                i * 10,
                EventKind::Yield {
                    tid: tid(1),
                    kind: crate::event::YieldKind::Normal,
                },
            ));
        }
        assert_eq!(m.counts().livelocks, 1);
        // Progress resets the streak; a new storm reports again.
        m.record(&ev(
            300,
            EventKind::Notify {
                tid: tid(1),
                cv: CondId(1),
                woken: None,
            },
        ));
        for i in 0..6 {
            m.record(&ev(
                400 + i * 10,
                EventKind::Yield {
                    tid: tid(1),
                    kind: crate::event::YieldKind::Normal,
                },
            ));
        }
        assert_eq!(m.counts().livelocks, 2);
    }

    #[test]
    fn conflict_storm_threshold() {
        let mut m = HazardMonitor::new(HazardConfig::default());
        let mon = crate::monitor::MonitorId(2);
        for i in 0..9 {
            m.record(&ev(
                i * 1_000,
                EventKind::SpuriousLockConflict {
                    tid: tid(1),
                    monitor: mon,
                },
            ));
        }
        assert_eq!(m.counts().spurious_conflict_storms, 0);
        m.record(&ev(
            9_000,
            EventKind::SpuriousLockConflict {
                tid: tid(1),
                monitor: mon,
            },
        ));
        assert_eq!(m.counts().spurious_conflict_storms, 1);
    }

    #[test]
    fn spread_out_conflicts_do_not_storm() {
        let mut m = HazardMonitor::new(HazardConfig::default());
        let mon = crate::monitor::MonitorId(2);
        for i in 0..30 {
            // One conflict every 50 ms: never 10 within a 100 ms window.
            m.record(&ev(
                i * 50_000,
                EventKind::SpuriousLockConflict {
                    tid: tid(1),
                    monitor: mon,
                },
            ));
        }
        assert_eq!(m.counts().total(), 0);
    }

    #[test]
    fn counts_total_sums_all_kinds() {
        let c = HazardCounts {
            naked_notifies: 1,
            wait_without_recheck: 2,
            starvations: 3,
            livelocks: 4,
            spurious_conflict_storms: 5,
        };
        assert_eq!(c.total(), 15);
    }
}
