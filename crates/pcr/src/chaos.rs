//! Fault injection: deterministic chaos for the simulated runtime.
//!
//! The paper's engineering sections are a catalogue of ways threaded
//! interactive systems go wrong: monitor-discipline mistakes (§5.3),
//! fork failure (§5.4), components that stop responding (§5.2's slow X
//! server), spurious lock conflicts (§6.1), and priority inversions
//! (§6.2). A [`ChaosConfig`] attached to [`crate::SimConfig`] provokes
//! those failure modes on purpose:
//!
//! * **FORK failure** — probabilistic failures and resource-exhaustion
//!   windows beyond the static [`crate::ForkPolicy`] (§5.4);
//! * **condition-variable abuse** — spurious wakeups, dropped notifies,
//!   and duplicated notifies, stressing the "WAIT only in a loop"
//!   discipline of §5.3;
//! * **thread stalls** — a named thread stops being scheduled for a
//!   while, modelling the unresponsive X server of §5.2 or a preempted
//!   metalock holder of §6.2;
//! * **timer perturbation** — extra delay on timeout firings, widening
//!   the timeout races of §6.3.
//!
//! Every injection decision is drawn from a dedicated [`crate::SplitMix64`]
//! stream derived from the run seed, at deterministic scheduler points,
//! so a given `(SimConfig, ChaosConfig)` replays **byte-identically**:
//! chaos runs are as reproducible as clean ones. The
//! [`crate::HazardMonitor`] is the matching detection half.

use crate::time::{millis, SimDuration, SimTime};
use std::collections::VecDeque;

/// A scheduled stall of one named thread: from `at`, the first thread
/// whose name matches stops being scheduled for `duration` of virtual
/// time. If the thread is running or blocked when the stall fires, it is
/// stalled at the next point it would have become ready.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StallSpec {
    /// Name of the thread to stall (first live match wins).
    pub thread: String,
    /// Virtual time at which the stall begins.
    pub at: SimTime,
    /// How long the thread stays unschedulable.
    pub duration: SimDuration,
    /// If set, the stall only fires while the target holds the named
    /// monitor: from `at` onwards the trigger re-arms every millisecond
    /// until it catches the thread inside that monitor, then stalls it
    /// on the spot — §6.2's "preempted while holding a lock" made
    /// deterministic.
    pub while_holding: Option<String>,
}

/// One kind of chaos decision point. Each kind has its own monotonically
/// increasing *site counter* that ticks at every decision point of that
/// kind (whether or not a fault is injected), so a `(kind, site)` pair
/// names one exact decision in a deterministic run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultSiteKind {
    /// A FORK that chaos failed with `ResourcesExhausted` (§5.4).
    ForkFail,
    /// A CV wait that received an injected spurious wakeup (§5.3).
    SpuriousWakeup,
    /// A NOTIFY that was silently dropped (§5.3's lost wakeup).
    DropNotify,
    /// A NOTIFY that woke a second waiter as well (§5.3).
    DuplicateNotify,
    /// A timer deadline that received extra delay (§6.3).
    TimerJitter,
    /// A dispatch at which the running thread's priority was changed to
    /// a random level — the PCT-style scheduler perturbation. `param_us`
    /// carries the new priority level (1..=7), not a duration.
    PriorityChange,
}

impl FaultSiteKind {
    /// All kinds, in site-counter index order.
    pub const ALL: [FaultSiteKind; 6] = [
        FaultSiteKind::ForkFail,
        FaultSiteKind::SpuriousWakeup,
        FaultSiteKind::DropNotify,
        FaultSiteKind::DuplicateNotify,
        FaultSiteKind::TimerJitter,
        FaultSiteKind::PriorityChange,
    ];

    /// Stable index into per-kind site-counter arrays.
    pub fn index(self) -> usize {
        match self {
            FaultSiteKind::ForkFail => 0,
            FaultSiteKind::SpuriousWakeup => 1,
            FaultSiteKind::DropNotify => 2,
            FaultSiteKind::DuplicateNotify => 3,
            FaultSiteKind::TimerJitter => 4,
            FaultSiteKind::PriorityChange => 5,
        }
    }

    /// Stable serialization tag.
    pub fn tag(self) -> &'static str {
        match self {
            FaultSiteKind::ForkFail => "fork_fail",
            FaultSiteKind::SpuriousWakeup => "spurious_wakeup",
            FaultSiteKind::DropNotify => "drop_notify",
            FaultSiteKind::DuplicateNotify => "duplicate_notify",
            FaultSiteKind::TimerJitter => "timer_jitter",
            FaultSiteKind::PriorityChange => "priority_change",
        }
    }

    /// Parses a serialization tag back into a kind.
    pub fn from_tag(tag: &str) -> Option<FaultSiteKind> {
        FaultSiteKind::ALL.into_iter().find(|k| k.tag() == tag)
    }
}

/// One positive injection decision: at the `site`-th decision point of
/// `kind`, inject a fault with parameter `param_us` (a delay in
/// microseconds for [`FaultSiteKind::SpuriousWakeup`] and
/// [`FaultSiteKind::TimerJitter`]; ignored for the others).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultDecision {
    /// The decision-point kind.
    pub kind: FaultSiteKind,
    /// Ordinal of the decision point within its kind (0-based).
    pub site: u64,
    /// Fault parameter in microseconds (delay for spurious wakeups and
    /// timer jitter; 0 otherwise).
    pub param_us: u64,
}

/// A complete, replayable record of every fault a chaos run injected:
/// the explicit per-site decisions plus the stall specs in force. Feed
/// it back via [`ChaosConfig::scripted`] and the run replays exactly —
/// no probabilities, no RNG, byte-identical injected faults.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSchedule {
    /// Positive injection decisions, in chronological order.
    pub decisions: Vec<FaultDecision>,
    /// Thread stalls in force during the recorded run.
    pub stalls: Vec<StallSpec>,
}

impl FaultSchedule {
    /// True if the schedule injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty() && self.stalls.is_empty()
    }

    /// Per-kind cursors of `(site, param_us)` pairs sorted by site, for
    /// O(1) lookup at each decision point during scripted replay.
    pub(crate) fn cursors(&self) -> [VecDeque<(u64, u64)>; 6] {
        let mut sorted: [Vec<(u64, u64)>; 6] = Default::default();
        for d in &self.decisions {
            sorted[d.kind.index()].push((d.site, d.param_us));
        }
        sorted.map(|mut v| {
            v.sort_unstable();
            v.into_iter().collect()
        })
    }
}

/// PCT-style priority perturbation (after Burckhardt et al.'s
/// probabilistic concurrency testing): `changes` dispatch points are
/// pre-drawn uniformly from the first `horizon` dispatches, and at each
/// chosen point the thread being dispatched has its priority set to a
/// random level. The draw comes from the same chaos RNG stream as every
/// other fault, so recording and scripted replay stay byte-identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PctConfig {
    /// Number of priority-change points per run (PCT's *k* - 1 knob).
    pub changes: u32,
    /// Dispatch-count horizon the change points are drawn from (PCT's
    /// *n* knob). Points past the run's actual dispatch count are lost.
    pub horizon: u64,
}

/// Fault-injection configuration. The default injects nothing.
///
/// Attach with [`crate::SimConfig::with_chaos`]; all decisions are
/// deterministic in the run seed (see the module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosConfig {
    /// Probability that any FORK fails with
    /// [`crate::ForkError::ResourcesExhausted`], regardless of the
    /// thread-table state or [`crate::ForkPolicy`] (§5.4).
    pub fork_fail_prob: f64,
    /// A window of virtual time during which *every* FORK fails, as if
    /// thread resources were exhausted (§5.4's "scarce resource").
    pub fork_outage: Option<(SimTime, SimTime)>,
    /// Probability that a CV wait additionally receives one spurious
    /// wakeup: the waiter resumes with [`crate::WaitOutcome::Spurious`]
    /// although nobody notified and no timeout fired (§5.3).
    pub spurious_wakeup_prob: f64,
    /// Upper bound on the (uniform, seeded) delay between a wait's start
    /// and its injected spurious wakeup.
    pub spurious_delay: SimDuration,
    /// Probability that a NOTIFY with at least one waiter is silently
    /// dropped: no waiter wakes, and the waiter must be rescued by its
    /// timeout — or deadlock, if the CV has none (§5.3's lost wakeup).
    pub drop_notify_prob: f64,
    /// Probability that a NOTIFY wakes a *second* waiter as well,
    /// violating "exactly one waiter wakens"; correct Mesa code survives
    /// because the extra waiter re-checks its predicate (§5.3).
    pub duplicate_notify_prob: f64,
    /// Upper bound on extra (uniform, seeded) delay added to each CV
    /// timeout deadline and sleep wakeup, widening timeout races (§6.3).
    pub timer_jitter: SimDuration,
    /// Scheduled stalls of named threads (§5.2, §6.2).
    pub stalls: Vec<StallSpec>,
    /// PCT-style priority perturbation: random priority-change points
    /// sprinkled over the run's dispatches (§6.2's "priorities are
    /// problematic" made into a fuzz dimension).
    pub pct: Option<PctConfig>,
    /// A recorded [`FaultSchedule`] to replay instead of drawing from
    /// the chaos RNG: every decision point consults the script, and the
    /// probability knobs above are ignored.
    pub script: Option<FaultSchedule>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            fork_fail_prob: 0.0,
            fork_outage: None,
            spurious_wakeup_prob: 0.0,
            spurious_delay: millis(5),
            drop_notify_prob: 0.0,
            duplicate_notify_prob: 0.0,
            timer_jitter: SimDuration::ZERO,
            stalls: Vec::new(),
            pct: None,
            script: None,
        }
    }
}

impl ChaosConfig {
    /// A configuration that injects nothing (same as `Default`).
    pub fn none() -> Self {
        Self::default()
    }

    /// True if any injection is enabled.
    pub fn is_active(&self) -> bool {
        self.fork_fail_prob > 0.0
            || self.fork_outage.is_some()
            || self.spurious_wakeup_prob > 0.0
            || self.drop_notify_prob > 0.0
            || self.duplicate_notify_prob > 0.0
            || !self.timer_jitter.is_zero()
            || !self.stalls.is_empty()
            || self.pct.is_some()
            || self.script.is_some()
    }

    /// Replays a recorded [`FaultSchedule`] exactly: the schedule's
    /// stalls replace this config's stalls, every probability knob is
    /// ignored, and each decision point injects iff the script says so.
    pub fn scripted(mut self, schedule: FaultSchedule) -> Self {
        self.stalls = schedule.stalls.clone();
        self.script = Some(schedule);
        self
    }

    /// Sets the probabilistic FORK failure rate (§5.4).
    pub fn fail_forks(mut self, prob: f64) -> Self {
        self.fork_fail_prob = check_prob(prob);
        self
    }

    /// Sets a window during which every FORK fails (§5.4).
    pub fn fork_outage(mut self, from: SimTime, until: SimTime) -> Self {
        assert!(from < until, "fork_outage: empty window");
        self.fork_outage = Some((from, until));
        self
    }

    /// Sets the spurious-wakeup rate (§5.3).
    pub fn spurious_wakeups(mut self, prob: f64) -> Self {
        self.spurious_wakeup_prob = check_prob(prob);
        self
    }

    /// Sets the maximum delay before an injected spurious wakeup.
    pub fn spurious_delay(mut self, d: SimDuration) -> Self {
        assert!(!d.is_zero(), "spurious_delay must be positive");
        self.spurious_delay = d;
        self
    }

    /// Sets the dropped-notify rate (§5.3).
    pub fn drop_notifies(mut self, prob: f64) -> Self {
        self.drop_notify_prob = check_prob(prob);
        self
    }

    /// Sets the duplicated-notify rate (§5.3).
    pub fn duplicate_notifies(mut self, prob: f64) -> Self {
        self.duplicate_notify_prob = check_prob(prob);
        self
    }

    /// Sets the maximum jitter added to timer firings (§6.3).
    pub fn jitter_timers(mut self, max: SimDuration) -> Self {
        self.timer_jitter = max;
        self
    }

    /// Enables PCT-style priority perturbation: `changes` random
    /// priority-change points over the first `horizon` dispatches.
    pub fn pct(mut self, changes: u32, horizon: u64) -> Self {
        assert!(horizon > 0, "pct horizon must be positive");
        self.pct = Some(PctConfig { changes, horizon });
        self
    }

    /// Schedules a stall of the named thread (§5.2, §6.2).
    pub fn stall(mut self, thread: &str, at: SimTime, duration: SimDuration) -> Self {
        assert!(!duration.is_zero(), "stall duration must be positive");
        self.stalls.push(StallSpec {
            thread: thread.to_string(),
            at,
            duration,
            while_holding: None,
        });
        self
    }

    /// Schedules a stall of the named thread that only fires while it
    /// holds the named monitor: the trigger re-arms every millisecond
    /// from `at` until it catches the thread inside the monitor, then
    /// stalls it mid-critical-section (§6.2's preempted lock holder).
    pub fn stall_while_holding(
        mut self,
        thread: &str,
        monitor: &str,
        at: SimTime,
        duration: SimDuration,
    ) -> Self {
        assert!(!duration.is_zero(), "stall duration must be positive");
        self.stalls.push(StallSpec {
            thread: thread.to_string(),
            at,
            duration,
            while_holding: Some(monitor.to_string()),
        });
        self
    }
}

fn check_prob(p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "probability {p} not in [0, 1]");
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_inactive() {
        assert!(!ChaosConfig::default().is_active());
        assert!(!ChaosConfig::none().is_active());
    }

    #[test]
    fn each_knob_activates() {
        let t0 = SimTime::ZERO;
        let cases = [
            ChaosConfig::default().fail_forks(0.1),
            ChaosConfig::default().fork_outage(t0, t0 + millis(10)),
            ChaosConfig::default().spurious_wakeups(0.5),
            ChaosConfig::default().drop_notifies(0.5),
            ChaosConfig::default().duplicate_notifies(0.5),
            ChaosConfig::default().jitter_timers(millis(3)),
            ChaosConfig::default().pct(3, 1024),
            ChaosConfig::default().stall("x", t0, millis(1)),
            ChaosConfig::default().stall_while_holding("x", "m", t0, millis(1)),
            ChaosConfig::default().scripted(FaultSchedule::default()),
        ];
        for c in cases {
            assert!(c.is_active(), "{c:?} should be active");
        }
    }

    #[test]
    fn fault_site_kind_tags_round_trip() {
        for k in FaultSiteKind::ALL {
            assert_eq!(FaultSiteKind::from_tag(k.tag()), Some(k));
        }
        assert_eq!(FaultSiteKind::from_tag("nope"), None);
    }

    #[test]
    fn schedule_cursors_sort_per_kind() {
        let sched = FaultSchedule {
            decisions: vec![
                FaultDecision {
                    kind: FaultSiteKind::DropNotify,
                    site: 7,
                    param_us: 0,
                },
                FaultDecision {
                    kind: FaultSiteKind::DropNotify,
                    site: 2,
                    param_us: 0,
                },
                FaultDecision {
                    kind: FaultSiteKind::TimerJitter,
                    site: 0,
                    param_us: 450,
                },
            ],
            stalls: Vec::new(),
        };
        let cursors = sched.cursors();
        assert_eq!(
            cursors[FaultSiteKind::DropNotify.index()],
            VecDeque::from([(2, 0), (7, 0)])
        );
        assert_eq!(
            cursors[FaultSiteKind::TimerJitter.index()],
            VecDeque::from([(0, 450)])
        );
        assert!(cursors[FaultSiteKind::ForkFail.index()].is_empty());
    }

    #[test]
    fn scripted_adopts_schedule_stalls() {
        let sched = FaultSchedule {
            decisions: Vec::new(),
            stalls: vec![StallSpec {
                thread: "x".into(),
                at: SimTime::ZERO,
                duration: millis(2),
                while_holding: Some("m".into()),
            }],
        };
        let cfg = ChaosConfig::default()
            .stall("old", SimTime::ZERO, millis(1))
            .scripted(sched.clone());
        assert_eq!(cfg.stalls, sched.stalls);
        assert!(cfg.is_active());
    }

    #[test]
    #[should_panic(expected = "not in [0, 1]")]
    fn probability_out_of_range_panics() {
        let _ = ChaosConfig::default().fail_forks(1.5);
    }

    #[test]
    #[should_panic(expected = "empty window")]
    fn empty_outage_window_panics() {
        let t = SimTime::from_micros(5);
        let _ = ChaosConfig::default().fork_outage(t, t);
    }
}
