//! Waits: WAIT, NOTIFY and BROADCAST on condition variables, the §6.1
//! deferred reschedule, CV timeouts and sleeps, and the timer wheel that
//! ends them.
//!
//! The wheel ([`crate::wheel`]) behaves as an exact priority queue
//! ordered by (deadline, insertion sequence), so same-deadline timers
//! fire FIFO and traces replay identically. Quantization to the timer
//! granularity happens at insertion, here. It holds live timers only: a
//! CV wait keeps the tokens of its timers, and whatever ends the wait
//! cancels what is left of them ([`Kernel::end_wait`]).

use super::{Kernel, Reply, Sim, TState};
use crate::chaos::FaultSiteKind;
use crate::condition::{Condition, CvState};
use crate::config::NotifyMode;
use crate::event::{CondId, EventKind, WaitOutcome};
use crate::monitor::{Monitor, MonitorId};
use crate::thread::ThreadId;
use crate::time::{micros, millis, SimDuration, SimTime};

/// What to do when a timer fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum TimerKind {
    /// Wake a sleeping thread.
    Wake(ThreadId),
    /// Time out `tid`'s wait on `cv`. Whatever ends the wait first cancels
    /// it (the waiter's `Tcb` keeps the token): in the wheel, it is live.
    CvTimeout { tid: ThreadId, cv: CondId },
    /// Chaos: wake a CV waiter spuriously. Cancelled like `CvTimeout`.
    ChaosSpuriousWake { tid: ThreadId, cv: CondId },
    /// Chaos: begin the stall described by `ChaosConfig.stalls[spec]`.
    ChaosStallStart { spec: u32 },
    /// Chaos: the stalled thread becomes schedulable again.
    ChaosStallEnd(ThreadId),
}

/// Pending runtime timers, ordered by `(deadline, insertion seq)`.
pub(super) type TimerWheel = crate::wheel::Wheel<TimerKind>;

impl Sim {
    /// Creates a condition variable on `m` before the run starts.
    pub fn condition<T: Send + 'static>(
        &mut self,
        m: &Monitor<T>,
        name: &str,
        timeout: Option<SimDuration>,
    ) -> Condition {
        let cv = CvState::new(name.into(), m.id(), timeout);
        Condition {
            id: self.kernel_mut().new_condition(cv),
            monitor: m.id(),
            timeout,
        }
    }
}

impl Kernel {
    pub(super) fn new_condition(&mut self, cv: CvState) -> CondId {
        self.conds.push(cv);
        CondId(self.conds.len() as u32 - 1)
    }

    /// WAIT: the caller must hold the CV's monitor, which it releases as
    /// it joins the CV's queue; the CV's timeout is armed rounded up to
    /// the timer granularity (§2's 50 ms).
    #[inline]
    pub(super) fn handle_cv_wait(&mut self, tid: ThreadId, cv: CondId) {
        let mid = self.conds[cv.0 as usize].monitor;
        if self.monitors[mid.0 as usize].owner != Some(tid) {
            self.fault(
                tid,
                format!("WAIT on {cv:?} without holding its monitor {mid:?}"),
            );
            return;
        }
        self.stats.cv_waits += 1;
        let first = !std::mem::replace(&mut self.conds[cv.0 as usize].waited, true);
        self.stats.distinct_conditions += usize::from(first);
        self.emit(EventKind::CvWait { tid, cv });
        let timeout = self.conds[cv.0 as usize].timeout.map(|timeout| {
            let at = (self.clock + timeout).round_up_to(self.cfg.granularity())
                + self.chaos_timer_jitter();
            self.timers.schedule(at, TimerKind::CvTimeout { tid, cv })
        });
        let spurious = self.chaos_decision(FaultSiteKind::SpuriousWakeup, |s, _| {
            let sp = s.cfg.chaos.spurious_wakeup_prob;
            if sp > 0.0 && s.chaos_rng.next_f64() < sp {
                // A spurious wakeup 1..=spurious_delay µs into the wait,
                // unless the wait ends first.
                let max = s.cfg.chaos.spurious_delay.as_micros();
                Some(s.chaos_rng.next_below(max) + 1)
            } else {
                None
            }
        });
        let spurious = spurious.map(|delay_us| {
            let kind = TimerKind::ChaosSpuriousWake { tid, cv };
            self.timers.schedule(self.clock + micros(delay_us), kind)
        });
        let now = self.clock;
        let t = &mut self.threads[tid.0 as usize];
        t.state = TState::CvWait(cv);
        t.blocked_since = now;
        t.wait_timers = [timeout, spurious];
        self.conds[cv.0 as usize].queue.push_back(tid);
        self.emit(EventKind::MlExit { tid, monitor: mid });
        self.release_monitor(mid);
    }

    /// NOTIFY wakes exactly one waiter (the longest waiting), BROADCAST
    /// every one; either needs the monitor held. Chaos may drop a NOTIFY
    /// or make it wake a second waiter (§5.3).
    #[inline]
    pub(super) fn handle_notify(&mut self, tid: ThreadId, cv: CondId, broadcast: bool) {
        let mid = self.conds[cv.0 as usize].monitor;
        if self.monitors[mid.0 as usize].owner != Some(tid) {
            self.fault(
                tid,
                format!("NOTIFY/BROADCAST on {cv:?} without holding its monitor {mid:?}"),
            );
            return;
        }
        // Chaos (§5.3): silently discard a NOTIFY that has a waiter. The
        // waiter keeps waiting; only its timeout (if any) can rescue it.
        if !broadcast && !self.conds[cv.0 as usize].queue.is_empty() {
            let dropped = self
                .chaos_decision(FaultSiteKind::DropNotify, |s, _| {
                    let p = s.cfg.chaos.drop_notify_prob;
                    (p > 0.0 && s.chaos_rng.next_f64() < p).then_some(0)
                })
                .is_some();
            if dropped {
                self.stats.cv_notifies += 1;
                self.stats.chaos_dropped_notifies += 1;
                self.emit(EventKind::NotifyDropped { tid, cv });
                self.reply_ok(tid);
                return;
            }
        }
        let mut woken = 0u32;
        let mut first_woken = None;
        while let Some(w) = self.conds[cv.0 as usize].queue.pop_front() {
            woken += 1;
            first_woken.get_or_insert(w);
            self.wake_waiter(w, mid, cv);
            if !broadcast {
                break;
            }
        }
        // Chaos (§5.3): wake a second waiter too, violating "exactly one
        // waiter wakens". Correct Mesa code re-checks its predicate and
        // survives; code that doesn't is what this fault flushes out.
        let mut extra = None;
        if !broadcast && first_woken.is_some() && !self.conds[cv.0 as usize].queue.is_empty() {
            let duplicated = self
                .chaos_decision(FaultSiteKind::DuplicateNotify, |s, _| {
                    let p = s.cfg.chaos.duplicate_notify_prob;
                    (p > 0.0 && s.chaos_rng.next_f64() < p).then_some(0)
                })
                .is_some();
            if duplicated {
                let w = self.conds[cv.0 as usize].queue.pop_front();
                let w = w.expect("a second waiter is queued");
                self.wake_waiter(w, mid, cv);
                self.stats.chaos_duplicated_notifies += 1;
                extra = Some(w);
            }
        }
        if broadcast {
            self.stats.cv_broadcasts += 1;
            self.emit(EventKind::Broadcast { tid, cv, woken });
        } else {
            self.stats.cv_notifies += 1;
            self.emit(EventKind::Notify {
                tid,
                cv,
                woken: first_woken,
            });
            if let Some(extra) = extra {
                self.emit(EventKind::NotifyDuplicated { tid, cv, extra });
            }
        }
        self.reply_ok(tid);
    }

    /// Wakes one CV waiter according to the configured NOTIFY mode: ready
    /// at once to reacquire the monitor, or (§6.1's deferred reschedule)
    /// queued on it when the notifier leaves.
    fn wake_waiter(&mut self, w: ThreadId, mid: MonitorId, cv: CondId) {
        self.end_wait(w);
        let wt = &mut self.threads[w.0 as usize];
        match self.cfg.notify_mode {
            NotifyMode::Immediate => {
                wt.acquire_on_dispatch = Some(mid);
                wt.reacquire = Some((WaitOutcome::Notified, cv));
                self.push_ready_back(w);
            }
            NotifyMode::DeferredReschedule => {
                self.monitors[mid.0 as usize]
                    .deferred
                    .push((w, WaitOutcome::Notified, cv));
            }
        }
    }

    /// The one way out of a CV wait, whoever ends it — NOTIFY, BROADCAST,
    /// its timeout, a spurious wakeup: its timers come off the wheel (one
    /// that is firing is off already), which so holds live timers only.
    fn end_wait(&mut self, tid: ThreadId) {
        let timers = std::mem::take(&mut self.threads[tid.0 as usize].wait_timers);
        for token in timers.into_iter().flatten() {
            if self.timers.cancel(token) {
                self.cancelled_until = self.cancelled_until.max(token.deadline());
            }
        }
    }

    /// A timer ends `tid`'s wait on `cv` — its timeout, or a spurious
    /// wakeup chaos armed: it leaves the CV's queue to reacquire the
    /// monitor, and the wait returns `outcome`.
    fn time_out_wait(&mut self, tid: ThreadId, cv: CondId, outcome: WaitOutcome) {
        let idx = tid.0 as usize;
        let waiting = self.threads[idx].state == TState::CvWait(cv);
        assert!(waiting, "a wait's timer outlived the wait");
        self.end_wait(tid);
        let mid = self.conds[cv.0 as usize].monitor;
        self.conds[cv.0 as usize].queue.retain(|&w| w != tid);
        if outcome == WaitOutcome::TimedOut {
            self.stats.cv_timeouts += 1;
        } else {
            self.stats.chaos_spurious_wakeups += 1;
            self.emit(EventKind::SpuriousWakeup { tid, cv });
        }
        let t = &mut self.threads[idx];
        t.acquire_on_dispatch = Some(mid);
        t.reacquire = Some((outcome, cv));
        self.push_ready_back(tid);
    }

    /// SLEEP: rounded up to the timer granularity like a timeout, unless
    /// `precise` (an external device's event, delivered on time).
    pub(super) fn handle_sleep(&mut self, tid: ThreadId, d: SimDuration, precise: bool) {
        let mut until = self.clock + d;
        if !precise {
            until = until.round_up_to(self.cfg.granularity());
        }
        until += self.chaos_timer_jitter();
        self.emit(EventKind::Sleep { tid, until });
        self.timers.schedule(until, TimerKind::Wake(tid));
        let now = self.clock;
        let t = &mut self.threads[tid.0 as usize];
        t.state = TState::Sleeping;
        t.blocked_since = now;
        t.pending_reply = Some(Reply::Ok);
    }

    /// Extra seeded delay applied to a timer deadline (§6.3 injection).
    fn chaos_timer_jitter(&mut self) -> SimDuration {
        let jitter = self.chaos_decision(FaultSiteKind::TimerJitter, |s, _| {
            let max = s.cfg.chaos.timer_jitter;
            if max.is_zero() {
                return None;
            }
            // A zero draw is indistinguishable from no jitter, so it is
            // not recorded as a decision (the replay injects nothing at
            // this site and the deadline comes out identical).
            let d = s.chaos_rng.next_below(max.as_micros() + 1);
            (d > 0).then_some(d)
        });
        micros(jitter.unwrap_or(0))
    }

    /// Fires what is due. Inlined: that nothing is costs the caller a field read.
    #[inline]
    pub(super) fn fire_due_timers(&mut self) {
        if self.timers.next_deadline().is_some_and(|t| t <= self.clock) {
            self.fire_timers();
        }
    }

    /// Where the clock next stops for a timer: the next one due, and with
    /// nothing to run (`idle`) also the latest deadline cancelled, while it
    /// is ahead of the clock (`cancelled_until` says why).
    pub(super) fn next_stop(&self, idle: bool) -> Option<SimTime> {
        let cancelled = Some(self.cancelled_until).filter(|&t| idle && t > self.clock);
        let next = self.timers.next_deadline();
        [next, cancelled].into_iter().flatten().min()
    }

    #[inline(never)]
    fn fire_timers(&mut self) {
        while let Some(kind) = self.timers.pop_due(self.clock) {
            match kind {
                TimerKind::Wake(tid) => {
                    if self.threads[tid.0 as usize].state == TState::Sleeping {
                        self.push_ready_back(tid);
                    }
                }
                TimerKind::CvTimeout { tid, cv } => {
                    self.time_out_wait(tid, cv, WaitOutcome::TimedOut)
                }
                TimerKind::ChaosSpuriousWake { tid, cv } => {
                    self.time_out_wait(tid, cv, WaitOutcome::Spurious)
                }
                TimerKind::ChaosStallStart { spec } => self.start_chaos_stall(spec),
                TimerKind::ChaosStallEnd(tid) => {
                    if self.threads[tid.0 as usize].state == TState::Stalled {
                        self.push_ready_back(tid);
                    }
                }
            }
        }
    }

    /// A chaos stall's start time has come: the named thread stops now,
    /// or when it next becomes ready; a stall gated on a monitor polls
    /// every millisecond until it catches the thread inside.
    fn start_chaos_stall(&mut self, spec: u32) {
        let s = &self.cfg.chaos.stalls[spec as usize];
        let duration = s.duration;
        let gated = s.while_holding.is_some();
        let target = (self.threads.iter())
            .position(|t| t.state != TState::Exited && t.name == s.thread)
            .map(|i| ThreadId(i as u32));
        let armed = target.filter(|&tid| self.holds_gate(spec as usize, tid));
        if let Some(tid) = armed {
            match self.threads[tid.0 as usize].state {
                TState::Ready => {
                    self.remove_from_ready(tid);
                    self.stall_thread(tid, duration);
                }
                TState::Running => {
                    // Caught inside its critical section: the
                    // run loop notices the state change and
                    // takes it off its CPU at once.
                    self.stall_thread(tid, duration);
                }
                _ => {
                    // Blocked: stall at the next point it
                    // would become ready.
                    self.threads[tid.0 as usize].stall_pending = Some(duration);
                }
            }
        } else if gated {
            // Gated on monitor ownership and the target is not
            // (yet) inside: poll again in a millisecond until
            // it is caught holding the lock.
            self.timers
                .schedule(self.clock + millis(1), TimerKind::ChaosStallStart { spec });
        }
    }
}
