//! Threads: FORK (and its §5.4 resource limit), JOIN at most once,
//! DETACH, exit, priorities, the yields (§5.2) and the SystemDaemon's
//! random donation (§6.2), and the chaos stalls that take a thread out
//! of scheduling for a while.

use super::{AfterDebt, DonationPlan, ForkSpec, Kernel, Reply, Sim, TState, Tcb, TimerKind};
use crate::chaos::FaultSiteKind;
use crate::config::ForkPolicy;
use crate::ctx::{fork_spec, ThreadCtx};
use crate::event::{EventKind, YieldKind};
use crate::thread::{JoinHandle, Priority, ThreadId};
use crate::time::{SimDuration, SimTime};

impl Sim {
    /// Forks a root thread (generation 0) at the given priority.
    pub fn fork_root<T, F>(&mut self, name: &str, priority: Priority, f: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce(&ThreadCtx) -> T + Send + 'static,
    {
        let (spec, slot) = fork_spec(name, Some(priority), f);
        let tid = self.kernel_mut().create_thread(spec, None);
        JoinHandle { tid, slot }
    }

    /// Fails every FORK currently blocked waiting for a thread slot
    /// (§5.4 recovery: drain the queue instead of letting callers hang).
    /// Each blocked forker resumes with
    /// [`ForkError::ResourcesExhausted`](crate::ForkError::ResourcesExhausted).
    /// Returns how many forks were failed.
    pub fn fail_pending_forks(&mut self) -> usize {
        let k = &mut *self.kernel_mut();
        let n = k.pending_forks.len();
        while let Some((forker, _spec)) = k.pending_forks.pop_front() {
            k.stats.fork_failures += 1;
            k.emit(EventKind::ForkFailed { tid: forker });
            k.reply(forker, Reply::ForkFailed, k.cfg.primitive_cost);
            k.push_ready_back(forker);
        }
        n
    }

    /// Clears any chaos stall on `tid` — in force or pending — and puts
    /// a stalled thread back in the ready queue (§5.2 recovery: restart
    /// the unresponsive component). The stall's end comes off the timer
    /// wheel with it. Returns true if anything changed.
    pub fn rejuvenate(&mut self, tid: ThreadId) -> bool {
        self.kernel_mut().rejuvenate(tid)
    }

    /// Re-levels a live thread from outside (§6.2 recovery: boost a
    /// preempted lock holder so its high-priority waiter can make
    /// progress). A ready thread is re-queued at its new level; a
    /// blocked, stalled, or running thread just carries the new priority
    /// from its next scheduling point. Returns false if the thread has
    /// exited.
    pub fn set_thread_priority(&mut self, tid: ThreadId, priority: Priority) -> bool {
        let k = &mut *self.kernel_mut();
        let exited = |t: &Tcb| t.state == TState::Exited;
        if k.threads.get(tid.0 as usize).is_none_or(exited) {
            return false;
        }
        let was_ready = k.remove_from_ready(tid);
        k.set_priority_of(tid, priority);
        if was_ready {
            k.ready_enqueue(tid, false, false);
        }
        k.emit(EventKind::SetPriority { tid, priority });
        true
    }
}

impl Kernel {
    /// FORK: a ready thread one generation below its parent, at the
    /// priority asked for or else the parent's.
    fn create_thread(&mut self, spec: ForkSpec, parent: Option<ThreadId>) -> ThreadId {
        let tid = ThreadId(self.threads.len() as u32);
        let priority = spec.priority.unwrap_or_else(|| {
            parent
                .map(|p| self.threads[p.0 as usize].priority)
                .unwrap_or(Priority::DEFAULT)
        });
        let generation = parent
            .map(|p| self.threads[p.0 as usize].generation + 1)
            .unwrap_or(0);
        let coroutine = ThreadCtx::coroutine(
            self.pool.take(),
            tid,
            spec.name.clone(),
            priority,
            self.me.upgrade().expect("a kernel lives in its cell"),
            (self.sim, self.cfg.seed),
            spec.body,
        );
        self.threads.push(Tcb {
            name: spec.name,
            priority,
            state: TState::Ready,
            pending_reply: Some(Reply::Ok),
            debt: SimDuration::ZERO,
            after_debt: AfterDebt::Reply,
            coroutine: Some(coroutine),
            joiner: None,
            panicked: false,
            parent,
            generation,
            cpu: SimDuration::ZERO,
            wake_timers: [None; 2],
            acquire_on_dispatch: None,
            reacquire: None,
            stall_pending: None,
            in_ready: false,
            ready_since: SimTime::ZERO,
            blocked_since: SimTime::ZERO,
        });
        self.live_threads += 1;
        self.stats.max_live_threads = self.stats.max_live_threads.max(self.live_threads);
        self.stats.forks += 1;
        self.emit(EventKind::Fork {
            parent,
            child: tid,
            priority,
            generation,
        });
        self.ready_enqueue(tid, false, true);
        tid
    }

    /// FORK at the thread limit fails or waits for a slot, as
    /// [`ForkPolicy`] says (§5.4); chaos may fail one anywhere.
    pub(super) fn handle_fork(&mut self, tid: ThreadId, spec: ForkSpec) {
        // Chaos first (§5.4): an injected failure overrides the fork
        // policy — it models resource exhaustion the policy can't see.
        if self.chaos_fork_should_fail() {
            self.stats.chaos_fork_failures += 1;
            self.stats.fork_failures += 1;
            self.emit(EventKind::ChaosForkFail { tid });
            self.reply(tid, Reply::ForkFailed, self.cfg.primitive_cost);
            return;
        }
        if self.live_threads >= self.cfg.max_threads {
            match self.cfg.fork_policy {
                ForkPolicy::Error => {
                    self.stats.fork_failures += 1;
                    self.emit(EventKind::ForkFailed { tid });
                    self.threads[tid.0 as usize].pending_reply = Some(Reply::ForkFailed);
                }
                ForkPolicy::WaitForResources => {
                    self.stats.fork_blocks += 1;
                    self.emit(EventKind::ForkBlocked { tid });
                    self.threads[tid.0 as usize].state = TState::ForkWait;
                    self.threads[tid.0 as usize].blocked_since = self.clock;
                    self.pending_forks.push_back((tid, spec));
                }
            }
            return;
        }
        let child = self.create_thread(spec, Some(tid));
        self.reply(tid, Reply::Forked(child), self.cfg.fork_cost);
    }

    /// One seeded decision: fail this FORK? (§5.4 injection.)
    fn chaos_fork_should_fail(&mut self) -> bool {
        self.chaos_decision(FaultSiteKind::ForkFail, |s, _| {
            if let Some((from, until)) = s.cfg.chaos.fork_outage {
                if s.clock >= from && s.clock < until {
                    return Some(0);
                }
            }
            let p = s.cfg.chaos.fork_fail_prob;
            (p > 0.0 && s.chaos_rng.next_f64() < p).then_some(0)
        })
        .is_some()
    }

    /// JOIN, at most once per thread: an exited target answers at once,
    /// a live one blocks its joiner, a second joiner faults.
    pub(super) fn handle_join(&mut self, tid: ThreadId, target: ThreadId) {
        if self.threads[target.0 as usize].state == TState::Exited {
            self.emit(EventKind::Join {
                joiner: tid,
                target,
            });
            self.threads[tid.0 as usize].pending_reply = Some(Reply::Joined);
        } else {
            if let Some(other) = self.threads[target.0 as usize].joiner {
                self.fault(
                    tid,
                    format!("JOIN: thread {target:?} is already being joined by {other:?}"),
                );
                return;
            }
            self.threads[target.0 as usize].joiner = Some(tid);
            self.emit(EventKind::JoinBlocked {
                joiner: tid,
                target,
            });
            self.threads[tid.0 as usize].state = TState::JoinWait(target);
            self.threads[tid.0 as usize].blocked_since = self.clock;
        }
    }

    /// DETACH: the thread will never be joined. Every thread's stack is
    /// recycled at its exit, joined or not, so this is an event only.
    pub(super) fn handle_detach(&mut self, tid: ThreadId, target: ThreadId) {
        self.emit(EventKind::Detach { tid, target });
        self.reply_ok(tid);
    }

    /// A thread's end: its stack goes back to the pool, its joiner wakes,
    /// and the slot it frees admits one blocked FORK (§5.4).
    pub(super) fn handle_exit(&mut self, tid: ThreadId, panicked: bool) {
        self.emit(EventKind::Exit { tid, panicked });
        self.stats.exits += 1;
        if panicked {
            self.stats.panics += 1;
        }
        let t = &mut self.threads[tid.0 as usize];
        t.panicked = panicked;
        t.state = TState::Exited;
        t.pending_reply = None;
        t.debt = SimDuration::ZERO;
        self.live_threads -= 1;
        // Exit arrives with the body's final switch, so the stack is
        // already vacant: the next fork may have it.
        if let Some(co) = self.threads[tid.0 as usize].coroutine.take() {
            self.pool.give(co.into_stack());
        }
        debug_assert!(
            self.monitors.iter().all(|m| m.owner != Some(tid)),
            "thread exited while holding a monitor"
        );
        if let Some(j) = self.threads[tid.0 as usize].joiner.take() {
            self.emit(EventKind::Join {
                joiner: j,
                target: tid,
            });
            self.threads[j.0 as usize].pending_reply = Some(Reply::Joined);
            self.push_ready_back(j);
        }
        // A freed slot can satisfy a blocked FORK (§5.4).
        if self.live_threads < self.cfg.max_threads {
            if let Some((forker, spec)) = self.pending_forks.pop_front() {
                let child = self.create_thread(spec, Some(forker));
                self.reply(forker, Reply::Forked(child), self.cfg.fork_cost);
                self.push_ready_back(forker);
            }
        }
    }

    /// A running thread changes its own priority.
    pub(super) fn handle_set_priority(&mut self, tid: ThreadId, p: Priority) {
        // The thread is running (not in the ready structure), so
        // the policy only needs the notification, not a requeue.
        self.set_priority_of(tid, p);
        self.emit(EventKind::SetPriority { tid, priority: p });
        self.reply_ok(tid);
    }

    /// Gives `tid`, which is not in the ready structure, priority `p`,
    /// and tells the policy. A priority is an input of preemption.
    fn set_priority_of(&mut self, tid: ThreadId, p: Priority) {
        self.threads[tid.0 as usize].priority = p;
        self.policy.on_priority_changed(tid, p);
        self.preempt_clear = false;
    }

    // ---- yields and donation ----------------------------------------------

    /// Counts and announces a yield, which costs nothing and replies `Ok`.
    fn note_yield(&mut self, tid: ThreadId, kind: YieldKind) {
        self.stats.yields += 1;
        self.emit(EventKind::Yield { tid, kind });
        self.threads[tid.0 as usize].pending_reply = Some(Reply::Ok);
    }

    /// YIELD: to the back of the ready queue. Also what the directed
    /// forms are with a second CPU, where the favoured thread simply runs
    /// on another one.
    #[inline]
    pub(super) fn plain_yield(&mut self, tid: ThreadId) {
        self.note_yield(tid, YieldKind::Normal);
        self.push_ready_back(tid);
    }

    /// `YieldButNotToMe` (§5.2): the next pick is anyone but the caller.
    pub(super) fn yield_but_not_to_me(&mut self, tid: ThreadId) {
        self.note_yield(tid, YieldKind::ButNotToMe);
        self.donation = Some(DonationPlan::NotToMe { excluded: tid });
        self.push_ready_back(tid);
    }

    /// Directed yield: `target`, if ready, runs next for `slice`.
    pub(super) fn directed_yield(&mut self, tid: ThreadId, target: ThreadId, slice: SimDuration) {
        self.note_yield(tid, YieldKind::Directed(target));
        if self.threads[target.0 as usize].state == TState::Ready {
            self.donation = Some(DonationPlan::Directed { target, slice });
            self.push_ready_back(tid);
        }
        // Target not ready: the yield is a no-op and we keep running.
    }

    /// The SystemDaemon's donation (§6.2): a ready thread drawn at random
    /// runs next for `slice`, so a stable inversion cannot last.
    pub(super) fn donate_random(&mut self, tid: ThreadId, slice: SimDuration) {
        self.threads[tid.0 as usize].pending_reply = Some(Reply::Ok);
        // The candidate count comes from the policy (every ready
        // thread except the donor); the index pick stays on the
        // main RNG stream, and the policy enumerates candidates
        // in its deterministic order — for round-robin, the same
        // (level, FIFO) order the pre-trait scheduler had.
        let n = {
            let (policy, ctx) = self.policy_split();
            policy.ready_count_excluding(&ctx, tid)
        };
        if let Some(i) = self.rng.pick_index(n) {
            let target = {
                let (policy, ctx) = self.policy_split();
                policy.nth_ready_excluding(&ctx, i, tid)
            }
            .expect("donation target walk out of sync");
            debug_assert_ne!(target, tid, "donation target walk out of sync");
            self.stats.daemon_donations += 1;
            self.emit(EventKind::DaemonDonation { target });
            self.donation = Some(DonationPlan::Directed { target, slice });
            self.push_ready_back(tid);
        }
    }

    /// One PCT decision point, consulted at every dispatch: if this is a
    /// pre-drawn change site (or the replay script lists it), the thread
    /// being dispatched moves to a seeded random priority. The site
    /// counter ticks on every dispatch — with PCT off nothing is drawn
    /// and clean runs are untouched, yet `(PriorityChange, site)` still
    /// names one exact dispatch for scripted replay.
    #[inline]
    pub(super) fn chaos_priority_change(&mut self, tid: ThreadId) {
        let param = self.chaos_decision(FaultSiteKind::PriorityChange, |s, site| {
            if s.pct_sites.front() == Some(&site) {
                s.pct_sites.pop_front();
                Some(1 + s.chaos_rng.next_below(Priority::LEVELS as u64))
            } else {
                None
            }
        });
        if let Some(level) = param {
            let prio = Priority::of(level.clamp(1, Priority::LEVELS as u64) as u8);
            self.set_priority_of(tid, prio);
            self.stats.chaos_priority_changes += 1;
            self.emit(EventKind::SetPriority {
                tid,
                priority: prio,
            });
        }
    }

    // ---- chaos stalls ------------------------------------------------------

    /// Consumes a deferred chaos stall at the moment the thread would
    /// have become ready. Returns true if the thread was stalled instead.
    #[inline]
    pub(super) fn apply_pending_stall(&mut self, tid: ThreadId) -> bool {
        let Some(d) = self.threads[tid.0 as usize].stall_pending.take() else {
            return false;
        };
        self.stall_thread(tid, d);
        true
    }

    /// Takes `tid` (not currently in any queue or wait) out of scheduling
    /// for `d`.
    pub(super) fn stall_thread(&mut self, tid: ThreadId, d: SimDuration) {
        let until = self.clock + d;
        self.threads[tid.0 as usize].state = TState::Stalled;
        self.stats.chaos_stalls += 1;
        self.emit(EventKind::ChaosStall { tid, until });
        let end = self.timers.schedule(until, TimerKind::ChaosStallEnd(tid));
        let slot = &mut self.threads[tid.0 as usize].wake_timers;
        debug_assert_eq!(*slot, [None; 2], "a stall inside a wait");
        *slot = [Some(end), None];
    }

    pub(super) fn rejuvenate(&mut self, tid: ThreadId) -> bool {
        let had_pending = self.threads[tid.0 as usize].stall_pending.take().is_some();
        let was_stalled = self.threads[tid.0 as usize].state == TState::Stalled;
        if was_stalled {
            self.cancel_wake_timers(tid);
            self.push_ready_back(tid);
        }
        had_pending || was_stalled
    }
}
