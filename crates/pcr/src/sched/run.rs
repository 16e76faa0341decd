//! Running threads: the ready queue as the policy keeps it, dispatch and
//! the cost of a switch, strict-priority preemption, the quantum, and
//! the run loop that carries the clock — on one CPU, as the paper
//! measured, or on several (§4.7's context).
//!
//! The paper's measurements are from a uniprocessor SPARCstation and
//! [`Sim::new`] models exactly that. But "these systems do run on
//! multiprocessors", concurrency exploiters are "threads created
//! specifically to make use of multiple processors", and Birrell's
//! original spurious-lock-conflict scenario (§6.1) *requires* two
//! processors: the notifier keeps running on one while the notified
//! thread starts on another and trips over the still-held monitor.
//!
//! Thread bodies execute one at a time in real time whatever the CPU
//! count — only *virtual* time overlaps — so N processors are not a
//! second kernel but a second rule for advancing the clock over the same
//! cooperative one: the installed policy dispatches onto every CPU
//! (under the paper's, no runnable thread is outranked by a waiting one
//! across all CPUs), each CPU has its own timeslice, and the clock moves
//! by the largest step that reaches no timer, no end of a `work` and no
//! end of a quantum on any CPU. A thread's kernel call is served on its
//! own stack at once, but its reply waits for the loop, which answers the
//! CPUs in index order: that is the linearization of same-instant
//! operations, and what keeps a run deterministic.
//!
//! What `cpus > 1` does differently inside the shared kernel, each a
//! `cpus == 1` branch there:
//!
//! | On one CPU | With more | Why |
//! |---|---|---|
//! | `YieldButNotToMe`, directed yields and `donate_random` steer the next pick | they are plain YIELD | they exist to get *another* thread onto the only CPU; here it simply runs on another one |
//! | a contended ENTER spends `metalock_cost` in a window it can be preempted in (§6.2) | ENTER and EXIT are atomic | the window models a preemption between two instructions of one CPU's kernel, and same-instant calls of several CPUs are already serialized in index order |
//! | a switch advances the clock by `switch_cost`, charged to no thread | no switch cost | the cost is a gap in the one CPU's timeline; a clock several CPUs share has no place to put one CPU's gap |

use std::cell::RefMut;

use super::policy::{PolicyCtx, Scheduler};
use super::{AfterDebt, Cpu, DonationPlan, Kernel, Reply, RunLimit, Shield, Sim, TState};
use crate::error::{RunReport, StopReason};
use crate::event::EventKind;
use crate::thread::{Priority, ThreadId};
use crate::time::{SimDuration, SimTime};

impl Sim {
    /// Advances the simulation until the limit is reached, every thread
    /// has exited, or the remaining threads are deadlocked.
    pub fn run(&mut self, limit: RunLimit) -> RunReport {
        let mut k = self.kernel_mut();
        let start = k.clock;
        let end = match limit {
            RunLimit::For(d) => k.clock.saturating_add(d),
            RunLimit::Until(t) => t,
            RunLimit::ToCompletion => SimTime::MAX,
        };
        k.end = end;
        let uniprocessor = k.uniprocessor();
        drop(k);
        // How the clock advances follows from what the world is.
        let reason = if uniprocessor {
            self.run_cpu(end)
        } else {
            self.run_cpus(end)
        };
        let mut k = self.kernel.borrow_mut();
        if reason == StopReason::TimeLimit && k.clock < end && end != SimTime::MAX {
            k.set_clock(end);
        }
        RunReport {
            reason,
            now: k.clock,
            elapsed: k.clock.saturating_since(start),
            hazards: k.hazards.as_ref().map(|h| h.counts()).unwrap_or_default(),
        }
    }

    /// The uniprocessor's run loop: the one running thread carries the
    /// clock ([`Kernel::advance`]), and an idle CPU jumps to the next timer.
    fn run_cpu(&self, end: SimTime) -> StopReason {
        let mut k = self.kernel.borrow_mut();
        loop {
            k.fire_due_timers();
            if k.live_threads == 0 {
                return StopReason::AllExited;
            }
            if k.clock >= end {
                return StopReason::TimeLimit;
            }
            match k.pick_next() {
                Some((tid, slice, shield)) => k = self.dispatch(k, tid, slice, shield),
                None => match k.next_stop(true) {
                    Some(t) if t <= end => k.set_clock(t),
                    Some(_) => return StopReason::TimeLimit,
                    None => return StopReason::Deadlock(k.deadlock_report()),
                },
            }
        }
    }

    /// Gives `tid` the CPU until it leaves it. Its kernel calls run on its
    /// own stack ([`Kernel::serve`]), so the one `resume` here comes back
    /// only when the body has parked, off the CPU, or posted its `Exit`.
    fn dispatch<'a>(
        &'a self,
        mut k: RefMut<'a, Kernel>,
        tid: ThreadId,
        quantum_override: Option<SimDuration>,
        shield: Option<Shield>,
    ) -> RefMut<'a, Kernel> {
        if k.begin_dispatch(0, tid, quantum_override, shield) {
            if let Some(reply) = k.advance(tid) {
                k = self.resume(k, tid, reply);
            }
        }
        k.leave_cpu(0);
        k
    }

    /// Runs `tid`'s body from `reply` until it parks or ends, the kernel
    /// not borrowed meanwhile, and serves the `Exit` it posted if it ended.
    // Inlined: out of line, a `yield_now` round trip costs 97 -> 110-115 ns.
    #[inline(always)]
    fn resume<'a>(
        &'a self,
        mut k: RefMut<'a, Kernel>,
        tid: ThreadId,
        reply: Reply,
    ) -> RefMut<'a, Kernel> {
        k.stack_switches += 1;
        let slot = &mut k.threads[tid.0 as usize].coroutine;
        let mut body = slot.take().expect("running thread has no coroutine");
        drop(k);
        debug_assert!(self.kernel.try_borrow_mut().is_ok());
        let posted = body.resume(reply);
        let mut k = self.kernel.borrow_mut();
        k.threads[tid.0 as usize].coroutine = Some(body);
        if let Some(exit) = posted {
            k.handle_request(tid, exit);
        }
        k
    }

    /// The run loop at `cpus > 1`: serve every CPU at a kernel call, then
    /// let all of them consume the same stretch of virtual time.
    fn run_cpus(&self, end: SimTime) -> StopReason {
        let mut k = self.kernel.borrow_mut();
        loop {
            k.fire_due_timers();
            if k.live_threads == 0 {
                return StopReason::AllExited;
            }
            if k.clock >= end {
                return StopReason::TimeLimit;
            }
            k = self.service_cpus(k);
            if k.live_threads == 0 {
                return StopReason::AllExited;
            }
            let idle = k.cpus.iter().all(|c| c.running.is_none());
            let next = k.next_stop(idle);
            if idle && next.is_none() {
                return StopReason::Deadlock(k.deadlock_report());
            }
            k.advance_cpus(end, next);
        }
    }

    /// Resumes, in CPU-index order, every running thread that has worked
    /// off its debt, and lets it run to its next kernel call (served on its
    /// own stack, [`Kernel::serve`]); takes those that left their CPU off
    /// it. Rounds repeat, rebalancing in between so that a thread just
    /// dispatched gets its turn too, until every busy CPU carries debt.
    fn service_cpus<'a>(&'a self, mut k: RefMut<'a, Kernel>) -> RefMut<'a, Kernel> {
        loop {
            k.rebalance();
            let mut progressed = false;
            for cpu in 0..k.cpus.len() {
                while let Some(tid) = k.cpus[cpu].running {
                    let t = &mut k.threads[tid.0 as usize];
                    if t.state != TState::Running {
                        // Blocked, yielded or exited in the call just
                        // served, or a chaos stall caught it mid-`work`.
                        k.leave_cpu(cpu);
                        progressed = true;
                        break;
                    }
                    if !t.debt.is_zero() {
                        break;
                    }
                    let reply = t.pending_reply.take();
                    let reply = reply.expect("a running thread has debt or a pending reply");
                    k = self.resume(k, tid, reply);
                    progressed = true;
                }
            }
            if !progressed {
                return k;
            }
        }
    }
}

impl Kernel {
    // ---- the ready queue ----------------------------------------------------

    /// Splits the borrow of `self` into the installed policy and the
    /// [`PolicyCtx`] lending it the thread table — disjoint fields, so
    /// the policy can mutate its structure while reading thread state.
    pub(super) fn policy_split(&mut self) -> (&mut dyn Scheduler, PolicyCtx<'_>) {
        let Kernel {
            policy, threads, ..
        } = self;
        (policy.as_mut(), PolicyCtx { threads })
    }

    /// Hands a runnable `tid` to the policy, maintaining the simulator's
    /// own bookkeeping (ready flag, latency stamp).
    /// `wakeup` is true when the thread was blocked rather than
    /// preempted or yielding.
    #[inline]
    pub(super) fn ready_enqueue(&mut self, tid: ThreadId, front: bool, wakeup: bool) {
        let now = self.clock;
        let t = &mut self.threads[tid.0 as usize];
        debug_assert!(!t.in_ready, "thread {tid:?} enqueued while already ready");
        t.in_ready = true;
        t.ready_since = now;
        let (policy, mut ctx) = self.policy_split();
        policy.on_ready(&mut ctx, tid, front, wakeup);
    }

    #[inline]
    pub(super) fn push_ready_back(&mut self, tid: ThreadId) {
        self.push_ready(tid, false);
    }

    /// Makes `tid` ready, unless a chaos stall was waiting for the moment.
    #[inline]
    fn push_ready(&mut self, tid: ThreadId, front: bool) {
        if self.apply_pending_stall(tid) {
            return;
        }
        let t = &mut self.threads[tid.0 as usize];
        let wakeup = t.state != TState::Running;
        t.state = TState::Ready;
        self.ready_enqueue(tid, front, wakeup);
    }

    /// Asks the policy for the next thread to run, skipping `excluded`
    /// (the paper's `YieldButNotToMe`).
    fn pop_ready_excluding(&mut self, excluded: Option<ThreadId>) -> Option<ThreadId> {
        let (policy, mut ctx) = self.policy_split();
        policy.next(&mut ctx, excluded)
    }

    pub(super) fn remove_from_ready(&mut self, tid: ThreadId) -> bool {
        if !self.threads[tid.0 as usize].in_ready {
            return false;
        }
        let (policy, mut ctx) = self.policy_split();
        policy.remove(&mut ctx, tid);
        debug_assert!(!self.threads[tid.0 as usize].in_ready);
        true
    }

    // ---- dispatch -------------------------------------------------------------

    /// The next thread for the one CPU: what a directed yield asked for,
    /// if it still can be, else the policy's pick.
    fn pick_next(&mut self) -> Option<(ThreadId, Option<SimDuration>, Option<Shield>)> {
        if let Some(plan) = self.donation.take() {
            match plan {
                DonationPlan::NotToMe { excluded } => {
                    if let Some(tid) = self.pop_ready_excluding(Some(excluded)) {
                        return Some((tid, None, Some(Shield::FromDonor(excluded))));
                    }
                }
                DonationPlan::Directed { target, slice } => {
                    if self.threads[target.0 as usize].state == TState::Ready
                        && self.remove_from_ready(target)
                    {
                        return Some((target, Some(slice), Some(Shield::Full)));
                    }
                }
            }
        }
        self.pop_ready_excluding(None).map(|t| (t, None, None))
    }

    /// Puts `tid` on `cpu`: the switch bookkeeping, its timeslice, the
    /// monitor a CV wake or metalock retry acquires on dispatch. False if
    /// that acquire blocked it and it is off the CPU again.
    fn begin_dispatch(
        &mut self,
        cpu: usize,
        tid: ThreadId,
        quantum_override: Option<SimDuration>,
        shield: Option<Shield>,
    ) -> bool {
        self.chaos_priority_change(tid);
        let from = self.cpus[cpu].last_dispatched;
        if from != Some(tid) {
            self.stats.switches += 1;
            let prio = self.threads[tid.0 as usize].priority;
            let ready_for = self
                .clock
                .saturating_since(self.threads[tid.0 as usize].ready_since);
            self.stats.sched_latency.record(prio, ready_for);
            self.emit(EventKind::Switch {
                from,
                to: tid,
                to_priority: prio,
                ready_for,
            });
            if self.uniprocessor() {
                // Scheduler overhead: advances the clock, charged to no
                // thread. A clock several CPUs share has no such gap.
                self.set_clock(self.clock + self.cfg.switch_cost);
            }
        }
        self.threads[tid.0 as usize].state = TState::Running;
        let quantum_left = quantum_override.unwrap_or_else(|| self.policy_timeslice(tid));
        self.cpus[cpu] = Cpu {
            running: Some(tid),
            last_dispatched: Some(tid),
            quantum_left,
            shield,
        };

        // A CV wake or metalock retry acquires its monitor now; blocking
        // here is the "useless trip through the scheduler" of §6.1.
        let acquire = self.threads[tid.0 as usize].acquire_on_dispatch.take();
        acquire.is_none_or(|mid| self.dispatch_acquire(tid, mid))
    }

    /// Runs the running thread `tid` forward to its next reply: fires due
    /// timers, then pays off its debt slice by slice, stopping for a
    /// preemption, the end of its quantum or of the run window. `None`
    /// means it has left the CPU (requeued, blocked or stalled) and
    /// [`Kernel::leave_cpu`] is due.
    #[inline]
    pub(super) fn advance(&mut self, tid: ThreadId) -> Option<Reply> {
        loop {
            self.fire_due_timers();
            if self.threads[tid.0 as usize].state != TState::Running {
                // A chaos stall caught the running thread mid-dispatch
                // (no other timer touches a Running thread); it must not
                // be re-enqueued until its stall ends.
                return None;
            }
            if self.clock >= self.end || self.preempt_needed(0) {
                self.push_ready(tid, true);
                return None;
            }
            let debt = self.threads[tid.0 as usize].debt;
            if !debt.is_zero() {
                let window = self.end.since(self.clock);
                let mut slice = debt.min(self.cpus[0].quantum_left).min(window);
                if let Some(nt) = self.timers.next_deadline() {
                    slice = slice.min(nt.saturating_since(self.clock));
                }
                if slice.is_zero() {
                    // Quantum exhausted (timers due are handled at loop top).
                    if self.quantum_expired(0, tid) {
                        return None;
                    }
                    continue;
                }
                self.charge_thread(tid, slice);
                self.set_clock(self.clock + slice);
                self.threads[tid.0 as usize].debt -= slice;
                self.cpus[0].quantum_left -= slice;
                continue;
            }
            if let AfterDebt::BlockOnMutex(mid) = self.threads[tid.0 as usize].after_debt {
                // Granted at once (the thread is Ready) or blocked:
                // either way it is off the CPU.
                self.finish_block_on_mutex(tid, mid);
                return None;
            }
            let reply = self.threads[tid.0 as usize].pending_reply.take();
            return Some(reply.expect("a running thread has debt or a pending reply"));
        }
    }

    /// The bookkeeping owed once the dispatched thread is off `cpu`.
    fn leave_cpu(&mut self, cpu: usize) {
        self.cpus[cpu].running = None;
        self.cpus[cpu].shield = None;
    }

    // ---- preemption and the quantum ------------------------------------------

    /// Does the policy want the thread on `cpu` off it for a ready one?
    /// Under the paper's, a ready thread of higher priority preempts.
    fn preempt_needed(&mut self, cpu: usize) -> bool {
        let Some(run) = self.cpus[cpu].running else {
            return false;
        };
        let shield = self.cpus[cpu].shield;
        let (policy, mut ctx) = self.policy_split();
        match shield {
            Some(Shield::Full) => false,
            Some(Shield::FromDonor(d)) => policy.preempts(&mut ctx, run, Some(d)),
            None => policy.preempts(&mut ctx, run, None),
        }
    }

    /// The policy-granted quantum for dispatching `tid` now.
    fn policy_timeslice(&self, tid: ThreadId) -> SimDuration {
        let prio = self.threads[tid.0 as usize].priority;
        self.policy.timeslice(tid, prio, self.cfg.quantum)
    }

    /// `tid` has run out its timeslice on `cpu`: true if it was requeued
    /// behind a competitor (and [`Kernel::leave_cpu`] is due), false if it
    /// runs on with a fresh slice.
    fn quantum_expired(&mut self, cpu: usize, tid: ThreadId) -> bool {
        // Demotion (MLFQ) happens before the requeue decision so the
        // expired thread re-enters at its new level.
        self.policy.on_quantum_expired(tid);
        self.stats.quantum_expiries += 1;
        self.emit(EventKind::QuantumExpired { tid });
        if self.cpus[cpu].shield.take().is_some() || self.quantum_competitor_exists(tid) {
            self.push_ready_back(tid);
            return true;
        }
        self.cpus[cpu].quantum_left = self.policy_timeslice(tid);
        false
    }

    /// After `tid`'s quantum expired: does the policy want to requeue it
    /// behind a competitor instead of granting a fresh slice?
    fn quantum_competitor_exists(&mut self, tid: ThreadId) -> bool {
        let (policy, mut ctx) = self.policy_split();
        policy.has_competitor(&mut ctx, tid)
    }

    // ---- several CPUs ----------------------------------------------------------

    /// Global dispatch: an idle CPU takes the policy's next thread; with
    /// none idle, the CPU to change hands is that of the lowest-priority
    /// thread the policy says a ready one preempts (the lowest index among
    /// equals).
    fn rebalance(&mut self) {
        loop {
            let mut victim: Option<(Priority, usize)> = None;
            let mut idle = None;
            for cpu in 0..self.cpus.len() {
                let Some(run) = self.cpus[cpu].running else {
                    idle = Some(cpu);
                    break;
                };
                let prio = self.threads[run.0 as usize].priority;
                if victim.is_none_or(|(p, _)| prio < p) && self.preempt_needed(cpu) {
                    victim = Some((prio, cpu));
                }
            }
            let Some(cpu) = idle.or(victim.map(|(_, cpu)| cpu)) else {
                return;
            };
            // Picked before the preempted thread is requeued: a policy
            // cannot answer with the thread it was asked to replace.
            let Some(next) = self.pop_ready_excluding(None) else {
                return;
            };
            if let Some(preempted) = self.cpus[cpu].running {
                self.push_ready(preempted, true);
                self.leave_cpu(cpu);
            }
            if !self.begin_dispatch(cpu, next, None, None) {
                self.leave_cpu(cpu);
            }
        }
    }

    /// Advances virtual time across all busy CPUs by the largest step that
    /// passes no timer (`next`: [`Kernel::next_stop`]), no end of a debt and
    /// no end of a quantum; with every CPU idle, the jump to `next` or `end`.
    /// A step of zero is a quantum that expires now.
    fn advance_cpus(&mut self, end: SimTime, next: Option<SimTime>) {
        let mut dt = end.saturating_since(self.clock);
        if let Some(t) = next {
            dt = dt.min(t.saturating_since(self.clock));
        }
        for cpu in 0..self.cpus.len() {
            let Some(tid) = self.cpus[cpu].running else {
                continue;
            };
            // Served a moment ago: whoever is still running owes work.
            let debt = self.threads[tid.0 as usize].debt;
            debug_assert!(!debt.is_zero());
            if self.cpus[cpu].quantum_left.is_zero() && self.quantum_expired(cpu, tid) {
                self.leave_cpu(cpu);
                // Its successor is dispatched before any time passes.
                dt = SimDuration::ZERO;
                continue;
            }
            dt = dt.min(debt).min(self.cpus[cpu].quantum_left);
        }
        self.set_clock(self.clock + dt);
        for cpu in 0..self.cpus.len() {
            if let Some(tid) = self.cpus[cpu].running {
                self.charge_thread(tid, dt);
                self.threads[tid.0 as usize].debt -= dt;
                self.cpus[cpu].quantum_left -= dt;
            }
        }
    }
}
