//! A kernel call: what a thread asks ([`Request`]) and is answered
//! ([`Reply`]), the one `match` that routes a request to its rule, and
//! what every rule shares — events, faults, CPU accounting, chaos
//! decisions — plus the host's read-only views of the state.
//!
//! Each simulated thread is a stackful coroutine on the OS thread that
//! built the simulation ([`crate::coroutine`]), so exactly one runs at a
//! time by construction. A [`Request`] is an argument, not a message: the
//! kernel serves it on the requesting body's own stack and returns the
//! [`Reply`], and only a thread that has left the CPU parks, to be resumed
//! with its reply by a later dispatch. (With more than one virtual CPU a
//! thread parks after every request and the run loop hands out the
//! replies in CPU-index order; the request is served the same way.)
//! User code between two requests executes in zero virtual time; virtual
//! time advances only through explicit costs the scheduler processes, so
//! the simulation is deterministic.

use std::cell::{Ref, RefMut};
use std::sync::Arc;

use super::{AfterDebt, AllocCounters, Kernel, Sim, SimStats, TState, Tcb};
use crate::chaos::{FaultDecision, FaultSchedule, FaultSiteKind};
use crate::condition::CvState;
use crate::config::SimConfig;
use crate::coroutine::Coroutine;
use crate::error::DeadlockReport;
use crate::event::{CondId, Event, EventKind, EventMask, TraceSink, WaitOutcome};
use crate::hazard::HazardMonitor;
use crate::monitor::MonitorId;
use crate::thread::{Priority, ThreadId, ThreadInfo};
use crate::time::{SimDuration, SimTime};

/// A simulated thread body, already wrapped for result capture and panic
/// handling.
pub(crate) type BodyFn = Box<dyn FnOnce(&crate::ctx::ThreadCtx) + Send + 'static>;

/// Everything the scheduler needs to create a thread.
pub(crate) struct ForkSpec {
    pub name: String,
    pub priority: Option<Priority>,
    pub body: BodyFn,
}

impl std::fmt::Debug for ForkSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ForkSpec")
            .field("name", &self.name)
            .field("priority", &self.priority)
            .finish_non_exhaustive()
    }
}

/// A request from the running thread to the scheduler.
#[derive(Debug)]
pub(crate) enum Request {
    /// Create a thread.
    Fork(ForkSpec),
    /// Wait for a thread to exit.
    Join(ThreadId),
    /// Mark a thread as never-to-be-joined.
    Detach(ThreadId),
    /// Consume virtual CPU time (preemptible).
    Work(SimDuration),
    /// Sleep. `precise` sleeps wake exactly on time (modelling external
    /// device events delivered by the host OS); plain sleeps are quantized
    /// to the timer granularity like PCR timeouts.
    Sleep { d: SimDuration, precise: bool },
    /// Plain YIELD.
    Yield,
    /// `YieldButNotToMe` (§5.2).
    YieldButNotToMe,
    /// Directed yield: donate `slice` to `target` if it is ready.
    DirectedYield {
        target: ThreadId,
        slice: SimDuration,
    },
    /// Donate `slice` to a randomly chosen ready thread (SystemDaemon).
    DonateRandom { slice: SimDuration },
    /// Change own priority.
    SetPriority(Priority),
    /// Enter a monitor.
    MonitorEnter(MonitorId),
    /// Exit a monitor.
    MonitorExit(MonitorId),
    /// Atomically exit the CV's monitor and wait on the CV.
    CvWait { cv: CondId },
    /// Wake at most one waiter.
    Notify { cv: CondId },
    /// Wake all waiters.
    Broadcast { cv: CondId },
    /// Allocate a monitor id.
    NewMonitor { name: Arc<str> },
    /// Allocate a condition-variable id.
    NewCondition {
        name: Arc<str>,
        monitor: MonitorId,
        timeout: Option<SimDuration>,
    },
    /// Thread terminated (normally or by panic). Always posted: the body's
    /// final switch delivers it to the scheduler's side, which recycles
    /// the stack, and no reply follows.
    Exit { panicked: bool },
}

/// The scheduler's reply that resumes a parked thread.
///
/// A `Copy` value of 8 bytes, `Option` included, so that `Kernel::serve`
/// hands it back in a register. Nearly every call is served in place, and a
/// wider reply (24 bytes when a fault carried its text) went through memory
/// in narrow stores read back by one wide load: a store-forwarding stall on
/// every call. A fault's text therefore waits kernel-side, for the faulting
/// thread to take it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reply {
    /// Generic completion.
    Ok,
    /// Fork succeeded.
    Forked(ThreadId),
    /// Fork failed under [`crate::ForkPolicy::Error`].
    ForkFailed,
    /// Join target has exited.
    Joined,
    /// A CV wait finished with this outcome.
    Wait(WaitOutcome),
    /// Fresh monitor id.
    MonitorId(MonitorId),
    /// Fresh condition id.
    CondId(CondId),
    /// The request was illegal (recursive monitor entry, exiting an
    /// unowned monitor, CV op without the lock...). The thread panics
    /// with the message the kernel keeps for it; the simulation continues.
    Fault,
    /// The simulation is tearing down: unwind out of the thread body.
    Shutdown,
}

// What keeps a reply in a register: no heap field, no drop glue.
const _: () = assert!(size_of::<Option<Reply>>() <= 8);
const _: fn() = || {
    fn copy<T: Copy>() {}
    copy::<Reply>();
};

/// Panic payload used to unwind a simulated thread at shutdown.
pub(crate) struct ShutdownSignal;

/// A call that [`Kernel::finish_quietly`] may finish without a [`Request`].
#[derive(Clone, Copy)]
pub(crate) enum QuietCall {
    Enter(MonitorId),
    Exit(MonitorId),
    Work(SimDuration),
}

impl Kernel {
    /// One kernel call from the running thread `tid`, made on its own
    /// stack: the reply if it still holds the CPU, `None` once it has
    /// left it — then it parks and [`Sim::dispatch`] carries on.
    ///
    /// With a second CPU it always parks, still holding its own: same-instant
    /// calls are served in CPU-index order, by the run loop.
    pub(crate) fn serve(&mut self, tid: ThreadId, req: Request) -> Option<Reply> {
        self.handle_request(tid, req);
        if self.threads[tid.0 as usize].state != TState::Running || !self.uniprocessor() {
            return None;
        }
        self.advance(tid)
    }

    /// Finishes `call` of the running thread `tid` in place, with no
    /// [`Request`], no reply and no [`Kernel::advance`], when it is quiet:
    /// one CPU, no preemption due ([`Kernel::preempt_pending`]), a cost
    /// that ends strictly before the next timer's deadline, the end of the
    /// quantum and the end of the run's window, and a call that decides
    /// nothing — an ENTER of a monitor with no owner and no metalock
    /// holder, an EXIT by the owner with nobody queued and no deferred
    /// NOTIFY, or any `work`. `None` if it is not, and nothing has changed.
    ///
    /// The rule is the general path's; only the booking of its cost is
    /// `advance`'s single slice written out, so events, counters and
    /// policy calls are the same. `Some(false)`: the booked CPU made a
    /// ready thread the caller's preemptor (a policy whose `preempts`
    /// reads it), and it has left the CPU, to resume with [`Reply::Ok`].
    #[inline]
    pub(crate) fn finish_quietly(&mut self, tid: ThreadId, call: QuietCall) -> Option<bool> {
        if !self.uniprocessor() || self.preempt_pending() {
            return None;
        }
        let cost = match call {
            QuietCall::Work(d) => d,
            QuietCall::Enter(_) | QuietCall::Exit(_) => self.cfg.primitive_cost,
        };
        let window = self.end.saturating_since(self.clock);
        let mut room = self.cpus[0].quantum_left.min(window);
        if let Some(t) = self.timers.next_deadline() {
            room = room.min(t.saturating_since(self.clock));
        }
        if cost >= room {
            return None;
        }
        match call {
            QuietCall::Enter(mid) => {
                let m = &self.monitors[mid.0 as usize];
                if m.owner.is_some() || m.meta.is_some() {
                    return None;
                }
                self.take_free_monitor(tid, mid);
            }
            QuietCall::Exit(mid) => {
                let m = &self.monitors[mid.0 as usize];
                if m.owner != Some(tid) || !m.queue.is_empty() || !m.deferred.is_empty() {
                    return None;
                }
                self.exit_owned_monitor(tid, mid);
            }
            QuietCall::Work(_) => {}
        }
        debug_assert!(self.threads[tid.0 as usize].debt.is_zero());
        self.quiet_calls += 1;
        self.charge_thread(tid, cost);
        self.set_clock(self.clock + cost);
        self.cpus[0].quantum_left -= cost;
        if self.preempt_pending() {
            self.threads[tid.0 as usize].pending_reply = Some(Reply::Ok);
            self.push_ready(tid, true);
            return Some(false);
        }
        Some(true)
    }

    /// Routes a request to the rule that serves it.
    pub(super) fn handle_request(&mut self, tid: ThreadId, req: Request) {
        match req {
            Request::Fork(spec) => self.handle_fork(tid, spec),
            Request::Join(target) => self.handle_join(tid, target),
            Request::Detach(target) => self.handle_detach(tid, target),
            Request::Work(d) => self.reply(tid, Reply::Ok, d),
            Request::Sleep { d, precise } => self.handle_sleep(tid, d, precise),
            Request::YieldButNotToMe if self.uniprocessor() => self.yield_but_not_to_me(tid),
            Request::DirectedYield { target, slice } if self.uniprocessor() => {
                self.directed_yield(tid, target, slice)
            }
            Request::DonateRandom { slice } if self.uniprocessor() => {
                self.donate_random(tid, slice)
            }
            // The directed forms steer one CPU's next pick. With a second
            // CPU the favoured thread simply runs there: plain YIELD.
            Request::Yield
            | Request::YieldButNotToMe
            | Request::DirectedYield { .. }
            | Request::DonateRandom { .. } => self.plain_yield(tid),
            Request::SetPriority(p) => self.handle_set_priority(tid, p),
            Request::MonitorEnter(mid) => self.handle_enter(tid, mid),
            Request::MonitorExit(mid) => self.handle_exit_monitor(tid, mid),
            Request::CvWait { cv } => self.handle_cv_wait(tid, cv),
            Request::Notify { cv } => self.handle_notify(tid, cv, false),
            Request::Broadcast { cv } => self.handle_notify(tid, cv, true),
            Request::NewMonitor { name } => {
                let id = self.new_monitor(name);
                self.threads[tid.0 as usize].pending_reply = Some(Reply::MonitorId(id));
            }
            Request::NewCondition {
                name,
                monitor,
                timeout,
            } => {
                let id = self.new_condition(CvState::new(name, monitor, timeout));
                self.threads[tid.0 as usize].pending_reply = Some(Reply::CondId(id));
            }
            Request::Exit { panicked } => self.handle_exit(tid, panicked),
        }
    }

    /// One CPU, as the paper measured: directed yields, the metalock
    /// window and the switch cost exist (`run.rs` says why only here).
    pub(super) fn uniprocessor(&self) -> bool {
        self.cpus.len() == 1
    }

    /// Routes one event to the subscribed consumers. When neither the
    /// hazard monitor nor the sink wants this kind — in particular when
    /// no instrumentation is attached at all — the event is never even
    /// constructed: the counters in [`SimStats`] are maintained by the
    /// callers, so this fast path loses nothing.
    #[inline]
    pub(super) fn emit(&mut self, kind: EventKind) {
        let to_hazard = self.hazard_mask.contains(&kind);
        let to_sink = self.sink_mask.contains(&kind);
        if !to_hazard && !to_sink {
            return;
        }
        let ev = Event {
            t: self.clock,
            kind,
        };
        if to_hazard {
            if let Some(h) = &mut self.hazards {
                h.record(&ev);
            }
        }
        if to_sink {
            if let Some(sink) = &mut self.sink {
                sink.record(&ev);
            }
        }
    }

    #[inline]
    pub(super) fn set_clock(&mut self, t: SimTime) {
        debug_assert!(t >= self.clock, "clock must be monotonic");
        self.clock = t;
    }

    /// Books `d` of virtual CPU to `tid`. Moving the clock is the run
    /// loop's business: with several CPUs they consume the same `d` at once.
    #[inline]
    pub(super) fn charge_thread(&mut self, tid: ThreadId, d: SimDuration) {
        if d.is_zero() {
            return;
        }
        let t = &mut self.threads[tid.0 as usize];
        t.cpu += d;
        let prio = t.priority;
        self.stats.cpu_by_priority[prio.index()] += d;
        self.stats.total_cpu += d;
        self.policy.on_cpu(tid, prio, d);
        if self.preempts_read_cpu {
            self.preempt_clear = false;
        }
    }

    /// What `tid` gets back once it has worked off `cost`.
    #[inline]
    pub(super) fn reply(&mut self, tid: ThreadId, reply: Reply, cost: SimDuration) {
        let t = &mut self.threads[tid.0 as usize];
        t.pending_reply = Some(reply);
        t.debt = cost;
        t.after_debt = AfterDebt::Reply;
    }

    #[inline]
    pub(super) fn reply_ok(&mut self, tid: ThreadId) {
        self.reply(tid, Reply::Ok, self.cfg.primitive_cost);
    }

    /// Refuses an illegal request: `tid` panics with `msg`.
    pub(super) fn fault(&mut self, tid: ThreadId, msg: String) {
        self.faults.push((tid, msg));
        self.reply(tid, Reply::Fault, SimDuration::ZERO);
    }

    /// The message of the [`Reply::Fault`] that `tid` was just given.
    pub(crate) fn take_fault(&mut self, tid: ThreadId) -> String {
        let i = self.faults.iter().position(|&(t, _)| t == tid);
        self.faults.swap_remove(i.expect("a fault has a message")).1
    }

    /// Resolves one chaos decision point of `kind`: ticks the per-kind
    /// site counter, then either consults the replay script (injecting
    /// iff it lists this exact site) or defers to `draw`, which may
    /// consume chaos RNG. Every positive decision — drawn or scripted —
    /// is appended to the chronological fault trace, so
    /// [`Sim::fault_schedule`] always reflects what actually happened.
    pub(super) fn chaos_decision(
        &mut self,
        kind: FaultSiteKind,
        draw: impl FnOnce(&mut Self, u64) -> Option<u64>,
    ) -> Option<u64> {
        let idx = kind.index();
        let site = self.chaos_sites[idx];
        self.chaos_sites[idx] += 1;
        let param = if let Some(cursors) = &mut self.chaos_script {
            let q = &mut cursors[idx];
            while q.front().is_some_and(|&(s, _)| s < site) {
                q.pop_front();
            }
            if q.front().is_some_and(|&(s, _)| s == site) {
                Some(q.pop_front().expect("peeked entry vanished").1)
            } else {
                None
            }
        } else {
            draw(self, site)
        };
        let param = param?;
        self.chaos_trace.push(FaultDecision {
            kind,
            site,
            param_us: param,
        });
        Some(param)
    }

    /// A chaos-stalled or sleeping thread always has a timer pending, so a
    /// deadlock is never declared while one exists.
    pub(super) fn deadlock_report(&self) -> DeadlockReport {
        DeadlockReport {
            blocked: self.blocked_threads(),
        }
    }

    /// Every currently blocked thread, as wait-for-graph nodes. CV
    /// waiters are included (for rendering); chaos-stalled and sleeping
    /// threads are not — they have timers pending.
    fn blocked_threads(&self) -> Vec<crate::WaitingThread> {
        let mut out = Vec::new();
        for (i, t) in self.threads.iter().enumerate() {
            let tid = ThreadId(i as u32);
            let (kind, resource, blocked_on) = match t.state {
                TState::MutexWait(m) => (
                    crate::BlockKind::Monitor,
                    self.monitors[m.0 as usize].name.to_string(),
                    self.monitors[m.0 as usize].owner,
                ),
                TState::MetaWait(m) => (
                    crate::BlockKind::Metalock,
                    format!("metalock of {}", self.monitors[m.0 as usize].name),
                    self.monitors[m.0 as usize].meta,
                ),
                TState::CvWait(cv) => (
                    crate::BlockKind::Condition {
                        has_timeout: self.conds[cv.0 as usize].timeout.is_some(),
                    },
                    self.conds[cv.0 as usize].name.to_string(),
                    None,
                ),
                TState::JoinWait(target) => (
                    crate::BlockKind::Join,
                    self.threads[target.0 as usize].name.clone(),
                    Some(target),
                ),
                TState::ForkWait => (crate::BlockKind::Fork, "fork slot".to_string(), None),
                TState::Stalled
                | TState::Sleeping
                | TState::Ready
                | TState::Running
                | TState::Exited => continue,
            };
            out.push(crate::WaitingThread {
                tid,
                name: t.name.clone(),
                priority: t.priority,
                kind,
                resource,
                blocked_on,
                since: t.blocked_since,
            });
        }
        out
    }
}

impl Sim {
    /// The kernel, for a call that may change it: the views go stale.
    pub(super) fn kernel_mut(&mut self) -> RefMut<'_, Kernel> {
        self.stats_view.take();
        self.threads_view.take();
        self.kernel.borrow_mut()
    }

    /// The active configuration.
    pub fn config(&self) -> Ref<'_, SimConfig> {
        Ref::map(self.kernel.borrow(), |k| &k.cfg)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.borrow().clock
    }

    /// Runtime counters accumulated so far.
    pub fn stats(&self) -> &SimStats {
        self.stats_view
            .get_or_init(|| self.kernel.borrow().stats.clone())
    }

    /// Allocation/reuse counters for the sim's pooled resources (timer
    /// slab, coroutine-stack pool) and its stack switches. Snapshot
    /// before and after a window and subtract with
    /// [`AllocCounters::since`] to verify the hot path runs
    /// allocation-free, and switch-free, at steady state.
    pub fn alloc_counters(&self) -> AllocCounters {
        let k = self.kernel.borrow();
        let (timer_node_allocs, timer_node_reuses) = k.timers.alloc_stats();
        AllocCounters {
            timer_node_allocs,
            timer_node_reuses,
            os_thread_spawns: k.pool.mapped,
            os_thread_reuses: k.pool.reused,
            stack_switches: k.stack_switches,
            quiet_calls: k.quiet_calls,
        }
    }

    /// Installs a trace sink; events flow to it from now on. The sink's
    /// [`TraceSink::subscriptions`] mask is read once here: only events
    /// of subscribed kinds are constructed and dispatched to it.
    pub fn set_sink(&mut self, sink: Box<dyn TraceSink>) {
        let mut k = self.kernel_mut();
        k.sink_mask = sink.subscriptions();
        k.sink = Some(sink);
    }

    /// Removes and returns the trace sink.
    pub fn take_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        let mut k = self.kernel_mut();
        k.sink_mask = EventMask::EMPTY;
        k.sink.take()
    }

    /// The online hazard monitor, when
    /// [`SimConfig::with_hazard_detection`](crate::SimConfig::with_hazard_detection)
    /// enabled one.
    pub fn hazards(&self) -> Option<Ref<'_, HazardMonitor>> {
        Ref::filter_map(self.kernel.borrow(), |k| k.hazards.as_ref()).ok()
    }

    /// Post-run summary of every thread ever created. Allocates one
    /// `Vec` plus a name per thread.
    pub fn threads(&self) -> Vec<ThreadInfo> {
        let k = self.kernel.borrow();
        let info = |(i, t): (usize, &Tcb)| ThreadInfo {
            tid: ThreadId(i as u32),
            name: t.name.clone(),
            priority: t.priority,
            cpu: t.cpu,
            exited: t.state == TState::Exited,
            panicked: t.panicked,
            parent: t.parent,
            generation: t.generation,
        };
        k.threads.iter().enumerate().map(info).collect()
    }

    /// Iterates borrowed summaries of every thread ever created, in
    /// creation order. The first call after a `&mut self` one takes a
    /// [`Sim::threads`] snapshot; later calls reuse it.
    pub fn threads_iter(&self) -> impl Iterator<Item = &ThreadInfo> + '_ {
        self.threads_view.get_or_init(|| self.threads()).iter()
    }

    /// Number of threads ever created (exited ones included).
    pub fn thread_count(&self) -> usize {
        self.kernel.borrow().threads.len()
    }

    /// Number of threads currently alive.
    pub fn live_threads(&self) -> usize {
        self.kernel.borrow().live_threads
    }

    /// The name of every monitor, indexed by [`MonitorId::as_u32`].
    /// Exporters use this to label lock tracks and contention rows. The
    /// names are the kernel's own, shared: none is copied.
    pub fn monitor_names(&self) -> Vec<Arc<str>> {
        let k = self.kernel.borrow();
        k.monitors.iter().map(|m| Arc::clone(&m.name)).collect()
    }

    /// The name of every condition variable, indexed by
    /// [`CondId::as_u32`], shared like a monitor's.
    pub fn condition_names(&self) -> Vec<Arc<str>> {
        let k = self.kernel.borrow();
        k.conds.iter().map(|c| Arc::clone(&c.name)).collect()
    }

    // ---- resilience introspection ------------------------------------------

    /// The complete fault schedule injected so far: every positive chaos
    /// decision in chronological order, plus the stall specs in force.
    /// Feeding it to a fresh `Sim` with the same [`SimConfig`] via
    /// [`ChaosConfig::scripted`](crate::ChaosConfig::scripted) replays
    /// exactly these faults, with no RNG involved.
    pub fn fault_schedule(&self) -> FaultSchedule {
        let k = self.kernel.borrow();
        FaultSchedule {
            decisions: k.chaos_trace.clone(),
            stalls: k.cfg.chaos.stalls.clone(),
        }
    }

    /// Snapshots the wait-for graph of the current instant: blocked
    /// threads, their edges, and any chaos-stalled roots. See
    /// [`crate::WaitForGraph`] for wedge and cycle queries.
    pub fn wait_for_graph(&self) -> crate::WaitForGraph {
        let k = self.kernel.borrow();
        let threads = || k.threads.iter().enumerate();
        let stalled = threads()
            .filter(|(_, t)| t.state == TState::Stalled)
            .map(|(i, t)| (ThreadId(i as u32), t.name.clone()))
            .collect();
        let runnable = threads()
            .filter(|(_, t)| matches!(t.state, TState::Ready | TState::Stalled))
            .map(|(i, t)| crate::RunnableThread {
                tid: ThreadId(i as u32),
                name: t.name.clone(),
                priority: t.priority,
                stalled: t.state == TState::Stalled,
            })
            .collect();
        crate::WaitForGraph {
            now: k.clock,
            threads: k.blocked_threads(),
            stalled,
            runnable,
        }
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        // Unwind every still-live body so its destructors run; bodies
        // that never started are dropped unrun. The kernel is not
        // borrowed meanwhile: a destructor may ask it the time.
        let take = |t: &mut Tcb| t.coroutine.take();
        let bodies: Vec<Coroutine> = (self.kernel.borrow_mut().threads.iter_mut())
            .filter_map(take)
            .collect();
        for mut body in bodies {
            debug_assert!(self.kernel.try_borrow_mut().is_ok());
            body.shutdown();
            // The stack is vacant now: the next world may have it.
            self.kernel.borrow_mut().pool.give(body.into_stack());
        }
    }
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let k = self.kernel.borrow();
        f.debug_struct("Sim")
            .field("now", &k.clock)
            .field("live_threads", &k.live_threads)
            .field("monitors", &k.monitors.len())
            .field("conditions", &k.conds.len())
            .finish()
    }
}
