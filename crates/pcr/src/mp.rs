//! A multiprocessor variant of the scheduler (§4.7's context).
//!
//! The paper's measurements are from a uniprocessor SPARCstation and
//! [`crate::Sim`] models exactly that. But "these systems do run on
//! multiprocessors", concurrency exploiters are "threads created
//! specifically to make use of multiple processors", and Birrell's
//! original spurious-lock-conflict scenario (§6.1) *requires* two
//! processors: the notifier keeps running on one while the notified
//! thread starts on another and trips over the still-held monitor.
//!
//! [`MpSim`] schedules onto `cpus` virtual processors with global strict
//! priority (no runnable thread is outranked by a waiting one across all
//! CPUs), per-CPU timeslices, and the same monitors/CVs — and it speaks
//! the same rendezvous protocol, so thread bodies, [`crate::ThreadCtx`],
//! and everything built on them (the entire `paradigms` crate) run
//! unchanged.
//!
//! Scope restrictions relative to the uniprocessor model, documented
//! rather than silently diverging:
//!
//! * `YieldButNotToMe`, directed yields, and `donate_random` degrade to
//!   plain YIELD (they are uniprocessor hacks; on an MP the other thread
//!   simply runs on another CPU);
//! * the metalock window is not modelled (enter/exit are atomic);
//! * thread-switch cost is not charged (virtual time advances only
//!   through `work` and timers).
//!
//! User code between rendezvous still executes one thread at a time in
//! real time — only *virtual* time overlaps — so the simulation stays
//! deterministic. The linearization order of same-instant operations is
//! CPU-index order.

use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

use crate::condition::{Condition, CvState};
use crate::config::{NotifyMode, SimConfig};
use crate::coroutine::{Coroutine, StackPool};
use crate::ctx::{fork_spec, Port, ThreadCtx};
use crate::error::{RunReport, StopReason};
use crate::event::{CondId, Event, EventKind, TraceSink, WaitOutcome, YieldKind};
use crate::monitor::{Monitor, MonitorId};
use crate::rendezvous::{ForkSpec, Reply, Request};
use crate::sched::SimStats;
use crate::thread::{JoinHandle, Priority, ThreadId};
use crate::time::{SimDuration, SimTime};
use crate::timer::{TimerKind, TimerWheel};
use crate::RunLimit;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TState {
    Ready,
    Running(usize),
    MutexWait(MonitorId),
    CvWait(CondId),
    Sleeping,
    JoinWait(ThreadId),
    Exited,
}

struct Tcb {
    name: String,
    priority: Priority,
    state: TState,
    pending_reply: Option<Reply>,
    debt: SimDuration,
    coroutine: Option<Coroutine>,
    joiner: Option<ThreadId>,
    exited: bool,
    panicked: bool,
    wait_seq: u64,
    acquire_on_dispatch: Option<MonitorId>,
    reacquire_outcome: Option<WaitOutcome>,
    reacquire_cv: Option<CondId>,
    ready_since: SimTime,
}

#[derive(Default)]
struct MonState {
    name: Arc<str>,
    entered: bool,
    owner: Option<ThreadId>,
    queue: VecDeque<ThreadId>,
    deferred: Vec<(ThreadId, WaitOutcome, CondId)>,
}

/// The multiprocessor simulator.
///
/// # Examples
///
/// ```
/// use pcr::{millis, MpSim, Priority, RunLimit, SimConfig};
///
/// let mut sim = MpSim::new(SimConfig::default(), 4);
/// let hs: Vec<_> = (0..4)
///     .map(|i| {
///         sim.fork_root(&format!("w{i}"), Priority::DEFAULT, |ctx| {
///             ctx.work(millis(100));
///         })
///     })
///     .collect();
/// let report = sim.run(RunLimit::ToCompletion);
/// // 400ms of work over 4 virtual CPUs: ~100ms of virtual time.
/// assert!(report.now.as_micros() < 120_000);
/// drop(hs);
/// ```
///
/// Like [`crate::Sim`], an `MpSim` is `!Send`: its virtual CPUs are all
/// served by the one OS thread that built it.
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<pcr::MpSim>();
/// ```
pub struct MpSim {
    cfg: SimConfig,
    cpus: usize,
    clock: SimTime,
    /// `clock`, where each thread's context reads it.
    clock_mirror: Rc<Cell<SimTime>>,
    threads: Vec<Tcb>,
    ready: [VecDeque<ThreadId>; Priority::LEVELS],
    running: Vec<Option<ThreadId>>,
    quantum_left: Vec<SimDuration>,
    timers: TimerWheel,
    monitors: Vec<MonState>,
    conds: Vec<CvState>,
    pool: StackPool,
    sink: Option<Box<dyn TraceSink>>,
    stats: SimStats,
    live: usize,
}

impl MpSim {
    /// Creates a multiprocessor runtime with `cpus` virtual processors.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero.
    pub fn new(cfg: SimConfig, cpus: usize) -> MpSim {
        assert!(cpus >= 1, "need at least one CPU");
        crate::install_panic_silencer();
        MpSim {
            cpus,
            clock: SimTime::ZERO,
            clock_mirror: Rc::default(),
            threads: Vec::new(),
            ready: Default::default(),
            running: vec![None; cpus],
            quantum_left: vec![SimDuration::ZERO; cpus],
            timers: TimerWheel::new(),
            monitors: Vec::new(),
            conds: Vec::new(),
            pool: StackPool::default(),
            sink: None,
            stats: SimStats::default(),
            live: 0,
            cfg,
        }
    }

    /// Number of virtual processors.
    pub fn cpus(&self) -> usize {
        self.cpus
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Runtime counters.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Installs a trace sink.
    pub fn set_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = Some(sink);
    }

    /// Creates a monitor before the run.
    pub fn monitor<T: Send + 'static>(&mut self, name: &str, data: T) -> Monitor<T> {
        Monitor::new(self.new_monitor(name.into()), data)
    }

    /// Creates a condition variable before the run.
    pub fn condition<T: Send + 'static>(
        &mut self,
        m: &Monitor<T>,
        name: &str,
        timeout: Option<SimDuration>,
    ) -> Condition {
        Condition {
            id: self.new_condition(CvState::new(name.into(), m.id(), timeout)),
            monitor: m.id(),
            timeout,
        }
    }

    fn new_monitor(&mut self, name: Arc<str>) -> MonitorId {
        self.monitors.push(MonState {
            name,
            ..MonState::default()
        });
        MonitorId(self.monitors.len() as u32 - 1)
    }

    fn new_condition(&mut self, cv: CvState) -> CondId {
        self.conds.push(cv);
        CondId(self.conds.len() as u32 - 1)
    }

    /// Forks a root thread.
    pub fn fork_root<T, F>(&mut self, name: &str, priority: Priority, f: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce(&ThreadCtx) -> T + Send + 'static,
    {
        let (spec, slot) = fork_spec(name, Some(priority), false, f);
        let tid = self.create_thread(spec, None);
        JoinHandle { tid, slot }
    }

    fn create_thread(&mut self, spec: ForkSpec, parent: Option<ThreadId>) -> ThreadId {
        let tid = ThreadId(self.threads.len() as u32);
        let priority = spec.priority.unwrap_or_else(|| {
            parent
                .map(|p| self.threads[p.0 as usize].priority)
                .unwrap_or(Priority::DEFAULT)
        });
        let coroutine = ThreadCtx::coroutine(
            self.pool.take(),
            tid,
            spec.name.clone(),
            priority,
            Port::Wire(Rc::clone(&self.clock_mirror)),
            self.cfg.seed,
            spec.body,
        );
        self.threads.push(Tcb {
            name: spec.name,
            priority,
            state: TState::Ready,
            pending_reply: Some(Reply::Ok),
            debt: SimDuration::ZERO,
            coroutine: Some(coroutine),
            joiner: None,
            exited: false,
            panicked: false,
            wait_seq: 0,
            acquire_on_dispatch: None,
            reacquire_outcome: None,
            reacquire_cv: None,
            ready_since: self.clock,
        });
        self.live += 1;
        self.stats.forks += 1;
        self.stats.max_live_threads = self.stats.max_live_threads.max(self.live);
        self.emit(EventKind::Fork {
            parent,
            child: tid,
            priority,
            generation: 0,
        });
        self.ready[priority.index()].push_back(tid);
        tid
    }

    fn emit(&mut self, kind: EventKind) {
        if let Some(s) = &mut self.sink {
            s.record(&Event {
                t: self.clock,
                kind,
            });
        }
    }

    fn set_clock(&mut self, t: SimTime) {
        debug_assert!(t >= self.clock);
        self.clock = t;
        self.clock_mirror.set(t);
    }

    fn push_ready(&mut self, tid: ThreadId) {
        let p = self.threads[tid.0 as usize].priority;
        self.threads[tid.0 as usize].state = TState::Ready;
        self.threads[tid.0 as usize].ready_since = self.clock;
        self.ready[p.index()].push_back(tid);
    }

    fn pop_ready(&mut self) -> Option<ThreadId> {
        self.ready.iter_mut().rev().find_map(VecDeque::pop_front)
    }

    fn highest_ready_prio(&self) -> Option<Priority> {
        (0..Priority::LEVELS)
            .rev()
            .find(|&i| !self.ready[i].is_empty())
            .map(|i| Priority::of(i as u8 + 1))
    }

    /// Global strict priority: preempt the lowest-priority running
    /// thread whenever a strictly higher-priority thread is ready.
    fn rebalance(&mut self) {
        loop {
            let Some(cand) = self.highest_ready_prio() else {
                return;
            };
            // Find the weakest CPU: idle beats any running thread.
            let mut weakest: Option<(usize, Option<Priority>)> = None;
            for (cpu, slot) in self.running.iter().enumerate() {
                let prio = slot.map(|t| self.threads[t.0 as usize].priority);
                let beats = match (&weakest, prio) {
                    (None, _) => true,
                    (Some((_, None)), _) => false, // Already found an idle CPU.
                    (Some((_, Some(_))), None) => true,
                    (Some((_, Some(w))), Some(p)) => p < *w,
                };
                if beats {
                    weakest = Some((cpu, prio));
                }
            }
            match weakest {
                Some((cpu, None)) => {
                    // Idle CPU: dispatch.
                    let tid = self.pop_ready().expect("candidate exists");
                    self.dispatch_on(cpu, tid);
                }
                Some((cpu, Some(w))) if cand > w => {
                    // Preempt the weakest running thread.
                    let victim = self.running[cpu].take().expect("running");
                    let p = self.threads[victim.0 as usize].priority;
                    self.threads[victim.0 as usize].state = TState::Ready;
                    self.threads[victim.0 as usize].ready_since = self.clock;
                    self.ready[p.index()].push_front(victim);
                    let tid = self.pop_ready().expect("candidate exists");
                    self.dispatch_on(cpu, tid);
                }
                _ => return,
            }
        }
    }

    fn dispatch_on(&mut self, cpu: usize, tid: ThreadId) {
        self.stats.switches += 1;
        let prio = self.threads[tid.0 as usize].priority;
        let ready_for = self
            .clock
            .saturating_since(self.threads[tid.0 as usize].ready_since);
        self.stats.sched_latency.record(prio, ready_for);
        self.emit(EventKind::Switch {
            from: self.running[cpu],
            to: tid,
            to_priority: prio,
            ready_for,
        });
        self.running[cpu] = Some(tid);
        self.quantum_left[cpu] = self.cfg.quantum;
        self.threads[tid.0 as usize].state = TState::Running(cpu);
        // CV wake / immediate-notify reacquire happens at dispatch.
        if let Some(mid) = self.threads[tid.0 as usize].acquire_on_dispatch.take() {
            if !self.try_acquire_now(tid, mid) {
                self.running[cpu] = None;
            }
        }
    }

    /// Attempts a dispatch-time acquire; false if the thread blocked.
    fn try_acquire_now(&mut self, tid: ThreadId, mid: MonitorId) -> bool {
        let outcome = self.threads[tid.0 as usize].reacquire_outcome;
        if self.monitors[mid.0 as usize].owner.is_none() {
            self.monitors[mid.0 as usize].owner = Some(tid);
            self.note_enter(tid, mid, false);
            let reply = self.grant_reply(tid);
            self.threads[tid.0 as usize].pending_reply = Some(reply);
            true
        } else {
            if outcome == Some(WaitOutcome::Notified) {
                self.stats.spurious_conflicts += 1;
                self.emit(EventKind::SpuriousLockConflict { tid, monitor: mid });
            }
            self.note_enter(tid, mid, true);
            self.monitors[mid.0 as usize].queue.push_back(tid);
            self.threads[tid.0 as usize].state = TState::MutexWait(mid);
            false
        }
    }

    /// Counts and announces one monitor entry.
    fn note_enter(&mut self, tid: ThreadId, mid: MonitorId, contended: bool) {
        let entered = &mut self.monitors[mid.0 as usize].entered;
        self.stats.count_enter(entered, contended);
        self.emit(EventKind::MlEnter {
            tid,
            monitor: mid,
            contended,
        });
    }

    fn grant_reply(&mut self, tid: ThreadId) -> Reply {
        let t = &mut self.threads[tid.0 as usize];
        match t.reacquire_outcome.take() {
            Some(outcome) => {
                let cv = t.reacquire_cv.take().expect("cv recorded");
                self.emit(EventKind::CvWake { tid, cv, outcome });
                Reply::Wait(outcome)
            }
            None => Reply::Ok,
        }
    }

    fn fire_due_timers(&mut self) {
        while let Some(kind) = self.timers.pop_due(self.clock) {
            match kind {
                TimerKind::Wake(tid) => {
                    if self.threads[tid.0 as usize].state == TState::Sleeping {
                        self.push_ready(tid);
                    }
                }
                TimerKind::CvTimeout { tid, cv, seq } => {
                    let idx = tid.0 as usize;
                    let live = self.threads[idx].wait_seq == seq
                        && self.threads[idx].state == TState::CvWait(cv);
                    if live {
                        self.threads[idx].wait_seq += 1;
                        let mid = self.conds[cv.0 as usize].monitor;
                        self.conds[cv.0 as usize].queue.retain(|&w| w != tid);
                        self.stats.cv_timeouts += 1;
                        let t = &mut self.threads[idx];
                        t.acquire_on_dispatch = Some(mid);
                        t.reacquire_outcome = Some(WaitOutcome::TimedOut);
                        t.reacquire_cv = Some(cv);
                        self.push_ready(tid);
                    }
                }
                // MpSim never schedules chaos timers (no injection support).
                TimerKind::ChaosSpuriousWake { .. }
                | TimerKind::ChaosStallStart { .. }
                | TimerKind::ChaosStallEnd(_) => {}
            }
        }
    }

    /// Services every CPU whose thread is at a rendezvous point (zero
    /// debt): replies, receives the next request, handles it; repeats —
    /// re-balancing between rounds so freshly dispatched threads get
    /// their rendezvous too — until every busy CPU carries debt.
    fn service_cpus(&mut self, _limit: SimTime) {
        loop {
            self.rebalance();
            let mut progressed = false;
            for cpu in 0..self.cpus {
                while let Some(tid) = self.running[cpu] {
                    let t = &mut self.threads[tid.0 as usize];
                    if !t.debt.is_zero() {
                        break;
                    }
                    let Some(reply) = t.pending_reply.take() else {
                        unreachable!("running thread with no debt and no reply");
                    };
                    let req = t
                        .coroutine
                        .as_mut()
                        .expect("running thread has no coroutine")
                        .resume(reply)
                        .expect("simulated thread ended without posting Exit");
                    self.handle_request(tid, cpu, req);
                    progressed = true;
                    if self.running[cpu] != Some(tid)
                        || self.threads[tid.0 as usize].state != TState::Running(cpu)
                    {
                        if self.running[cpu] == Some(tid) {
                            self.running[cpu] = None;
                        }
                        break;
                    }
                }
            }
            if !progressed {
                return;
            }
        }
    }

    fn handle_request(&mut self, tid: ThreadId, cpu: usize, req: Request) {
        match req {
            Request::Fork(spec) => {
                let child = self.create_thread(spec, Some(tid));
                self.threads[tid.0 as usize].pending_reply = Some(Reply::Forked(child));
                self.threads[tid.0 as usize].debt = self.cfg.fork_cost;
            }
            Request::Join(target) => {
                if self.threads[target.0 as usize].exited {
                    self.emit(EventKind::Join {
                        joiner: tid,
                        target,
                    });
                    self.threads[tid.0 as usize].pending_reply = Some(Reply::Joined);
                } else {
                    self.threads[target.0 as usize].joiner = Some(tid);
                    self.threads[tid.0 as usize].state = TState::JoinWait(target);
                }
            }
            Request::Detach(_) => {
                self.threads[tid.0 as usize].pending_reply = Some(Reply::Ok);
            }
            Request::Work(d) => {
                let t = &mut self.threads[tid.0 as usize];
                t.debt = d;
                t.pending_reply = Some(Reply::Ok);
            }
            Request::Sleep { d, precise } => {
                let mut until = self.clock + d;
                if !precise {
                    until = until.round_up_to(self.cfg.granularity());
                }
                self.timers.schedule(until, TimerKind::Wake(tid));
                let t = &mut self.threads[tid.0 as usize];
                t.state = TState::Sleeping;
                t.pending_reply = Some(Reply::Ok);
            }
            // On a multiprocessor the uniprocessor yield hacks reduce to
            // plain YIELD (see module docs).
            Request::Yield
            | Request::YieldButNotToMe
            | Request::DirectedYield { .. }
            | Request::DonateRandom { .. } => {
                self.stats.yields += 1;
                self.emit(EventKind::Yield {
                    tid,
                    kind: YieldKind::Normal,
                });
                self.threads[tid.0 as usize].pending_reply = Some(Reply::Ok);
                self.push_ready(tid);
            }
            Request::SetPriority(p) => {
                self.threads[tid.0 as usize].priority = p;
                self.emit(EventKind::SetPriority { tid, priority: p });
                self.threads[tid.0 as usize].pending_reply = Some(Reply::Ok);
            }
            Request::MonitorEnter(mid) => match self.monitors[mid.0 as usize].owner {
                None => {
                    self.monitors[mid.0 as usize].owner = Some(tid);
                    self.note_enter(tid, mid, false);
                    let t = &mut self.threads[tid.0 as usize];
                    t.pending_reply = Some(Reply::Ok);
                    t.debt = self.cfg.primitive_cost;
                }
                Some(owner) if owner == tid => {
                    self.threads[tid.0 as usize].pending_reply = Some(Reply::Fault(
                        "recursive monitor entry; Mesa monitors are not re-entrant".to_string(),
                    ));
                }
                Some(_) => {
                    self.note_enter(tid, mid, true);
                    self.monitors[mid.0 as usize].queue.push_back(tid);
                    self.threads[tid.0 as usize].state = TState::MutexWait(mid);
                }
            },
            Request::MonitorExit(mid) => {
                if self.monitors[mid.0 as usize].owner != Some(tid) {
                    self.threads[tid.0 as usize].pending_reply =
                        Some(Reply::Fault("monitor exit by non-owner".to_string()));
                    return;
                }
                self.emit(EventKind::MlExit { tid, monitor: mid });
                self.release_monitor(mid);
                let t = &mut self.threads[tid.0 as usize];
                t.pending_reply = Some(Reply::Ok);
                t.debt = self.cfg.primitive_cost;
            }
            Request::CvWait { cv } => {
                let mid = self.conds[cv.0 as usize].monitor;
                if self.monitors[mid.0 as usize].owner != Some(tid) {
                    self.threads[tid.0 as usize].pending_reply =
                        Some(Reply::Fault("WAIT without holding the monitor".to_string()));
                    return;
                }
                self.stats.cv_waits += 1;
                let first = !std::mem::replace(&mut self.conds[cv.0 as usize].waited, true);
                self.stats.distinct_conditions += usize::from(first);
                self.emit(EventKind::CvWait { tid, cv });
                let t = &mut self.threads[tid.0 as usize];
                t.wait_seq += 1;
                let seq = t.wait_seq;
                t.state = TState::CvWait(cv);
                if let Some(timeout) = self.conds[cv.0 as usize].timeout {
                    let deadline = (self.clock + timeout).round_up_to(self.cfg.granularity());
                    self.timers
                        .schedule(deadline, TimerKind::CvTimeout { tid, cv, seq });
                }
                self.conds[cv.0 as usize].queue.push_back(tid);
                self.emit(EventKind::MlExit { tid, monitor: mid });
                self.release_monitor(mid);
            }
            Request::Notify { cv } | Request::Broadcast { cv } => {
                let broadcast = matches!(req, Request::Broadcast { .. });
                let mid = self.conds[cv.0 as usize].monitor;
                if self.monitors[mid.0 as usize].owner != Some(tid) {
                    self.threads[tid.0 as usize].pending_reply = Some(Reply::Fault(
                        "NOTIFY/BROADCAST without holding the monitor".to_string(),
                    ));
                    return;
                }
                let mut woken = 0u32;
                let mut first = None;
                while let Some(w) = self.conds[cv.0 as usize].queue.pop_front() {
                    woken += 1;
                    first.get_or_insert(w);
                    let wt = &mut self.threads[w.0 as usize];
                    wt.wait_seq += 1;
                    match self.cfg.notify_mode {
                        NotifyMode::Immediate => {
                            wt.acquire_on_dispatch = Some(mid);
                            wt.reacquire_outcome = Some(WaitOutcome::Notified);
                            wt.reacquire_cv = Some(cv);
                            self.push_ready(w);
                        }
                        NotifyMode::DeferredReschedule => {
                            self.monitors[mid.0 as usize].deferred.push((
                                w,
                                WaitOutcome::Notified,
                                cv,
                            ));
                        }
                    }
                    if !broadcast {
                        break;
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
                        woken: first,
                    });
                }
                let t = &mut self.threads[tid.0 as usize];
                t.pending_reply = Some(Reply::Ok);
                t.debt = self.cfg.primitive_cost;
            }
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
            Request::Exit { panicked } => {
                self.emit(EventKind::Exit { tid, panicked });
                self.stats.exits += 1;
                if panicked {
                    self.stats.panics += 1;
                }
                let t = &mut self.threads[tid.0 as usize];
                t.exited = true;
                t.panicked = panicked;
                t.state = TState::Exited;
                t.pending_reply = None;
                self.live -= 1;
                if let Some(co) = self.threads[tid.0 as usize].coroutine.take() {
                    self.pool.give(co.into_stack());
                }
                if let Some(j) = self.threads[tid.0 as usize].joiner.take() {
                    self.emit(EventKind::Join {
                        joiner: j,
                        target: tid,
                    });
                    self.threads[j.0 as usize].pending_reply = Some(Reply::Joined);
                    self.push_ready(j);
                }
                self.running[cpu] = None;
            }
        }
    }

    fn release_monitor(&mut self, mid: MonitorId) {
        let deferred: Vec<(ThreadId, WaitOutcome, CondId)> =
            self.monitors[mid.0 as usize].deferred.drain(..).collect();
        for (wtid, outcome, cv) in deferred {
            let w = &mut self.threads[wtid.0 as usize];
            w.state = TState::MutexWait(mid);
            w.reacquire_outcome = Some(outcome);
            w.reacquire_cv = Some(cv);
            self.monitors[mid.0 as usize].queue.push_back(wtid);
        }
        self.monitors[mid.0 as usize].owner = None;
        if let Some(next) = self.monitors[mid.0 as usize].queue.pop_front() {
            self.monitors[mid.0 as usize].owner = Some(next);
            let reply = self.grant_reply(next);
            self.threads[next.0 as usize].pending_reply = Some(reply);
            self.push_ready(next);
        }
    }

    /// Advances virtual time across all busy CPUs by the largest step
    /// that hits no timer, no debt completion, and no quantum expiry.
    fn advance(&mut self, limit: SimTime) {
        let mut dt = limit.saturating_since(self.clock);
        if let Some(t) = self.timers.next_deadline() {
            dt = dt.min(t.saturating_since(self.clock));
        }
        let mut any_busy = false;
        for cpu in 0..self.cpus {
            if let Some(tid) = self.running[cpu] {
                let debt = self.threads[tid.0 as usize].debt;
                if !debt.is_zero() {
                    any_busy = true;
                    dt = dt.min(debt).min(self.quantum_left[cpu]);
                }
            }
        }
        if !any_busy {
            // All idle: jump to the next timer (or the limit).
            let target = self
                .timers
                .next_deadline()
                .map(|t| t.min(limit))
                .unwrap_or(limit);
            self.set_clock(target);
            return;
        }
        if dt.is_zero() {
            // A quantum expired exactly now: rotate that CPU.
            for cpu in 0..self.cpus {
                if self.quantum_left[cpu].is_zero() {
                    if let Some(tid) = self.running[cpu].take() {
                        self.stats.quantum_expiries += 1;
                        self.emit(EventKind::QuantumExpired { tid });
                        self.push_ready(tid);
                    }
                    self.quantum_left[cpu] = self.cfg.quantum;
                }
            }
            self.rebalance();
            return;
        }
        self.set_clock(self.clock + dt);
        for cpu in 0..self.cpus {
            if let Some(tid) = self.running[cpu] {
                let t = &mut self.threads[tid.0 as usize];
                if !t.debt.is_zero() {
                    t.debt -= dt;
                    self.quantum_left[cpu] -= dt;
                    let idx = t.priority.index();
                    self.stats.cpu_by_priority[idx] += dt;
                    self.stats.total_cpu += dt;
                }
            }
        }
    }

    /// Runs until the limit, completion, or deadlock.
    pub fn run(&mut self, limit: RunLimit) -> RunReport {
        let start = self.clock;
        let end = match limit {
            RunLimit::For(d) => self.clock.saturating_add(d),
            RunLimit::Until(t) => t,
            RunLimit::ToCompletion => SimTime::MAX,
        };
        let reason = loop {
            self.fire_due_timers();
            if self.live == 0 {
                break StopReason::AllExited;
            }
            if self.clock >= end {
                break StopReason::TimeLimit;
            }
            self.service_cpus(end);
            if self.live == 0 {
                break StopReason::AllExited;
            }
            let idle = self.running.iter().all(Option::is_none);
            if idle && self.timers.next_deadline().is_none() {
                break StopReason::Deadlock(self.deadlock_report());
            }
            self.advance(end);
        };
        if reason == StopReason::TimeLimit && end != SimTime::MAX {
            self.set_clock(end);
        }
        RunReport {
            reason,
            now: self.clock,
            elapsed: self.clock.saturating_since(start),
            // MpSim does not support chaos/hazard detection (yet).
            hazards: crate::HazardCounts::default(),
        }
    }

    fn deadlock_report(&self) -> crate::DeadlockReport {
        let mut blocked = Vec::new();
        for (i, t) in self.threads.iter().enumerate() {
            if t.exited {
                continue;
            }
            let (waiting_for, on) = match t.state {
                TState::MutexWait(m) => {
                    let slot = &self.monitors[m.0 as usize];
                    (format!("monitor {}", slot.name), slot.owner)
                }
                TState::CvWait(cv) => (
                    format!("condition {}", self.conds[cv.0 as usize].name),
                    None,
                ),
                TState::JoinWait(j) => (format!("join of {j:?}"), Some(j)),
                _ => continue,
            };
            blocked.push(crate::BlockedThread {
                tid: ThreadId(i as u32),
                name: t.name.clone(),
                waiting_for,
                blocked_on: on,
            });
        }
        crate::DeadlockReport { blocked }
    }
}

impl Drop for MpSim {
    fn drop(&mut self) {
        // Unwind every still-live body, then leave its stack, vacant now,
        // for the next world.
        for t in &mut self.threads {
            if let Some(mut co) = t.coroutine.take() {
                co.shutdown();
                self.pool.give(co.into_stack());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{millis, secs};

    fn hogs(sim: &mut MpSim, n: usize, work: SimDuration) -> Vec<JoinHandle<SimTime>> {
        (0..n)
            .map(|i| {
                sim.fork_root(&format!("hog{i}"), Priority::DEFAULT, move |ctx| {
                    ctx.work(work);
                    ctx.now()
                })
            })
            .collect()
    }

    #[test]
    fn two_cpus_halve_makespan() {
        // 4 × 100ms of work: 400ms on one CPU, ~200ms on two.
        let t_for = |cpus: usize| {
            let mut sim = MpSim::new(SimConfig::default(), cpus);
            let hs = hogs(&mut sim, 4, millis(100));
            let r = sim.run(RunLimit::ToCompletion);
            assert_eq!(r.reason, StopReason::AllExited);
            drop(hs);
            r.now.as_micros()
        };
        let one = t_for(1);
        let two = t_for(2);
        let four = t_for(4);
        assert!((380_000..=430_000).contains(&one), "1cpu {one}");
        assert!((190_000..=230_000).contains(&two), "2cpu {two}");
        assert!((95_000..=130_000).contains(&four), "4cpu {four}");
    }

    #[test]
    fn strict_priority_across_cpus() {
        // 2 CPUs, three threads: the two highest always run.
        let mut sim = MpSim::new(SimConfig::default(), 2);
        let lo = sim.fork_root("lo", Priority::of(2), |ctx| {
            ctx.work(millis(10));
            ctx.now()
        });
        let _m1 = sim.fork_root("m1", Priority::of(5), |ctx| {
            ctx.work(millis(50));
            ctx.now()
        });
        let _m2 = sim.fork_root("m2", Priority::of(5), |ctx| {
            ctx.work(millis(50));
            ctx.now()
        });
        sim.run(RunLimit::ToCompletion);
        let lo_end = lo.into_result().unwrap().unwrap();
        // The low thread only starts after a mid finishes: ends ~60ms.
        assert!(lo_end >= SimTime::from_micros(58_000), "lo ended {lo_end}");
    }

    #[test]
    fn monitors_are_globally_exclusive_across_cpus() {
        // A driver forks 4 workers hammering one monitor from 4 CPUs,
        // joins them, then reads the count (a low-priority sibling probe
        // would run immediately here — a free CPU always exists).
        let mut sim = MpSim::new(SimConfig::default(), 4);
        let m = sim.monitor("m", (0u64, false));
        let h = sim.fork_root("driver", Priority::of(5), move |ctx| {
            let workers: Vec<_> = (0..4)
                .map(|i| {
                    let m = m.clone();
                    ctx.fork_prio(&format!("t{i}"), Priority::DEFAULT, move |ctx| {
                        for _ in 0..20 {
                            let mut g = ctx.enter(&m);
                            g.with_mut(|(_, inside)| {
                                assert!(!*inside, "two threads inside");
                                *inside = true;
                            });
                            ctx.work(crate::micros(200));
                            g.with_mut(|(v, inside)| {
                                *v += 1;
                                *inside = false;
                            });
                        }
                    })
                    .unwrap()
                })
                .collect();
            for w in workers {
                ctx.join(w).unwrap();
            }
            let g = ctx.enter(&m);
            g.with(|(v, _)| *v)
        });
        let r = sim.run(RunLimit::For(secs(30)));
        assert_eq!(r.reason, StopReason::AllExited);
        assert_eq!(h.into_result().unwrap().unwrap(), 80);
        // Real cross-CPU contention happened.
        assert!(sim.stats().ml_contended > 0);
    }

    #[test]
    fn birrells_multiprocessor_spurious_conflict() {
        // §6.1's original scenario needs two processors: the notifier
        // keeps running (same priority as the waiter!) while the waiter
        // starts on the other CPU and hits the still-held monitor.
        let run = |mode: NotifyMode| {
            let mut sim = MpSim::new(SimConfig::default().with_notify_mode(mode), 2);
            let m = sim.monitor("m", 0u32);
            let cv = sim.condition(&m, "cv", None);
            let (m2, cv2) = (m.clone(), cv.clone());
            let _ = sim.fork_root("waiter", Priority::DEFAULT, move |ctx| {
                let mut g = ctx.enter(&m2);
                g.wait_until(&cv2, |&v| v >= 50);
            });
            let _ = sim.fork_root("notifier", Priority::DEFAULT, move |ctx| {
                for _ in 0..50 {
                    let mut g = ctx.enter(&m);
                    g.with_mut(|v| *v += 1);
                    g.notify(&cv);
                    ctx.work(crate::micros(100)); // Still holding.
                    drop(g);
                    ctx.work(crate::micros(100));
                }
            });
            let r = sim.run(RunLimit::For(secs(10)));
            assert!(!r.deadlocked());
            sim.stats().spurious_conflicts
        };
        assert!(
            run(NotifyMode::Immediate) >= 40,
            "immediate mode must conflict on an MP even between equal priorities"
        );
        assert_eq!(run(NotifyMode::DeferredReschedule), 0);
    }

    #[test]
    fn paradigms_run_unchanged_on_the_mp_scheduler() {
        // The exploit helpers from the paradigms crate work as-is and
        // actually exploit the processors (we check wall-clock virtual
        // speedup through plain fork/join here to avoid a dev-dependency
        // cycle; the full parallel_map test lives in the root tests).
        let mut sim = MpSim::new(SimConfig::default(), 4);
        let h = sim.fork_root("driver", Priority::DEFAULT, |ctx| {
            let t0 = ctx.now();
            let hs: Vec<_> = (0..4)
                .map(|i| {
                    ctx.fork(&format!("w{i}"), |ctx| {
                        ctx.work(millis(50));
                    })
                    .unwrap()
                })
                .collect();
            for h in hs {
                ctx.join(h).unwrap();
            }
            ctx.now().since(t0)
        });
        sim.run(RunLimit::ToCompletion);
        let elapsed = h.into_result().unwrap().unwrap();
        // 200ms of work over (almost) 4 CPUs — the driver occupies one
        // only while forking/joining.
        assert!(
            elapsed < millis(120),
            "4-way fork/join took {elapsed}, no speedup?"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = MpSim::new(SimConfig::default().with_seed(5), 3);
            let m = sim.monitor("m", 0u64);
            for i in 0..5 {
                let m = m.clone();
                let _ = sim.fork_root(
                    &format!("t{i}"),
                    Priority::of(3 + (i % 3) as u8),
                    move |ctx| {
                        let mut rng = ctx.rng();
                        for _ in 0..30 {
                            ctx.work(crate::micros(rng.next_below(2000)));
                            let mut g = ctx.enter(&m);
                            g.with_mut(|v| *v += 1);
                        }
                    },
                );
            }
            sim.run(RunLimit::ToCompletion);
            (
                sim.now().as_micros(),
                sim.stats().switches,
                sim.stats().ml_contended,
            )
        };
        assert_eq!(run(), run());
    }
}
