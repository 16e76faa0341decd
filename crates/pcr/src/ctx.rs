//! The API simulated code calls: `ThreadCtx`.
//!
//! Every simulated thread body receives a `&ThreadCtx`. All interaction
//! with the runtime — forking, joining, working, sleeping, yielding,
//! monitors, condition variables — goes through it. Between two calls the
//! thread's Rust code executes in zero virtual time; virtual CPU is
//! consumed explicitly with [`ThreadCtx::work`].
//!
//! A call is a function call: the context shares the simulation's
//! [`Kernel`], which serves the request on the calling body's own stack
//! and hands the reply straight back. The body switches stacks only when
//! the call cost it the CPU (it blocked, was preempted, ran out its
//! quantum or the run's window, or was stalled), as PCR entered its
//! scheduler only to change threads: it parks on its baton and the next
//! dispatch resumes it with the reply. (With more than one virtual CPU
//! every call parks, so that the multiprocessor run loop can order the
//! CPUs' same-instant calls.)
//!
//! Most calls decide nothing, and those are finished in place: [`enter`],
//! the guard's EXIT and [`work`] first ask the kernel, under one borrow
//! and before any request exists, to finish the call quietly — no
//! request, no reply slot, no run forward of the clock. It does so only
//! when the world has one CPU, no preemption is due, the call's cost ends
//! strictly before its horizon (the next timer's deadline, the end of the
//! quantum and of the run's window), and the call is an ENTER of a
//! monitor with no owner and no metalock holder, an EXIT by the owner with
//! nobody queued and no deferred NOTIFY, or a `work`. It runs the same
//! rule and books the cost as the general path would in one slice, so
//! nothing observable differs. "No preemption is due" is remembered, not
//! recomputed: the kernel keeps the policy's last `false` until one of its
//! inputs changes — the ready set, a priority, dispatch or the running
//! thread leaving its CPU, the shield, a quantum expiry, or CPU booked
//! under a policy whose preemption reads it (CFS). Under CFS the booking
//! itself can make a ready thread the caller's preemptor; the call then
//! parks, as it would have on the general path.
//!
//! [`enter`]: ThreadCtx::enter
//! [`work`]: ThreadCtx::work

use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use crate::condition::Condition;
use crate::coroutine::{Baton, Coroutine, Stack};
use crate::error::{ForkError, JoinError};
use crate::event::WaitOutcome;
use crate::monitor::{Monitor, MonitorGuard, MonitorId, SimId};
use crate::rng::SplitMix64;
use crate::sched::{BodyFn, ForkSpec, Kernel, QuietCall, Reply, Request, ShutdownSignal};
use crate::thread::{JoinHandle, Priority, ResultSlot, ThreadId};
use crate::time::{SimDuration, SimTime};

/// Options for [`ThreadCtx::fork_with`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ForkOpts {
    /// Initial priority; `None` inherits the forker's priority.
    pub priority: Option<Priority>,
    /// Create the thread already detached.
    pub detached: bool,
}

impl ForkOpts {
    /// Sets an explicit initial priority.
    pub fn priority(mut self, p: Priority) -> Self {
        self.priority = Some(p);
        self
    }

    /// Marks the thread as detached at creation.
    pub fn detached(mut self) -> Self {
        self.detached = true;
        self
    }
}

thread_local! {
    /// Set while kernel or sink code runs on a body's stack. A panic there
    /// leaves it set until [`fork_spec`]'s wrapper sees it: that panic is
    /// the host's, not the simulated thread's.
    pub(crate) static IN_KERNEL: Cell<bool> = const { Cell::new(false) };
}

/// A simulated thread's handle to the runtime.
///
/// Not `Clone`, not `Send` and not `Sync`: it embodies the calling
/// thread's identity, and lives on that thread's coroutine stack.
/// Simulated code must not perform *real* blocking (OS sleeps, real locks
/// held across calls); the simulation models time itself.
pub struct ThreadCtx {
    tid: ThreadId,
    name: String,
    baton: Baton,
    /// The simulation's kernel, which serves each request on this stack.
    kernel: Rc<RefCell<Kernel>>,
    /// The simulation's identity: only its monitors and CVs may be used.
    sim: SimId,
    shutting_down: Cell<bool>,
    priority: Cell<Priority>,
    seed: u64,
}

impl ThreadCtx {
    /// The coroutine of a new simulated thread: `body`, on `stack`, with
    /// a context of its own. Nothing runs until the first resume.
    pub(crate) fn coroutine(
        stack: Stack,
        tid: ThreadId,
        name: String,
        priority: Priority,
        kernel: Rc<RefCell<Kernel>>,
        (sim, seed): (SimId, u64),
        body: BodyFn,
    ) -> Coroutine {
        Coroutine::new(stack, move |baton| {
            let ctx = ThreadCtx {
                tid,
                name,
                baton,
                kernel,
                sim,
                shutting_down: Cell::new(false),
                priority: Cell::new(priority),
                seed,
            };
            body(&ctx)
        })
    }

    /// This thread's identity.
    pub fn tid(&self) -> ThreadId {
        self.tid
    }

    /// This thread's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// This thread's current priority.
    pub fn priority(&self) -> Priority {
        self.priority.get()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.borrow().clock
    }

    /// A deterministic per-thread random generator, derived from the
    /// simulation seed and this thread's id.
    pub fn rng(&self) -> SplitMix64 {
        SplitMix64::new(
            self.seed ^ (self.tid.as_u32() as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
    }

    // ---- the kernel call --------------------------------------------------

    /// Carries `req` to the scheduler and comes back with its reply,
    /// having switched stacks only if the thread left the CPU meanwhile.
    fn request(&self, req: Request) -> Reply {
        let caught = IN_KERNEL.replace(true);
        assert!(!caught, "a thread body caught a panic of the kernel's");
        let served = self.kernel.borrow_mut().serve(self.tid, req);
        IN_KERNEL.set(false);
        served.unwrap_or_else(|| self.baton.park())
    }

    // Inlined so that `req` is built in place as `request`'s argument. A
    // copy made here reads it back in 16-byte loads that straddle the
    // narrower stores just made: a store-forwarding stall on every call
    // (an enter + exit pair 68 -> 78 ns when `Request` shrank to 48 bytes).
    // The reply has the same hazard on the way back, which is why it must
    // fit a register: while a fault carried its text, `Option<Reply>` was
    // 24 bytes, stored by `Kernel::advance` in parts and reloaded whole here.
    #[inline(always)]
    fn call(&self, req: Request) -> Reply {
        if self.shutting_down.get() {
            std::panic::panic_any(ShutdownSignal);
        }
        self.checked(self.request(req))
    }

    /// Finishes `call` in place if it is quiet ([`Kernel::finish_quietly`]),
    /// parking only if the CPU it booked cost it the CPU; `None` if it
    /// needs the general path. Checked before any [`Request`] exists, so
    /// that the general path's code is what it would be without it.
    #[inline(always)]
    fn quietly(&self, call: QuietCall) -> Option<Reply> {
        if self.shutting_down.get() {
            return None;
        }
        let caught = IN_KERNEL.replace(true);
        assert!(!caught, "a thread body caught a panic of the kernel's");
        let kept_cpu = self.kernel.borrow_mut().finish_quietly(self.tid, call);
        IN_KERNEL.set(false);
        if kept_cpu? {
            Some(Reply::Ok)
        } else {
            Some(self.baton.park())
        }
    }

    /// The reply a body sees: a teardown or a fault unwinds instead.
    #[inline(always)]
    fn checked(&self, reply: Reply) -> Reply {
        match reply {
            Reply::Shutdown => {
                self.shutting_down.set(true);
                std::panic::panic_any(ShutdownSignal)
            }
            Reply::Fault => self.fault(),
            r => r,
        }
    }

    /// Panics with the message of the fault the kernel just replied.
    #[cold]
    #[inline(never)]
    fn fault(&self) -> ! {
        let msg = self.kernel.borrow_mut().take_fault(self.tid);
        panic!("{msg}")
    }

    // ---- thread lifecycle ----------------------------------------------

    /// FORKs a thread running `f`, returning a handle to JOIN.
    ///
    /// Under [`crate::ForkPolicy::WaitForResources`] this may block until a
    /// thread slot frees up; under [`crate::ForkPolicy::Error`] it returns
    /// [`ForkError::ResourcesExhausted`] at the limit (§5.4).
    pub fn fork<T, F>(&self, name: &str, f: F) -> Result<JoinHandle<T>, ForkError>
    where
        T: Send + 'static,
        F: FnOnce(&ThreadCtx) -> T + Send + 'static,
    {
        self.fork_with(name, ForkOpts::default(), f)
    }

    /// FORKs at an explicit priority.
    pub fn fork_prio<T, F>(
        &self,
        name: &str,
        priority: Priority,
        f: F,
    ) -> Result<JoinHandle<T>, ForkError>
    where
        T: Send + 'static,
        F: FnOnce(&ThreadCtx) -> T + Send + 'static,
    {
        self.fork_with(name, ForkOpts::default().priority(priority), f)
    }

    /// FORKs a detached thread (it will never be JOINed).
    pub fn fork_detached<F>(&self, name: &str, f: F) -> Result<ThreadId, ForkError>
    where
        F: FnOnce(&ThreadCtx) + Send + 'static,
    {
        self.fork_with(name, ForkOpts::default().detached(), f)
            .map(|h| h.tid)
    }

    /// FORKs a detached thread at an explicit priority.
    pub fn fork_detached_prio<F>(
        &self,
        name: &str,
        priority: Priority,
        f: F,
    ) -> Result<ThreadId, ForkError>
    where
        F: FnOnce(&ThreadCtx) + Send + 'static,
    {
        self.fork_with(name, ForkOpts::default().detached().priority(priority), f)
            .map(|h| h.tid)
    }

    /// FORKs with explicit options.
    pub fn fork_with<T, F>(
        &self,
        name: &str,
        opts: ForkOpts,
        f: F,
    ) -> Result<JoinHandle<T>, ForkError>
    where
        T: Send + 'static,
        F: FnOnce(&ThreadCtx) -> T + Send + 'static,
    {
        let (spec, slot) = fork_spec(name, opts.priority, f);
        match self.call(Request::Fork(spec)) {
            Reply::Forked(tid) => Ok(JoinHandle { tid, slot }),
            Reply::ForkFailed => Err(ForkError::ResourcesExhausted),
            r => unreachable!("fork: unexpected reply {r:?}"),
        }
    }

    /// JOINs a forked thread, returning the value its body returned, or
    /// the panic message if it panicked. Consumes the handle: a thread may
    /// be JOINed at most once.
    pub fn join<T>(&self, handle: JoinHandle<T>) -> Result<T, JoinError> {
        match self.call(Request::Join(handle.tid)) {
            Reply::Joined => handle.take_result(),
            r => unreachable!("join: unexpected reply {r:?}"),
        }
    }

    /// DETACHes a forked thread, telling the runtime to recycle its
    /// resources when it terminates.
    pub fn detach<T>(&self, handle: JoinHandle<T>) {
        let _ = self.call(Request::Detach(handle.tid));
    }

    // ---- time -----------------------------------------------------------

    /// Consumes `d` of virtual CPU time. Preemptible: higher-priority
    /// wakeups and quantum expiry can interleave other threads.
    pub fn work(&self, d: SimDuration) {
        if d.is_zero() {
            return;
        }
        let _ = match self.quietly(QuietCall::Work(d)) {
            Some(reply) => self.checked(reply),
            None => self.call(Request::Work(d)),
        };
    }

    /// Sleeps for at least `d`. Like PCR timeouts, the wake time is
    /// quantized to the timer granularity: "the smallest sleep interval is
    /// the remainder of the scheduler quantum" (§6.3).
    pub fn sleep(&self, d: SimDuration) {
        let _ = self.call(Request::Sleep { d, precise: false });
    }

    /// Sleeps for exactly `d`, unquantized. Models waiting for an external
    /// device event delivered by the host OS rather than by PCR's timer
    /// (keyboard interrupts, network packets).
    pub fn sleep_precise(&self, d: SimDuration) {
        let _ = self.call(Request::Sleep { d, precise: true });
    }

    // ---- scheduling -----------------------------------------------------

    /// YIELDs the processor; its only purpose is to cause the scheduler to
    /// run.
    pub fn yield_now(&self) {
        let _ = self.call(Request::Yield);
    }

    /// `YieldButNotToMe` (§5.2): gives the processor to the highest
    /// priority ready thread *other than the caller*, if such a thread
    /// exists. The favored thread is shielded from preemption by the
    /// caller until its timeslice ends.
    pub fn yield_but_not_to_me(&self) {
        let _ = self.call(Request::YieldButNotToMe);
    }

    /// Donates a timeslice to a specific ready thread (directed yield).
    /// No-op if the target is not ready.
    pub fn directed_yield(&self, target: ThreadId, slice: SimDuration) {
        let _ = self.call(Request::DirectedYield { target, slice });
    }

    /// Donates a timeslice to a randomly chosen ready thread — the
    /// SystemDaemon's proportional-scheduling hack (§6.2).
    pub fn donate_random(&self, slice: SimDuration) {
        let _ = self.call(Request::DonateRandom { slice });
    }

    /// Changes this thread's priority.
    pub fn set_priority(&self, p: Priority) {
        self.priority.set(p);
        let _ = self.call(Request::SetPriority(p));
    }

    // ---- monitors and condition variables --------------------------------

    /// Enters `m`, blocking if another thread is inside.
    ///
    /// # Panics
    ///
    /// Panics on recursive entry: Mesa monitors are not re-entrant and a
    /// recursive ENTER would self-deadlock. Panics if another simulation
    /// made `m`: its id would name one of this simulation's monitors.
    pub fn enter<'a, T: Send + 'static>(&'a self, m: &'a Monitor<T>) -> MonitorGuard<'a, T> {
        if m.sim != self.sim {
            foreign_monitor("enter", m.id);
        }
        let reply = match self.quietly(QuietCall::Enter(m.id)) {
            Some(reply) => self.checked(reply),
            None => self.call(Request::MonitorEnter(m.id)),
        };
        match reply {
            Reply::Ok => MonitorGuard {
                ctx: self,
                monitor: m,
                owns: true,
            },
            r => unreachable!("enter: unexpected reply {r:?}"),
        }
    }

    pub(crate) fn monitor_exit(&self, mid: MonitorId) {
        // After a kernel panic the kernel's state is not to be trusted,
        // and this is a guard dropped by that panic's unwind.
        if self.shutting_down.get() || IN_KERNEL.get() {
            return;
        }
        let reply = match self.quietly(QuietCall::Exit(mid)) {
            Some(reply) => reply,
            None => self.request(Request::MonitorExit(mid)),
        };
        if let Reply::Fault = reply {
            // A non-owner's EXIT is ignored, as it always was; its message
            // goes too, or this thread's next fault could report it.
            drop(self.kernel.borrow_mut().take_fault(self.tid));
        }
        if let Reply::Shutdown = reply {
            self.shutting_down.set(true);
            // Unwind unless we are already unwinding (a panic out of a
            // destructor during a panic would abort the process).
            // `panicking()` is per OS thread, so it also reads true when
            // it is another coroutine, or the host tearing the world down,
            // that is mid-unwind. Erring that way is benign: this body
            // carries on and unwinds at its next runtime call instead.
            if !std::thread::panicking() {
                std::panic::panic_any(ShutdownSignal);
            }
        }
    }

    /// WAITs on `cv`, atomically releasing the guard's monitor, queueing
    /// on the CV, and re-entering the monitor before returning.
    ///
    /// Mesa semantics: the condition is *not* guaranteed to hold on
    /// return; re-check it in a loop (or use
    /// [`MonitorGuard::wait_until`]).
    ///
    /// # Panics
    ///
    /// Panics if `cv` belongs to a different monitor than `guard`, or to
    /// another simulation.
    pub fn wait<T: Send + 'static>(
        &self,
        guard: &mut MonitorGuard<'_, T>,
        cv: &Condition,
    ) -> WaitOutcome {
        check_cv("WAIT", guard, cv);
        if self.shutting_down.get() {
            std::panic::panic_any(ShutdownSignal);
        }
        let reply = self.request(Request::CvWait { cv: cv.id });
        if let Reply::Shutdown = reply {
            // The kernel released the monitor as the WAIT began, and the
            // unwind starting here keeps the guard alive a little longer.
            guard.owns = false;
        }
        match self.checked(reply) {
            Reply::Wait(outcome) => outcome,
            r => unreachable!("wait: unexpected reply {r:?}"),
        }
    }

    /// NOTIFYs `cv`: makes exactly one waiter runnable, if any is queued.
    /// Requires the monitor to be held, which the guard proves.
    pub fn notify<T: Send + 'static>(&self, guard: &MonitorGuard<'_, T>, cv: &Condition) {
        check_cv("NOTIFY", guard, cv);
        let _ = self.call(Request::Notify { cv: cv.id });
    }

    /// BROADCASTs `cv`: makes every waiter runnable.
    pub fn broadcast<T: Send + 'static>(&self, guard: &MonitorGuard<'_, T>, cv: &Condition) {
        check_cv("BROADCAST", guard, cv);
        let _ = self.call(Request::Broadcast { cv: cv.id });
    }

    /// Creates a monitor at run time.
    pub fn new_monitor<T: Send + 'static>(&self, name: &str, data: T) -> Monitor<T> {
        match self.call(Request::NewMonitor { name: name.into() }) {
            Reply::MonitorId(id) => Monitor::new(id, self.sim, data),
            r => unreachable!("new_monitor: unexpected reply {r:?}"),
        }
    }

    /// Creates a condition variable on `m` at run time.
    ///
    /// # Panics
    ///
    /// Panics if another simulation made `m`.
    pub fn new_condition<T: Send + 'static>(
        &self,
        m: &Monitor<T>,
        name: &str,
        timeout: Option<SimDuration>,
    ) -> Condition {
        if m.sim != self.sim {
            foreign_monitor("new_condition", m.id);
        }
        match self.call(Request::NewCondition {
            name: name.into(),
            monitor: m.id,
            timeout,
        }) {
            Reply::CondId(id) => Condition {
                id,
                monitor: m.id,
                sim: self.sim,
                timeout,
            },
            r => unreachable!("new_condition: unexpected reply {r:?}"),
        }
    }

    pub(crate) fn send_exit(&self, panicked: bool) {
        if self.shutting_down.get() {
            return;
        }
        self.baton.post(Request::Exit { panicked });
    }
}

/// Refuses a monitor another simulation made: in the calling thread, or
/// on the host for [`Sim::condition`](crate::Sim::condition).
#[cold]
#[inline(never)]
pub(crate) fn foreign_monitor(op: &str, mid: MonitorId) -> ! {
    panic!("{op}: monitor {mid:?} belongs to another simulation")
}

/// Refuses a CV of another monitor, or of another simulation, in the
/// calling thread, before the kernel looks its id up.
fn check_cv<T: Send + 'static>(op: &str, guard: &MonitorGuard<'_, T>, cv: &Condition) {
    let mid = guard.monitor.id;
    if mid != cv.monitor || guard.monitor.sim != cv.sim {
        panic!(
            "{op}: condition {:?} does not belong to monitor {mid:?}",
            cv.id
        );
    }
}

/// What the scheduler needs to create a thread running `f`, wrapped for
/// result capture and panic handling, and the slot its result lands in.
pub(crate) fn fork_spec<T: Send + 'static>(
    name: &str,
    priority: Option<Priority>,
    f: impl FnOnce(&ThreadCtx) -> T + Send + 'static,
) -> (ForkSpec, ResultSlot<T>) {
    let result: ResultSlot<T> = Arc::new(Mutex::new(None));
    let slot = Arc::clone(&result);
    let body: BodyFn = Box::new(move |ctx: &ThreadCtx| {
        match catch_unwind(AssertUnwindSafe(|| f(ctx))) {
            Ok(v) => {
                *slot.lock().expect("result slot poisoned") = Some(Ok(v));
                ctx.send_exit(false);
            }
            Err(payload) => {
                if IN_KERNEL.replace(false) {
                    // Raised by the kernel or a sink while serving this
                    // thread: not its own failure. `Sim::run` re-raises
                    // it on the host.
                    resume_unwind(payload);
                }
                if payload.is::<ShutdownSignal>() {
                    // Teardown unwind: vanish quietly.
                    return;
                }
                let msg = panic_message(payload.as_ref());
                *slot.lock().expect("result slot poisoned") = Some(Err(msg));
                ctx.send_exit(true);
            }
        }
    });
    let spec = ForkSpec {
        name: name.to_string(),
        priority,
        body,
    };
    (spec, result)
}

/// Extracts a readable message from a panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use crate::{JoinError, Priority, RunLimit, Sim, SimConfig};

    #[test]
    fn a_non_owners_exit_leaves_no_message_for_the_next_fault() {
        let mut sim = Sim::new(SimConfig::default());
        let m = sim.monitor("m", ());
        let h = sim.fork_root("t", Priority::DEFAULT, move |ctx| {
            // Not held: ignored, as a guard's drop cannot report it.
            ctx.monitor_exit(m.id);
            let _g = ctx.enter(&m);
            // threadlint: allow(lock-order-cycle)
            let _again = ctx.enter(&m);
        });
        sim.run(RunLimit::ToCompletion);
        let Err(JoinError::Panicked(msg)) = h.into_result().unwrap() else {
            panic!("the recursive entry must panic");
        };
        assert!(msg.starts_with("recursive monitor entry"), "{msg}");
    }
}
