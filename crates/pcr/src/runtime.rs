//! The Mesa primitive surface of §2 as a trait: [`Runtime`], its guard
//! half [`Guard`], and the delegating impls for the simulator's
//! [`ThreadCtx`] and [`MonitorGuard`].

use crate::condition::Condition;
use crate::ctx::{ForkOpts, ThreadCtx};
use crate::error::{ForkError, JoinError};
use crate::event::WaitOutcome;
use crate::monitor::{Monitor, MonitorGuard, MonitorId};
use crate::thread::{JoinHandle, Priority, ThreadId};
use crate::time::{SimDuration, SimTime};

/// Proof of being inside a monitor: data access and the CV operations,
/// which the Mesa compiler only allowed with the monitor lock held.
/// Dropping the guard exits the monitor.
pub trait Guard<T> {
    /// The backend's condition-variable handle.
    type Condition;

    /// Reads the protected data.
    fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R;

    /// Mutates the protected data.
    fn with_mut<R>(&mut self, f: impl FnOnce(&mut T) -> R) -> R;

    /// WAITs on `cv`, atomically releasing the monitor and re-entering
    /// it before returning. Mesa semantics: the awaited condition is
    /// *not* guaranteed on return.
    ///
    /// # Panics
    ///
    /// Panics if `cv` belongs to a different monitor.
    fn wait(&mut self, cv: &Self::Condition) -> WaitOutcome;

    /// WAITs until `pred` holds, re-checking after every wakeup — the
    /// "WAIT only in a loop" convention of §5.3. Timeouts just re-check.
    fn wait_until(&mut self, cv: &Self::Condition, mut pred: impl FnMut(&T) -> bool) {
        while !self.with(&mut pred) {
            self.wait(cv);
        }
    }

    /// WAITs until `pred` holds or `deadline` elapses; returns whether
    /// the predicate held.
    fn wait_until_before(
        &mut self,
        cv: &Self::Condition,
        deadline: SimDuration,
        pred: impl FnMut(&T) -> bool,
    ) -> bool;

    /// NOTIFYs `cv`: exactly one waiter wakens, if any is queued. Only
    /// a performance hint under the WAIT-in-a-loop convention.
    fn notify(&self, cv: &Self::Condition);

    /// BROADCASTs `cv`: every waiter wakens.
    fn broadcast(&self, cv: &Self::Condition);
}

/// A thread's handle to a Mesa-model runtime: the primitive surface of
/// §2, named once.
///
/// The paper's ten paradigms (§4) are all built from one small set of
/// primitives: FORK/JOIN/DETACH, monitor entry, WAIT with a per-CV
/// timeout, NOTIFY, BROADCAST, YIELD, priorities and pause. `Runtime`
/// is that set, implemented *by the thread context itself*, so a
/// paradigm written against `C: Runtime` runs unchanged on any
/// execution substrate:
///
/// * [`ThreadCtx`] — this crate's deterministic virtual-time simulator
///   ([`crate::Sim`], on one virtual CPU or several);
/// * `mesa::RealCtx` — real `std::thread`s with `Mutex`/`Condvar`.
///
/// The backend is chosen by the *type* of the context a thread body is
/// handed and by nothing else. The inherent methods on [`ThreadCtx`]
/// and [`MonitorGuard`] stay, so code that names the simulator's types
/// directly needs no import and compiles to what it always did; the
/// impls for them only delegate.
///
/// Durations and instants are [`SimDuration`]/[`SimTime`] on every
/// backend: virtual microseconds on the simulator, wall-clock
/// microseconds since the runtime's start on real threads.
///
/// # Examples
///
/// A bounded-buffer handoff written once and run on the simulator; the
/// same function runs on `mesa::RealCtx` (see that crate's docs).
///
/// ```
/// use pcr::{Guard, Priority, RunLimit, Runtime, Sim, SimConfig};
///
/// fn handoff<C: Runtime>(ctx: &C) -> u32 {
///     let slot = ctx.new_monitor("slot", None::<u32>);
///     let filled = ctx.new_condition(&slot, "filled", None);
///     let (s2, f2) = (slot.clone(), filled.clone());
///     let producer = ctx
///         .fork("producer", move |ctx: &C| {
///             let mut g = ctx.enter(&s2);
///             g.with_mut(|v| *v = Some(7));
///             g.notify(&f2);
///         })
///         .unwrap();
///     let mut g = ctx.enter(&slot);
///     g.wait_until(&filled, |v| v.is_some());
///     let v = g.with(|v| v.unwrap());
///     drop(g);
///     ctx.join(producer).unwrap();
///     v
/// }
///
/// let mut sim = Sim::new(SimConfig::default());
/// let h = sim.fork_root("main", Priority::DEFAULT, |ctx| handoff(ctx));
/// sim.run(RunLimit::ToCompletion);
/// assert_eq!(h.into_result().unwrap().unwrap(), 7);
/// ```
pub trait Runtime: Sized + 'static {
    /// A monitor: a lock bound to the data it protects. Clones share it.
    type Monitor<T: Send + 'static>: Clone + Send + Sync + 'static;
    /// Proof of being inside a monitor, from [`Runtime::enter`].
    type Guard<'a, T: Send + 'static>: Guard<T, Condition = Self::Condition>
    where
        Self: 'a;
    /// A condition variable bound to one monitor, carrying its timeout.
    type Condition: Clone + Send + Sync + 'static;
    /// What FORK returns; consumed by JOIN or DETACH (at most once).
    type JoinHandle<T: Send + 'static>: Send + 'static;

    // ---- thread lifecycle ----------------------------------------------

    /// FORKs a thread running `f` with explicit options. Fails with
    /// [`ForkError`] when the runtime is out of thread resources (§5.4).
    fn fork_with<T, F>(
        &self,
        name: &str,
        opts: ForkOpts,
        f: F,
    ) -> Result<Self::JoinHandle<T>, ForkError>
    where
        T: Send + 'static,
        F: FnOnce(&Self) -> T + Send + 'static;

    /// FORKs a thread at the forker's priority, returning a handle to JOIN.
    fn fork<T, F>(&self, name: &str, f: F) -> Result<Self::JoinHandle<T>, ForkError>
    where
        T: Send + 'static,
        F: FnOnce(&Self) -> T + Send + 'static,
    {
        self.fork_with(name, ForkOpts::default(), f)
    }

    /// FORKs at an explicit priority.
    fn fork_prio<T, F>(
        &self,
        name: &str,
        priority: Priority,
        f: F,
    ) -> Result<Self::JoinHandle<T>, ForkError>
    where
        T: Send + 'static,
        F: FnOnce(&Self) -> T + Send + 'static,
    {
        self.fork_with(name, ForkOpts::default().priority(priority), f)
    }

    /// FORKs a detached thread (it will never be JOINed).
    fn fork_detached<F>(&self, name: &str, f: F) -> Result<ThreadId, ForkError>
    where
        F: FnOnce(&Self) + Send + 'static,
    {
        self.fork_with(name, ForkOpts::default().detached(), f)
            .map(|h| Self::handle_tid(&h))
    }

    /// FORKs a detached thread at an explicit priority.
    fn fork_detached_prio<F>(
        &self,
        name: &str,
        priority: Priority,
        f: F,
    ) -> Result<ThreadId, ForkError>
    where
        F: FnOnce(&Self) + Send + 'static,
    {
        self.fork_with(name, ForkOpts::default().detached().priority(priority), f)
            .map(|h| Self::handle_tid(&h))
    }

    /// JOINs a forked thread: its return value, or the panic message if
    /// it panicked.
    fn join<T: Send + 'static>(&self, handle: Self::JoinHandle<T>) -> Result<T, JoinError>;

    /// DETACHes a forked thread: nobody will JOIN it.
    fn detach<T: Send + 'static>(&self, handle: Self::JoinHandle<T>);

    /// The identity of the thread behind `handle`.
    fn handle_tid<T: Send + 'static>(handle: &Self::JoinHandle<T>) -> ThreadId;

    /// The calling thread's identity.
    fn tid(&self) -> ThreadId;

    // ---- time and scheduling -------------------------------------------

    /// The runtime's clock.
    fn now(&self) -> SimTime;

    /// Consumes `d` of CPU time.
    fn work(&self, d: SimDuration);

    /// Pauses for at least `d`, subject to the runtime's timer
    /// granularity (§6.3).
    fn sleep(&self, d: SimDuration);

    /// Pauses for `d` unquantized — an external device event rather
    /// than the runtime's own timer.
    fn sleep_precise(&self, d: SimDuration);

    /// YIELDs the processor.
    fn yield_now(&self);

    /// `YieldButNotToMe` (§5.2): cedes to the best ready thread other
    /// than the caller. A uniprocessor device; backends without one
    /// degrade it to [`Runtime::yield_now`].
    fn yield_but_not_to_me(&self);

    /// Changes the calling thread's priority.
    fn set_priority(&self, p: Priority);

    // ---- monitors and condition variables ------------------------------

    /// Creates a monitor around `data`.
    fn new_monitor<T: Send + 'static>(&self, name: &str, data: T) -> Self::Monitor<T>;

    /// Creates a condition variable on `m`; the timeout interval is a
    /// property of the CV (`None` waits forever).
    fn new_condition<T: Send + 'static>(
        &self,
        m: &Self::Monitor<T>,
        name: &str,
        timeout: Option<SimDuration>,
    ) -> Self::Condition;

    /// The identity of `m`, unique within its runtime.
    fn monitor_id<T: Send + 'static>(m: &Self::Monitor<T>) -> MonitorId;

    /// Enters `m`, blocking while another thread is inside. Mesa
    /// monitors are not re-entrant.
    fn enter<'a, T: Send + 'static>(&'a self, m: &'a Self::Monitor<T>) -> Self::Guard<'a, T>;
}

impl<T: Send + 'static> Guard<T> for MonitorGuard<'_, T> {
    type Condition = Condition;

    fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        MonitorGuard::with(self, f)
    }

    fn with_mut<R>(&mut self, f: impl FnOnce(&mut T) -> R) -> R {
        MonitorGuard::with_mut(self, f)
    }

    fn wait(&mut self, cv: &Condition) -> WaitOutcome {
        MonitorGuard::wait(self, cv)
    }

    fn wait_until_before(
        &mut self,
        cv: &Condition,
        deadline: SimDuration,
        pred: impl FnMut(&T) -> bool,
    ) -> bool {
        MonitorGuard::wait_until_before(self, cv, deadline, pred)
    }

    fn notify(&self, cv: &Condition) {
        MonitorGuard::notify(self, cv)
    }

    fn broadcast(&self, cv: &Condition) {
        MonitorGuard::broadcast(self, cv)
    }
}

impl Runtime for ThreadCtx {
    type Monitor<T: Send + 'static> = Monitor<T>;
    type Guard<'a, T: Send + 'static> = MonitorGuard<'a, T>;
    type Condition = Condition;
    type JoinHandle<T: Send + 'static> = JoinHandle<T>;

    fn fork_with<T, F>(&self, name: &str, opts: ForkOpts, f: F) -> Result<JoinHandle<T>, ForkError>
    where
        T: Send + 'static,
        F: FnOnce(&ThreadCtx) -> T + Send + 'static,
    {
        ThreadCtx::fork_with(self, name, opts, f)
    }

    fn join<T: Send + 'static>(&self, handle: JoinHandle<T>) -> Result<T, JoinError> {
        ThreadCtx::join(self, handle)
    }

    fn detach<T: Send + 'static>(&self, handle: JoinHandle<T>) {
        ThreadCtx::detach(self, handle)
    }

    fn handle_tid<T: Send + 'static>(handle: &JoinHandle<T>) -> ThreadId {
        handle.tid()
    }

    fn tid(&self) -> ThreadId {
        ThreadCtx::tid(self)
    }

    fn now(&self) -> SimTime {
        ThreadCtx::now(self)
    }

    fn work(&self, d: SimDuration) {
        ThreadCtx::work(self, d)
    }

    fn sleep(&self, d: SimDuration) {
        ThreadCtx::sleep(self, d)
    }

    fn sleep_precise(&self, d: SimDuration) {
        ThreadCtx::sleep_precise(self, d)
    }

    fn yield_now(&self) {
        ThreadCtx::yield_now(self)
    }

    fn yield_but_not_to_me(&self) {
        ThreadCtx::yield_but_not_to_me(self)
    }

    fn set_priority(&self, p: Priority) {
        ThreadCtx::set_priority(self, p)
    }

    fn new_monitor<T: Send + 'static>(&self, name: &str, data: T) -> Monitor<T> {
        ThreadCtx::new_monitor(self, name, data)
    }

    fn new_condition<T: Send + 'static>(
        &self,
        m: &Monitor<T>,
        name: &str,
        timeout: Option<SimDuration>,
    ) -> Condition {
        ThreadCtx::new_condition(self, m, name, timeout)
    }

    fn monitor_id<T: Send + 'static>(m: &Monitor<T>) -> MonitorId {
        m.id()
    }

    fn enter<'a, T: Send + 'static>(&'a self, m: &'a Monitor<T>) -> MonitorGuard<'a, T> {
        ThreadCtx::enter(self, m)
    }
}
