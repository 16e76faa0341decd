//! # mesa — the Mesa thread model on real `std::thread`s
//!
//! The real-thread backend of [`pcr::Runtime`]. The paper's ten
//! paradigms live once, in the `paradigms` crate, written against
//! `C: Runtime`; hand them a [`RealCtx`] instead of the simulator's
//! `pcr::ThreadCtx` and the same code runs on OS threads, with monitors
//! on `Mutex`, condition variables on `Condvar`, and the same rules:
//! CV operations only through the monitor's guard, a per-CV timeout
//! interval, exactly-one-waiter NOTIFY as a hint, WAIT only in a loop.
//!
//! Scope restrictions relative to the simulated uniprocessor,
//! documented rather than silently diverging (compare the multiprocessor
//! table in `pcr`'s `sched/run.rs`):
//!
//! * priorities are recorded ([`RealCtx::priority`]) but not enforced —
//!   the OS schedules;
//! * `YieldButNotToMe` degrades to plain YIELD (it is a uniprocessor
//!   device; on a multiprocessor the other thread simply runs);
//! * `sleep` and `sleep_precise` are the same OS sleep — there is no
//!   50 ms timer tick to quantize to;
//! * `work(d)` spins for `d` of wall-clock time, and the clock reads
//!   microseconds since [`RealCtx::root`];
//! * FORK fails with `ForkError` when the OS refuses a thread or the
//!   runtime already hosts [`RealCtx::MAX_THREADS`] (§5.4);
//! * nothing is deterministic, and a deadlock hangs instead of being
//!   reported.
//!
//! # Example: one paradigm, this backend
//!
//! A two-stage pipeline (§4.2) from `paradigms`, on real threads; the
//! `paradigms` crate docs run the same lines on the simulator.
//!
//! ```
//! use mesa::RealCtx;
//! use paradigms::pipeline::pipeline;
//! use pcr::{Priority, SimDuration};
//!
//! let ctx = RealCtx::root();
//! let p = pipeline::<u32, _>(&ctx, "p", 8, Priority::DEFAULT)
//!     .stage(SimDuration::ZERO, |x| Some(x * 2))
//!     .stage(SimDuration::ZERO, |x| Some(x + 1))
//!     .build();
//! for i in 0..4 {
//!     p.source.put(&ctx, i);
//! }
//! p.source.close(&ctx);
//! let mut got = Vec::new();
//! while let Some(v) = p.sink.take(&ctx) {
//!     got.push(v);
//! }
//! assert_eq!(got, [1, 3, 5, 7]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod monitor;

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pcr::{
    panic_message, ForkError, ForkOpts, JoinError, MonitorId, Priority, Runtime, SimDuration,
    SimTime, ThreadId,
};

pub use monitor::{Condition, Monitor, MonitorGuard};

/// What every thread of one runtime shares.
struct World {
    epoch: Instant,
    next_tid: AtomicU32,
    next_monitor: AtomicU32,
    live: AtomicUsize,
}

/// A real thread's handle to the runtime: the `std::thread` counterpart
/// of `pcr::ThreadCtx`, and like it not shareable across threads — it
/// embodies the calling thread's identity.
pub struct RealCtx {
    world: Arc<World>,
    tid: ThreadId,
    priority: Cell<Priority>,
}

impl RealCtx {
    /// Threads one runtime hosts at once, the root included. FORK past
    /// it fails — the fixed thread table of §5.4.
    pub const MAX_THREADS: usize = 1024;

    /// Starts a runtime with the calling thread as its root, at the
    /// default priority.
    pub fn root() -> RealCtx {
        RealCtx {
            world: Arc::new(World {
                epoch: Instant::now(),
                next_tid: AtomicU32::new(1),
                next_monitor: AtomicU32::new(0),
                live: AtomicUsize::new(1),
            }),
            tid: ThreadId::from_u32(0),
            priority: Cell::new(Priority::DEFAULT),
        }
    }

    /// This thread's recorded priority. Nothing enforces it.
    pub fn priority(&self) -> Priority {
        self.priority.get()
    }
}

/// Handle returned by FORK; redeem it with JOIN. Dropping it detaches.
#[must_use = "a forked thread must be JOINed or DETACHed"]
pub struct JoinHandle<T> {
    tid: ThreadId,
    thread: std::thread::JoinHandle<Result<T, String>>,
}

impl Runtime for RealCtx {
    type Monitor<T: Send + 'static> = Monitor<T>;
    type Guard<'a, T: Send + 'static> = MonitorGuard<'a, T>;
    type Condition = Condition;
    type JoinHandle<T: Send + 'static> = JoinHandle<T>;

    fn fork_with<T, F>(&self, name: &str, opts: ForkOpts, f: F) -> Result<JoinHandle<T>, ForkError>
    where
        T: Send + 'static,
        F: FnOnce(&RealCtx) -> T + Send + 'static,
    {
        let world = Arc::clone(&self.world);
        // SeqCst: the slot count is the one value forkers race on.
        if world.live.fetch_add(1, Ordering::SeqCst) >= Self::MAX_THREADS {
            world.live.fetch_sub(1, Ordering::SeqCst);
            return Err(ForkError::ResourcesExhausted);
        }
        let tid = ThreadId::from_u32(world.next_tid.fetch_add(1, Ordering::Relaxed));
        let priority = opts.priority.unwrap_or(self.priority.get());
        std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                let ctx = RealCtx {
                    world,
                    tid,
                    priority: Cell::new(priority),
                };
                // A panic dies with this thread and is reported by JOIN.
                let result = catch_unwind(AssertUnwindSafe(|| f(&ctx)));
                ctx.world.live.fetch_sub(1, Ordering::SeqCst);
                result.map_err(|payload| panic_message(payload.as_ref()))
            })
            .map(|thread| JoinHandle { tid, thread })
            .map_err(|_| {
                self.world.live.fetch_sub(1, Ordering::SeqCst);
                ForkError::ResourcesExhausted
            })
    }

    fn join<T: Send + 'static>(&self, handle: JoinHandle<T>) -> Result<T, JoinError> {
        match handle.thread.join() {
            Ok(result) => result.map_err(JoinError::Panicked),
            Err(payload) => Err(JoinError::Panicked(panic_message(payload.as_ref()))),
        }
    }

    fn detach<T: Send + 'static>(&self, handle: JoinHandle<T>) {
        drop(handle);
    }

    fn handle_tid<T: Send + 'static>(handle: &JoinHandle<T>) -> ThreadId {
        handle.tid
    }

    fn tid(&self) -> ThreadId {
        self.tid
    }

    fn now(&self) -> SimTime {
        SimTime::from_micros(self.world.epoch.elapsed().as_micros() as u64)
    }

    fn work(&self, d: SimDuration) {
        let end = Instant::now() + monitor::to_std(d);
        while Instant::now() < end {
            std::hint::spin_loop();
        }
    }

    fn sleep(&self, d: SimDuration) {
        std::thread::sleep(monitor::to_std(d));
    }

    fn sleep_precise(&self, d: SimDuration) {
        self.sleep(d);
    }

    fn yield_now(&self) {
        std::thread::yield_now();
    }

    fn yield_but_not_to_me(&self) {
        self.yield_now();
    }

    fn set_priority(&self, p: Priority) {
        self.priority.set(p);
    }

    fn new_monitor<T: Send + 'static>(&self, name: &str, data: T) -> Monitor<T> {
        let id = self.world.next_monitor.fetch_add(1, Ordering::Relaxed);
        Monitor::new(MonitorId::from_u32(id), name, data)
    }

    fn new_condition<T: Send + 'static>(
        &self,
        m: &Monitor<T>,
        name: &str,
        timeout: Option<SimDuration>,
    ) -> Condition {
        m.condition(name, timeout)
    }

    fn monitor_id<T: Send + 'static>(m: &Monitor<T>) -> MonitorId {
        m.id()
    }

    /// A recursive ENTER self-deadlocks (or panics, as the platform's
    /// mutex prefers): Mesa monitors are not re-entrant.
    fn enter<'a, T: Send + 'static>(&'a self, m: &'a Monitor<T>) -> MonitorGuard<'a, T> {
        m.enter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr::Guard;

    #[test]
    fn priorities_are_recorded_and_inherited_but_not_enforced() {
        let ctx = RealCtx::root();
        assert_eq!(ctx.priority(), Priority::DEFAULT);
        ctx.set_priority(Priority::of(6));
        let inherited = ctx.fork("child", |c: &RealCtx| c.priority()).unwrap();
        let explicit = ctx
            .fork_prio("low", Priority::MIN, |c: &RealCtx| c.priority())
            .unwrap();
        assert_eq!(ctx.join(inherited).unwrap(), Priority::of(6));
        assert_eq!(ctx.join(explicit).unwrap(), Priority::MIN);
    }

    #[test]
    fn thread_and_monitor_ids_are_distinct_within_a_runtime() {
        let ctx = RealCtx::root();
        let a = ctx.new_monitor("a", ());
        let b = ctx.new_monitor("b", ());
        assert_ne!(a.id(), b.id());
        assert_eq!(a.clone().id(), a.id());
        let h = ctx.fork("child", |c: &RealCtx| c.tid()).unwrap();
        let forked = RealCtx::handle_tid(&h);
        assert_eq!(ctx.join(h).unwrap(), forked);
        assert_ne!(forked, ctx.tid());
    }

    #[test]
    fn the_clock_advances_across_work_and_sleep() {
        let ctx = RealCtx::root();
        let t0 = ctx.now();
        ctx.work(pcr::millis(2));
        ctx.sleep(pcr::millis(2));
        ctx.sleep_precise(pcr::millis(1));
        assert!(ctx.now().since(t0) >= pcr::millis(5));
    }

    #[test]
    fn a_detached_thread_frees_its_slot_when_it_exits() {
        let ctx = RealCtx::root();
        let done = ctx.new_monitor("done", false);
        let cv = ctx.new_condition(&done, "cv", None);
        let (d2, cv2) = (done.clone(), cv.clone());
        ctx.fork_detached("bg", move |c: &RealCtx| {
            let mut g = c.enter(&d2);
            g.with_mut(|d| *d = true);
            g.notify(&cv2);
        })
        .unwrap();
        ctx.enter(&done).wait_until(&cv, |d| *d);
        while ctx.world.live.load(Ordering::SeqCst) > 1 {
            ctx.yield_now();
        }
    }
}
