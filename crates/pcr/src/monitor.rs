//! Mesa-style monitors.
//!
//! A monitor couples a mutual-exclusion lock with the data it protects.
//! In Mesa the compiler inserted locking code into monitored procedures;
//! here [`Monitor<T>`] owns the protected data and the only way to touch
//! it is through a [`MonitorGuard`] obtained from
//! [`crate::ThreadCtx::enter`], so possession of the guard plays the role
//! of "executing inside the module".

use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::condition::Condition;
use crate::ctx::ThreadCtx;
use crate::time::SimDuration;

/// Identifier of a monitor lock.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MonitorId(pub(crate) u32);

impl MonitorId {
    /// Returns the raw index.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Rebuilds an id from its raw index — for trace tooling that works
    /// with exported (flattened) event records.
    pub const fn from_u32(v: u32) -> MonitorId {
        MonitorId(v)
    }
}

impl fmt::Debug for MonitorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ML{}", self.0)
    }
}

/// A monitor protecting a value of type `T`.
///
/// Cloning the monitor clones the *handle*; all clones refer to the same
/// lock and data, just as every procedure of a Mesa module shares the
/// module's mutex.
///
/// # Examples
///
/// ```
/// use pcr::{millis, Priority, RunLimit, Sim, SimConfig};
///
/// let mut sim = Sim::new(SimConfig::default());
/// let counter = sim.monitor("counter", 0u64);
/// for i in 0..3 {
///     let counter = counter.clone();
///     sim.fork_root(&format!("t{i}"), Priority::DEFAULT, move |ctx| {
///         let mut g = ctx.enter(&counter);
///         let v = g.with(|v| *v);
///         ctx.work(millis(1)); // Preemption can land here; the monitor holds.
///         g.with_mut(|x| *x = v + 1);
///     });
/// }
/// let probe = sim.fork_root("probe", Priority::of(2), move |ctx| {
///     let g = ctx.enter(&counter);
///     g.with(|v| *v)
/// });
/// sim.run(RunLimit::ToCompletion);
/// assert_eq!(probe.into_result().unwrap().unwrap(), 3);
/// ```
pub struct Monitor<T: Send + 'static> {
    pub(crate) id: MonitorId,
    // The simulator guarantees a single owner, but the data still sits
    // behind a real mutex so that even API misuse cannot cause a data race.
    data: Arc<Mutex<T>>,
}

impl<T: Send + 'static> Clone for Monitor<T> {
    fn clone(&self) -> Self {
        Monitor {
            id: self.id,
            data: Arc::clone(&self.data),
        }
    }
}

impl<T: Send + 'static> Monitor<T> {
    pub(crate) fn new(id: MonitorId, data: T) -> Self {
        Monitor {
            id,
            data: Arc::new(Mutex::new(data)),
        }
    }

    /// The monitor's identity in the event stream.
    pub fn id(&self) -> MonitorId {
        self.id
    }
}

impl<T: Send + 'static> fmt::Debug for Monitor<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Monitor").field("id", &self.id).finish()
    }
}

/// Proof that the calling thread is inside a monitor.
///
/// Dropping the guard exits the monitor (including during unwinding, so a
/// panicking thread releases its locks, as Mesa's UNWIND machinery did).
/// Condition-variable operations require a guard, giving the same static
/// guarantee the Mesa compiler enforced: CV operations are only invoked
/// with the monitor lock held.
pub struct MonitorGuard<'a, T: Send + 'static> {
    pub(crate) ctx: &'a ThreadCtx,
    pub(crate) monitor: &'a Monitor<T>,
    pub(crate) active: bool,
}

impl<'a, T: Send + 'static> MonitorGuard<'a, T> {
    /// Reads the protected data.
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        f(&self.monitor.data.lock())
    }

    /// Mutates the protected data.
    pub fn with_mut<R>(&mut self, f: impl FnOnce(&mut T) -> R) -> R {
        f(&mut self.monitor.data.lock())
    }

    /// WAITs on `cv`, atomically releasing the monitor and re-entering it
    /// before returning. See [`crate::ThreadCtx::wait`].
    pub fn wait(&mut self, cv: &Condition) -> crate::WaitOutcome {
        self.ctx.wait(self, cv)
    }

    /// WAITs until `pred` holds, re-checking after every wakeup — the
    /// "WAIT only in a loop" convention of §5.3. Timeouts simply re-check.
    pub fn wait_until(&mut self, cv: &Condition, mut pred: impl FnMut(&T) -> bool) {
        while !self.with(&mut pred) {
            self.wait(cv);
        }
    }

    /// WAITs until `pred` holds or the deadline passes; returns whether
    /// the predicate held.
    pub fn wait_until_before(
        &mut self,
        cv: &Condition,
        deadline: SimDuration,
        mut pred: impl FnMut(&T) -> bool,
    ) -> bool {
        let end = self.ctx.now() + deadline;
        loop {
            if self.with(&mut pred) {
                return true;
            }
            if self.ctx.now() >= end {
                return false;
            }
            self.wait(cv);
        }
    }

    /// NOTIFYs `cv`. See [`crate::ThreadCtx::notify`].
    pub fn notify(&self, cv: &Condition) {
        self.ctx.notify(self, cv);
    }

    /// BROADCASTs `cv`. See [`crate::ThreadCtx::broadcast`].
    pub fn broadcast(&self, cv: &Condition) {
        self.ctx.broadcast(self, cv);
    }

    /// The monitor this guard holds.
    pub fn monitor_id(&self) -> MonitorId {
        self.monitor.id
    }
}

impl<'a, T: Send + 'static> Drop for MonitorGuard<'a, T> {
    fn drop(&mut self) {
        if self.active {
            self.ctx.monitor_exit(self.monitor.id);
        }
    }
}
