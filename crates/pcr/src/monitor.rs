//! Mesa-style monitors.
//!
//! A monitor couples a mutual-exclusion lock with the data it protects.
//! In Mesa the compiler inserted locking code into monitored procedures;
//! here [`Monitor<T>`] owns the protected data and the only way to touch
//! it is through a [`MonitorGuard`] obtained from
//! [`crate::ThreadCtx::enter`], so possession of the guard plays the role
//! of "executing inside the module".
//!
//! # Soundness
//!
//! The data sits in an [`UnsafeCell`], not behind a lock: the kernel's
//! ownership rule is the exclusion, and a lock under it could never be
//! contended. [`MonitorGuard::with`] and [`MonitorGuard::with_mut`]
//! dereference the cell directly, which is sound because:
//!
//! * **A guard reaches the data only while the kernel records its thread
//!   as the monitor's owner.** [`crate::ThreadCtx::enter`], the only code
//!   that builds one, does so only on the kernel's grant, and a second
//!   ENTER by the owner faults (Mesa monitors are not re-entrant), so a
//!   thread never holds two guards of one monitor. The one way a guard
//!   outlives its ownership is a WAIT cut short by its world's teardown:
//!   the kernel released the monitor when the WAIT began, and the caller
//!   unwinds with the guard still alive, where a destructor or a
//!   `catch_unwind` could use it while another thread is suspended inside
//!   `with_mut`. [`crate::ThreadCtx::wait`] marks such a guard as no longer
//!   owning, and `with`/`with_mut` refuse it with a panic (an abort if
//!   the thread is already unwinding through a destructor).
//! * **Ownership passes only by the owner's own EXIT or WAIT.** EXIT is
//!   the guard's drop, which takes it by value; WAIT takes it by `&mut`,
//!   and a [`Condition`] of another monitor or simulation is refused
//!   before the kernel sees it. Either way the borrow checker has ended
//!   every `&T` and `&mut T` that `with`/`with_mut` lent out. Nothing
//!   else in the kernel clears or moves an owner: a thread that dies
//!   inside unwinds through its guard's EXIT, and one unwound by its
//!   world's teardown skips the EXIT and keeps the monitor for good.
//! * **All of a simulation's threads share one OS thread**, and only one
//!   of them runs at a time ([`crate::Sim`] and [`crate::ThreadCtx`] are
//!   `!Send`, and so is a guard). A switch away inside `with_mut` — the
//!   closure calls `ctx.work`, say — leaves the owner recorded, so any
//!   other thread that tries to enter blocks.
//! * **A monitor is entered only through the simulation that made it.**
//!   A [`MonitorId`] of one `Sim` is a valid index in another, so each
//!   `Sim` takes a process-unique `SimId`, every `Monitor` and
//!   `Condition` carries its maker's, and `enter` (and WAIT, NOTIFY and
//!   BROADCAST) refuse a foreign one with a thread panic; so does making
//!   a CV on another world's monitor. Ids come from a
//!   counter, never an address, so a world built after another was
//!   dropped cannot inherit its monitors.
//! * **A guard reaches only its own monitor's slot.** A batch of monitors
//!   ([`crate::Sim::monitors`]; a single monitor is a batch of one) keeps
//!   its data in one shared block, `Arc<[UnsafeCell<T>]>`. Each `Monitor`
//!   holds a share of the block and a pointer to its own slot's cell,
//!   taken from the bounds-checked slot when the batch is made and never
//!   changed; a clone copies both. The batch gives its `i`th monitor slot
//!   `i`, so two monitors of one block never share a slot, and each slot
//!   is its own cell, so a `&mut T` into one slot aliases no other. The
//!   rules above then hold slot by slot: a slot is touched only by its own
//!   monitor's owner. The pointer stays valid while the guard lives, since
//!   the guard borrows a `Monitor`, whose share keeps the block.
//!
//! A body that panics inside `with_mut` leaves whatever it wrote to the
//! next enterer, as Mesa's UNWIND did.

use std::cell::UnsafeCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// The identity of one [`crate::Sim`], unique in the process, stamped on
/// every monitor and CV it makes. It is deliberately not `Debug`: it
/// depends on how many worlds the process built before, so it appears in
/// no event, report or digest.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct SimId(u64);

impl SimId {
    /// A fresh id, never handed out before in this process.
    pub(crate) fn fresh() -> SimId {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        // Relaxed: the id publishes no other data, and uniqueness needs
        // only the atomicity of the increment.
        SimId(NEXT.fetch_add(1, Ordering::Relaxed))
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
    /// The simulation that made it, and the only one that may enter it.
    pub(crate) sim: SimId,
    /// The data in this monitor's own slot of `block`, read and written
    /// in place by the kernel's recorded owner. No lock: the kernel's
    /// ownership rule excludes (module docs).
    data: *mut T,
    /// What keeps `data` alive: its batch's data, one allocation with one
    /// cell per monitor.
    block: Arc<[UnsafeCell<T>]>,
}

// SAFETY: a monitor is a share of its block plus a pointer into it, and
// only a `MonitorGuard` dereferences the pointer. Like `Mutex<T>`, the
// block hands out `&mut T` to one thread at a time, so the handle may be
// sent and shared across OS threads whenever `T` may be sent between
// them: a guard exists only for the kernel's recorded owner, and only on
// the OS thread that runs the guard's simulation, so at most one thread of
// one simulation touches a slot at a time. These are `Arc<Mutex<T>>`'s.
unsafe impl<T: Send> Send for Monitor<T> {}
// SAFETY: as for `Send`: `&Monitor` reaches the data only through a guard.
unsafe impl<T: Send> Sync for Monitor<T> {}

impl<T: Send + 'static> Clone for Monitor<T> {
    fn clone(&self) -> Self {
        Monitor {
            id: self.id,
            sim: self.sim,
            data: self.data,
            block: Arc::clone(&self.block),
        }
    }
}

impl<T: Send + 'static> Monitor<T> {
    /// A batch of one.
    pub(crate) fn new(id: MonitorId, sim: SimId, data: T) -> Self {
        Self::in_slot(id, sim, Arc::new([UnsafeCell::new(data)]), 0)
    }

    /// `n` monitors with consecutive ids from `first`, slot `i` holding
    /// `init(i)`: their data is one allocation, and so is the `Vec`.
    pub(crate) fn batch(
        first: MonitorId,
        sim: SimId,
        n: usize,
        mut init: impl FnMut(usize) -> T,
    ) -> Vec<Self> {
        let block: Arc<[UnsafeCell<T>]> = (0..n).map(|i| UnsafeCell::new(init(i))).collect();
        (0..n)
            .map(|slot| {
                let id = MonitorId(first.0 + slot as u32);
                Self::in_slot(id, sim, Arc::clone(&block), slot)
            })
            .collect()
    }

    /// The monitor whose data is `block`'s cell `slot`: the only place a
    /// slot is chosen, and the index is bounds-checked here, once.
    fn in_slot(id: MonitorId, sim: SimId, block: Arc<[UnsafeCell<T>]>, slot: usize) -> Self {
        Monitor {
            id,
            sim,
            data: block[slot].get(),
            block,
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
    /// Whether the kernel still records this guard's thread as the owner:
    /// false only after a WAIT that teardown cut short (module docs).
    pub(crate) owns: bool,
}

impl<'a, T: Send + 'static> MonitorGuard<'a, T> {
    /// Reads the protected data.
    ///
    /// # Panics
    ///
    /// Panics if this guard's WAIT was cut short by the world's teardown:
    /// the monitor is no longer its thread's. So does [`Self::with_mut`].
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        if !self.owns {
            lost(self.monitor.id);
        }
        // SAFETY: this guard's thread owns the monitor, as `owns` says,
        // and keeps it while `self` is borrowed, and a `&mut T` is lent
        // only through `&mut self`, so no `&mut T` is alive (module docs).
        // `data` points into the block the monitor keeps alive, at its own
        // slot; other slots belong to other monitors.
        f(unsafe { &*self.monitor.data })
    }

    /// Mutates the protected data.
    pub fn with_mut<R>(&mut self, f: impl FnOnce(&mut T) -> R) -> R {
        if !self.owns {
            lost(self.monitor.id);
        }
        // SAFETY: as in `with`, and `&mut self` rules out any other
        // reference lent by this guard; no other guard of this monitor
        // exists while this one's thread owns it (module docs), and the
        // `&mut T` covers only this monitor's slot of the block.
        f(unsafe { &mut *self.monitor.data })
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
        if self.owns {
            self.ctx.monitor_exit(self.monitor.id);
        }
    }
}

/// Refuses a guard whose WAIT teardown cut short: its monitor is no longer
/// its thread's, and another thread may be inside.
#[cold]
#[inline(never)]
fn lost(mid: MonitorId) -> ! {
    panic!("monitor {mid:?}: this guard's WAIT was cut short by teardown, and the monitor is no longer held")
}
