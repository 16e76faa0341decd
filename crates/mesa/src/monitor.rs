//! Mesa-style monitors and condition variables on `Mutex`/`Condvar`.
//!
//! A monitor couples a mutual-exclusion lock with the data it protects
//! (paper §2). [`crate::RealCtx`]'s `enter` returns a guard; the CV
//! operations are methods of the guard, so "CV operations are only
//! invoked with the monitor lock held" is enforced by the borrow
//! checker, as the Mesa compiler enforced it syntactically.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use pcr::{Guard, MonitorId, SimDuration, WaitOutcome};

pub(crate) fn to_std(d: SimDuration) -> Duration {
    Duration::from_micros(d.as_micros())
}

struct MonitorInner<T> {
    id: MonitorId,
    name: String,
    mutex: Mutex<T>,
}

/// A monitor protecting a value of type `T`. Clones share the lock and
/// data, as every procedure of a Mesa module shares the module's mutex.
pub struct Monitor<T> {
    inner: Arc<MonitorInner<T>>,
}

impl<T> Clone for Monitor<T> {
    fn clone(&self) -> Self {
        Monitor {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Monitor<T> {
    pub(crate) fn new(id: MonitorId, name: &str, data: T) -> Self {
        Monitor {
            inner: Arc::new(MonitorInner {
                id,
                name: name.to_string(),
                mutex: Mutex::new(data),
            }),
        }
    }

    /// The monitor's identity within its runtime.
    pub fn id(&self) -> MonitorId {
        self.inner.id
    }

    pub(crate) fn enter(&self) -> MonitorGuard<'_, T> {
        // A body that panicked inside left the data to the next enterer,
        // as Mesa's UNWIND did: poison is recovered, not propagated.
        let guard = self.inner.mutex.lock();
        MonitorGuard {
            guard: Some(guard.unwrap_or_else(PoisonError::into_inner)),
            monitor: self,
        }
    }

    pub(crate) fn condition(&self, name: &str, timeout: Option<SimDuration>) -> Condition {
        Condition {
            inner: Arc::new(CvInner {
                monitor: self.inner.id,
                name: name.to_string(),
                timeout: timeout.map(to_std),
                queue: Mutex::new(VecDeque::new()),
            }),
        }
    }
}

impl<T> std::fmt::Debug for Monitor<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Monitor")
            .field("id", &self.inner.id)
            .field("name", &self.inner.name)
            .finish()
    }
}

/// One thread inside WAIT: its own condvar, so a wakeup reaches that
/// thread and no other, and the mark a NOTIFY or BROADCAST leaves on it.
struct Waiter {
    cv: Condvar,
    woken: AtomicBool,
}

struct CvInner {
    monitor: MonitorId,
    name: String,
    timeout: Option<Duration>,
    // The threads inside WAIT, oldest first. Only touched with the
    // owning monitor's mutex held (WAIT, NOTIFY and BROADCAST all take
    // the guard); the inner lock is for `Sync` and never contended.
    queue: Mutex<VecDeque<Arc<Waiter>>>,
}

/// A condition variable bound to one monitor, with the Mesa model's
/// per-CV timeout interval. Clones share the queue.
#[derive(Clone)]
pub struct Condition {
    inner: Arc<CvInner>,
}

impl std::fmt::Debug for Condition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Condition")
            .field("name", &self.inner.name)
            .field("monitor", &self.inner.monitor)
            .field("timeout", &self.inner.timeout)
            .finish()
    }
}

/// Locks `cv`'s waiter queue.
fn queue(cv: &Condition) -> MutexGuard<'_, VecDeque<Arc<Waiter>>> {
    let queue = cv.inner.queue.lock();
    queue.unwrap_or_else(PoisonError::into_inner)
}

/// `MonitorGuard::guard` is `None` only while WAIT holds the std guard.
const HELD: &str = "the std guard is out only inside WAIT";

/// Proof of being inside a monitor. Dropping exits (also on unwind, so a
/// panicking thread releases its locks, as Mesa's UNWIND machinery did).
pub struct MonitorGuard<'a, T> {
    // `Some` whenever user code can run: `Condvar::wait` takes the std
    // guard by value, so WAIT moves it out and back.
    guard: Option<MutexGuard<'a, T>>,
    monitor: &'a Monitor<T>,
}

impl<T> MonitorGuard<'_, T> {
    fn check_owner(&self, op: &str, cv: &Condition) {
        assert_eq!(
            cv.inner.monitor, self.monitor.inner.id,
            "{op}: condition '{}' does not belong to monitor '{}'",
            cv.inner.name, self.monitor.inner.name
        );
    }

    /// WAIT bounded by `limit` instead of the CV's own interval.
    ///
    /// NOTIFY and BROADCAST take waiters *off the queue* and mark them, and
    /// only a marked waiter returns `Notified`. So a wakeup goes to a
    /// thread that was waiting when it was issued — a later arrival cannot
    /// take it — and an unmarked wakeup (the OS condvar may wake
    /// spuriously) goes back to sleep.
    fn wait_bounded(&mut self, cv: &Condition, limit: Option<Duration>) -> WaitOutcome {
        self.check_owner("WAIT", cv);
        let end = limit.map(|t| Instant::now() + t);
        let me = Arc::new(Waiter {
            cv: Condvar::new(),
            woken: AtomicBool::new(false),
        });
        queue(cv).push_back(Arc::clone(&me));
        loop {
            let g = self.guard.take().expect(HELD);
            let (g, timed_out) = match end {
                None => (me.cv.wait(g).unwrap_or_else(PoisonError::into_inner), false),
                Some(end) => {
                    let left = end.saturating_duration_since(Instant::now());
                    let (g, r) = me
                        .cv
                        .wait_timeout(g, left)
                        .unwrap_or_else(PoisonError::into_inner);
                    (g, r.timed_out())
                }
            };
            self.guard = Some(g);
            if me.woken.load(Ordering::Relaxed) {
                return WaitOutcome::Notified;
            }
            if timed_out {
                queue(cv).retain(|w| !Arc::ptr_eq(w, &me));
                return WaitOutcome::TimedOut;
            }
        }
    }
}

impl<T> Guard<T> for MonitorGuard<'_, T> {
    type Condition = Condition;

    fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        f(self.guard.as_deref().expect(HELD))
    }

    fn with_mut<R>(&mut self, f: impl FnOnce(&mut T) -> R) -> R {
        f(self.guard.as_deref_mut().expect(HELD))
    }

    fn wait(&mut self, cv: &Condition) -> WaitOutcome {
        self.wait_bounded(cv, cv.inner.timeout)
    }

    /// Unlike the simulator's, each WAIT here is also bounded by what is
    /// left of `deadline`, so a CV without a timeout cannot overstay it.
    fn wait_until_before(
        &mut self,
        cv: &Condition,
        deadline: SimDuration,
        mut pred: impl FnMut(&T) -> bool,
    ) -> bool {
        let end = Instant::now() + to_std(deadline);
        loop {
            if pred(self.guard.as_deref().expect(HELD)) {
                return true;
            }
            let left = end.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            let limit = cv.inner.timeout.map_or(left, |t| t.min(left));
            self.wait_bounded(cv, Some(limit));
        }
    }

    fn notify(&self, cv: &Condition) {
        self.check_owner("NOTIFY", cv);
        if let Some(w) = queue(cv).pop_front() {
            w.woken.store(true, Ordering::Relaxed);
            w.cv.notify_one();
        }
    }

    fn broadcast(&self, cv: &Condition) {
        self.check_owner("BROADCAST", cv);
        for w in queue(cv).drain(..) {
            w.woken.store(true, Ordering::Relaxed);
            w.cv.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RealCtx;
    use pcr::{millis, Runtime};
    use std::sync::atomic::AtomicBool;

    #[test]
    #[should_panic(expected = "does not belong to monitor")]
    fn cross_monitor_wait_rejected() {
        let ctx = RealCtx::root();
        let a = ctx.new_monitor("a", ());
        let b = ctx.new_monitor("b", ());
        let cv = ctx.new_condition(&b, "of-b", None);
        let mut g = ctx.enter(&a);
        let _ = g.wait(&cv);
    }

    #[test]
    fn notify_without_waiters_is_forgotten() {
        // Mesa NOTIFY is not a semaphore V: with nobody waiting it is
        // forgotten, so a later WAIT must run to its timeout.
        let ctx = RealCtx::root();
        let m = ctx.new_monitor("m", ());
        let cv = ctx.new_condition(&m, "cv", Some(millis(5)));
        let mut g = ctx.enter(&m);
        g.notify(&cv);
        g.broadcast(&cv);
        assert_eq!(g.wait(&cv), WaitOutcome::TimedOut);
    }

    #[test]
    fn an_unmarked_os_wakeup_is_not_a_notify() {
        // Poke the OS condvar directly, as a spurious wakeup would: the
        // waiter must stay inside WAIT until a real NOTIFY arrives.
        let ctx = RealCtx::root();
        let m = ctx.new_monitor("m", ());
        let cv = ctx.new_condition(&m, "cv", None);
        let returned = Arc::new(AtomicBool::new(false));
        let (m2, cv2, r2) = (m.clone(), cv.clone(), Arc::clone(&returned));
        let waiter = ctx
            .fork("waiter", move |ctx: &RealCtx| {
                let outcome = ctx.enter(&m2).wait(&cv2);
                r2.store(true, Ordering::SeqCst);
                outcome
            })
            .unwrap();
        while queue(&cv).is_empty() {
            ctx.yield_now();
        }
        for _ in 0..20 {
            queue(&cv)[0].cv.notify_all();
            ctx.sleep(millis(1));
        }
        assert!(!returned.load(Ordering::SeqCst), "spurious wakeup escaped");
        let g = ctx.enter(&m);
        g.notify(&cv);
        drop(g);
        assert_eq!(ctx.join(waiter).unwrap(), WaitOutcome::Notified);
    }

    #[test]
    fn broadcast_wakes_exactly_those_waiting_when_it_was_issued() {
        // The broadcaster turns waiter itself before any of the woken can
        // re-enter, and leaves through its time limit at once. It was not
        // waiting at the BROADCAST, so it must not take one of their
        // wakeups — or one of them would sleep forever on this CV.
        let ctx = RealCtx::root();
        let m = ctx.new_monitor("m", ());
        let cv = ctx.new_condition(&m, "cv", None);
        for _round in 0..50 {
            let waiters: Vec<_> = (0..4)
                .map(|i| {
                    let (m2, cv2) = (m.clone(), cv.clone());
                    ctx.fork(&format!("w{i}"), move |ctx: &RealCtx| {
                        ctx.enter(&m2).wait(&cv2)
                    })
                    .unwrap()
                })
                .collect();
            while queue(&cv).len() < waiters.len() {
                ctx.yield_now();
            }
            let mut g = ctx.enter(&m);
            g.broadcast(&cv);
            let late = g.wait_bounded(&cv, Some(Duration::ZERO));
            drop(g);
            assert_eq!(late, WaitOutcome::TimedOut);
            for w in waiters {
                assert_eq!(ctx.join(w).unwrap(), WaitOutcome::Notified);
            }
        }
    }

    #[test]
    fn wait_until_before_is_bounded_even_without_a_cv_timeout() {
        let ctx = RealCtx::root();
        let m = ctx.new_monitor("m", 0u32);
        let cv = ctx.new_condition(&m, "never", None);
        let mut g = ctx.enter(&m);
        assert!(!g.wait_until_before(&cv, millis(10), |v| *v > 0));
        g.with_mut(|v| *v = 1);
        assert!(g.wait_until_before(&cv, millis(10), |v| *v > 0));
    }
}
