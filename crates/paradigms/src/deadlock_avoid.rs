//! Deadlock avoiders (§4.4): FORK to escape lock-order constraints.
//!
//! "After adjusting the boundary between two windows the contents of the
//! windows must be repainted. The boundary-moving thread forks new
//! threads to do the repainting because it already holds some, but not
//! all of the locks needed for the repainting. ... It is far simpler to
//! fork the painting threads, unwind the adjuster completely and let the
//! painters acquire the locks that they need in separate threads."
//!
//! The second shape is forking callbacks from a service to a client, so
//! the service thread can proceed and release locks the client will
//! need — and so the service is insulated from client failures.
//!
//! This module also provides a [`LockOrderRegistry`] that records
//! acquisition orders and detects violations of a global lock order —
//! the "very, very complicated" overall locking schemes the paper
//! alludes to become checkable.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, PoisonError};

use pcr::{ForkError, Guard, MonitorId, Runtime, ThreadCtx, ThreadId};

/// Forks `f` so it can acquire locks in a legal order that the caller —
/// already inside one or more monitors — cannot. Semantically a
/// detached fork; the name records intent at the call site.
pub fn fork_to_avoid_deadlock<C, F>(ctx: &C, name: &str, f: F) -> Result<ThreadId, ForkError>
where
    C: Runtime,
    F: FnOnce(&C) + Send + 'static,
{
    ctx.fork_detached(name, f)
}

/// A violation of the acquired-before order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OrderViolation {
    /// The thread that acquired out of order.
    pub tid: ThreadId,
    /// The monitor it acquired.
    pub acquired: MonitorId,
    /// The held monitor that should have come later.
    pub while_holding: MonitorId,
}

#[derive(Default)]
struct RegistryState {
    /// Edges a -> b meaning "a was acquired before b while a was held".
    edges: HashMap<u32, HashSet<u32>>,
    /// Monitors currently held per thread, in acquisition order.
    held: HashMap<ThreadId, Vec<MonitorId>>,
    violations: Vec<OrderViolation>,
}

/// Records monitor acquisition orders across threads and flags pairs
/// acquired in both orders — the precondition for ABBA deadlock.
///
/// Wrap entries with [`LockOrderRegistry::enter`]; drop the returned
/// guard normally.
#[derive(Clone, Default)]
pub struct LockOrderRegistry {
    state: Arc<Mutex<RegistryState>>,
}

impl LockOrderRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enters `m` through the registry, recording the acquisition edge
    /// and checking it against the observed global order.
    pub fn enter<'a, T: Send + 'static, C: Runtime>(
        &self,
        ctx: &'a C,
        m: &'a C::Monitor<T>,
    ) -> TrackedGuard<'a, T, C> {
        let guard = ctx.enter(m);
        let mid = C::monitor_id(m);
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let held = st.held.entry(ctx.tid()).or_default().clone();
        for &h in &held {
            // h acquired-before m.id while h held: edge h -> m.
            st.edges.entry(h.as_u32()).or_default().insert(mid.as_u32());
            // Violation if the reverse edge already exists.
            if st
                .edges
                .get(&mid.as_u32())
                .is_some_and(|s| s.contains(&h.as_u32()))
            {
                st.violations.push(OrderViolation {
                    tid: ctx.tid(),
                    acquired: mid,
                    while_holding: h,
                });
            }
        }
        st.held.entry(ctx.tid()).or_default().push(mid);
        TrackedGuard {
            guard: Some(guard),
            registry: self.clone(),
            tid: ctx.tid(),
            mid,
        }
    }

    /// Violations observed so far.
    pub fn violations(&self) -> Vec<OrderViolation> {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .violations
            .clone()
    }

    fn note_exit(&self, tid: ThreadId, mid: MonitorId) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(held) = st.held.get_mut(&tid) {
            if let Some(pos) = held.iter().rposition(|&m| m == mid) {
                held.remove(pos);
            }
        }
    }
}

/// A monitor guard that unregisters from the [`LockOrderRegistry`] on
/// drop, wrapping the runtime's own guard.
pub struct TrackedGuard<'a, T: Send + 'static, C: Runtime = ThreadCtx> {
    guard: Option<C::Guard<'a, T>>,
    registry: LockOrderRegistry,
    tid: ThreadId,
    mid: MonitorId,
}

impl<'a, T: Send + 'static, C: Runtime> TrackedGuard<'a, T, C> {
    /// Access the underlying guard.
    pub fn guard(&mut self) -> &mut C::Guard<'a, T> {
        self.guard.as_mut().expect("guard present until drop")
    }

    /// Reads the protected data.
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        self.guard.as_ref().expect("guard present").with(f)
    }

    /// Mutates the protected data.
    pub fn with_mut<R>(&mut self, f: impl FnOnce(&mut T) -> R) -> R {
        self.guard.as_mut().expect("guard present").with_mut(f)
    }
}

impl<'a, T: Send + 'static, C: Runtime> Drop for TrackedGuard<'a, T, C> {
    fn drop(&mut self) {
        drop(self.guard.take());
        self.registry.note_exit(self.tid, self.mid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr::{millis, secs, Priority, RunLimit, Sim, SimConfig, StopReason};

    #[test]
    fn fork_escapes_a_real_deadlock() {
        // The window-adjuster shape. Thread A holds `layout` and needs
        // `content`; a painter holds `content` and needs `layout`.
        // Without forking this ABBA-deadlocks (checked in the companion
        // test below); with fork-to-avoid, A forks the repaint instead of
        // taking `content` itself.
        let mut sim = Sim::new(SimConfig::default());
        let layout = sim.monitor("layout", 0u32);
        let content = sim.monitor("content", 0u32);
        let (l1, c1) = (layout.clone(), content.clone());
        let _ = sim.fork_root("adjuster", Priority::DEFAULT, move |ctx| {
            let mut g = ctx.enter(&l1);
            g.with_mut(|v| *v += 1);
            ctx.sleep_precise(millis(5)); // threadlint: allow(blocking-call-in-monitor) -- the painter interleaves here.
                                          // Needs the content lock for repainting, but takes it in a
                                          // forked thread after unwinding instead.
            let c2 = c1.clone();
            fork_to_avoid_deadlock(ctx, "repaint", move |ctx| {
                let mut g = ctx.enter(&c2);
                g.with_mut(|v| *v += 1);
            })
            .unwrap();
            drop(g); // Unwind the adjuster completely.
        });
        let (l2, c3) = (layout, content);
        let _ = sim.fork_root("painter", Priority::DEFAULT, move |ctx| {
            let mut g = ctx.enter(&c3);
            g.with_mut(|v| *v += 1);
            ctx.sleep_precise(millis(5)); // threadlint: allow(blocking-call-in-monitor)
            let mut g2 = ctx.enter(&l2);
            g2.with_mut(|v| *v += 1);
        });
        let r = sim.run(RunLimit::For(secs(5)));
        assert_eq!(r.reason, StopReason::AllExited);
    }

    #[test]
    fn without_fork_the_same_shape_deadlocks() {
        let mut sim = Sim::new(SimConfig::default());
        let layout = sim.monitor("layout", 0u32);
        let content = sim.monitor("content", 0u32);
        let (l1, c1) = (layout.clone(), content.clone());
        let _ = sim.fork_root("adjuster", Priority::DEFAULT, move |ctx| {
            let _g = ctx.enter(&l1);
            ctx.sleep_precise(millis(5)); // threadlint: allow(blocking-call-in-monitor) -- both threads hold their first
            let _g2 = ctx.enter(&c1); // threadlint: allow(lock-order-cycle) -- lock before either takes its second.
        });
        let _ = sim.fork_root("painter", Priority::DEFAULT, move |ctx| {
            let _g = ctx.enter(&content);
            ctx.sleep_precise(millis(5)); // threadlint: allow(blocking-call-in-monitor)
            let _g2 = ctx.enter(&layout); // threadlint: allow(lock-order-cycle)
        });
        let r = sim.run(RunLimit::For(secs(5)));
        match r.reason {
            StopReason::Deadlock(report) => {
                assert_eq!(report.blocked.len(), 2);
                let text = report.to_string();
                assert!(text.contains("monitor"), "report: {text}");
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn registry_flags_abba_order() {
        let mut sim = Sim::new(SimConfig::default());
        let a = sim.monitor("a", ());
        let b = sim.monitor("b", ());
        let reg = LockOrderRegistry::new();
        let (a1, b1, r1) = (a.clone(), b.clone(), reg.clone());
        let _ = sim.fork_root("t1", Priority::DEFAULT, move |ctx| {
            let _ga = r1.enter(ctx, &a1);
            let _gb = r1.enter(ctx, &b1);
        });
        let r2 = reg.clone();
        let _ = sim.fork_root("t2", Priority::DEFAULT, move |ctx| {
            ctx.sleep_precise(millis(10)); // After t1 released everything.
            let _gb = r2.enter(ctx, &b);
            let _ga = r2.enter(ctx, &a); // threadlint: allow(lock-order-cycle)
        });
        let r = sim.run(RunLimit::For(secs(2)));
        assert_eq!(r.reason, StopReason::AllExited);
        let v = reg.violations();
        assert_eq!(v.len(), 1, "violations: {v:?}");
    }

    #[test]
    fn registry_accepts_consistent_order() {
        let mut sim = Sim::new(SimConfig::default());
        let a = sim.monitor("a", ());
        let b = sim.monitor("b", ());
        let reg = LockOrderRegistry::new();
        for i in 0..3 {
            let (a1, b1, r1) = (a.clone(), b.clone(), reg.clone());
            let _ = sim.fork_root(&format!("t{i}"), Priority::DEFAULT, move |ctx| {
                let mut g = r1.enter(ctx, &a1);
                g.with_mut(|_| {});
                let _gb = r1.enter(ctx, &b1); // threadlint: allow(lock-order-cycle)
            });
        }
        sim.run(RunLimit::ToCompletion);
        assert!(reg.violations().is_empty());
    }
}
