//! `DeferredValue` — defer work whose *result* is wanted later (§4.1).
//!
//! Most Cedar work deferrers were fire-and-forget, but some deferred
//! work whose value the caller eventually needs (the FORK/JOIN shape).
//! `DeferredValue` packages that: the fork happens now, the caller keeps
//! a handle, and the first demand for the value blocks (on a monitor
//! condition, not JOIN, so the handle is cloneable and the value can be
//! read by several threads).

use pcr::{ForkError, Guard, Priority, Runtime, ThreadCtx};

/// State of a deferred computation.
enum Slot<T> {
    Pending,
    Ready(T),
    Failed(String),
}

/// A cloneable handle to a value being computed by a deferred thread.
pub struct DeferredValue<T: Clone + Send + 'static, C: Runtime = ThreadCtx> {
    slot: C::Monitor<Slot<T>>,
    ready: C::Condition,
}

impl<T: Clone + Send + 'static, C: Runtime> Clone for DeferredValue<T, C> {
    fn clone(&self) -> Self {
        DeferredValue {
            slot: self.slot.clone(),
            ready: self.ready.clone(),
        }
    }
}

impl<T: Clone + Send + 'static, C: Runtime> DeferredValue<T, C> {
    /// Forks `f` as deferred work; the returned handle yields its value.
    pub fn spawn<F>(ctx: &C, name: &str, priority: Priority, f: F) -> Result<Self, ForkError>
    where
        F: FnOnce(&C) -> T + Send + 'static,
    {
        let slot = ctx.new_monitor(&format!("{name}.slot"), Slot::Pending);
        let ready = ctx.new_condition(&slot, &format!("{name}.ready"), Some(pcr::millis(50)));
        let (s2, r2) = (slot.clone(), ready.clone());
        // The worker is forked (not joined): failures are captured into
        // the slot by a supervising wrapper thread.
        let name2 = name.to_string();
        ctx.fork_detached_prio(&format!("{name}.supervisor"), priority, move |ctx| {
            let h = ctx.fork(&name2, f).expect("fork deferred worker");
            let result = ctx.join(h);
            let mut g = ctx.enter(&s2);
            g.with_mut(|s| {
                *s = match result {
                    Ok(v) => Slot::Ready(v),
                    Err(e) => Slot::Failed(e.to_string()),
                }
            });
            g.broadcast(&r2);
        })?;
        Ok(DeferredValue { slot, ready })
    }

    /// True once the value (or failure) is available.
    pub fn is_ready(&self, ctx: &C) -> bool {
        let g = ctx.enter(&self.slot);
        g.with(|s| !matches!(s, Slot::Pending))
    }

    /// Blocks until the deferred work finishes; returns its value, or
    /// the panic message if it panicked.
    pub fn get(&self, ctx: &C) -> Result<T, String> {
        let mut g = ctx.enter(&self.slot);
        g.wait_until(&self.ready, |s| !matches!(s, Slot::Pending));
        g.with(|s| match s {
            Slot::Ready(v) => Ok(v.clone()),
            Slot::Failed(e) => Err(e.clone()),
            Slot::Pending => unreachable!("wait_until guaranteed progress"),
        })
    }

    /// Non-blocking read.
    pub fn try_get(&self, ctx: &C) -> Option<Result<T, String>> {
        let g = ctx.enter(&self.slot);
        g.with(|s| match s {
            Slot::Pending => None,
            Slot::Ready(v) => Some(Ok(v.clone())),
            Slot::Failed(e) => Some(Err(e.clone())),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr::{millis, secs, RunLimit, Sim, SimConfig};

    #[test]
    fn get_blocks_until_ready() {
        let mut sim = Sim::new(SimConfig::default());
        let h = sim.fork_root("caller", Priority::of(5), move |ctx| {
            let d = DeferredValue::spawn(ctx, "render", Priority::of(3), |ctx| {
                ctx.work(millis(30));
                42u32
            })
            .unwrap();
            assert!(!d.is_ready(ctx));
            let t0 = ctx.now();
            let v = d.get(ctx).unwrap();
            (v, ctx.now().since(t0))
        });
        sim.run(RunLimit::For(secs(5)));
        let (v, waited) = h.into_result().unwrap().unwrap();
        assert_eq!(v, 42);
        assert!(waited >= millis(30), "waited {waited}");
    }

    #[test]
    fn several_readers_share_one_computation() {
        let mut sim = Sim::new(SimConfig::default());
        let h = sim.fork_root("caller", Priority::of(5), move |ctx| {
            let d = DeferredValue::spawn(ctx, "shared", Priority::of(3), |ctx| {
                ctx.work(millis(10));
                7u32
            })
            .unwrap();
            let readers: Vec<_> = (0..3)
                .map(|i| {
                    let d = d.clone();
                    ctx.fork(&format!("r{i}"), move |ctx| d.get(ctx).unwrap())
                        .unwrap()
                })
                .collect();
            readers
                .into_iter()
                .map(|r| ctx.join(r).unwrap())
                .sum::<u32>()
        });
        sim.run(RunLimit::For(secs(5)));
        assert_eq!(h.into_result().unwrap().unwrap(), 21);
    }

    #[test]
    fn failure_is_reported_not_propagated() {
        let mut sim = Sim::new(SimConfig::default());
        let h = sim.fork_root("caller", Priority::of(5), move |ctx| {
            let d: DeferredValue<u32> =
                DeferredValue::spawn(ctx, "doomed", Priority::of(3), |_ctx| {
                    panic!("render failed")
                })
                .unwrap();
            d.get(ctx)
        });
        sim.run(RunLimit::For(secs(5)));
        let err = h.into_result().unwrap().unwrap().unwrap_err();
        assert!(err.contains("render failed"), "{err}");
    }

    #[test]
    fn try_get_is_nonblocking() {
        let mut sim = Sim::new(SimConfig::default());
        let h = sim.fork_root("caller", Priority::of(5), move |ctx| {
            let d = DeferredValue::spawn(ctx, "slow", Priority::of(3), |ctx| {
                ctx.work(millis(50));
                1u32
            })
            .unwrap();
            let early = d.try_get(ctx);
            ctx.sleep_precise(millis(100));
            let late = d.try_get(ctx);
            (early.is_none(), late == Some(Ok(1)))
        });
        sim.run(RunLimit::For(secs(5)));
        let (early_none, late_ready) = h.into_result().unwrap().unwrap();
        assert!(early_none);
        assert!(late_ready);
    }
}
