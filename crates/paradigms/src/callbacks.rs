//! Fork-boolean callbacks (§4.8, Miscellaneous).
//!
//! "Many modules that do callbacks offer a fork boolean parameter in
//! their interface ... The default is almost always TRUE, meaning the
//! callback will be forked. Unforked callbacks are usually intended for
//! experts, because they make future execution of the calling thread
//! within the module dependent on successful completion of the client
//! callback."

use std::sync::{Arc, Mutex, PoisonError};

use pcr::{Priority, Runtime, SimDuration, ThreadCtx};

/// How a registered callback is invoked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallbackMode {
    /// Invoke in a freshly forked thread (the safe default).
    Forked,
    /// Invoke inline in the service thread — fast, but the service is
    /// exposed to the client's failures and lock usage.
    Unforked,
}

type Callback<E, C> = Arc<dyn Fn(&C, &E) + Send + Sync + 'static>;

struct Registered<E, C> {
    callback: Callback<E, C>,
    mode: CallbackMode,
    cost: SimDuration,
}

/// A registry of client callbacks with per-registration fork control.
pub struct CallbackRegistry<E: Clone + Send + Sync + 'static, C: Runtime = ThreadCtx> {
    entries: Arc<Mutex<Vec<Registered<E, C>>>>,
    fork_priority: Priority,
}

impl<E: Clone + Send + Sync + 'static, C: Runtime> Clone for CallbackRegistry<E, C> {
    fn clone(&self) -> Self {
        CallbackRegistry {
            entries: Arc::clone(&self.entries),
            fork_priority: self.fork_priority,
        }
    }
}

impl<E: Clone + Send + Sync + 'static, C: Runtime> CallbackRegistry<E, C> {
    /// Creates a registry; forked callbacks run at `fork_priority`.
    pub fn new(fork_priority: Priority) -> Self {
        CallbackRegistry {
            entries: Arc::new(Mutex::new(Vec::new())),
            fork_priority,
        }
    }

    /// Registers a callback with the default mode (forked — §4.8: "the
    /// default is almost always TRUE").
    pub fn register<F>(&self, cost: SimDuration, f: F)
    where
        F: Fn(&C, &E) + Send + Sync + 'static,
    {
        self.register_with(CallbackMode::Forked, cost, f);
    }

    /// Registers a callback with an explicit mode.
    pub fn register_with<F>(&self, mode: CallbackMode, cost: SimDuration, f: F)
    where
        F: Fn(&C, &E) + Send + Sync + 'static,
    {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Registered {
                callback: Arc::new(f),
                mode,
                cost,
            });
    }

    /// Number of registered callbacks.
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True if no callbacks are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Delivers `event` to every callback. Forked callbacks cost the
    /// service only the fork; unforked ones charge their full cost (and
    /// their panics!) to the calling thread.
    pub fn invoke(&self, ctx: &C, event: E) {
        let snapshot: Vec<(Callback<E, C>, CallbackMode, SimDuration)> = self
            .entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|r| (Arc::clone(&r.callback), r.mode, r.cost))
            .collect();
        for (i, (cb, mode, cost)) in snapshot.into_iter().enumerate() {
            match mode {
                CallbackMode::Forked => {
                    let ev = event.clone();
                    let _ = ctx.fork_detached_prio(
                        &format!("callback-{i}"),
                        self.fork_priority,
                        move |ctx| {
                            ctx.work(cost);
                            cb(ctx, &ev);
                        },
                    );
                }
                CallbackMode::Unforked => {
                    ctx.work(cost);
                    cb(ctx, &event);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr::{millis, secs, Monitor, RunLimit, Sim, SimConfig};

    #[test]
    fn forked_callbacks_do_not_delay_the_service() {
        let mut sim = Sim::new(SimConfig::default());
        let h = sim.fork_root("service", Priority::of(5), move |ctx| {
            let reg: CallbackRegistry<u32> = CallbackRegistry::new(Priority::of(3));
            for _ in 0..4 {
                reg.register(millis(50), |_ctx, _ev| {});
            }
            let start = ctx.now();
            reg.invoke(ctx, 1);
            ctx.now().since(start)
        });
        sim.run(RunLimit::For(secs(2)));
        let service_time = h.into_result().unwrap().unwrap();
        // 4 × 50ms of client work charged elsewhere; service pays ~4 forks.
        assert!(service_time < millis(5), "service took {service_time}");
    }

    #[test]
    fn unforked_callbacks_charge_the_service() {
        let mut sim = Sim::new(SimConfig::default());
        let h = sim.fork_root("service", Priority::of(5), move |ctx| {
            let reg: CallbackRegistry<u32> = CallbackRegistry::new(Priority::of(3));
            reg.register_with(CallbackMode::Unforked, millis(50), |_ctx, _ev| {});
            let start = ctx.now();
            reg.invoke(ctx, 1);
            ctx.now().since(start)
        });
        sim.run(RunLimit::For(secs(2)));
        let service_time = h.into_result().unwrap().unwrap();
        assert!(service_time >= millis(50));
    }

    #[test]
    fn forked_callback_panic_spares_the_service() {
        let mut sim = Sim::new(SimConfig::default());
        let delivered: Monitor<u32> = sim.monitor("delivered", 0);
        let d = delivered.clone();
        let h = sim.fork_root("service", Priority::of(5), move |ctx| {
            let reg: CallbackRegistry<u32> = CallbackRegistry::new(Priority::of(3));
            reg.register(millis(1), |_ctx, _ev| panic!("bad client"));
            let d2 = d.clone();
            reg.register(millis(1), move |ctx, _ev| {
                let mut g = ctx.enter(&d2);
                g.with_mut(|n| *n += 1);
            });
            reg.invoke(ctx, 7);
            ctx.sleep_precise(millis(100));
            let g = ctx.enter(&d);
            g.with(|n| *n)
        });
        sim.run(RunLimit::For(secs(2)));
        assert_eq!(h.into_result().unwrap().unwrap(), 1);
        assert_eq!(sim.stats().panics, 1); // The client thread, not ours.
        let service = sim.threads_iter().find(|t| t.name == "service").unwrap();
        assert!(!service.panicked);
    }

    #[test]
    fn unforked_callback_panic_kills_the_service() {
        let mut sim = Sim::new(SimConfig::default());
        let _ = sim.fork_root("service", Priority::of(5), move |ctx| {
            let reg: CallbackRegistry<u32> = CallbackRegistry::new(Priority::of(3));
            reg.register_with(CallbackMode::Unforked, millis(1), |_ctx, _ev| {
                panic!("bad client")
            });
            reg.invoke(ctx, 7);
        });
        sim.run(RunLimit::For(secs(2)));
        let service = sim.threads_iter().find(|t| t.name == "service").unwrap();
        assert!(service.panicked, "unforked callbacks expose the service");
    }

    #[test]
    fn registry_len() {
        let reg: CallbackRegistry<()> = CallbackRegistry::new(Priority::DEFAULT);
        assert!(reg.is_empty());
        reg.register(SimDuration::ZERO, |_, _| {});
        assert_eq!(reg.len(), 1);
    }
}
