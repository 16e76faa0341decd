//! Sleepers (§4.3): threads that repeatedly wait for a trigger, run
//! briefly, and wait again.
//!
//! Examples from the paper: "call this procedure in K seconds; blink the
//! cursor in M milliseconds; check for network connection timeout every
//! T seconds", cache managers that throw away aged values, and service
//! callbacks (garbage-collector finalization, filesystem change
//! notification) moved off time-critical paths onto a work queue
//! serviced by a sleeper.
//!
//! Using FORK per sleeper "has fallen into disfavor ... 100 kilobytes
//! for each of hundreds of sleepers' stacks is just too expensive"; the
//! `PeriodicalProcess` encapsulation keeps the little bit of state in a
//! closure instead. [`Periodical`] is that encapsulation; it is counted
//! under *encapsulated forks* in Table 4 while its dynamic behaviour is a
//! sleeper.

use pcr::{Guard, Priority, Runtime, SimDuration, ThreadCtx, ThreadId};

use crate::pump::BoundedQueue;

/// Cancellation handle for a sleeper: the cancel flag in a monitor, and
/// the CV the sleeper naps on. The CV's timeout is the sleeper's period,
/// and [`SleeperHandle::cancel`] NOTIFYs it, so a cancelled sleeper does
/// not sleep its period out first.
pub struct SleeperHandle<C: Runtime = ThreadCtx> {
    cancelled: C::Monitor<bool>,
    wake: C::Condition,
    tid: ThreadId,
}

impl<C: Runtime> SleeperHandle<C> {
    /// Forks `body` as the sleeper `name`, handing it the flag's monitor
    /// and the CV to nap on, whose timeout is `period`.
    fn fork<F>(
        ctx: &C,
        name: &str,
        priority: Priority,
        period: Option<SimDuration>,
        body: F,
    ) -> Self
    where
        F: FnOnce(&C, &C::Monitor<bool>, &C::Condition) + Send + 'static,
    {
        let cancelled = ctx.new_monitor(&format!("{name}.cancelled"), false);
        let wake = ctx.new_condition(&cancelled, &format!("{name}.wake"), period);
        let (c, w) = (cancelled.clone(), wake.clone());
        let tid = ctx
            .fork_detached_prio(name, priority, move |ctx| body(ctx, &c, &w))
            .expect("fork sleeper");
        SleeperHandle {
            cancelled,
            wake,
            tid,
        }
    }

    /// Asks the sleeper to exit, waking it if it is napping.
    pub fn cancel(&self, ctx: &C) {
        let mut g = ctx.enter(&self.cancelled);
        g.with_mut(|c| *c = true);
        g.notify(&self.wake);
    }

    /// True once cancelled.
    pub fn is_cancelled(&self, ctx: &C) -> bool {
        ctx.enter(&self.cancelled).with(|c| *c)
    }

    /// The sleeper thread's id.
    pub fn tid(&self) -> ThreadId {
        self.tid
    }
}

/// The `PeriodicalFork`/`PeriodicalProcess` encapsulation: runs `tick`
/// every `period` until cancelled. State lives in the closure.
///
/// The period is subject to the runtime's timer granularity, exactly as
/// PCR timeouts were.
pub struct Periodical;

impl Periodical {
    /// Spawns the periodic sleeper.
    pub fn spawn<C, F>(
        ctx: &C,
        name: &str,
        priority: Priority,
        period: SimDuration,
        mut tick: F,
    ) -> SleeperHandle<C>
    where
        C: Runtime,
        F: FnMut(&C) + Send + 'static,
    {
        SleeperHandle::fork(ctx, name, priority, Some(period), move |ctx, flag, wake| {
            // A nap is one period on `wake`, cut short by cancel().
            while !ctx.enter(flag).wait_until_before(wake, period, |c| *c) {
                tick(ctx);
            }
        })
    }
}

/// A queue-serviced sleeper (§4.3's callback pattern): client code
/// enqueues work items; the sleeper thread services them, keeping the
/// producers (garbage collector, filesystem) off the critical path.
///
/// Returns the handle and the work queue to enqueue into. A cancelled
/// service sleeper exits when it next takes an item.
pub fn spawn_service_sleeper<C, T, F>(
    ctx: &C,
    name: &str,
    priority: Priority,
    queue_capacity: usize,
    cost_per_item: SimDuration,
    mut service: F,
) -> (SleeperHandle<C>, BoundedQueue<T, C>)
where
    C: Runtime,
    T: Send + 'static,
    F: FnMut(&C, T) + Send + 'static,
{
    let queue = BoundedQueue::new(ctx, &format!("{name}.work"), queue_capacity, None);
    let q = queue.clone();
    let handle = SleeperHandle::fork(ctx, name, priority, None, move |ctx, flag, _wake| {
        while let Some(item) = q.take(ctx) {
            if ctx.enter(flag).with(|c| *c) {
                break;
            }
            ctx.work(cost_per_item);
            service(ctx, item);
        }
    });
    (handle, queue)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr::{millis, secs, Monitor, RunLimit, Sim, SimConfig};

    #[test]
    fn periodical_ticks_at_period() {
        let mut sim = Sim::new(SimConfig::default());
        let count: Monitor<u32> = sim.monitor("count", 0);
        let c = count.clone();
        let h = sim.fork_root("driver", Priority::DEFAULT, move |ctx| {
            let c2 = c.clone();
            let handle =
                Periodical::spawn(ctx, "blinker", Priority::of(5), millis(100), move |ctx| {
                    let mut g = ctx.enter(&c2);
                    g.with_mut(|n| *n += 1);
                });
            ctx.sleep_precise(secs(1));
            handle.cancel(ctx);
            let g = ctx.enter(&c);
            g.with(|n| *n)
        });
        sim.run(RunLimit::For(secs(3)));
        let ticks = h.into_result().unwrap().unwrap();
        // A 100ms+epsilon sleep quantizes up to the next 50ms tick, so the
        // effective period is 150ms: ~6 ticks over the first second.
        assert!((5..=7).contains(&ticks), "ticks = {ticks}");
    }

    #[test]
    fn periodical_respects_timer_granularity() {
        // A 10ms period under the default 50ms granularity ticks at 50ms.
        let mut sim = Sim::new(SimConfig::default());
        let count: Monitor<u32> = sim.monitor("count", 0);
        let c = count.clone();
        let h = sim.fork_root("driver", Priority::DEFAULT, move |ctx| {
            let c2 = c.clone();
            let _h = Periodical::spawn(ctx, "fast?", Priority::of(5), millis(10), move |ctx| {
                let mut g = ctx.enter(&c2);
                g.with_mut(|n| *n += 1);
            });
            ctx.sleep_precise(secs(1));
            let g = ctx.enter(&c);
            g.with(|n| *n)
        });
        sim.run(RunLimit::For(secs(2)));
        let ticks = h.into_result().unwrap().unwrap();
        assert!(
            (18..=21).contains(&ticks),
            "expected ~20 ticks at 50ms granularity, got {ticks}"
        );
    }

    #[test]
    fn cancel_stops_future_ticks() {
        let mut sim = Sim::new(SimConfig::default());
        let count: Monitor<u32> = sim.monitor("count", 0);
        let c = count.clone();
        let h = sim.fork_root("driver", Priority::DEFAULT, move |ctx| {
            let c2 = c.clone();
            let handle = Periodical::spawn(ctx, "p", Priority::of(5), millis(50), move |ctx| {
                let mut g = ctx.enter(&c2);
                g.with_mut(|n| *n += 1);
            });
            ctx.sleep_precise(millis(220));
            handle.cancel(ctx);
            assert!(handle.is_cancelled(ctx));
            let at_cancel = {
                let g = ctx.enter(&c);
                g.with(|n| *n)
            };
            ctx.sleep_precise(millis(500));
            let after = {
                let g = ctx.enter(&c);
                g.with(|n| *n)
            };
            (at_cancel, after)
        });
        sim.run(RunLimit::For(secs(2)));
        let (at_cancel, after) = h.into_result().unwrap().unwrap();
        // 50ms+epsilon quantizes to 100ms ticks: 2 ticks by t=220ms.
        assert!(at_cancel >= 2, "at_cancel = {at_cancel}");
        // At most one more tick could have been in flight at cancel time.
        assert!(after <= at_cancel + 1, "{after} > {at_cancel}+1");
    }

    #[test]
    fn service_sleeper_processes_queue() {
        let mut sim = Sim::new(SimConfig::default());
        let seen: Monitor<Vec<u32>> = sim.monitor("seen", Vec::new());
        let s = seen.clone();
        let h = sim.fork_root("gc", Priority::of(6), move |ctx| {
            let s2 = s.clone();
            let (_handle, queue) = spawn_service_sleeper(
                ctx,
                "finalizer",
                Priority::of(3),
                16,
                millis(1),
                move |ctx, item: u32| {
                    let mut g = ctx.enter(&s2);
                    g.with_mut(|v| v.push(item));
                },
            );
            for i in 0..5 {
                queue.put(ctx, i); // Cheap enqueue on the critical path.
            }
            ctx.sleep_precise(millis(100));
            let g = ctx.enter(&s);
            g.with(|v| v.clone())
        });
        sim.run(RunLimit::For(secs(2)));
        assert_eq!(h.into_result().unwrap().unwrap(), vec![0, 1, 2, 3, 4]);
    }
}
