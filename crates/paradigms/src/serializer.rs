//! Serializers (§4.6): a queue plus a thread that processes it.
//!
//! "The queue acts as a point of serialization in the system. The
//! primary example is in the window system where input events can arrive
//! from a number of different sources. They are handled by a single
//! thread in order to preserve their ordering." The paper's encapsulation
//! is `MBQueue` (Menu/Button Queue): mouse clicks and keystrokes enqueue
//! procedures; the serializer thread calls them in the order received.

use pcr::{Priority, Runtime, SimDuration, ThreadCtx, ThreadId};

use crate::pump::BoundedQueue;

/// A queued action: a closure plus the CPU it costs to run.
type Action<C> = (Box<dyn FnOnce(&C) + Send + 'static>, SimDuration);

/// The `MBQueue` serializer: enqueue closures from any thread; a single
/// worker runs them in arrival order.
pub struct MbQueue<C: Runtime = ThreadCtx> {
    queue: BoundedQueue<Action<C>, C>,
    tid: ThreadId,
}

impl<C: Runtime> Clone for MbQueue<C> {
    fn clone(&self) -> Self {
        MbQueue {
            queue: self.queue.clone(),
            tid: self.tid,
        }
    }
}

impl<C: Runtime> MbQueue<C> {
    /// Creates the serialization context and forks its processing thread.
    pub fn new(ctx: &C, name: &str, priority: Priority, capacity: usize) -> Self {
        let queue: BoundedQueue<Action<C>, C> = BoundedQueue::new(ctx, name, capacity, None);
        let q = queue.clone();
        let tid = ctx
            .fork_detached_prio(name, priority, move |ctx| {
                while let Some((action, cost)) = q.take(ctx) {
                    ctx.work(cost);
                    action(ctx);
                }
            })
            .expect("fork MBQueue worker");
        MbQueue { queue, tid }
    }

    /// Enqueues an action costing `cost` of CPU when executed. Blocks if
    /// the queue is full (back-pressure).
    pub fn enqueue<F>(&self, ctx: &C, cost: SimDuration, f: F)
    where
        F: FnOnce(&C) + Send + 'static,
    {
        self.queue.put(ctx, (Box::new(f), cost));
    }

    /// Stops the worker after it drains what is queued.
    pub fn stop(&self, ctx: &C) {
        self.queue.close(ctx);
    }

    /// Pending actions.
    pub fn backlog(&self, ctx: &C) -> usize {
        self.queue.len(ctx)
    }

    /// The worker thread's id.
    pub fn tid(&self) -> ThreadId {
        self.tid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr::{millis, secs, Monitor, RunLimit, Sim, SimConfig};

    #[test]
    fn actions_run_in_arrival_order_across_producers() {
        let mut sim = Sim::new(SimConfig::default());
        let log: Monitor<Vec<(u8, u32)>> = sim.monitor("log", Vec::new());
        let l = log.clone();
        let h = sim.fork_root("window-system", Priority::of(5), move |ctx| {
            let mb = MbQueue::new(ctx, "mbqueue", Priority::of(5), 64);
            // Two event sources (mouse and keyboard) interleave enqueues.
            let mut handles = Vec::new();
            for src in 0..2u8 {
                let mb = mb.clone();
                let l2 = l.clone();
                handles.push(
                    ctx.fork(&format!("source{src}"), move |ctx| {
                        for i in 0..10u32 {
                            ctx.work(pcr::micros(500));
                            let l3 = l2.clone();
                            mb.enqueue(ctx, pcr::micros(100), move |ctx| {
                                let mut g = ctx.enter(&l3);
                                g.with_mut(|v| v.push((src, i)));
                            });
                        }
                    })
                    .unwrap(),
                );
            }
            for h in handles {
                ctx.join(h).unwrap();
            }
            mb.stop(ctx);
            ctx.sleep_precise(millis(100));
            let g = ctx.enter(&l);
            g.with(|v| v.clone())
        });
        let r = sim.run(RunLimit::For(secs(5)));
        assert!(!r.deadlocked());
        let log = h.into_result().unwrap().unwrap();
        assert_eq!(log.len(), 20);
        // Per-source order must be preserved (serialization guarantee).
        for src in 0..2u8 {
            let seq: Vec<u32> = log
                .iter()
                .filter(|(s, _)| *s == src)
                .map(|(_, i)| *i)
                .collect();
            assert_eq!(seq, (0..10).collect::<Vec<_>>(), "source {src} reordered");
        }
    }

    #[test]
    fn single_worker_means_no_interleaving_within_action() {
        // Two enqueued actions increment a counter non-atomically with a
        // work() in the middle; serialization makes this safe without a
        // monitor.
        let mut sim = Sim::new(SimConfig::default());
        let cell: Monitor<u64> = sim.monitor("cell", 0);
        let c = cell.clone();
        let h = sim.fork_root("driver", Priority::of(5), move |ctx| {
            let mb = MbQueue::new(ctx, "mb", Priority::of(4), 16);
            for _ in 0..10 {
                let c2 = c.clone();
                mb.enqueue(ctx, millis(1), move |ctx| {
                    // Read-modify-write across a work() would race if two
                    // workers ran actions concurrently.
                    let before = {
                        let g = ctx.enter(&c2);
                        g.with(|v| *v)
                    };
                    ctx.work(millis(2));
                    let mut g = ctx.enter(&c2);
                    g.with_mut(|v| *v = before + 1);
                });
            }
            mb.stop(ctx);
            ctx.sleep_precise(millis(200));
            let g = ctx.enter(&c);
            g.with(|v| *v)
        });
        sim.run(RunLimit::For(secs(5)));
        assert_eq!(h.into_result().unwrap().unwrap(), 10);
    }

    #[test]
    fn backlog_reports_pending() {
        let mut sim = Sim::new(SimConfig::default());
        let h = sim.fork_root("driver", Priority::of(6), move |ctx| {
            // Worker at lower priority: it cannot run while we hold the CPU.
            let mb = MbQueue::new(ctx, "mb", Priority::of(2), 16);
            for _ in 0..5 {
                mb.enqueue(ctx, millis(1), |_| {});
            }
            let backlog = mb.backlog(ctx);
            mb.stop(ctx);
            backlog
        });
        sim.run(RunLimit::For(secs(2)));
        assert_eq!(h.into_result().unwrap().unwrap(), 5);
    }
}
