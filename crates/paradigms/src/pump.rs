//! General pumps (§4.2): bounded buffers and pipeline stages.
//!
//! A *pump* picks up input from one place, possibly transforms it, and
//! produces it as output someplace else. Bounded buffers connect pumps
//! into pipelines. The paper finds pipelines used "mostly ... as a
//! programming convenience" — tokens just appear in a queue; the
//! programmer needs to understand less about the pieces being connected.

use std::collections::VecDeque;

use pcr::{Guard, Priority, Runtime, SimDuration, ThreadCtx, ThreadId};

struct QueueState<T> {
    items: VecDeque<T>,
    capacity: usize,
    closed: bool,
}

impl<T> QueueState<T> {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        QueueState {
            items: VecDeque::new(),
            capacity,
            closed: false,
        }
    }
}

/// A monitor-protected bounded buffer in the classic producer–consumer
/// style, with `nonempty`/`nonfull` condition variables.
///
/// Cloning the handle shares the queue.
pub struct BoundedQueue<T: Send + 'static, C: Runtime = ThreadCtx> {
    monitor: C::Monitor<QueueState<T>>,
    nonempty: C::Condition,
    nonfull: C::Condition,
}

impl<T: Send + 'static, C: Runtime> Clone for BoundedQueue<T, C> {
    fn clone(&self) -> Self {
        BoundedQueue {
            monitor: self.monitor.clone(),
            nonempty: self.nonempty.clone(),
            nonfull: self.nonfull.clone(),
        }
    }
}

impl<T: Send + 'static> BoundedQueue<T> {
    /// Creates a queue before the simulator's run starts.
    ///
    /// `cv_timeout` is the timeout interval for both CVs (Mesa CVs carry
    /// their timeout; `None` waits forever).
    pub fn new_in_sim(
        sim: &mut pcr::Sim,
        name: &str,
        capacity: usize,
        cv_timeout: Option<SimDuration>,
    ) -> Self {
        let monitor = sim.monitor(name, QueueState::new(capacity));
        let nonempty = sim.condition(&monitor, &format!("{name}.nonempty"), cv_timeout);
        let nonfull = sim.condition(&monitor, &format!("{name}.nonfull"), cv_timeout);
        BoundedQueue {
            monitor,
            nonempty,
            nonfull,
        }
    }
}

impl<T: Send + 'static, C: Runtime> BoundedQueue<T, C> {
    /// Creates a queue from inside a running thread.
    pub fn new(ctx: &C, name: &str, capacity: usize, cv_timeout: Option<SimDuration>) -> Self {
        let monitor = ctx.new_monitor(name, QueueState::new(capacity));
        let nonempty = ctx.new_condition(&monitor, &format!("{name}.nonempty"), cv_timeout);
        let nonfull = ctx.new_condition(&monitor, &format!("{name}.nonfull"), cv_timeout);
        BoundedQueue {
            monitor,
            nonempty,
            nonfull,
        }
    }

    /// Inserts `item`, blocking while the queue is full. Returns `false`
    /// (dropping the item) if the queue is closed.
    pub fn put(&self, ctx: &C, item: T) -> bool {
        let mut g = ctx.enter(&self.monitor);
        g.wait_until(&self.nonfull, |q| q.closed || q.items.len() < q.capacity);
        if g.with(|q| q.closed) {
            return false;
        }
        g.with_mut(|q| q.items.push_back(item));
        g.notify(&self.nonempty);
        true
    }

    /// Inserts without blocking; returns the item back if full or closed.
    pub fn try_put(&self, ctx: &C, item: T) -> Result<(), T> {
        let mut g = ctx.enter(&self.monitor);
        let rejected = g.with_mut(|q| {
            if q.closed || q.items.len() >= q.capacity {
                Some(item)
            } else {
                q.items.push_back(item);
                None
            }
        });
        match rejected {
            None => {
                g.notify(&self.nonempty);
                Ok(())
            }
            Some(item) => Err(item),
        }
    }

    /// Inserts as many of `items` as fit without blocking, in order,
    /// under one monitor entry. Returns the rejected tail (everything
    /// if the queue is closed). Wakes every consumer when more than one
    /// item lands, so batch producers don't strand parallel consumers.
    pub fn try_put_all(&self, ctx: &C, items: Vec<T>) -> Vec<T> {
        if items.is_empty() {
            return items;
        }
        let mut g = ctx.enter(&self.monitor);
        let (accepted, rejected) = g.with_mut(|q| {
            if q.closed {
                return (0, items);
            }
            let room = q.capacity.saturating_sub(q.items.len());
            let mut it = items.into_iter();
            let mut accepted = 0;
            for item in it.by_ref().take(room) {
                q.items.push_back(item);
                accepted += 1;
            }
            (accepted, it.collect())
        });
        match accepted {
            0 => {}
            1 => g.notify(&self.nonempty),
            _ => g.broadcast(&self.nonempty),
        }
        rejected
    }

    /// Removes up to `max` items, blocking while the queue is empty.
    /// Returns an empty vector once the queue is closed and drained —
    /// one monitor entry per batch instead of one per item.
    pub fn take_up_to(&self, ctx: &C, max: usize) -> Vec<T> {
        let mut g = ctx.enter(&self.monitor);
        g.wait_until(&self.nonempty, |q| q.closed || !q.items.is_empty());
        let items = g.with_mut(|q| {
            let n = q.items.len().min(max);
            q.items.drain(..n).collect::<Vec<_>>()
        });
        match items.len() {
            0 => {}
            1 => g.notify(&self.nonfull),
            _ => g.broadcast(&self.nonfull),
        }
        items
    }

    /// Removes the next item, blocking while the queue is empty. Returns
    /// `None` once the queue is closed and drained.
    pub fn take(&self, ctx: &C) -> Option<T> {
        let mut g = ctx.enter(&self.monitor);
        g.wait_until(&self.nonempty, |q| q.closed || !q.items.is_empty());
        let item = g.with_mut(|q| q.items.pop_front());
        if item.is_some() {
            g.notify(&self.nonfull);
        }
        item
    }

    /// Removes the next item without blocking.
    pub fn try_take(&self, ctx: &C) -> Option<T> {
        let mut g = ctx.enter(&self.monitor);
        let item = g.with_mut(|q| q.items.pop_front());
        if item.is_some() {
            g.notify(&self.nonfull);
        }
        item
    }

    /// Drains everything currently queued without blocking.
    pub fn drain(&self, ctx: &C) -> Vec<T> {
        let mut g = ctx.enter(&self.monitor);
        let items = g.with_mut(|q| q.items.drain(..).collect::<Vec<_>>());
        if !items.is_empty() {
            g.broadcast(&self.nonfull);
        }
        items
    }

    /// Current length.
    pub fn len(&self, ctx: &C) -> usize {
        let g = ctx.enter(&self.monitor);
        g.with(|q| q.items.len())
    }

    /// True if currently empty.
    pub fn is_empty(&self, ctx: &C) -> bool {
        self.len(ctx) == 0
    }

    /// Closes the queue: puts are rejected, takes drain then return
    /// `None`, and all waiters wake.
    pub fn close(&self, ctx: &C) {
        let mut g = ctx.enter(&self.monitor);
        g.with_mut(|q| q.closed = true);
        g.broadcast(&self.nonempty);
        g.broadcast(&self.nonfull);
    }

    /// True once [`BoundedQueue::close`] has been called.
    pub fn is_closed(&self, ctx: &C) -> bool {
        let g = ctx.enter(&self.monitor);
        g.with(|q| q.closed)
    }
}

/// Spawns a pump thread: `take` from `input`, transform, `put` to
/// `output`, charging `cost_per_item` of CPU per item. Exits when the
/// input closes and drains (closing its output behind it).
///
/// Returns the pump thread's id.
pub fn spawn_pump<C, T, U, F>(
    ctx: &C,
    name: &str,
    priority: Priority,
    input: BoundedQueue<T, C>,
    output: BoundedQueue<U, C>,
    cost_per_item: SimDuration,
    mut transform: F,
) -> ThreadId
where
    C: Runtime,
    T: Send + 'static,
    U: Send + 'static,
    F: FnMut(T) -> Option<U> + Send + 'static,
{
    ctx.fork_detached_prio(name, priority, move |ctx| {
        while let Some(item) = input.take(ctx) {
            ctx.work(cost_per_item);
            if let Some(out) = transform(item) {
                output.put(ctx, out);
            }
        }
        output.close(ctx);
    })
    .expect("fork pump")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr::{millis, secs, RunLimit, Sim, SimConfig, StopReason};

    #[test]
    fn fifo_order_preserved() {
        let mut sim = Sim::new(SimConfig::default());
        let q = BoundedQueue::new_in_sim(&mut sim, "q", 4, None);
        let qp = q.clone();
        let _ = sim.fork_root("producer", Priority::DEFAULT, move |ctx| {
            for i in 0..20 {
                qp.put(ctx, i);
            }
            qp.close(ctx);
        });
        let h = sim.fork_root("consumer", Priority::DEFAULT, move |ctx| {
            let mut got = Vec::new();
            while let Some(x) = q.take(ctx) {
                got.push(x);
            }
            got
        });
        let r = sim.run(RunLimit::ToCompletion);
        assert_eq!(r.reason, StopReason::AllExited);
        assert_eq!(
            h.into_result().unwrap().unwrap(),
            (0..20).collect::<Vec<_>>()
        );
    }

    #[test]
    fn capacity_blocks_producer() {
        let mut sim = Sim::new(SimConfig::default());
        let q = BoundedQueue::new_in_sim(&mut sim, "q", 2, None);
        let qp = q.clone();
        let produced_at = sim.fork_root("producer", Priority::DEFAULT, move |ctx| {
            for i in 0..4 {
                qp.put(ctx, i);
            }
            ctx.now()
        });
        let q2 = q.clone();
        let _ = sim.fork_root("slow-consumer", Priority::of(3), move |ctx| {
            for _ in 0..4 {
                ctx.sleep_precise(millis(10));
                q2.take(ctx);
            }
        });
        sim.run(RunLimit::ToCompletion);
        // Producer could only finish after the consumer drained two slots
        // (at 10ms and 20ms).
        let t = produced_at.into_result().unwrap().unwrap();
        assert!(t.as_micros() >= 20_000, "producer finished at {t}");
    }

    #[test]
    fn try_put_and_try_take() {
        let mut sim = Sim::new(SimConfig::default());
        let q = BoundedQueue::new_in_sim(&mut sim, "q", 1, None);
        let h = sim.fork_root("t", Priority::DEFAULT, move |ctx| {
            assert!(q.try_take(ctx).is_none());
            assert!(q.try_put(ctx, 1).is_ok());
            assert_eq!(q.try_put(ctx, 2), Err(2));
            assert_eq!(q.len(ctx), 1);
            assert_eq!(q.try_take(ctx), Some(1));
            assert!(q.is_empty(ctx));
            true
        });
        sim.run(RunLimit::ToCompletion);
        assert!(h.into_result().unwrap().unwrap());
    }

    #[test]
    fn close_wakes_blocked_consumer() {
        let mut sim = Sim::new(SimConfig::default());
        let q: BoundedQueue<u8> = BoundedQueue::new_in_sim(&mut sim, "q", 2, None);
        let qc = q.clone();
        let h = sim.fork_root("consumer", Priority::DEFAULT, move |ctx| qc.take(ctx));
        let _ = sim.fork_root("closer", Priority::of(3), move |ctx| {
            ctx.sleep_precise(millis(5));
            q.close(ctx);
        });
        let r = sim.run(RunLimit::For(secs(2)));
        assert_eq!(r.reason, StopReason::AllExited);
        assert_eq!(h.into_result().unwrap().unwrap(), None);
    }

    #[test]
    fn pipeline_of_pumps() {
        // Three-stage pipeline: source -> double -> stringify -> sink.
        let mut sim = Sim::new(SimConfig::default());
        let a: BoundedQueue<u32> = BoundedQueue::new_in_sim(&mut sim, "a", 8, None);
        let b: BoundedQueue<u32> = BoundedQueue::new_in_sim(&mut sim, "b", 8, None);
        let c: BoundedQueue<String> = BoundedQueue::new_in_sim(&mut sim, "c", 8, None);
        let (a0, a1) = (a.clone(), a);
        let (b0, b1) = (b.clone(), b);
        let (c0, c1) = (c.clone(), c);
        let _ = sim.fork_root("driver", Priority::DEFAULT, move |ctx| {
            spawn_pump(ctx, "double", Priority::DEFAULT, a1, b0, millis(1), |x| {
                Some(x * 2)
            });
            spawn_pump(
                ctx,
                "stringify",
                Priority::DEFAULT,
                b1,
                c0,
                millis(1),
                |x| Some(format!("v{x}")),
            );
            for i in 0..5 {
                a0.put(ctx, i);
            }
            a0.close(ctx);
        });
        let h = sim.fork_root("sink", Priority::DEFAULT, move |ctx| {
            let mut got = Vec::new();
            while let Some(s) = c1.take(ctx) {
                got.push(s);
            }
            got
        });
        let r = sim.run(RunLimit::For(secs(5)));
        assert_eq!(r.reason, StopReason::AllExited);
        assert_eq!(
            h.into_result().unwrap().unwrap(),
            vec!["v0", "v2", "v4", "v6", "v8"]
        );
    }

    #[test]
    fn bulk_ops_round_trip() {
        let mut sim = Sim::new(SimConfig::default());
        let q = BoundedQueue::new_in_sim(&mut sim, "q", 4, None);
        let h = sim.fork_root("t", Priority::DEFAULT, move |ctx| {
            // 6 items into capacity 4: order preserved, tail rejected.
            let rejected = q.try_put_all(ctx, (0..6).collect());
            assert_eq!(rejected, vec![4, 5]);
            assert_eq!(q.take_up_to(ctx, 3), vec![0, 1, 2]);
            assert_eq!(q.take_up_to(ctx, 8), vec![3]);
            assert!(q.try_put_all(ctx, Vec::new()).is_empty());
            q.close(ctx);
            // Closed: everything bounces, takes return empty.
            assert_eq!(q.try_put_all(ctx, vec![9]), vec![9]);
            q.take_up_to(ctx, 4).is_empty()
        });
        sim.run(RunLimit::ToCompletion);
        assert!(h.into_result().unwrap().unwrap());
    }

    #[test]
    fn bulk_put_wakes_parallel_consumers() {
        // One bulk put of 4 items must wake both blocked consumers, not
        // just one (broadcast, not notify).
        let mut sim = Sim::new(SimConfig::default());
        let q: BoundedQueue<u32> = BoundedQueue::new_in_sim(&mut sim, "q", 8, None);
        let mut handles = Vec::new();
        for i in 0..2 {
            let qc = q.clone();
            handles.push(
                sim.fork_root(&format!("c{i}"), Priority::DEFAULT, move |ctx| {
                    let got = qc.take_up_to(ctx, 2);
                    ctx.sleep_precise(millis(1));
                    got.len()
                }),
            );
        }
        let _ = sim.fork_root("producer", Priority::of(3), move |ctx| {
            ctx.sleep_precise(millis(5));
            assert!(q.try_put_all(ctx, vec![1, 2, 3, 4]).is_empty());
        });
        let r = sim.run(RunLimit::For(secs(1)));
        assert_eq!(r.reason, StopReason::AllExited);
        let total: usize = handles
            .into_iter()
            .map(|h| h.into_result().unwrap().unwrap())
            .sum();
        assert_eq!(total, 4, "both consumers must drain a batch");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let mut sim = Sim::new(SimConfig::default());
        let _: BoundedQueue<u8> = BoundedQueue::new_in_sim(&mut sim, "q", 0, None);
    }

    #[test]
    fn put_after_close_rejected() {
        let mut sim = Sim::new(SimConfig::default());
        let q = BoundedQueue::new_in_sim(&mut sim, "q", 2, None);
        let h = sim.fork_root("t", Priority::DEFAULT, move |ctx| {
            q.close(ctx);
            assert!(q.is_closed(ctx));
            !q.put(ctx, 9)
        });
        sim.run(RunLimit::ToCompletion);
        assert!(h.into_result().unwrap().unwrap());
    }
}
