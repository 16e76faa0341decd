//! Slack processes (§4.2, §5.2): pumps that add latency to merge work.
//!
//! A slack process "explicitly adds latency to a pipeline in the hope of
//! reducing the total amount of work done, either by merging input or
//! replacing earlier data with later data before placing it on its
//! output. Slack processes are useful when the downstream consumer of
//! the data incurs high per-transaction costs."
//!
//! The paper's prime example is the buffer thread batching paint
//! requests to the X server (§5.2). Making the slack actually appear is
//! the hard part: the buffer thread must cede the processor so producers
//! can generate more input to merge — and with a high-priority buffer
//! thread, a plain YIELD hands the processor straight back to it. The
//! [`SlackPolicy`] variants reproduce the paper's alternatives: plain
//! YIELD (broken), `YieldButNotToMe` (the fix), and a timeout sleep
//! (works only if the timer granularity is small enough, §6.3).

use pcr::{millis, Guard, Priority, Runtime, SimDuration, ThreadCtx, ThreadId};

use crate::pump::BoundedQueue;

/// How the slack thread cedes the processor to gather more input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlackPolicy {
    /// Act on whatever is queued immediately — no slack at all.
    Immediate,
    /// Plain YIELD before acting. With a buffer thread of higher priority
    /// than its producers the scheduler picks the buffer thread right
    /// back, so no merging happens (§5.2's broken configuration).
    PlainYield,
    /// `YieldButNotToMe` before acting: the producer gets the processor
    /// and the buffer wakes with a full queue to merge (§5.2's fix).
    YieldButNotToMe,
    /// Sleep for the given interval before acting. Subject to the timer
    /// granularity: with PCR's 50 ms tick, a small sleep still wakes only
    /// at the next tick (§6.3).
    SleepTimeout(SimDuration),
    /// Keep absorbing input (yielding with `YieldButNotToMe` between
    /// polls) until the pending batch reaches this many entries, then
    /// emit — a size-triggered flush bounding worst-case batch latency
    /// by production rate rather than by the clock.
    CountThreshold(usize),
}

/// Counters describing what a slack process accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlackStats {
    /// Items taken from the input queue.
    pub items_in: u64,
    /// Batches emitted downstream.
    pub batches_out: u64,
    /// Items eliminated by merging (items_in - items actually emitted).
    pub merged_away: u64,
}

impl SlackStats {
    /// Mean items per emitted batch.
    pub fn merge_ratio(&self) -> f64 {
        if self.batches_out == 0 {
            0.0
        } else {
            self.items_in as f64 / self.batches_out as f64
        }
    }
}

struct SlackShared {
    stats: SlackStats,
    finished: bool,
}

/// A running slack process's shared stats handle.
pub struct SlackHandle<C: Runtime = ThreadCtx> {
    shared: C::Monitor<SlackShared>,
    done: C::Condition,
    tid: ThreadId,
}

impl<C: Runtime> SlackHandle<C> {
    /// Snapshot of the counters.
    pub fn stats(&self, ctx: &C) -> SlackStats {
        let g = ctx.enter(&self.shared);
        g.with(|s| s.stats)
    }

    /// The slack thread's id.
    pub fn tid(&self) -> ThreadId {
        self.tid
    }

    /// Waits until the slack thread has exited (input closed and drained),
    /// re-checking the flag in a loop per the WAIT convention (§5.3).
    pub fn wait_done(&self, ctx: &C) {
        let mut g = ctx.enter(&self.shared);
        g.wait_until(&self.done, |s| s.finished);
    }
}

/// Spawns a slack process.
///
/// It repeatedly takes everything queued on `input`, merges it with
/// `merge` (which folds a new item into the pending batch, returning
/// `true` if the item was absorbed into an existing entry), cedes the
/// processor according to `policy` to let more input accumulate, then
/// hands the batch to `emit` (charged `cost_per_batch`). Exits when the
/// input closes.
#[allow(clippy::too_many_arguments)] // the paper's knobs, spelled out
pub fn spawn_slack<C, T, M, E>(
    ctx: &C,
    name: &str,
    priority: Priority,
    input: BoundedQueue<T, C>,
    policy: SlackPolicy,
    cost_per_batch: SimDuration,
    mut merge: M,
    mut emit: E,
) -> SlackHandle<C>
where
    C: Runtime,
    T: Send + 'static,
    M: FnMut(&mut Vec<T>, T) -> bool + Send + 'static,
    E: FnMut(&C, Vec<T>) + Send + 'static,
{
    let shared = ctx.new_monitor(
        &format!("{name}.stats"),
        SlackShared {
            stats: SlackStats::default(),
            finished: false,
        },
    );
    let done = ctx.new_condition(&shared, &format!("{name}.done"), Some(millis(50)));
    let shared2 = shared.clone();
    let done2 = done.clone();
    let tid = ctx
        .fork_detached_prio(name, priority, move |ctx| {
            loop {
                // Block for the first item of the next batch.
                let Some(first) = input.take(ctx) else { break };
                let mut batch: Vec<T> = Vec::new();
                let (mut taken, mut absorbed) = (0u64, 0u64);
                let mut take_in = |batch: &mut Vec<T>, item| {
                    taken += 1;
                    absorbed += u64::from(merge(batch, item));
                };
                take_in(&mut batch, first);
                // Cede the processor so producers can queue more input.
                match policy {
                    SlackPolicy::Immediate => {}
                    SlackPolicy::PlainYield => ctx.yield_now(),
                    SlackPolicy::YieldButNotToMe => ctx.yield_but_not_to_me(),
                    SlackPolicy::SleepTimeout(d) => ctx.sleep(d),
                    SlackPolicy::CountThreshold(_) => {}
                }
                // Merge whatever accumulated.
                while let Some(item) = input.try_take(ctx) {
                    take_in(&mut batch, item);
                }
                // Size-triggered flushing keeps polling until the batch
                // fills (or the input dries up and closes).
                if let SlackPolicy::CountThreshold(limit) = policy {
                    while batch.len() < limit {
                        match input.try_take(ctx) {
                            Some(item) => take_in(&mut batch, item),
                            None => {
                                if input.is_closed(ctx) {
                                    break;
                                }
                                ctx.yield_but_not_to_me();
                                if input.is_empty(ctx) && input.is_closed(ctx) {
                                    break;
                                }
                            }
                        }
                    }
                }
                ctx.work(cost_per_batch);
                emit(ctx, batch);
                let mut g = ctx.enter(&shared2);
                g.with_mut(|s| {
                    s.stats.items_in += taken;
                    s.stats.batches_out += 1;
                    s.stats.merged_away += absorbed;
                });
            }
            let mut g = ctx.enter(&shared2);
            g.with_mut(|s| s.finished = true);
            g.broadcast(&done2);
        })
        .expect("fork slack process");
    SlackHandle { shared, done, tid }
}

/// A convenience merge function that coalesces items equal under `key`:
/// later data replaces earlier data with the same key (the X-server
/// "merge overlapping paint requests" behaviour).
pub fn merge_by_key<T, K: PartialEq, F: Fn(&T) -> K>(key: F) -> impl FnMut(&mut Vec<T>, T) -> bool {
    move |batch: &mut Vec<T>, item: T| {
        let k = key(&item);
        if let Some(slot) = batch.iter_mut().find(|b| key(b) == k) {
            *slot = item;
            true
        } else {
            batch.push(item);
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr::{secs, Monitor, RunLimit, Sim, SimConfig};

    /// Producer at low priority, slack at high priority: the §5.2 shape.
    fn run_policy(policy: SlackPolicy) -> (SlackStats, u64) {
        let mut sim = Sim::new(SimConfig::default());
        let input: BoundedQueue<(u32, u32)> = BoundedQueue::new_in_sim(&mut sim, "paint", 64, None);
        let produced: Monitor<u64> = sim.monitor("produced", 0);
        let ip = input.clone();
        let pp = produced.clone();
        let _ = sim.fork_root("imaging", Priority::of(3), move |ctx| {
            // 200 paint requests over 20 windows: plenty to merge.
            for i in 0..200u32 {
                ctx.work(pcr::micros(300));
                ip.put(ctx, (i % 20, i));
                let mut g = ctx.enter(&pp);
                g.with_mut(|n| *n += 1);
            }
            ip.close(ctx);
        });
        let h = sim.fork_root("driver", Priority::of(6), move |ctx| {
            let handle = spawn_slack(
                ctx,
                "buffer",
                Priority::of(6),
                input,
                policy,
                pcr::micros(500),
                merge_by_key(|r: &(u32, u32)| r.0),
                |_ctx, _batch| {},
            );
            handle.wait_done(ctx);
            handle.stats(ctx)
        });
        sim.run(RunLimit::For(secs(30)));
        let stats = h.into_result().unwrap().unwrap();
        (stats, 200)
    }

    #[test]
    fn yield_but_not_to_me_merges_far_better_than_plain_yield() {
        let (plain, n) = run_policy(SlackPolicy::PlainYield);
        let (ybntm, _) = run_policy(SlackPolicy::YieldButNotToMe);
        assert_eq!(plain.items_in, n);
        assert_eq!(ybntm.items_in, n);
        // The broken configuration sends roughly one batch per item; the
        // fixed one merges aggressively (paper: ~3x improvement).
        assert!(
            ybntm.batches_out * 3 <= plain.batches_out,
            "plain={} ybntm={}",
            plain.batches_out,
            ybntm.batches_out
        );
        assert!(ybntm.merge_ratio() >= 3.0, "ratio={}", ybntm.merge_ratio());
    }

    #[test]
    fn immediate_policy_still_drains_everything() {
        let (s, n) = run_policy(SlackPolicy::Immediate);
        assert_eq!(s.items_in, n);
        assert!(s.batches_out > 0);
    }

    #[test]
    fn sleep_policy_merges_in_big_bursts() {
        // Sleeping rounds to the 50ms tick: batches are few and large.
        let (s, n) = run_policy(SlackPolicy::SleepTimeout(millis(5)));
        assert_eq!(s.items_in, n);
        assert!(
            s.merge_ratio() >= 10.0,
            "sleep policy should batch heavily, ratio={}",
            s.merge_ratio()
        );
    }

    #[test]
    fn count_threshold_bounds_batch_sizes() {
        let (s, n) = run_policy(SlackPolicy::CountThreshold(5));
        assert_eq!(s.items_in, n);
        // Every batch carries (up to) 5 distinct regions; with 20 regions
        // and 200 requests the threshold forces ≥ n/.. batches but far
        // fewer than one per item.
        // Merging absorbs same-region items, so each 5-region batch
        // carries many requests: a handful of batches, far fewer than
        // one per item, and more than a single all-in-one flush.
        assert!(
            s.batches_out >= 2 && s.batches_out <= 100,
            "batches = {}",
            s.batches_out
        );
        assert!(s.merge_ratio() >= 2.0, "ratio = {}", s.merge_ratio());
    }

    #[test]
    fn merge_by_key_replaces_same_key() {
        let mut merge = merge_by_key(|r: &(u32, u32)| r.0);
        let mut batch = Vec::new();
        assert!(!merge(&mut batch, (1, 10)));
        assert!(!merge(&mut batch, (2, 20)));
        assert!(merge(&mut batch, (1, 30))); // Replaces (1, 10).
        assert_eq!(batch, vec![(1, 30), (2, 20)]);
    }
}
