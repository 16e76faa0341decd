//! The §5.2 slack-process experiment and the §6.3 quantum sweep.
//!
//! An imaging thread produces paint requests; a high-priority buffer
//! thread (the slack process) merges overlapping requests and sends
//! batches to the X server, which has high per-batch costs. The §5.2
//! story: with a plain YIELD the scheduler hands the processor straight
//! back to the high-priority buffer, no merging happens, and the X
//! server does far more work; `YieldButNotToMe` fixes it (the paper
//! reports ~3× better perceived performance). §6.3 adds the twist that
//! the 50 ms quantum is what actually clocks the batching: at 1 s the
//! screen goes bursty, at 1 ms the merging collapses, and a
//! timeout-based buffer works only when the timer granularity (coupled
//! to the quantum) is small.

use pcr::{
    micros, millis, Monitor, Priority, RunLimit, Sim, SimConfig, SimDuration, SimTime, ThreadCtx,
};

use paradigms::pump::BoundedQueue;
use paradigms::slack::{spawn_slack, SlackPolicy};
use serverd::ServerCosts;

/// One paint request: which region, which content version, and when the
/// imaging thread produced it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PaintReq {
    /// Screen region.
    pub region: u32,
    /// Content version (later replaces earlier).
    pub version: u32,
    /// When the request was produced.
    pub produced_at: SimTime,
}

/// Statistics the X server accumulates.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// Batches received.
    pub batches: u64,
    /// Individual requests painted.
    pub requests: u64,
    /// Sum of produce-to-paint latency (µs) across requests.
    pub total_latency_us: u64,
    /// Worst produce-to-paint latency seen (µs).
    pub max_latency_us: u64,
}

impl ServerStats {
    /// Mean produce-to-paint latency.
    pub fn mean_latency(&self) -> SimDuration {
        SimDuration::from_micros(
            self.total_latency_us
                .checked_div(self.requests)
                .unwrap_or(0),
        )
    }

    /// Worst produce-to-paint latency.
    pub fn max_latency(&self) -> SimDuration {
        SimDuration::from_micros(self.max_latency_us)
    }
}

/// The simulated X server: an external process with high per-transaction
/// costs, the reason batching pays (§5.2). A thread consuming batches
/// from a queue, charging [`ServerCosts`] per batch and per request, and
/// recording when each screen region was last painted.
pub struct XServer {
    stats: Monitor<ServerStats>,
}

impl XServer {
    /// Spawns the server thread consuming `batches`.
    pub fn spawn(
        ctx: &ThreadCtx,
        priority: Priority,
        batches: BoundedQueue<Vec<PaintReq>>,
    ) -> XServer {
        let stats = ctx.new_monitor("xserver.stats", ServerStats::default());
        let st = stats.clone();
        let _ = ctx
            .fork_detached_prio("XServer", priority, move |ctx| {
                while let Some(batch) = batches.take(ctx) {
                    ctx.work(ServerCosts::default().batch_cost(batch.len()));
                    let now = ctx.now();
                    let mut g = ctx.enter(&st);
                    g.with_mut(|s| {
                        s.batches += 1;
                        for r in &batch {
                            s.requests += 1;
                            let lat = now.saturating_since(r.produced_at).as_micros();
                            s.total_latency_us += lat;
                            s.max_latency_us = s.max_latency_us.max(lat);
                        }
                    });
                }
            })
            .expect("fork X server");
        XServer { stats }
    }

    /// Snapshot of the server's counters.
    pub fn stats(&self, ctx: &ThreadCtx) -> ServerStats {
        let g = ctx.enter(&self.stats);
        g.with(|s| *s)
    }
}

/// Merges paint requests per region, keeping the latest content but the
/// *earliest* production time, so the measured latency is the region's
/// staleness — how long the user waited to see anything after the region
/// first became dirty. This is what makes a 1-second quantum's painting
/// "very bursty" in the measurements.
fn merge_paint(batch: &mut Vec<PaintReq>, item: PaintReq) -> bool {
    if let Some(slot) = batch.iter_mut().find(|b| b.region == item.region) {
        slot.version = item.version;
        slot.produced_at = slot.produced_at.min(item.produced_at);
        true
    } else {
        batch.push(item);
        false
    }
}

/// Paint requests the imaging thread produces.
const REQUESTS: u32 = 1500;
/// Distinct screen regions (merge targets).
const REGIONS: u32 = 20;
/// Imaging cost per request.
const PRODUCE_COST: SimDuration = micros(300);

/// Configuration of one slack-pipeline run.
#[derive(Clone, Copy, Debug)]
pub struct SlackConfig {
    /// The buffer thread's processor-ceding policy.
    pub policy: SlackPolicy,
    /// Scheduler quantum (timer granularity follows it, as in PCR,
    /// unless decoupled below).
    pub quantum: SimDuration,
    /// Decouple the timer granularity from the quantum (the ablation the
    /// paper implies in §6.3: it is the *granularity* that limits the
    /// timeout-based buffer, and PCR just happened to tie the two).
    pub granularity: Option<SimDuration>,
}

impl Default for SlackConfig {
    fn default() -> Self {
        SlackConfig {
            policy: SlackPolicy::YieldButNotToMe,
            quantum: millis(50),
            granularity: None,
        }
    }
}

/// What one run measured.
#[derive(Clone, Copy, Debug)]
pub struct SlackOutcome {
    /// The policy that ran.
    pub policy: SlackPolicy,
    /// The quantum it ran under.
    pub quantum: SimDuration,
    /// Requests produced (all `REQUESTS` of them when drained).
    pub produced: u64,
    /// Batches the X server received.
    pub server_batches: u64,
    /// Requests the X server painted (after merging).
    pub server_requests: u64,
    /// Mean requests merged per batch (items in / batches out).
    pub merge_ratio: f64,
    /// Thread switches during the run.
    pub switches: u64,
    /// Virtual time from first production to last paint — the
    /// user-visible completion time.
    pub completion: SimDuration,
    /// Mean produce-to-paint latency.
    pub mean_latency: SimDuration,
    /// Worst produce-to-paint latency (burstiness: ~1 s at a 1 s
    /// quantum).
    pub max_latency: SimDuration,
}

/// Runs the §5.2 pipeline under the given configuration.
pub fn run_slack(cfg: SlackConfig) -> SlackOutcome {
    let mut sim_cfg = SimConfig::default().with_quantum(cfg.quantum).with_seed(42);
    if let Some(g) = cfg.granularity {
        sim_cfg = sim_cfg.with_timer_granularity(g);
    }
    let mut sim = Sim::new(sim_cfg);
    let paint_q: BoundedQueue<PaintReq> = BoundedQueue::new_in_sim(&mut sim, "paint", 4096, None);
    let batch_q: BoundedQueue<Vec<PaintReq>> =
        BoundedQueue::new_in_sim(&mut sim, "batch", 256, None);

    // Imaging thread: low priority (§5.2: "the buffer thread is a higher
    // priority thread than the image threads that feed it").
    let pq = paint_q.clone();
    let _ = sim.fork_root("imaging", Priority::of(3), move |ctx| {
        for i in 0..REQUESTS {
            ctx.work(PRODUCE_COST);
            pq.put(
                ctx,
                PaintReq {
                    region: i % REGIONS,
                    version: i,
                    produced_at: ctx.now(),
                },
            );
        }
        pq.close(ctx);
    });

    // Driver: spawns the buffer (slack, priority 6) and the server, then
    // waits for everything to drain.
    let policy = cfg.policy;
    let bq = batch_q.clone();
    let h = sim.fork_root("driver", Priority::of(7), move |ctx| {
        let server = XServer::spawn(ctx, Priority::of(5), batch_q.clone());
        let out_q = batch_q.clone();
        let slack = spawn_slack(
            ctx,
            "buffer",
            Priority::of(6),
            paint_q,
            policy,
            micros(200),
            merge_paint,
            move |ctx, batch| {
                if !batch.is_empty() {
                    out_q.put(ctx, batch);
                }
            },
        );
        slack.wait_done(ctx);
        bq.close(ctx);
        // Let the server drain: every batch the slack process emitted
        // must have been painted.
        let emitted = slack.stats(ctx).batches_out;
        while server.stats(ctx).batches < emitted {
            ctx.sleep_precise(millis(5));
        }
        let stats = server.stats(ctx);
        let slack_stats = slack.stats(ctx);
        (stats, slack_stats, ctx.now())
    });
    let report = sim.run(RunLimit::For(pcr::secs(120)));
    assert!(!report.deadlocked(), "slack pipeline deadlocked");
    let (server_stats, slack_stats, done_at) = h
        .into_result()
        .expect("driver finished")
        .expect("driver ok");
    SlackOutcome {
        policy: cfg.policy,
        quantum: cfg.quantum,
        produced: slack_stats.items_in,
        server_batches: server_stats.batches,
        server_requests: server_stats.requests,
        merge_ratio: slack_stats.merge_ratio(),
        switches: sim.stats().switches,
        completion: done_at.saturating_since(SimTime::ZERO),
        mean_latency: server_stats.mean_latency(),
        max_latency: server_stats.max_latency(),
    }
}

/// The §5.2 comparison: plain YIELD vs `YieldButNotToMe` at the standard
/// 50 ms quantum.
pub fn yield_comparison() -> (SlackOutcome, SlackOutcome) {
    let base = SlackConfig::default();
    let plain = run_slack(SlackConfig {
        policy: SlackPolicy::PlainYield,
        ..base
    });
    let fixed = run_slack(SlackConfig {
        policy: SlackPolicy::YieldButNotToMe,
        ..base
    });
    (plain, fixed)
}

/// Ablation: keep the 50 ms quantum but decouple the timer granularity.
/// The timeout-based buffer's latency tracks the *granularity*, showing
/// that §6.3's "20 ms quantum would work fine" is really about the tick
/// PCR tied to it.
pub fn granularity_ablation() -> Vec<(SimDuration, SlackOutcome)> {
    [millis(50), millis(10), millis(5)]
        .into_iter()
        .map(|g| {
            let out = run_slack(SlackConfig {
                policy: SlackPolicy::SleepTimeout(millis(5)),
                quantum: millis(50),
                granularity: Some(g),
            });
            (g, out)
        })
        .collect()
}

/// The §6.3 quantum sweep: the same pipeline at 1 ms, 20 ms, 50 ms and
/// 1 s quanta, for both `YieldButNotToMe` and a timeout-based buffer.
pub fn quantum_sweep() -> Vec<SlackOutcome> {
    let mut out = Vec::new();
    for quantum in [millis(1), millis(20), millis(50), millis(1000)] {
        for policy in [
            SlackPolicy::YieldButNotToMe,
            SlackPolicy::SleepTimeout(millis(5)),
        ] {
            out.push(run_slack(SlackConfig {
                policy,
                quantum,
                ..SlackConfig::default()
            }));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_charges_batch_and_request_costs() {
        let mut sim = Sim::new(SimConfig::default());
        let q: BoundedQueue<Vec<PaintReq>> = BoundedQueue::new_in_sim(&mut sim, "b", 8, None);
        let q2 = q.clone();
        let h = sim.fork_root("driver", Priority::of(5), move |ctx| {
            let server = XServer::spawn(ctx, Priority::of(4), q2);
            let t0 = ctx.now();
            for i in 0..3 {
                q.put(
                    ctx,
                    vec![PaintReq {
                        region: i,
                        version: 1,
                        produced_at: t0,
                    }],
                );
            }
            q.close(ctx);
            ctx.sleep_precise(millis(100));
            server.stats(ctx)
        });
        sim.run(RunLimit::For(pcr::secs(2)));
        let stats = h.into_result().unwrap().unwrap();
        assert_eq!(stats.batches, 3);
        assert_eq!(stats.requests, 3);
        // Each single-request batch costs ~2.15ms; the LAST one finishes
        // ~6.5ms after production.
        assert!(stats.max_latency() >= millis(6));
        assert!(stats.mean_latency() >= millis(2));
    }

    #[test]
    fn yield_but_not_to_me_beats_plain_yield_by_3x() {
        let (plain, fixed) = yield_comparison();
        assert_eq!(plain.produced, fixed.produced);
        // The fix merges far better...
        assert!(
            fixed.merge_ratio >= 3.0 * plain.merge_ratio.max(1.0),
            "merge ratios: plain {} fixed {}",
            plain.merge_ratio,
            fixed.merge_ratio
        );
        // ...sends far fewer batches to the server...
        assert!(
            fixed.server_batches * 3 <= plain.server_batches,
            "batches: plain {} fixed {}",
            plain.server_batches,
            fixed.server_batches
        );
        // ...switches threads less...
        assert!(
            fixed.switches < plain.switches,
            "switches: plain {} fixed {}",
            plain.switches,
            fixed.switches
        );
        // ...and completes the whole paint job ~3x sooner (the paper's
        // "three-fold performance improvement").
        assert!(
            fixed.completion.as_micros() * 2 <= plain.completion.as_micros(),
            "completion: plain {} fixed {}",
            plain.completion,
            fixed.completion
        );
    }

    #[test]
    fn one_second_quantum_is_bursty() {
        let slow = run_slack(SlackConfig {
            quantum: millis(1000),
            ..SlackConfig::default()
        });
        // "X events would be buffered for one second before being sent
        // and the user would observe very bursty screen painting."
        let normal = run_slack(SlackConfig::default());
        assert!(
            slow.max_latency >= millis(300),
            "max staleness {} not bursty",
            slow.max_latency
        );
        assert!(
            slow.max_latency.as_micros() >= 5 * normal.max_latency.as_micros(),
            "staleness: 1s quantum {} vs 50ms {}",
            slow.max_latency,
            normal.max_latency
        );
    }

    #[test]
    fn one_millisecond_quantum_defeats_merging() {
        let tiny = run_slack(SlackConfig {
            quantum: millis(1),
            ..SlackConfig::default()
        });
        let normal = run_slack(SlackConfig::default());
        // "If the quantum were 1 millisecond ... we would be back to the
        // start of our problems again."
        assert!(
            tiny.merge_ratio * 2.0 <= normal.merge_ratio,
            "merge: 1ms {} vs 50ms {}",
            tiny.merge_ratio,
            normal.merge_ratio
        );
    }

    #[test]
    fn decoupled_granularity_frees_the_timeout_buffer() {
        // Same 50ms quantum; shrinking only the timer granularity makes
        // the timeout-based buffer snappy — the knob §6.3 is really about.
        let abl = granularity_ablation();
        let at = |g: SimDuration| {
            abl.iter()
                .find(|(gg, _)| *gg == g)
                .map(|(_, o)| o.mean_latency)
                .unwrap()
        };
        assert!(
            at(millis(5)) < at(millis(50)),
            "5ms tick {} should beat 50ms tick {}",
            at(millis(5)),
            at(millis(50))
        );
        assert!(at(millis(10)) <= at(millis(50)));
    }

    #[test]
    fn timeout_buffer_works_at_20ms_quantum() {
        // "If the scheduler quantum were 20 milliseconds, using a timeout
        // instead of a yield in the buffer thread would work fine."
        let at50 = run_slack(SlackConfig {
            policy: SlackPolicy::SleepTimeout(millis(5)),
            quantum: millis(50),
            ..SlackConfig::default()
        });
        let at20 = run_slack(SlackConfig {
            policy: SlackPolicy::SleepTimeout(millis(5)),
            quantum: millis(20),
            ..SlackConfig::default()
        });
        // Finer granularity: snappier painting with merging intact.
        assert!(
            at20.mean_latency < at50.mean_latency,
            "latency: 20ms {} vs 50ms {}",
            at20.mean_latency,
            at50.mean_latency
        );
        assert!(at20.merge_ratio >= 2.0, "20ms merge {}", at20.merge_ratio);
    }
}
